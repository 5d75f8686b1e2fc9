#ifndef SETREC_TESTS_PAR_LITERAL_H_
#define SETREC_TESTS_PAR_LITERAL_H_

#include <cstdint>
#include <span>
#include <string>

#include "algebraic/algebraic_method.h"
#include "algebraic/update_expression.h"
#include "core/exec_backend.h"
#include "core/exec_context.h"
#include "core/instance.h"
#include "core/receiver.h"
#include "relational/expression.h"
#include "relational/relation.h"

namespace setrec {

/// Definition 6.1 applied literally — the differential oracle for the
/// hoisting ParTransform (algebraic/parallel.h). It keeps a copy of the
/// receiving object threaded through every operator:
///   * every object relation R becomes π_self(rec) × R;
///   * self becomes π_self(rec), arg_i becomes π_{self,arg_i}(rec);
///   * every projection also retains self;
///   * every Cartesian product becomes a natural join on self.
/// For a receiver-free subterm C this gives π_self(rec) × C, which is what
/// the hoisting rewrite lifts C to where it must; by induction the two
/// rewrites denote the same relation for every receiver set, key set or
/// not. Test-only: it rebuilds every receiver-free table once per receiver.
Result<ExprPtr> LiteralParTransform(const ExprPtr& expr,
                                    const MethodContext& context);

/// Evaluates a par(E) expression (either rewrite) over `instance` plus
/// rec = `receivers` on one evaluator of `backend`, as a plain relation.
Result<Relation> EvaluateParOver(const ExprPtr& par_expr,
                                 const Instance& instance,
                                 const MethodContext& context,
                                 std::span<const Receiver> receivers,
                                 ExecBackend backend = ExecBackend::kAuto);

/// M(I, t1 ... tn) step by step from scratch — the differential oracle for
/// the maintained encoding of AlgebraicUpdateMethod::FoldSequence. Each
/// step runs the sequence's guard (a "sequential/receiver" checkpoint and
/// "sequence is undefined" unless the receiver is valid over the
/// intermediate instance), re-encodes the whole intermediate instance
/// (EncodeInstance), installs the receiver relations, evaluates every
/// statement on a fresh Evaluator of `backend` under `ctx`, and replaces
/// the receiving object's edges in a copy. Test-only: Θ(n·|I|).
Result<Instance> LiteralApplySequence(
    const AlgebraicUpdateMethod& method, const Instance& instance,
    std::span<const Receiver> sequence,
    ExecBackend backend = ExecBackend::kAuto,
    ExecContext& ctx = ExecContext::Default());

/// Runs ApplySequence against LiteralApplySequence on `receivers` in three
/// orders (as given, reversed, and shuffled by `seed`) at both forced
/// backends. Empty when every pair agrees — the same instance, or the same
/// status code and message — else a description of the first mismatch.
std::string SequenceMismatch(const AlgebraicUpdateMethod& method,
                             const Instance& instance,
                             std::span<const Receiver> receivers,
                             std::uint64_t seed);

}  // namespace setrec

#endif  // SETREC_TESTS_PAR_LITERAL_H_
