#ifndef SETREC_TESTS_PAR_LITERAL_H_
#define SETREC_TESTS_PAR_LITERAL_H_

#include <span>

#include "algebraic/update_expression.h"
#include "core/exec_backend.h"
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

}  // namespace setrec

#endif  // SETREC_TESTS_PAR_LITERAL_H_
