#ifndef SETREC_ALGEBRAIC_PARALLEL_H_
#define SETREC_ALGEBRAIC_PARALLEL_H_

#include <span>
#include <unordered_map>

#include "algebraic/algebraic_method.h"
#include "core/exec_options.h"
#include "relational/evaluator.h"

namespace setrec {

/// Name of the receiver-set relation of Section 6, with scheme
/// self arg1 ... argk.
inline constexpr const char kRecRelation[] = "rec";

/// The scheme of `rec` for a signature: attributes self, arg1, ..., argk
/// with the signature's class domains.
Result<RelationScheme> RecScheme(const MethodSignature& signature);

/// The `rec` relation over `scheme` (see RecScheme) holding one tuple per
/// receiver: the receiving object followed by the arguments.
Result<Relation> RecRelation(const RelationScheme& scheme,
                             std::span<const Receiver> receivers);

/// The catalog against which par(E) expressions type-check: the method
/// catalog minus the singleton receiver relations, plus `rec`.
Result<Catalog> ParCatalog(const MethodContext& context);

/// The par(E) rewriting (Definition 6.1): produces a relational algebra
/// expression over the object relations plus `rec` such that
/// par(E)(I, T) = ∪_{t∈T} {t(self)} × E(I, t) whenever T is a key set
/// (Lemma 6.7). The result scheme is self followed by E's other attributes.
///
/// Definition 6.1 threads a copy of the receiving object through every
/// operator — each object relation R becomes π_self(rec) × R — so a table
/// that does not depend on the receiver is rebuilt once per receiver. This
/// rewrite leaves every subterm C that mentions neither self nor any arg_i
/// untouched instead:
///   * self becomes π_self(rec), arg_i becomes π_{self,arg_i}(rec);
///   * par(E1 × C) = par(E1) × C, with the σ-chain over the product put
///     back directly on top (the join stays fused) and C on the build side,
///     reordered by a projection above the chain when C was the left
///     operand;
///   * a product of two receiver-dependent sides becomes a natural join on
///     self; projections over them retain self;
///   * C lifts to π_self(rec) × C — which is literal par(C) — only where it
///     meets a receiver-dependent side of a union or difference, or at the
///     root.
/// By induction the result denotes the same relation as the literal
/// Definition 6.1 rewrite for every receiver set, key set or not (the
/// differential tests pin this). Shared subterms stay shared. Renaming self
/// is not supported (and never needed — the attribute is reserved).
Result<ExprPtr> ParTransform(const ExprPtr& expr, const MethodContext& context);

/// Parallel application M_par(I, T) (Definition 6.2): instantiates rec with
/// the whole receiver set at once, evaluates one par(E) expression per
/// statement, and replaces, for every receiving object occurring in T, its
/// a-edges by the objects par(E) links to it. Every receiver must be valid
/// over `instance`. Duplicate receivers are deduplicated (T is a set).
/// The par(E) evaluations and the edge-replacement loops run under the
/// options' context (row/memory budgets apply to the joins the rewriting
/// introduces), on the options' backend.
///
/// Evaluation starts with a prepare step on the calling thread, at every
/// worker count: an evaluator bound to the whole receiver set evaluates
/// once every subterm that does not scan rec (the receiver-free subterms
/// ParTransform left untouched) and builds once the hash table of every
/// fused join whose build side does not scan rec, and latches the kAuto
/// backend on the full inputs. It then fans out: the receiver set is
/// partitioned into contiguous shards of the canonical enumeration (at most
/// options.num_workers, never splitting receivers that share a receiving
/// object), evaluated concurrently on options.pool (a transient pool of
/// num_workers threads when null), each charging a Fork() of the context so
/// budgets hold exactly across the fan-out. A shard evaluates only what
/// scans rec, on the prepared backend, and reads the hoisted results and
/// builds read-only, as it reads the encoded instance. Every operator that
/// scans rec acts slice-wise on `self` (leaves restrict rec by self, joins
/// match on self, projections retain self), so the shards compute exactly
/// the self-slices of their receivers: results and logical counters are
/// independent of the worker count, which the determinism tests pin down
/// bit-for-bit. Edge replacements are merged in canonical receiver order on
/// the calling thread.
Result<Instance> ParallelApply(const AlgebraicUpdateMethod& method,
                               const Instance& instance,
                               std::span<const Receiver> receivers,
                               const ExecOptions& options = {});

/// ParallelApply's evaluation phase on its own, for EXPLAIN ANALYZE:
/// evaluates `pipelines` (ParTransform of each statement of `method`) over
/// `instance` with rec = `receivers`, through the same prepare step and
/// fan-out, and applies nothing. `stats` (may be null) receives the prepare
/// step's and every shard's per-node statistics, merged on the calling
/// thread; their logical fields do not depend on options.num_workers.
Status EvaluateParPipelines(
    const AlgebraicUpdateMethod& method, const Instance& instance,
    std::span<const Receiver> receivers, std::span<const ExprPtr> pipelines,
    const ExecOptions& options,
    std::unordered_map<const Expr*, EvalNodeStats>* stats);

}  // namespace setrec

#endif  // SETREC_ALGEBRAIC_PARALLEL_H_
