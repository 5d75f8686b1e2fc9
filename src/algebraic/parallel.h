#ifndef SETREC_ALGEBRAIC_PARALLEL_H_
#define SETREC_ALGEBRAIC_PARALLEL_H_

#include <span>

#include "algebraic/algebraic_method.h"
#include "core/exec_options.h"

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
/// (Lemma 6.7). The rewriting keeps a copy of the receiving object threaded
/// through the whole evaluation:
///   * every object relation R becomes π_self(rec) × R;
///   * self becomes π_self(rec), arg_i becomes π_{self,arg_i}(rec);
///   * every projection also retains self;
///   * every Cartesian product becomes a natural join on self.
/// The result scheme is E's scheme with self prepended. Renaming self is
/// not supported (and never needed — the attribute is reserved).
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
/// With options.num_workers > 1, the receiver set is partitioned into
/// contiguous shards of the canonical enumeration — never splitting
/// receivers that share a receiving object — and the par(E) pipelines of
/// the shards are evaluated concurrently on options.pool (a transient pool
/// of num_workers threads when null), each charging a Fork() of the context
/// so budgets hold exactly across the fan-out. Every par(E) operator acts
/// slice-wise on the reserved `self` attribute (leaves restrict rec by
/// self, products join on self, projections retain self), so a shard
/// computes exactly the self-slices of its receivers and the merged result
/// is *identical* to the single-shard evaluation — results are
/// deterministic and independent of worker count, which the determinism
/// tests pin down bit-for-bit. Edge replacements are merged in canonical
/// receiver order on the calling thread. On success the delta is published
/// to options.view_cache, if any.
Result<Instance> ParallelApply(const AlgebraicUpdateMethod& method,
                               const Instance& instance,
                               std::span<const Receiver> receivers,
                               const ExecOptions& options = {});

}  // namespace setrec

#endif  // SETREC_ALGEBRAIC_PARALLEL_H_
