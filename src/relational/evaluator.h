#ifndef SETREC_RELATIONAL_EVALUATOR_H_
#define SETREC_RELATIONAL_EVALUATOR_H_

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/exec_backend.h"
#include "core/exec_context.h"
#include "core/exec_options.h"
#include "relational/expression.h"
#include "relational/plan.h"
#include "relational/relation.h"

namespace setrec {

namespace vectorized {
class Engine;
}  // namespace vectorized

/// Per-expression-node execution statistics, filled in when a sink map is
/// attached to the evaluator (the EXPLAIN ANALYZE path). Keyed by node
/// identity (`const Expr*`), matching the evaluator's memo cache: a node
/// evaluated once and reused records one evaluation plus cache_hits.
/// All fields are *logical* counts except wall_ns — they are identical on
/// every backend and at any worker count, because join probes are counted
/// as probe-side tuples.
struct EvalNodeStats {
  std::uint64_t rows = 0;        // output rows of this node
  std::uint64_t build_rows = 0;  // hash-join build-side insertions
  std::uint64_t probe_rows = 0;  // hash-join probe-side tuples probed
  std::uint64_t cache_hits = 0;  // memo hits for this node
  std::uint64_t wall_ns = 0;     // time in this node, children included
  // Which backend computed this node: "interpreter" (tuple-at-a-time tree
  // walk), "vectorized" (columnar batch operator) or "bytecode" (fused
  // σ-chain compiled into the flat-program hash join). Purely descriptive —
  // every logical field above is backend-invariant. Static strings only.
  const char* backend = "interpreter";
};

/// Evaluates relational algebra expressions against a Database. The
/// evaluator memoizes results per expression node, so DAG-shaped expressions
/// (as produced by the Theorem 5.6 substitution and the par(E) rewriting)
/// evaluate each shared subexpression once. An Evaluator is bound to one
/// database snapshot; create a fresh one after any mutation.
///
/// Evaluation is governed by `ctx`: every join/product output row is charged
/// against the row budget and every materialized tuple against the memory
/// cap, so a runaway Cartesian product fails fast with kResourceExhausted
/// instead of exhausting the machine.
class Evaluator {
 public:
  /// kAuto picks the vectorized backend only when the referenced base
  /// relations hold at least this many rows in total: below it, transposing
  /// inputs into columns costs more than batching saves.
  static constexpr std::size_t kAutoVectorizeInputRows = 4096;

  /// Resolves ExecOptions (context, observability sinks, backend) for the
  /// evaluator's lifetime. The scope is held by the evaluator, so a
  /// borrowed context is restored when the evaluator is destroyed. The
  /// backend is fixed here: kAuto latches on the first Eval so that every
  /// expression this evaluator touches runs under one backend — the memo
  /// cache, and therefore the cache-hit counters, have one semantic domain.
  ///
  /// A `parent` is a frozen evaluator that has run Hoist: this evaluator
  /// takes the parent's memoized results and join builds instead of
  /// recomputing them, and runs on the backend the parent latched
  /// (options.backend is ignored). `database` must agree with the parent's
  /// on every relation outside the hoist's varying set; the varying ones
  /// may hold anything of the same scheme. Children read the parent without
  /// locks, from any thread, so the parent must outlive them and must not
  /// evaluate anything while they exist.
  explicit Evaluator(const Database* database, const ExecOptions& options = {},
                     const Evaluator* parent = nullptr);

  // Constructors and destructor are out of line: the vectorized engine
  // member is incomplete here.
  ~Evaluator();

  /// Evaluates `expr`: plans it (Plan::Build against the bound database,
  /// so type errors are InferScheme's and surface before any work) and
  /// executes the plan. Returns a copy of the memoized result; callers that
  /// only read should prefer EvalShared. A well-typed `expr` is kept alive
  /// until the evaluator is destroyed, so a temporary may be passed.
  Result<Relation> Eval(const ExprPtr& expr);

  /// Evaluates `expr` and returns the memoized result behind shared
  /// immutable storage: repeat evaluations of the same node (and leaf
  /// relations, which alias the bound Database's storage) cost a hash
  /// lookup plus a refcount bump, never a deep copy.
  Result<std::shared_ptr<const Relation>> EvalShared(const ExprPtr& expr);

  /// The prepare step of repeated evaluations in which only the relations
  /// in `varying` change: plans `expr` and computes what Plan::Hoist finds
  /// can be computed once — every maximal subterm that scans no `varying`
  /// relation, and the hash table of every fused join that scans them on
  /// its probe (left) side only. Children of this evaluator then compute
  /// only what scans `varying`, each against its own contents of those
  /// relations. A fan-out over slices of `rec` passes {rec}, so the
  /// logical counters of the parent plus its children do not depend on how
  /// rec was sliced; a receiver sequence passes the receiver relations and
  /// the relations its method writes. Latches kAuto on this evaluator's
  /// inputs.
  Status Hoist(const ExprPtr& expr, const std::set<std::string>& varying);

  /// Attaches a per-node statistics sink (borrowed; may be null to detach).
  /// While attached, every Eval records output rows, join build/probe
  /// counts, memo hits and wall time per expression node — the raw material
  /// for EXPLAIN ANALYZE. Adds a map lookup per node evaluation, nothing on
  /// the per-tuple path.
  void set_node_stats(std::unordered_map<const Expr*, EvalNodeStats>* sink) {
    node_stats_ = sink;
  }

 private:
  /// Memoized execution of one plan node, keyed by its origin expression.
  Result<std::shared_ptr<const Relation>> Exec(const Plan& plan,
                                               const Plan::Node& node);
  Result<std::shared_ptr<const Relation>> ExecUncached(const Plan& plan,
                                                       const Plan::Node& node);
  Result<Relation> Operate(const Plan& plan, const Plan::Node& node);

  /// A fused σ-chain over a product, executed as a hash join instead of
  /// materializing the product. The paper's expressions are built almost
  /// exclusively from theta-joins (σ_{aθb}(l × r)), and the par(E)
  /// rewriting joins receiver-dependent sides on self, so without fusion
  /// intermediate results grow with the square of the receiver-set size.
  /// The build side comes from Hoist (here or in the parent) when one was
  /// made for this join.
  Result<Relation> ExecJoin(const Plan& plan, const Plan::Node& node);

  /// A fused join's hash table over its filtered right (build) side, keyed
  /// by the join attributes. Points into `right`, which it keeps alive.
  struct JoinIndex {
    std::shared_ptr<const Relation> right;
    std::unordered_map<Tuple, std::vector<const Tuple*>, TupleHash> index;
  };
  std::shared_ptr<const JoinIndex> BuildIndex(
      const Plan::Node& node, std::shared_ptr<const Relation> right);

  /// Whether `plan` should run on the compiled vectorized backend. Forced
  /// backends answer directly (kVectorized still requires coverage); kAuto
  /// latches its cost decision on the first call: vectorization wins once
  /// the plan's base relations hold kAutoVectorizeInputRows rows.
  bool UseVectorized(const Plan& plan);

  /// The compiled backend, built on first use (a child's engine reads the
  /// parent's).
  vectorized::Engine& engine();

  const Database* database_;
  const Evaluator* parent_;
  ExecScope scope_;
  ExecContext* ctx_;
  ExecBackend backend_;
  std::optional<bool> auto_vectorize_;  // kAuto decision, latched
  std::unique_ptr<vectorized::Engine> engine_;  // lazily built
  // Both memos (cache_ and the engine's) are keyed by node address, so every
  // evaluated root is pinned for the evaluator's lifetime: otherwise a later
  // expression allocated at a freed temporary's address would be served the
  // temporary's result.
  std::unordered_set<ExprPtr> roots_;
  std::unordered_map<const Expr*, std::shared_ptr<const Relation>> cache_;
  // Join builds made by Hoist, keyed like cache_ by the join's origin.
  std::unordered_map<const Expr*, std::shared_ptr<const JoinIndex>> builds_;
  std::unordered_map<const Expr*, EvalNodeStats>* node_stats_ = nullptr;
};

/// One-shot evaluation: backend selection, governing context and
/// observability sinks all arrive through `options` (a default-constructed
/// ExecOptions means permissive, unobserved, kAuto backend).
Result<Relation> Evaluate(const ExprPtr& expr, const Database& database,
                          const ExecOptions& options = {});

}  // namespace setrec

#endif  // SETREC_RELATIONAL_EVALUATOR_H_
