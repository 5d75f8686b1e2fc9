#ifndef SETREC_OBS_EXPLAIN_H_
#define SETREC_OBS_EXPLAIN_H_

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "algebraic/algebraic_method.h"
#include "core/exec_options.h"
#include "core/instance.h"
#include "core/receiver.h"
#include "obs/metrics.h"
#include "relational/expression.h"
#include "relational/relation.h"
#include "relational/schema.h"

namespace setrec {

/// One operator of a rendered plan. The tree mirrors what the evaluator
/// *executes*, not the raw syntax tree: a σ-chain over a Cartesian product
/// renders as the single HashJoin the evaluator fuses it into (with the
/// chain's conditions classified into keys and filters), because that is
/// the operator whose build/probe counts ANALYZE reports.
struct PlanNode {
  std::string op;      // "Scan Df", "HashJoin", "Project", "Union", ...
  std::string detail;  // operator-specific annotation (keys, filters, attrs)
  std::string scheme;  // rendered output scheme, e.g. "(self, f)"

  /// Execution statistics, meaningful only when `analyzed` (EXPLAIN
  /// ANALYZE). All counts except wall_ns are logical — identical at any
  /// worker count (see EvalNodeStats).
  bool analyzed = false;
  std::uint64_t actual_rows = 0;  // output rows
  std::uint64_t build_rows = 0;   // hash-join build-side insertions
  std::uint64_t probe_rows = 0;   // hash-join probe-side tuples
  std::uint64_t cache_hits = 0;   // memo hits (DAG-shaped expressions)
  std::uint64_t wall_ns = 0;      // inclusive wall time
  /// Which backend computed this operator on the analyzed run:
  /// "interpreter", "vectorized" or "bytecode" (see EvalNodeStats::backend).
  /// Empty for plain EXPLAIN and for synthetic (non-evaluator) nodes.
  std::string backend;

  /// par(E) operators only (empty elsewhere): where ParallelApply evaluates
  /// the operator — "once" (it does not scan rec: hoisted into the prepare
  /// step before the shard fan-out), "per shard", or "per shard, build
  /// once" (a join probed per shard whose build side was hoisted).
  std::string eval;

  std::vector<PlanNode> children;
};

/// A rendered EXPLAIN / EXPLAIN ANALYZE plan: one or more operator trees
/// (multi-phase statements render one root per phase) plus, for ANALYZE,
/// the logical engine counters the run charged.
struct ExplainPlan {
  std::string title;
  bool analyzed = false;
  std::vector<PlanNode> roots;
  /// Logical (worker-invariant) engine counters charged by the analyzed
  /// run; empty for plain EXPLAIN. See LogicalCounterNames().
  std::map<std::string, std::uint64_t> counters;

  /// pgsql-style indented text. Deterministic for plain EXPLAIN (golden
  /// tests pin it); ANALYZE lines carry wall times and are not golden.
  std::string ToText() const;
  /// One-line JSON object (strings escaped per obs/json_escape.h).
  std::string ToJson() const;
};

/// The engine counters that are *logical*: bit-identical at any worker
/// count for a deterministic run. Everything else the registry holds
/// (partition counts, shard counts, cache/wal/store traffic) depends on
/// scheduling and is deliberately excluded.
const std::vector<std::string>& LogicalCounterNames();

/// Filters a registry snapshot down to LogicalCounterNames().
std::map<std::string, std::uint64_t> LogicalCounters(
    const MetricsRegistry& metrics);

/// EXPLAIN: renders the operator tree of `expr` with output schemes
/// type-checked against `catalog`. Fails where InferScheme would.
Result<ExplainPlan> ExplainExpression(const ExprPtr& expr,
                                      const Catalog& catalog);

/// EXPLAIN ANALYZE: takes the read the way the server's query path does.
/// When options.view_cache can serve `expr` (CachedRead: a governance stop
/// propagates, any other cache error falls back), the plan is one ViewRead
/// node with the read's rows and wall time and no operator children — no
/// operator ran — and `database` is never called. Otherwise evaluates
/// `expr` against the database `database()` makes (a caller holding one
/// passes `[&] { return db; }`; the server snapshots and encodes only
/// here) under the options' sinks and annotates every operator with actual
/// rows, join build/probe counts, memo hits and wall time. When the
/// effective context has no metrics registry, a private one is used, so
/// `counters` is always populated.
Result<ExplainPlan> ExplainExpressionAnalyze(
    const ExprPtr& expr, const std::function<Result<Database>()>& database,
    const ExecOptions& options = {});

/// EXPLAIN [ANALYZE] for the Section 7 set-oriented UPDATE: renders the
/// two-phase pipeline — the receiver query evaluated against the
/// pre-statement state, then the key-order independent `a := arg1`
/// application. ANALYZE runs SetOrientedUpdateInPlace's own phase one,
/// ComputeUpdateReceivers (sql/engine.h): from options.view_cache when it
/// can serve the query, rendered as a cache read with its rows and wall
/// time and no operator children; otherwise on options.backend with a
/// statistics-collecting evaluator. It then runs
/// the statement's own phase two (ApplyAssignToKeySet, sql/engine.h) on a
/// scratch copy; `instance` is never mutated, and the counters equal those
/// SetOrientedUpdateInPlace charges on the same input and an identically
/// primed cache.
Result<ExplainPlan> ExplainSetOrientedUpdate(const Instance& instance,
                                             PropertyId property,
                                             const ExprPtr& receiver_query,
                                             bool analyze,
                                             const ExecOptions& options = {});

/// EXPLAIN [ANALYZE] for parallel application: renders the par(E) pipeline
/// of every statement of `method` (ParTransform) over the `rec` receiver
/// relation, marking each operator as evaluated once (hoisted before the
/// fan-out) or per shard. ANALYZE runs ParallelApply's own prepare step and
/// fan-out (EvaluateParPipelines) with rec = `receivers` over `instance`, at
/// options.num_workers, and merges the shards' statistics — the logical
/// counts equal any worker count's, which is the determinism guarantee the
/// tests pin.
Result<ExplainPlan> ExplainParallelApply(const AlgebraicUpdateMethod& method,
                                         const Instance& instance,
                                         std::span<const Receiver> receivers,
                                         bool analyze,
                                         const ExecOptions& options = {});

}  // namespace setrec

#endif  // SETREC_OBS_EXPLAIN_H_
