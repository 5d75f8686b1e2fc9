#include "obs/explain.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "algebraic/method_library.h"
#include "algebraic/parallel.h"
#include "incremental/view_cache.h"
#include "obs/json_escape.h"
#include "objrel/encoding.h"
#include "relational/evaluator.h"
#include "relational/plan.h"
#include "sql/engine.h"

namespace setrec {

namespace {

std::string RenderScheme(const RelationScheme& scheme) {
  std::string out = "(";
  for (std::size_t i = 0; i < scheme.arity(); ++i) {
    if (i > 0) out += ", ";
    out += scheme.attribute(i).name;
  }
  out += ")";
  return out;
}

/// Copies the evaluator's per-node statistics (keyed by the expression node
/// the evaluator memoized under) onto a plan node.
void AttachStats(
    PlanNode& node, const Expr* key,
    const std::unordered_map<const Expr*, EvalNodeStats>* stats) {
  if (stats == nullptr) return;
  auto it = stats->find(key);
  if (it == stats->end()) return;  // never evaluated (guard short-circuit)
  node.analyzed = true;
  node.actual_rows = it->second.rows;
  node.build_rows = it->second.build_rows;
  node.probe_rows = it->second.probe_rows;
  node.cache_hits = it->second.cache_hits;
  node.wall_ns = it->second.wall_ns;
  node.backend = it->second.backend;
}

std::string RenderCond(const Plan::Cond& c) {
  return c.origin->attr_a() + (c.equal ? "=" : "≠") + c.origin->attr_b();
}

std::string RenderConds(const std::vector<Plan::Cond>& conds) {
  std::string out;
  for (const Plan::Cond& c : conds) {
    if (!out.empty()) out += ", ";
    out += RenderCond(c);
  }
  return out;
}

/// Renders the operator tree under `node` (a shared plan node renders once
/// per reference, as the tree the reader follows). A fused σ-chain renders
/// as the single HashJoin it executes as, with the plan's classification of
/// its conditions: cross equalities are hash keys, per-side conditions are
/// build/probe filters, and cross non-equalities are residual filters
/// applied per match.
///
/// `hoisting`, given for par(E) plans, marks where ParallelApply evaluates
/// each operator (Plan::Hoist around rec): once, before the fan-out, or per
/// shard, with the joins whose build is made once.
PlanNode RenderPlan(
    const Plan& plan, std::size_t index,
    const std::unordered_map<const Expr*, EvalNodeStats>* stats,
    const Plan::Hoisting* hoisting) {
  const Plan::Node& node = plan.node(index);
  PlanNode out;
  out.scheme = RenderScheme(node.scheme);
  if (hoisting != nullptr) {
    const std::vector<std::size_t>& b = hoisting->builds;
    out.eval = !hoisting->scans[index] ? "once"
               : std::find(b.begin(), b.end(), index) != b.end()
                   ? "per shard, build once"
                   : "per shard";
  }
  // Executors record a fused chain's stats under the chain's top node; the
  // collapsed operators in between never evaluate separately.
  AttachStats(out, node.origin, stats);
  const Expr& e = *node.origin;
  switch (node.kind) {
    case Plan::Kind::kScan:
      out.op = "Scan " + e.relation_name();
      return out;
    case Plan::Kind::kUnion:
      out.op = "Union";
      break;
    case Plan::Kind::kDifference:
      out.op = "Difference";
      break;
    case Plan::Kind::kProduct:
      out.op = "Product";
      // Executors skip the other side when the guard side is empty.
      if (node.guard != Plan::Guard::kNone) out.detail = "π∅-guarded";
      break;
    case Plan::Kind::kJoin: {
      out.op = "HashJoin";
      const std::string keys = RenderConds(node.keys);
      out.detail = "keys: " + (keys.empty() ? "none (cross)" : keys);
      if (!node.probe_filters.empty()) {
        out.detail += "; probe filter: " + RenderConds(node.probe_filters);
      }
      if (!node.build_filters.empty()) {
        out.detail += "; build filter: " + RenderConds(node.build_filters);
      }
      if (!node.residuals.empty()) {
        out.detail += "; residual: " + RenderConds(node.residuals);
      }
      break;
    }
    case Plan::Kind::kFilter:
      out.op = "Select";
      out.detail = RenderCond(node.filter);
      break;
    case Plan::Kind::kProject:
      out.op = "Project";
      if (e.projection().empty()) {
        out.detail = "∅";
      } else {
        for (const std::string& a : e.projection()) {
          if (!out.detail.empty()) out.detail += ", ";
          out.detail += a;
        }
      }
      break;
    case Plan::Kind::kRename:
      out.op = "Rename";
      out.detail = e.rename_from() + "→" + e.rename_to();
      break;
  }
  out.children.push_back(RenderPlan(plan, node.left, stats, hoisting));
  switch (node.kind) {
    case Plan::Kind::kUnion:
    case Plan::Kind::kDifference:
    case Plan::Kind::kProduct:
    case Plan::Kind::kJoin:
      out.children.push_back(RenderPlan(plan, node.right, stats, hoisting));
      break;
    default:
      break;
  }
  return out;
}

/// Plans `expr` against `schemes` (a Catalog or a Database) and renders it;
/// `par` marks a par(E) plan (see RenderPlan).
template <typename Schemes>
Result<PlanNode> BuildPlan(
    const ExprPtr& expr, const Schemes& schemes,
    const std::unordered_map<const Expr*, EvalNodeStats>* stats,
    bool par = false) {
  SETREC_ASSIGN_OR_RETURN(Plan plan, Plan::Build(*expr, schemes));
  const Plan::Hoisting hoisting = par ? plan.Hoist(kRecRelation)
                                      : Plan::Hoisting();
  return RenderPlan(plan, plan.size() - 1, stats, par ? &hoisting : nullptr);
}

std::string FormatNs(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fms",
                static_cast<double>(ns) / 1e6);
  return buf;
}

void RenderNode(const PlanNode& node, const std::string& indent, bool root,
                std::string& out) {
  out += indent;
  if (!root) out += "-> ";
  out += node.op;
  if (!node.detail.empty()) out += " [" + node.detail + "]";
  out += " :: " + node.scheme;
  if (!node.eval.empty()) out += " {" + node.eval + "}";
  if (node.analyzed) {
    out += " (rows=" + std::to_string(node.actual_rows);
    if (node.build_rows > 0 || node.probe_rows > 0) {
      out += " build=" + std::to_string(node.build_rows) +
             " probes=" + std::to_string(node.probe_rows);
    }
    if (node.cache_hits > 0) {
      out += " hits=" + std::to_string(node.cache_hits);
    }
    if (!node.backend.empty()) {
      out += " backend=" + node.backend;
    }
    out += " time=" + FormatNs(node.wall_ns) + ")";
  }
  out += "\n";
  const std::string child_indent = indent + (root ? "  " : "   ");
  for (const PlanNode& child : node.children) {
    RenderNode(child, child_indent, false, out);
  }
}

void NodeToJson(const PlanNode& node, std::ostream& out) {
  out << "{\"op\":" << JsonQuoted(node.op) << ",\"detail\":"
      << JsonQuoted(node.detail) << ",\"scheme\":" << JsonQuoted(node.scheme);
  if (!node.eval.empty()) out << ",\"eval\":" << JsonQuoted(node.eval);
  if (node.analyzed) {
    out << ",\"rows\":" << node.actual_rows << ",\"build\":" << node.build_rows
        << ",\"probes\":" << node.probe_rows << ",\"cache_hits\":"
        << node.cache_hits << ",\"wall_ns\":" << node.wall_ns
        << ",\"backend\":" << JsonQuoted(node.backend);
  }
  out << ",\"children\":[";
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    if (i > 0) out << ",";
    NodeToJson(node.children[i], out);
  }
  out << "]}";
}

std::uint64_t ElapsedNs(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

std::string ExplainPlan::ToText() const {
  std::string out = title + "\n";
  for (const PlanNode& root : roots) RenderNode(root, "", true, out);
  if (!counters.empty()) {
    out += "logical counters:\n";
    for (const auto& [name, value] : counters) {
      out += "  " + name + " = " + std::to_string(value) + "\n";
    }
  }
  return out;
}

std::string ExplainPlan::ToJson() const {
  std::ostringstream out;
  out << "{\"title\":" << JsonQuoted(title) << ",\"analyzed\":"
      << (analyzed ? "true" : "false") << ",\"roots\":[";
  for (std::size_t i = 0; i < roots.size(); ++i) {
    if (i > 0) out << ",";
    NodeToJson(roots[i], out);
  }
  out << "],\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out << ",";
    first = false;
    out << JsonQuoted(name) << ":" << value;
  }
  out << "}}";
  return out.str();
}

const std::vector<std::string>& LogicalCounterNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "apply.edges",
      "chase.fd_merges",
      "chase.ind_additions",
      "chase.rounds",
      "containment.tests",
      "evaluator.join_build_rows",
      "evaluator.join_probes",
      "evaluator.rows",
      "homomorphism.candidates",
      "homomorphism.pruned",
      "sequential.receivers",
  };
  return *names;
}

std::map<std::string, std::uint64_t> LogicalCounters(
    const MetricsRegistry& metrics) {
  const MetricsRegistry::Snapshot snap = metrics.TakeSnapshot();
  std::map<std::string, std::uint64_t> out;
  for (const std::string& name : LogicalCounterNames()) {
    auto it = snap.counters.find(name);
    out[name] = it == snap.counters.end() ? 0 : it->second;
  }
  return out;
}

Result<ExplainPlan> ExplainExpression(const ExprPtr& expr,
                                      const Catalog& catalog) {
  ExplainPlan plan;
  plan.title = "EXPLAIN: " + ExprToString(*expr);
  SETREC_ASSIGN_OR_RETURN(PlanNode root, BuildPlan(expr, catalog, nullptr));
  plan.roots.push_back(std::move(root));
  return plan;
}

Result<ExplainPlan> ExplainExpressionAnalyze(const ExprPtr& expr,
                                             const Database& database,
                                             const ExecOptions& options) {
  MetricsRegistry local_metrics;
  ExecOptions opts = options;
  if (opts.metrics == nullptr) opts.metrics = &local_metrics;
  ExecScope scope(opts);
  ExecContext& ctx = scope.ctx();
  ExplainPlan plan;
  plan.title = "EXPLAIN ANALYZE: " + ExprToString(*expr);
  plan.analyzed = true;

  const auto start = std::chrono::steady_clock::now();
  SETREC_ASSIGN_OR_RETURN(std::optional<std::shared_ptr<const Relation>> view,
                          CachedRead(opts.view_cache, expr, ctx));
  if (view.has_value()) {
    const std::uint64_t read_ns = ElapsedNs(start);
    // No operator of the expression ran: the cache answered from its
    // incrementally maintained view.
    SETREC_ASSIGN_OR_RETURN(PlanNode operators,
                            BuildPlan(expr, database, nullptr));
    PlanNode read;
    read.op = "ViewRead";
    read.detail = "served by the incremental view cache";
    read.scheme = operators.scheme;
    read.analyzed = true;
    read.actual_rows = (*view)->size();
    read.wall_ns = read_ns;
    plan.roots.push_back(std::move(read));
    plan.counters = LogicalCounters(*ctx.metrics());
    return plan;
  }

  Evaluator evaluator(&database, {.ctx = &ctx, .backend = opts.backend});
  std::unordered_map<const Expr*, EvalNodeStats> stats;
  evaluator.set_node_stats(&stats);
  SETREC_RETURN_IF_ERROR(evaluator.Eval(expr).status());
  SETREC_ASSIGN_OR_RETURN(PlanNode root, BuildPlan(expr, database, &stats));
  plan.roots.push_back(std::move(root));
  plan.counters = LogicalCounters(*ctx.metrics());
  return plan;
}

Result<ExplainPlan> ExplainSetOrientedUpdate(const Instance& instance,
                                             PropertyId property,
                                             const ExprPtr& receiver_query,
                                             bool analyze,
                                             const ExecOptions& options) {
  const Schema& schema = instance.schema();
  SETREC_ASSIGN_OR_RETURN(MethodSignature signature,
                          AssignArgSignature(schema, property));
  SETREC_ASSIGN_OR_RETURN(Catalog catalog, EncodeCatalog(schema));
  const std::string& prop_name = schema.property(property).name;

  ExplainPlan plan;
  plan.title = std::string(analyze ? "EXPLAIN ANALYZE" : "EXPLAIN") +
               ": set-oriented UPDATE " + prop_name;
  plan.analyzed = analyze;

  std::unordered_map<const Expr*, EvalNodeStats> stats;
  PlanNode apply;
  apply.op = "Apply";
  apply.detail = prop_name + " := arg1 over the receiver key set";
  // Set when ANALYZE's phase one was served by the view cache, with the
  // read's wall time.
  bool from_cache = false;
  std::uint64_t cache_read_ns = 0;

  if (analyze) {
    MetricsRegistry local_metrics;
    ExecOptions opts = options;
    if (opts.metrics == nullptr) opts.metrics = &local_metrics;
    ExecScope scope(opts);
    ExecContext& ctx = scope.ctx();

    // Phase one, the statement's own: from the view cache when it can
    // serve, else evaluated against the encoded input state with a
    // statistics-collecting evaluator.
    auto start = std::chrono::steady_clock::now();
    SETREC_ASSIGN_OR_RETURN(
        UpdateReceivers phase_one,
        ComputeUpdateReceivers(instance, receiver_query, signature,
                               {.ctx = &ctx,
                                .backend = opts.backend,
                                .view_cache = opts.view_cache},
                               &stats));
    from_cache = phase_one.from_view_cache;
    if (from_cache) cache_read_ns = ElapsedNs(start);

    // Phase two: the statement's own, on a scratch copy so the caller's
    // instance is untouched.
    Instance scratch = instance;
    start = std::chrono::steady_clock::now();
    SETREC_RETURN_IF_ERROR(
        ApplyAssignToKeySet(scratch, property, phase_one.receivers,
                            {.ctx = &ctx}));
    apply.analyzed = true;
    apply.actual_rows = phase_one.receivers.size();
    apply.wall_ns = ElapsedNs(start);
    plan.counters = LogicalCounters(*ctx.metrics());
  }

  PlanNode phase1;
  phase1.op = "ReceiverQuery";
  SETREC_ASSIGN_OR_RETURN(
      PlanNode query_plan,
      BuildPlan(receiver_query, catalog, analyze ? &stats : nullptr));
  phase1.scheme = query_plan.scheme;
  if (from_cache) {
    // No operator of the query ran: the cache answered from its
    // incrementally maintained view.
    phase1.detail = "phase 1: served by the incremental view cache";
    phase1.analyzed = true;
    phase1.actual_rows = apply.actual_rows;
    phase1.wall_ns = cache_read_ns;
  } else {
    phase1.detail = "phase 1: evaluated against the pre-statement state";
    if (analyze) {
      phase1.analyzed = query_plan.analyzed;
      phase1.actual_rows = query_plan.actual_rows;
      phase1.wall_ns = query_plan.wall_ns;
    }
    phase1.children.push_back(std::move(query_plan));
  }
  apply.scheme = phase1.scheme;
  plan.roots.push_back(std::move(phase1));
  plan.roots.push_back(std::move(apply));
  return plan;
}

Result<ExplainPlan> ExplainParallelApply(const AlgebraicUpdateMethod& method,
                                         const Instance& instance,
                                         std::span<const Receiver> receivers,
                                         bool analyze,
                                         const ExecOptions& options) {
  const MethodContext& mctx = method.context();
  SETREC_ASSIGN_OR_RETURN(Catalog catalog, ParCatalog(mctx));

  ExplainPlan plan;
  plan.title = std::string(analyze ? "EXPLAIN ANALYZE" : "EXPLAIN") +
               ": parallel application of " +
               (method.name().empty() ? "method" : method.name());
  plan.analyzed = analyze;

  // One par(E) pipeline per statement.
  std::vector<ExprPtr> pipelines;
  for (const UpdateStatement& stmt : method.statements()) {
    SETREC_ASSIGN_OR_RETURN(ExprPtr par_expr,
                            ParTransform(stmt.expression, mctx));
    pipelines.push_back(std::move(par_expr));
  }

  std::unordered_map<const Expr*, EvalNodeStats> stats;
  if (analyze) {
    MetricsRegistry local_metrics;
    ExecOptions opts = options;
    if (opts.metrics == nullptr) opts.metrics = &local_metrics;
    ExecScope scope(opts);
    opts.ctx = &scope.ctx();
    // ParallelApply's own prepare step and fan-out, at the options' worker
    // count; nothing is applied.
    SETREC_RETURN_IF_ERROR(EvaluateParPipelines(method, instance, receivers,
                                                pipelines, opts, &stats));
    plan.counters = LogicalCounters(*scope.ctx().metrics());
  }

  for (std::size_t i = 0; i < pipelines.size(); ++i) {
    PlanNode root;
    root.op = "ParStatement";
    root.detail =
        mctx.schema->property(method.statements()[i].property).name +
        " := par(E)";
    SETREC_ASSIGN_OR_RETURN(
        PlanNode body, BuildPlan(pipelines[i], catalog,
                                 analyze ? &stats : nullptr, /*par=*/true));
    root.scheme = body.scheme;
    if (analyze) {
      root.analyzed = body.analyzed;
      root.actual_rows = body.actual_rows;
      root.wall_ns = body.wall_ns;
    }
    root.children.push_back(std::move(body));
    plan.roots.push_back(std::move(root));
  }
  return plan;
}

}  // namespace setrec
