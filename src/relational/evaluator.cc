#include "relational/evaluator.h"

#include <chrono>
#include <unordered_map>
#include <vector>

#include "relational/vectorized/engine.h"

namespace setrec {

namespace {

bool Passes(const Tuple& t, const std::vector<Plan::Cond>& conds) {
  for (const Plan::Cond& c : conds) {
    if (!c.Holds(t)) return false;
  }
  return true;
}

}  // namespace

Evaluator::Evaluator(const Database* database, const ExecOptions& options,
                     const Evaluator* parent)
    : database_(database),
      parent_(parent),
      scope_(options),
      ctx_(&scope_.ctx()),
      backend_(parent != nullptr ? parent->backend_ : options.backend),
      auto_vectorize_(parent != nullptr ? parent->auto_vectorize_
                                        : std::nullopt) {}

Evaluator::~Evaluator() = default;

Result<Relation> Evaluator::Eval(const ExprPtr& expr) {
  // Compatibility wrapper: one copy out of the shared memo, for callers
  // that want an owned Relation. Read-only callers use EvalShared.
  SETREC_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> result,
                          EvalShared(expr));
  return *result;
}

bool Evaluator::UseVectorized(const Plan& plan) {
  switch (backend_) {
    case ExecBackend::kInterpreter:
      return false;
    case ExecBackend::kVectorized:
      return plan.vectorizable();
    case ExecBackend::kAuto:
      break;
  }
  if (!auto_vectorize_.has_value()) {
    // Latched once per evaluator: mixing backends within one evaluator
    // would split the result memo into two domains and skew the cache-hit
    // counters that EXPLAIN ANALYZE reports.
    std::size_t input_rows = 0;
    for (const std::string& name : plan.base_relations()) {
      Result<const Relation*> rel = database_->Find(name);
      if (rel.ok()) input_rows += (*rel)->size();
    }
    auto_vectorize_ = input_rows >= kAutoVectorizeInputRows;
  }
  return *auto_vectorize_ && plan.vectorizable();
}

vectorized::Engine& Evaluator::engine() {
  if (engine_ == nullptr) {
    engine_ = std::make_unique<vectorized::Engine>(
        database_, ctx_, parent_ != nullptr ? parent_->engine_.get() : nullptr);
  }
  return *engine_;
}

Result<std::shared_ptr<const Relation>> Evaluator::EvalShared(
    const ExprPtr& expr) {
  SETREC_ASSIGN_OR_RETURN(Plan plan, Plan::Build(*expr, *database_));
  roots_.insert(expr);
  if (UseVectorized(plan)) return engine().Execute(std::move(plan), node_stats_);
  return Exec(plan, plan.root());
}

Status Evaluator::Hoist(const ExprPtr& expr,
                        const std::set<std::string>& varying) {
  SETREC_ASSIGN_OR_RETURN(Plan plan, Plan::Build(*expr, *database_));
  roots_.insert(expr);
  const Plan::Hoisting hoisting = plan.Hoist(varying);
  if (UseVectorized(plan)) {
    return engine().Hoist(std::move(plan), hoisting.once, hoisting.builds,
                          node_stats_);
  }
  // In plan order, as the engine does, so both backends agree on memo hits.
  for (std::size_t i : hoisting.once) {
    SETREC_RETURN_IF_ERROR(Exec(plan, plan.node(i)).status());
  }
  for (std::size_t j : hoisting.builds) {
    const Plan::Node& node = plan.node(j);
    if (builds_.contains(node.origin)) continue;
    builds_.emplace(node.origin,
                    BuildIndex(node, cache_.at(plan.node(node.right).origin)));
  }
  return Status::OK();
}

Result<std::shared_ptr<const Relation>> Evaluator::Exec(
    const Plan& plan, const Plan::Node& node) {
  auto it = cache_.find(node.origin);
  if (it != cache_.end()) {
    if (node_stats_ != nullptr) ++(*node_stats_)[node.origin].cache_hits;
    return it->second;
  }
  if (parent_ != nullptr) {
    // Hoisted by the parent: adopted as this evaluator's own first
    // evaluation (no hit, no stats — the parent recorded the work).
    auto p = parent_->cache_.find(node.origin);
    if (p != parent_->cache_.end()) {
      cache_.emplace(node.origin, p->second);
      return p->second;
    }
  }
  if (node_stats_ == nullptr) {
    SETREC_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> result,
                            ExecUncached(plan, node));
    cache_.emplace(node.origin, result);
    return result;
  }
  const auto start = std::chrono::steady_clock::now();
  Result<std::shared_ptr<const Relation>> result = ExecUncached(plan, node);
  // Inputs executed inside ExecUncached already charged their own spans;
  // wall_ns is inclusive by design (EXPLAIN ANALYZE renders a tree, so the
  // reader sees child times indented under it).
  (*node_stats_)[node.origin].wall_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  if (!result.ok()) return result;
  (*node_stats_)[node.origin].rows = (*result)->size();
  cache_.emplace(node.origin, *result);
  return result;
}

Result<std::shared_ptr<const Relation>> Evaluator::ExecUncached(
    const Plan& plan, const Plan::Node& node) {
  if (node.kind == Plan::Kind::kScan) {
    // Leaf: alias the Database's shared storage — no copy at all.
    return database_->FindShared(node.origin->relation_name());
  }
  SETREC_ASSIGN_OR_RETURN(Relation out, Operate(plan, node));
  return std::make_shared<const Relation>(std::move(out));
}

Result<Relation> Evaluator::Operate(const Plan& plan, const Plan::Node& node) {
  switch (node.kind) {
    case Plan::Kind::kScan: {
      SETREC_ASSIGN_OR_RETURN(const Relation* rel,
                              database_->Find(node.origin->relation_name()));
      return *rel;
    }
    case Plan::Kind::kUnion:
    case Plan::Kind::kDifference: {
      SETREC_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> lp,
                              Exec(plan, plan.node(node.left)));
      SETREC_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> rp,
                              Exec(plan, plan.node(node.right)));
      const Relation& l = *lp;
      const Relation& r = *rp;
      Relation out(node.scheme);
      if (node.kind == Plan::Kind::kUnion) {
        out.Reserve(l.size() + r.size());
        for (const Tuple& t : l) out.InsertValidated(t);
        for (const Tuple& t : r) out.InsertValidated(t);
      } else {
        out.Reserve(l.size());
        for (const Tuple& t : l) {
          if (!r.Contains(t)) out.InsertValidated(t);
        }
      }
      return out;
    }
    case Plan::Kind::kProduct: {
      // Guard short-circuit: products with a nullary factor implement the
      // paper's if-then-else encoding (E × π_∅(...)). When the guard side
      // evaluates empty, the data of the other side is irrelevant — only
      // its scheme is needed, which the plan already holds.
      if (node.guard != Plan::Guard::kNone) {
        const std::size_t guard = node.guard == Plan::Guard::kLeft
                                      ? node.left
                                      : node.right;
        SETREC_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> g,
                                Exec(plan, plan.node(guard)));
        if (g->empty()) return Relation(node.scheme);
      }
      SETREC_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> lp,
                              Exec(plan, plan.node(node.left)));
      SETREC_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> rp,
                              Exec(plan, plan.node(node.right)));
      const Relation& l = *lp;
      const Relation& r = *rp;
      const std::uint64_t tuple_bytes =
          static_cast<std::uint64_t>(node.scheme.arity()) * sizeof(ObjectId);
      TraceSpan span = StartSpan(*ctx_, "evaluator/product");
      MetricsRegistry* metrics = ctx_->metrics();
      Relation out(node.scheme);
      for (const Tuple& lt : l) {
        for (const Tuple& rt : r) {
          SETREC_RETURN_IF_ERROR(ctx_->ChargeRows(1, "evaluator/product-row"));
          SETREC_RETURN_IF_ERROR(
              ctx_->ChargeMemory(tuple_bytes, "evaluator/product-row"));
          if (metrics != nullptr) metrics->engine.eval_rows.Add(1);
          out.InsertValidated(lt.Concat(rt));
        }
      }
      return out;
    }
    case Plan::Kind::kJoin:
      return ExecJoin(plan, node);
    case Plan::Kind::kFilter: {
      SETREC_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> cp,
                              Exec(plan, plan.node(node.left)));
      Relation out(node.scheme);
      for (const Tuple& t : *cp) {
        if (node.filter.Holds(t)) out.InsertValidated(t);
      }
      return out;
    }
    case Plan::Kind::kProject: {
      SETREC_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> cp,
                              Exec(plan, plan.node(node.left)));
      Relation out(node.scheme);
      out.Reserve(cp->size());
      for (const Tuple& t : *cp) {
        out.InsertValidated(t.Project(node.columns));
      }
      return out;
    }
    case Plan::Kind::kRename: {
      SETREC_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> cp,
                              Exec(plan, plan.node(node.left)));
      Relation out(node.scheme);
      out.Reserve(cp->size());
      for (const Tuple& t : *cp) out.InsertValidated(t);
      return out;
    }
  }
  return Status::Internal("unknown plan operator");
}

Result<Relation> Evaluator::ExecJoin(const Plan& plan,
                                     const Plan::Node& node) {
  TraceSpan join_span = StartSpan(*ctx_, "evaluator/join");
  SETREC_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> left_ptr,
                          Exec(plan, plan.node(node.left)));
  SETREC_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> right_ptr,
                          Exec(plan, plan.node(node.right)));
  const Relation& left = *left_ptr;

  MetricsRegistry* metrics = ctx_->metrics();

  // The hash table on the right side: hoisted by this evaluator or its
  // parent when the right side is shared by every slice, else built here.
  std::shared_ptr<const JoinIndex> built;
  for (const Evaluator* e = this; e != nullptr && built == nullptr;
       e = e->parent_) {
    auto b = e->builds_.find(node.origin);
    if (b != e->builds_.end()) built = b->second;
  }
  if (built == nullptr) built = BuildIndex(node, std::move(right_ptr));
  const auto& index = built->index;

  const std::uint64_t tuple_bytes =
      static_cast<std::uint64_t>(node.scheme.arity()) * sizeof(ObjectId);

  Relation out(node.scheme);
  TraceSpan probe_span = StartSpan(*ctx_, "evaluator/join-probe");
  // Probes are counted as probe-side tuples, the same logical unit on
  // every backend.
  if (metrics != nullptr) metrics->engine.eval_join_probes.Add(left.size());
  if (node_stats_ != nullptr) {
    (*node_stats_)[node.origin].probe_rows += left.size();
  }
  for (const Tuple& lt : left) {
    if (!Passes(lt, node.probe_filters)) continue;
    auto it = index.find(lt.Project(node.left_key));
    if (it == index.end()) continue;
    for (const Tuple* rt : it->second) {
      SETREC_RETURN_IF_ERROR(ctx_->ChargeRows(1, "evaluator/join-row"));
      SETREC_RETURN_IF_ERROR(
          ctx_->ChargeMemory(tuple_bytes, "evaluator/join-row"));
      bool ok = true;
      for (const Plan::Cond& c : node.residuals) {
        const ObjectId va = c.a_left ? lt.at(c.ia) : rt->at(c.ia);
        const ObjectId vb = c.b_left ? lt.at(c.ib) : rt->at(c.ib);
        if ((va == vb) != c.equal) {
          ok = false;
          break;
        }
      }
      if (ok) {
        if (metrics != nullptr) metrics->engine.eval_rows.Add(1);
        out.InsertValidated(lt.Concat(*rt));
      }
    }
  }
  return out;
}

std::shared_ptr<const Evaluator::JoinIndex> Evaluator::BuildIndex(
    const Plan::Node& node, std::shared_ptr<const Relation> right) {
  TraceSpan build_span = StartSpan(*ctx_, "evaluator/join-build");
  auto built = std::make_shared<JoinIndex>();
  built->right = std::move(right);
  built->index.reserve(built->right->size());
  std::uint64_t rows = 0;
  for (const Tuple& t : *built->right) {
    if (!Passes(t, node.build_filters)) continue;
    built->index[t.Project(node.right_key)].push_back(&t);
    ++rows;
  }
  if (MetricsRegistry* metrics = ctx_->metrics(); metrics != nullptr) {
    metrics->engine.eval_join_build_rows.Add(rows);
  }
  if (node_stats_ != nullptr) (*node_stats_)[node.origin].build_rows += rows;
  return built;
}

Result<Relation> Evaluate(const ExprPtr& expr, const Database& database,
                          const ExecOptions& options) {
  Evaluator evaluator(&database, options);
  return evaluator.Eval(expr);
}

}  // namespace setrec
