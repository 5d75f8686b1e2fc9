#include "algebraic/parallel.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/sequential.h"
#include "core/thread_pool.h"
#include "relational/builder.h"
#include "relational/evaluator.h"
#include "relational/plan.h"

namespace setrec {

Result<RelationScheme> RecScheme(const MethodSignature& signature) {
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute{kSelfRelation, signature.receiving_class()});
  for (std::size_t i = 0; i < signature.num_args(); ++i) {
    attrs.push_back(Attribute{ArgRelationName(i), signature.arg_class(i)});
  }
  return RelationScheme::Make(std::move(attrs));
}

Result<Relation> RecRelation(const RelationScheme& scheme,
                             std::span<const Receiver> receivers) {
  Relation rec(scheme);
  rec.Reserve(receivers.size());
  for (const Receiver& t : receivers) {
    std::vector<ObjectId> values;
    values.reserve(t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
      values.push_back(t.object_at(i));
    }
    SETREC_RETURN_IF_ERROR(rec.Insert(Tuple(std::move(values))));
  }
  return rec;
}

Result<Catalog> ParCatalog(const MethodContext& context) {
  // Rebuild from the object schema (dropping self/arg singletons), then add
  // rec.
  SETREC_ASSIGN_OR_RETURN(Catalog catalog, EncodeCatalog(*context.schema));
  SETREC_ASSIGN_OR_RETURN(RelationScheme rec, RecScheme(context.signature));
  SETREC_RETURN_IF_ERROR(catalog.AddRelation(kRecRelation, std::move(rec)));
  return catalog;
}

namespace {

/// Throwaway name for the right operand's `self` in a join of two
/// receiver-dependent sides; it is projected away immediately.
constexpr const char kJoinTemp[] = "self§";

/// The hoisting par(E) rewrite (see ParTransform). Memoized on expression
/// identity, so a DAG rewrites to a DAG.
class ParRewriter {
 public:
  /// `plan` is E's plan against the method catalog: it holds the scheme of
  /// every operand a product reorders.
  ParRewriter(const MethodSignature& signature, const Plan& plan)
      : signature_(signature),
        self_(ra::Project(ra::Rel(kRecRelation), {kSelfRelation})) {
    for (const Plan::Node& n : plan.nodes()) schemes_[n.origin] = &n.scheme;
  }

  Result<ExprPtr> Root(const ExprPtr& expr) {
    SETREC_ASSIGN_OR_RETURN(Rewritten r, Rewrite(expr));
    return Dependent(r);
  }

 private:
  /// par(E) for a receiver-dependent E; E itself, untouched, for a
  /// receiver-free one.
  struct Rewritten {
    ExprPtr expr;
    bool dependent = false;
  };

  /// par(E) in full: a receiver-free C lifts to π_self(rec) × C (C on the
  /// build side), which is literal par(C).
  ExprPtr Dependent(const Rewritten& r) {
    if (r.dependent) return r.expr;
    auto [it, fresh] = lifted_.try_emplace(r.expr.get());
    if (fresh) it->second = ra::Product(self_, r.expr);
    return it->second;
  }

  /// Appends E's attributes other than self: par(E)'s attributes are self
  /// followed by these.
  void AppendNonSelf(const Expr& e, std::vector<std::string>& out) const {
    for (const Attribute& a : schemes_.at(&e)->attributes()) {
      if (a.name != kSelfRelation) out.push_back(a.name);
    }
  }

  Result<Rewritten> Rewrite(const ExprPtr& expr) {
    auto it = memo_.find(expr.get());
    if (it != memo_.end()) return it->second;
    SETREC_ASSIGN_OR_RETURN(Rewritten out, RewriteUncached(expr));
    memo_.emplace(expr.get(), out);
    return out;
  }

  Result<Rewritten> RewriteUncached(const ExprPtr& expr) {
    const Expr& e = *expr;
    switch (e.op()) {
      case Expr::Op::kRelation: {
        const std::string& name = e.relation_name();
        if (name == kSelfRelation) return Rewritten{self_, true};
        for (std::size_t i = 0; i < signature_.num_args(); ++i) {
          if (name == ArgRelationName(i)) {
            return Rewritten{ra::Project(ra::Rel(kRecRelation),
                                         {kSelfRelation, ArgRelationName(i)}),
                             true};
          }
        }
        return Rewritten{expr, false};
      }
      case Expr::Op::kUnion:
      case Expr::Op::kDifference: {
        SETREC_ASSIGN_OR_RETURN(Rewritten l, Rewrite(e.left()));
        SETREC_ASSIGN_OR_RETURN(Rewritten r, Rewrite(e.right()));
        if (!l.dependent && !r.dependent) return Rewritten{expr, false};
        return Rewritten{e.op() == Expr::Op::kUnion
                             ? ra::Union(Dependent(l), Dependent(r))
                             : ra::Diff(Dependent(l), Dependent(r)),
                         true};
      }
      case Expr::Op::kProduct:
        return RewriteJoin(expr, e);
      case Expr::Op::kSelectEq:
      case Expr::Op::kSelectNeq: {
        const Expr* bottom = e.child().get();
        while (bottom->op() == Expr::Op::kSelectEq ||
               bottom->op() == Expr::Op::kSelectNeq) {
          bottom = bottom->child().get();
        }
        if (bottom->op() == Expr::Op::kProduct) {
          return RewriteJoin(expr, *bottom);
        }
        SETREC_ASSIGN_OR_RETURN(Rewritten c, Rewrite(e.child()));
        if (!c.dependent) return Rewritten{expr, false};
        return Rewritten{Reselect(e, c.expr), true};
      }
      case Expr::Op::kProject: {
        SETREC_ASSIGN_OR_RETURN(Rewritten c, Rewrite(e.child()));
        if (!c.dependent) return Rewritten{expr, false};
        std::vector<std::string> attrs = {kSelfRelation};
        for (const std::string& a : e.projection()) {
          if (a != kSelfRelation) attrs.push_back(a);
        }
        return Rewritten{ra::Project(c.expr, std::move(attrs)), true};
      }
      case Expr::Op::kRename: {
        if (e.rename_from() == kSelfRelation ||
            e.rename_to() == kSelfRelation) {
          return Status::InvalidArgument(
              "par(E) cannot rename the reserved attribute self");
        }
        SETREC_ASSIGN_OR_RETURN(Rewritten c, Rewrite(e.child()));
        if (!c.dependent) return Rewritten{expr, false};
        return Rewritten{ra::Rename(c.expr, e.rename_from(), e.rename_to()),
                         true};
      }
    }
    return Status::Internal("unknown expression operator");
  }

  /// `sel`'s condition over `input`.
  static ExprPtr Reselect(const Expr& sel, ExprPtr input) {
    return sel.op() == Expr::Op::kSelectEq
               ? ra::SelectEq(std::move(input), sel.attr_a(), sel.attr_b())
               : ra::SelectNeq(std::move(input), sel.attr_a(), sel.attr_b());
  }

  /// The σ-chain from `top` down to `product` (top == product for a bare
  /// product). The chain goes back on directly over the rewritten product,
  /// so the plan still fuses it into one hash join, and a receiver-free
  /// operand always lands on the right — the join's build side, which the
  /// prepare step of ParallelApply builds once:
  ///   par(E1 × C) = par(E1) × C, and par(C × E1) = par(E1) × C reordered;
  ///   par(E1 × E2) = σ_{self=self§}(par(E1) × ρ_{self→self§}(par(E2)))
  ///                  projected back onto one self.
  /// The reordering projection sits above the whole chain.
  Result<Rewritten> RewriteJoin(const ExprPtr& top, const Expr& product) {
    SETREC_ASSIGN_OR_RETURN(Rewritten l, Rewrite(product.left()));
    SETREC_ASSIGN_OR_RETURN(Rewritten r, Rewrite(product.right()));
    if (!l.dependent && !r.dependent) return Rewritten{top, false};
    ExprPtr core;
    if (!r.dependent) {
      core = ra::Product(l.expr, r.expr);
    } else if (!l.dependent) {
      core = ra::Product(r.expr, l.expr);
    } else {
      ExprPtr renamed = ra::Rename(r.expr, kSelfRelation, kJoinTemp);
      core = ra::SelectEq(ra::Product(l.expr, std::move(renamed)),
                          kSelfRelation, kJoinTemp);
    }
    // Only par(E1 × C) comes out in par(E)'s attribute order already.
    std::vector<std::string> order;
    if (r.dependent) {
      order = {kSelfRelation};
      AppendNonSelf(*product.left(), order);
      AppendNonSelf(*product.right(), order);
    }
    std::vector<const Expr*> chain;
    for (const Expr* s = top.get(); s != &product; s = s->child().get()) {
      chain.push_back(s);
    }
    for (auto s = chain.rbegin(); s != chain.rend(); ++s) {
      core = Reselect(**s, std::move(core));
    }
    if (!order.empty()) core = ra::Project(std::move(core), std::move(order));
    return Rewritten{std::move(core), true};
  }

  const MethodSignature& signature_;
  const ExprPtr self_;  // π_self(rec), shared by every self leaf and lift
  std::unordered_map<const Expr*, const RelationScheme*> schemes_;
  std::unordered_map<const Expr*, Rewritten> memo_;
  std::unordered_map<const Expr*, ExprPtr> lifted_;
};

}  // namespace

Result<ExprPtr> ParTransform(const ExprPtr& expr,
                             const MethodContext& context) {
  SETREC_ASSIGN_OR_RETURN(Plan plan, Plan::Build(*expr, context.catalog));
  return ParRewriter(context.signature, plan).Root(expr);
}

namespace {

using NodeStats = std::unordered_map<const Expr*, EvalNodeStats>;

/// Output of evaluating the par(E) pipelines over one receiver shard: for
/// each statement, the receiving-object → result-objects map restricted to
/// the shard's receivers.
struct ShardResult {
  Status status = Status::OK();
  std::vector<std::map<ObjectId, std::vector<ObjectId>>> per_statement;
};

/// Evaluates every par(E) expression against `base` plus rec = `shard`,
/// taking every hoisted result and join build from `prepared`. `base` and
/// `prepared` are shared read-only across concurrent shards; the per-shard
/// Database copy is shallow (relations behind shared storage), so the cost
/// per shard is O(#relations), not O(instance).
ShardResult EvalShard(const Database& base, const Evaluator& prepared,
                      const RelationScheme& rec_scheme,
                      std::span<const Receiver> shard,
                      std::span<const ExprPtr> par_exprs, ExecContext& ctx,
                      NodeStats* stats) {
  ShardResult out;
  out.status = ctx.CheckPoint("parallel/shard");
  if (!out.status.ok()) return out;
  TraceSpan span = StartSpan(ctx, "parallel/shard");
  if (ctx.metrics() != nullptr) ctx.metrics()->engine.parallel_shards.Add(1);

  Result<Relation> rec = RecRelation(rec_scheme, shard);
  if (!rec.ok()) {
    out.status = rec.status();
    return out;
  }
  Database db = base;
  db.Put(kRecRelation, std::move(*rec));

  Evaluator evaluator(&db, {.ctx = &ctx}, &prepared);
  evaluator.set_node_stats(stats);
  out.per_statement.reserve(par_exprs.size());
  for (const ExprPtr& par_expr : par_exprs) {
    Result<Relation> r = evaluator.Eval(par_expr);
    if (!r.ok()) {
      out.status = r.status();
      return out;
    }
    Result<std::size_t> self_idx = r->scheme().IndexOf(kSelfRelation);
    if (!self_idx.ok()) {
      out.status = self_idx.status();
      return out;
    }
    if (r->scheme().arity() != 2) {
      out.status = Status::Internal("par(E) must produce a binary relation");
      return out;
    }
    const std::size_t value_idx = 1 - *self_idx;
    std::map<ObjectId, std::vector<ObjectId>> targets;
    for (const Tuple& t : *r) {
      targets[t.at(*self_idx)].push_back(t.at(value_idx));
    }
    out.per_statement.push_back(std::move(targets));
  }
  return out;
}

/// Cuts the canonical receiver enumeration into at most `num_shards`
/// contiguous [begin, end) ranges of roughly equal size, never separating
/// receivers that share a receiving object: par(E) decomposes exactly along
/// `self` slices, and a slice is the full set of rec tuples with that self
/// value (receivers differing only in arguments interact through the
/// π_{self,arg_i}(rec) leaves). Canonical order sorts by the full object
/// vector, so same-self receivers are already adjacent.
std::vector<std::pair<std::size_t, std::size_t>> ShardBoundaries(
    std::span<const Receiver> set, std::size_t num_shards) {
  std::vector<std::pair<std::size_t, std::size_t>> bounds;
  const std::size_t n = set.size();
  if (n == 0) return bounds;
  const std::size_t target =
      std::max<std::size_t>(1, (n + num_shards - 1) / num_shards);
  std::size_t begin = 0;
  while (begin < n) {
    std::size_t end = std::min(begin + target, n);
    while (end < n &&
           set[end].receiving_object() == set[end - 1].receiving_object()) {
      ++end;
    }
    bounds.emplace_back(begin, end);
    begin = end;
  }
  return bounds;
}

/// The canonical form of `receivers`, each checked valid over `instance`.
Result<std::vector<Receiver>> ValidReceiverSet(
    const MethodSignature& signature, const Instance& instance,
    std::span<const Receiver> receivers) {
  std::vector<Receiver> set = CanonicalReceiverSet(receivers);
  for (const Receiver& t : set) {
    if (!t.IsValidOver(signature, instance)) {
      return Status::FailedPrecondition(
          "receiver not valid over the instance");
    }
  }
  return set;
}

/// Adds the shards' per-node statistics to `out`. Output rows, probes and
/// build rows add up to the unsliced run's, because every operator a shard
/// runs keeps `self` and the shards partition the self values. Memo hits
/// do not depend on the data — the only data-dependent branch, the π∅
/// guard, reads hoisted subterms only — so every shard reports the same
/// count and the merge keeps one.
void MergeShardStats(std::span<const NodeStats> shards, NodeStats& out) {
  std::unordered_map<const Expr*, std::uint64_t> hits;
  for (const NodeStats& shard : shards) {
    for (const auto& [origin, s] : shard) {
      EvalNodeStats& m = out[origin];
      m.rows += s.rows;
      m.build_rows += s.build_rows;
      m.probe_rows += s.probe_rows;
      m.wall_ns += s.wall_ns;
      m.backend = s.backend;
      hits[origin] = std::max(hits[origin], s.cache_hits);
    }
  }
  for (const auto& [origin, h] : hits) out[origin].cache_hits += h;
}

/// The par(E) evaluation of M_par: shard boundaries over the canonical
/// receiver set and one result per shard.
struct Fanout {
  std::vector<std::pair<std::size_t, std::size_t>> bounds;
  std::vector<ShardResult> results;
};

/// Evaluates `par_exprs` over `instance` with rec = `set` (canonical). The
/// prepare step runs first, on the calling thread, at every worker count:
/// one evaluator bound to the whole receiver set hoists every subterm that
/// does not scan rec and every join build over such a subterm (Evaluator::
/// Hoist), and latches the backend. The shards then evaluate only what
/// scans rec, reading the prepared evaluator like `base`. `stats`, when
/// given, receives the prepare step's and every shard's per-node
/// statistics, merged on the calling thread.
Result<Fanout> EvaluatePipelines(const MethodContext& mctx,
                                 const Instance& instance,
                                 std::span<const Receiver> set,
                                 std::span<const ExprPtr> par_exprs,
                                 const ExecOptions& options, ExecContext& ctx,
                                 NodeStats* stats) {
  SETREC_ASSIGN_OR_RETURN(Database db, EncodeInstance(instance));
  SETREC_ASSIGN_OR_RETURN(RelationScheme rec_scheme,
                          RecScheme(mctx.signature));

  Database full = db;
  SETREC_ASSIGN_OR_RETURN(Relation rec, RecRelation(rec_scheme, set));
  full.Put(kRecRelation, std::move(rec));
  Evaluator prepared(&full, {.ctx = &ctx, .backend = options.backend});
  prepared.set_node_stats(stats);
  {
    TraceSpan prepare_span = StartSpan(ctx, "parallel/prepare");
    for (const ExprPtr& par_expr : par_exprs) {
      SETREC_RETURN_IF_ERROR(prepared.Hoist(par_expr, {kRecRelation}));
    }
  }
  prepared.set_node_stats(nullptr);

  const std::size_t requested = std::max<std::size_t>(1, options.num_workers);
  Fanout out;
  out.bounds = ShardBoundaries(set, requested);
  out.results.resize(out.bounds.size());
  std::vector<NodeStats> shard_stats(stats != nullptr ? out.bounds.size() : 0);
  auto shard = [&](std::size_t s, ExecContext& shard_ctx) {
    out.results[s] = EvalShard(
        db, prepared, rec_scheme,
        set.subspan(out.bounds[s].first,
                    out.bounds[s].second - out.bounds[s].first),
        par_exprs, shard_ctx, stats != nullptr ? &shard_stats[s] : nullptr);
  };
  if (out.bounds.size() == 1) {
    // Single shard: evaluate on the calling thread under `ctx` directly.
    shard(0, ctx);
  } else if (out.bounds.size() > 1) {
    std::vector<ExecContext> children;
    children.reserve(out.bounds.size());
    for (std::size_t s = 0; s < out.bounds.size(); ++s) {
      children.push_back(ctx.Fork());
    }
    auto run_shard = [&](std::size_t s) { shard(s, children[s]); };
    if (options.pool != nullptr) {
      options.pool->ParallelFor(out.bounds.size(), run_shard);
    } else {
      ThreadPool transient(std::min(requested, out.bounds.size()));
      transient.ParallelFor(out.bounds.size(), run_shard);
    }
  }
  // Deterministic error reporting: the first failing shard in shard order
  // wins (a shared tripped budget makes several shards fail; which ones is
  // scheduling-dependent, but shard 0's view of it is not).
  for (const ShardResult& r : out.results) {
    SETREC_RETURN_IF_ERROR(r.status);
  }
  if (stats != nullptr) MergeShardStats(shard_stats, *stats);
  return out;
}

}  // namespace

Status EvaluateParPipelines(const AlgebraicUpdateMethod& method,
                            const Instance& instance,
                            std::span<const Receiver> receivers,
                            std::span<const ExprPtr> pipelines,
                            const ExecOptions& options, NodeStats* stats) {
  ExecScope scope(options);
  const MethodContext& mctx = method.context();
  SETREC_ASSIGN_OR_RETURN(
      std::vector<Receiver> set,
      ValidReceiverSet(mctx.signature, instance, receivers));
  return EvaluatePipelines(mctx, instance, set, pipelines, options,
                           scope.ctx(), stats)
      .status();
}

Result<Instance> ParallelApply(const AlgebraicUpdateMethod& method,
                               const Instance& instance,
                               std::span<const Receiver> receivers,
                               const ExecOptions& options) {
  ExecScope scope(options);
  ExecContext& ctx = scope.ctx();
  const MethodContext& mctx = method.context();
  TraceSpan apply_span = StartSpan(ctx, "parallel/apply");
  MetricsRegistry* metrics = ctx.metrics();
  SETREC_ASSIGN_OR_RETURN(
      std::vector<Receiver> set,
      ValidReceiverSet(mctx.signature, instance, receivers));

  // Rewrite one par(E) per statement up front; the expression DAGs are
  // immutable and shared read-only by all shards.
  std::vector<ExprPtr> par_exprs;
  par_exprs.reserve(method.statements().size());
  {
    TraceSpan rewrite_span = StartSpan(ctx, "parallel/rewrite");
    for (const UpdateStatement& s : method.statements()) {
      SETREC_RETURN_IF_ERROR(ctx.CheckPoint("parallel/statement"));
      SETREC_ASSIGN_OR_RETURN(ExprPtr par_expr,
                              ParTransform(s.expression, mctx));
      par_exprs.push_back(std::move(par_expr));
    }
  }
  SETREC_ASSIGN_OR_RETURN(
      Fanout fanout,
      EvaluatePipelines(mctx, instance, set, par_exprs, options, ctx,
                        /*stats=*/nullptr));
  const auto& bounds = fanout.bounds;
  const auto& results = fanout.results;

  // Merge: shards partition the canonical enumeration contiguously, so
  // iterating shards in order and receivers within each shard reproduces
  // the canonical receiver order of the single-threaded path exactly.
  TraceSpan merge_span = StartSpan(ctx, "parallel/merge");
  Instance out = instance;
  const std::span<const UpdateStatement> statements = method.statements();
  for (std::size_t i = 0; i < statements.size(); ++i) {
    const PropertyId property = statements[i].property;
    for (const Receiver& t : set) {
      SETREC_RETURN_IF_ERROR(
          out.ClearEdgesFrom(t.receiving_object(), property));
    }
    for (std::size_t s = 0; s < bounds.size(); ++s) {
      const auto merge_start = std::chrono::steady_clock::now();
      const auto& targets = results[s].per_statement[i];
      for (std::size_t k = bounds[s].first; k < bounds[s].second; ++k) {
        const ObjectId o0 = set[k].receiving_object();
        auto it = targets.find(o0);
        if (it == targets.end()) continue;
        for (ObjectId target : it->second) {
          SETREC_RETURN_IF_ERROR(ctx.CheckPoint("parallel/edge"));
          if (metrics != nullptr) metrics->engine.apply_edges.Add(1);
          SETREC_RETURN_IF_ERROR(out.AddEdge(o0, property, target));
        }
      }
      if (metrics != nullptr) {
        metrics->engine.shard_merge_ns.Observe(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - merge_start)
                .count()));
      }
    }
  }
  return out;
}

}  // namespace setrec
