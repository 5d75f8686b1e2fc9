#include "sql/engine.h"

#include <algorithm>
#include <numeric>

#include "core/sequential.h"
#include "incremental/view_cache.h"
#include "objrel/encoding.h"

namespace setrec {

namespace {

/// The all-or-nothing tail every set-oriented statement shares: `mutate`
/// edits `instance` in place; any failure restores the snapshot.
template <typename Mutate>
Status AllOrNothing(Instance& instance, Mutate mutate) {
  Instance snapshot = instance;
  Status applied = mutate();
  if (!applied.ok()) instance = std::move(snapshot);
  return applied;
}

}  // namespace

Result<Instance> CursorDelete(const Instance& instance, ClassId cls,
                              const RowPredicate& pred,
                              std::span<const ObjectId> order,
                              ExecContext& ctx) {
  TraceSpan span = StartSpan(ctx, "sql/cursor-delete");
  std::vector<ObjectId> rows(order.begin(), order.end());
  if (rows.empty()) {
    rows.assign(instance.objects(cls).begin(), instance.objects(cls).end());
  }
  Instance current = instance;
  for (ObjectId row : rows) {
    SETREC_RETURN_IF_ERROR(ctx.CheckPoint("sql/cursor-delete/row"));
    if (!current.HasObject(row)) continue;  // already deleted by a cascade
    SETREC_ASSIGN_OR_RETURN(bool doomed, pred(current, row));
    if (doomed) SETREC_RETURN_IF_ERROR(current.RemoveObject(row));
  }
  return current;
}

Result<Instance> SetOrientedDelete(const Instance& instance, ClassId cls,
                                   const RowPredicate& pred,
                                   const ExecOptions& options) {
  Instance out = instance;
  SETREC_RETURN_IF_ERROR(SetOrientedDeleteInPlace(out, cls, pred, options));
  return out;
}

Status SetOrientedDeleteInPlace(Instance& instance, ClassId cls,
                                const RowPredicate& pred,
                                const ExecOptions& options) {
  ExecScope scope(options);
  ExecContext& ctx = scope.ctx();
  TraceSpan span = StartSpan(ctx, "sql/set-delete");
  // Phase one: identify every doomed row against the input state. No
  // mutation has happened yet, so errors here need no rollback.
  std::vector<ObjectId> doomed;
  for (ObjectId row : instance.objects(cls)) {
    SETREC_RETURN_IF_ERROR(ctx.CheckPoint("sql/delete/scan"));
    SETREC_ASSIGN_OR_RETURN(bool d, pred(instance, row));
    if (d) doomed.push_back(row);
  }
  // Phase two: remove them all together, all-or-nothing.
  return AllOrNothing(instance, [&]() -> Status {
    for (ObjectId row : doomed) {
      SETREC_RETURN_IF_ERROR(ctx.CheckPoint("sql/delete/row"));
      SETREC_RETURN_IF_ERROR(instance.RemoveObject(row));
    }
    return Status::OK();
  });
}

Result<CursorOrderReport> TestCursorDeleteOrders(const Instance& instance,
                                                 ClassId cls,
                                                 const RowPredicate& pred,
                                                 std::size_t max_rows,
                                                 ExecContext& ctx) {
  std::vector<ObjectId> rows(instance.objects(cls).begin(),
                             instance.objects(cls).end());
  if (rows.size() > max_rows) {
    return Status::InvalidArgument(
        "too many rows for an exhaustive permutation test");
  }
  CursorOrderReport report;
  std::vector<std::size_t> perm(rows.size());
  std::iota(perm.begin(), perm.end(), 0);
  do {
    SETREC_RETURN_IF_ERROR(ctx.CheckPoint("sql/cursor-delete/permutation"));
    std::vector<ObjectId> order;
    order.reserve(rows.size());
    for (std::size_t i : perm) order.push_back(rows[i]);
    SETREC_ASSIGN_OR_RETURN(Instance outcome,
                            CursorDelete(instance, cls, pred, order, ctx));
    if (!report.first.has_value()) {
      report.first = std::move(outcome);
    } else if (!(*report.first == outcome)) {
      report.order_independent = false;
      report.disagreement = std::move(outcome);
      return report;
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  report.order_independent = true;
  return report;
}

RowPredicate SalaryInFire(const PayrollSchema& schema) {
  return [&schema](const Instance& db, ObjectId row) -> Result<bool> {
    for (ObjectId salary : db.Targets(row, schema.salary)) {
      for (const auto& [fire_row, amount] : db.edges(schema.fire_amt)) {
        if (amount == salary && db.HasObject(fire_row)) return true;
      }
    }
    return false;
  };
}

RowPredicate ManagerSalaryInFire(const PayrollSchema& schema) {
  RowPredicate direct = SalaryInFire(schema);
  return [&schema, direct](const Instance& db, ObjectId row) -> Result<bool> {
    for (ObjectId manager : db.Targets(row, schema.manager)) {
      if (!db.HasObject(manager)) continue;
      SETREC_ASSIGN_OR_RETURN(bool fired, direct(db, manager));
      if (fired) return true;
    }
    return false;
  };
}

Result<Instance> CursorUpdate(const AlgebraicUpdateMethod& method,
                              const Instance& instance,
                              std::span<const Receiver> order,
                              ExecContext& ctx) {
  TraceSpan span = StartSpan(ctx, "sql/cursor-update");
  return ApplySequence(method, instance, order, ctx);
}

Result<MethodSignature> AssignArgSignature(const Schema& schema,
                                           PropertyId property) {
  if (!schema.HasProperty(property)) {
    return Status::InvalidArgument("unknown property");
  }
  const Schema::PropertyDef& def = schema.property(property);
  return MethodSignature({def.source, def.target});
}

Result<std::unique_ptr<AlgebraicUpdateMethod>> MakeAssignArgMethod(
    const Schema* schema, PropertyId property) {
  SETREC_ASSIGN_OR_RETURN(MethodSignature signature,
                          AssignArgSignature(*schema, property));
  return AlgebraicUpdateMethod::Make(
      schema, std::move(signature), "assign_" + schema->property(property).name,
      {UpdateStatement{property, Expr::Relation("arg1")}});
}

Result<Instance> SetOrientedUpdate(const Instance& instance,
                                   PropertyId property,
                                   const ExprPtr& receiver_query,
                                   const ExecOptions& options) {
  Instance out = instance;
  SETREC_RETURN_IF_ERROR(
      SetOrientedUpdateInPlace(out, property, receiver_query, options));
  return out;
}

Status SetOrientedUpdateInPlace(Instance& instance, PropertyId property,
                                const ExprPtr& receiver_query,
                                const ExecOptions& options) {
  ExecScope scope(options);
  ExecContext& ctx = scope.ctx();
  TraceSpan span = StartSpan(ctx, "sql/set-update");
  SETREC_ASSIGN_OR_RETURN(MethodSignature signature,
                          AssignArgSignature(instance.schema(), property));
  // Phase one: compute the receiver key set against the input state. No
  // mutation has happened yet, so errors here need no rollback. The caller
  // is responsible for having fed the cache every prior mutation of
  // `instance` — phase two still rejects receivers that do not exist in the
  // instance, but cannot detect a stale-but-valid receiver set.
  SETREC_ASSIGN_OR_RETURN(
      UpdateReceivers phase_one,
      ComputeUpdateReceivers(instance, receiver_query, signature,
                             {.ctx = &ctx,
                              .backend = options.backend,
                              .view_cache = options.view_cache}));
  return ApplyAssignToKeySet(instance, property, phase_one.receivers,
                             {.ctx = &ctx});
}

Result<UpdateReceivers> ComputeUpdateReceivers(
    const Instance& instance, const ExprPtr& receiver_query,
    const MethodSignature& signature, const ExecOptions& options,
    std::unordered_map<const Expr*, EvalNodeStats>* node_stats) {
  ExecScope scope(options);
  ExecContext& ctx = scope.ctx();
  SETREC_ASSIGN_OR_RETURN(
      std::optional<std::shared_ptr<const Relation>> rows,
      CachedRead(options.view_cache, receiver_query, ctx));
  const bool from_view_cache = rows.has_value();
  if (!from_view_cache) {
    SETREC_ASSIGN_OR_RETURN(Database db, EncodeInstance(instance));
    Evaluator evaluator(&db, {.ctx = &ctx, .backend = options.backend});
    evaluator.set_node_stats(node_stats);
    SETREC_ASSIGN_OR_RETURN(rows, evaluator.EvalShared(receiver_query));
  }
  SETREC_ASSIGN_OR_RETURN(std::vector<Receiver> receivers,
                          ReceiversFromRelation(**rows, signature));
  return UpdateReceivers{std::move(receivers), from_view_cache};
}

Status ApplyAssignToKeySet(Instance& instance, PropertyId property,
                           std::span<const Receiver> receivers,
                           const ExecOptions& options) {
  SETREC_ASSIGN_OR_RETURN(MethodSignature signature,
                          AssignArgSignature(instance.schema(), property));
  if (!IsKeySet(receivers)) {
    return Status::FailedPrecondition(
        "set-oriented update would assign two values to one row; the "
        "receiver query must produce a key set");
  }
  ExecScope scope(options);
  ExecContext& ctx = scope.ctx();
  // On a key set, "a := arg1" amounts to replacing each receiving row's
  // a-edges by the single queried target.
  return AllOrNothing(instance, [&]() -> Status {
    for (const Receiver& t : receivers) {
      SETREC_RETURN_IF_ERROR(ctx.CheckPoint("sql/update/receiver"));
      if (!t.IsValidOver(signature, instance)) {
        return Status::FailedPrecondition(
            "receiver not valid over the instance");
      }
      const ObjectId row = t.receiving_object();
      SETREC_RETURN_IF_ERROR(instance.ClearEdgesFrom(row, property));
      SETREC_RETURN_IF_ERROR(ctx.CheckPoint("sql/update/edge"));
      SETREC_RETURN_IF_ERROR(instance.AddEdge(row, property, t.object_at(1)));
    }
    return Status::OK();
  });
}

}  // namespace setrec
