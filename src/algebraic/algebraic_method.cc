#include "algebraic/algebraic_method.h"

#include <optional>
#include <set>
#include <sstream>

#include "relational/evaluator.h"

namespace setrec {

namespace {

/// Replaces the `property` edges leaving `receiving` by edges to the
/// elements of `targets` (Definition 5.4(5)), in `instance` and in its
/// encoding `encoded` (the property's relation) alike, touching only the
/// edges that change.
Status Splice(Instance& instance, Relation& encoded, ObjectId receiving,
              PropertyId property, const Relation& targets) {
  for (ObjectId old : instance.Targets(receiving, property)) {
    if (targets.Contains(Tuple{old})) continue;
    SETREC_RETURN_IF_ERROR(instance.RemoveEdge(receiving, property, old));
    encoded.Erase(Tuple{receiving, old});
  }
  for (const Tuple& t : targets) {
    const ObjectId target = t.at(0);
    if (instance.HasEdge(receiving, property, target)) continue;
    // Typing guarantees E(I,t) ⊆ B(I) (see ValidateUpdateExpression), so
    // AddEdge cannot fail on a missing endpoint.
    SETREC_RETURN_IF_ERROR(instance.AddEdge(receiving, property, target));
    encoded.InsertValidated(Tuple{receiving, target});
  }
  return Status::OK();
}

}  // namespace

AlgebraicUpdateMethod::AlgebraicUpdateMethod(
    MethodContext context, std::string name,
    std::vector<UpdateStatement> statements)
    : UpdateMethod(context.signature, std::move(name)),
      context_(std::move(context)),
      statements_(std::move(statements)) {
  varying_.insert(kSelfRelation);
  for (std::size_t i = 0; i < context_.signature.num_args(); ++i) {
    varying_.insert(ArgRelationName(i));
  }
  for (const UpdateStatement& s : statements_) {
    varying_.insert(PropertyRelationName(*context_.schema, s.property));
  }
}

Result<std::unique_ptr<AlgebraicUpdateMethod>> AlgebraicUpdateMethod::Make(
    const Schema* schema, MethodSignature signature, std::string name,
    std::vector<UpdateStatement> statements) {
  SETREC_ASSIGN_OR_RETURN(MethodContext context,
                          BuildMethodContext(schema, signature));
  std::set<PropertyId> seen;
  for (const UpdateStatement& s : statements) {
    if (!seen.insert(s.property).second) {
      return Status::InvalidArgument(
          "at most one update per property (Definition 5.4(4)): " +
          schema->property(s.property).name);
    }
    SETREC_RETURN_IF_ERROR(
        ValidateUpdateExpression(context, s.property, s.expression));
  }
  return std::unique_ptr<AlgebraicUpdateMethod>(new AlgebraicUpdateMethod(
      std::move(context), std::move(name), std::move(statements)));
}

Result<Instance> AlgebraicUpdateMethod::Apply(const Instance& instance,
                                              const Receiver& receiver,
                                              ExecContext& ctx) const {
  return Fold(instance, {&receiver, 1}, ctx, ExecBackend::kAuto,
              /*in_sequence=*/false);
}

Result<Instance> AlgebraicUpdateMethod::FoldSequence(
    const Instance& instance, std::span<const Receiver> sequence,
    ExecContext& ctx, ExecBackend backend) const {
  return Fold(instance, sequence, ctx, backend, /*in_sequence=*/true);
}

Result<Instance> AlgebraicUpdateMethod::Fold(const Instance& instance,
                                             std::span<const Receiver> sequence,
                                             ExecContext& ctx,
                                             ExecBackend backend,
                                             bool in_sequence) const {
  Instance current = instance;
  if (sequence.empty()) return current;
  SETREC_ASSIGN_OR_RETURN(Database db, EncodeInstance(current));
  // Made at the first step, once its receiver relations are installed (the
  // plans need their schemes); nothing it computes scans them.
  std::optional<Evaluator> prepared;
  for (const Receiver& t : sequence) {
    SETREC_RETURN_IF_ERROR(in_sequence ? SequenceStep(current, t, ctx)
                                       : CheckReceiver(current, t));
    SETREC_RETURN_IF_ERROR(
        InstallReceiverRelations(db, context_, t, /*primed=*/false));
    if (!prepared.has_value()) {
      prepared.emplace(&db, ExecOptions{.ctx = &ctx, .backend = backend});
      for (const UpdateStatement& s : statements_) {
        SETREC_RETURN_IF_ERROR(prepared->Hoist(s.expression, varying_));
      }
    }

    // Evaluate every right-hand side against the *pre-update* snapshot
    // first (all statements of one method application see the same
    // snapshot), then splice the results in. The step's evaluator is gone
    // before the splice, so the encoded relations it read are no longer
    // shared and change in place.
    std::vector<std::shared_ptr<const Relation>> results;
    results.reserve(statements_.size());
    {
      Evaluator step(&db, {.ctx = &ctx}, &*prepared);
      for (const UpdateStatement& s : statements_) {
        SETREC_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> r,
                                step.EvalShared(s.expression));
        results.push_back(std::move(r));
      }
    }
    for (std::size_t i = 0; i < statements_.size(); ++i) {
      const PropertyId property = statements_[i].property;
      SETREC_ASSIGN_OR_RETURN(
          Relation * encoded,
          db.Mutable(PropertyRelationName(*context_.schema, property)));
      SETREC_RETURN_IF_ERROR(Splice(current, *encoded, t.receiving_object(),
                                    property, *results[i]));
    }
  }
  return current;
}

bool AlgebraicUpdateMethod::IsPositiveMethod() const {
  for (const UpdateStatement& s : statements_) {
    if (!IsPositive(*s.expression)) return false;
  }
  return true;
}

std::vector<PropertyId> AlgebraicUpdateMethod::UpdatedProperties() const {
  std::vector<PropertyId> out;
  out.reserve(statements_.size());
  for (const UpdateStatement& s : statements_) out.push_back(s.property);
  return out;
}

std::string AlgebraicUpdateMethod::ToString() const {
  std::ostringstream out;
  out << (name().empty() ? "<anonymous>" : name()) << "[";
  for (std::size_t i = 0; i < signature().size(); ++i) {
    if (i > 0) out << ", ";
    out << context_.schema->class_name(signature().class_at(i));
  }
  out << "] {";
  for (const UpdateStatement& s : statements_) {
    out << " " << context_.schema->property(s.property).name << " := "
        << ExprToString(*s.expression) << ";";
  }
  out << " }";
  return out.str();
}

}  // namespace setrec
