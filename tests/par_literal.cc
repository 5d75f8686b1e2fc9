#include "par_literal.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "algebraic/parallel.h"
#include "core/instance_generator.h"
#include "core/printer.h"
#include "core/sequential.h"
#include "relational/builder.h"
#include "relational/evaluator.h"

namespace setrec {

namespace {

/// Natural join of two par-transformed expressions on the shared `self`
/// attribute: σ_{self=self§}(l × ρ_{self→self§}(r)) projected back onto
/// attrs(l) ++ (attrs(r) − self). The throwaway attribute name cannot clash
/// because it is projected away immediately.
constexpr const char kJoinTemp[] = "self§";

Result<ExprPtr> NatJoinOnSelf(const ExprPtr& l, const ExprPtr& r,
                              const Catalog& catalog) {
  SETREC_ASSIGN_OR_RETURN(RelationScheme ls, InferScheme(*l, catalog));
  SETREC_ASSIGN_OR_RETURN(RelationScheme rs, InferScheme(*r, catalog));
  ExprPtr joined = ra::SelectEq(
      ra::Product(l, ra::Rename(r, kSelfRelation, kJoinTemp)), kSelfRelation,
      kJoinTemp);
  std::vector<std::string> keep;
  for (const Attribute& a : ls.attributes()) keep.push_back(a.name);
  for (const Attribute& a : rs.attributes()) {
    if (a.name != kSelfRelation) keep.push_back(a.name);
  }
  return ra::Project(std::move(joined), std::move(keep));
}

Result<ExprPtr> Transform(const ExprPtr& expr, const MethodContext& context,
                          const Catalog& par_catalog) {
  const MethodSignature& sig = context.signature;
  switch (expr->op()) {
    case Expr::Op::kRelation: {
      const std::string& name = expr->relation_name();
      if (name == kSelfRelation) {
        return ra::Project(ra::Rel(kRecRelation), {kSelfRelation});
      }
      for (std::size_t i = 0; i < sig.num_args(); ++i) {
        if (name == ArgRelationName(i)) {
          return ra::Project(ra::Rel(kRecRelation),
                             {kSelfRelation, ArgRelationName(i)});
        }
      }
      return ra::Product(ra::Project(ra::Rel(kRecRelation), {kSelfRelation}),
                         ra::Rel(name));
    }
    case Expr::Op::kUnion:
    case Expr::Op::kDifference: {
      SETREC_ASSIGN_OR_RETURN(ExprPtr l,
                              Transform(expr->left(), context, par_catalog));
      SETREC_ASSIGN_OR_RETURN(ExprPtr r,
                              Transform(expr->right(), context, par_catalog));
      return expr->op() == Expr::Op::kUnion
                 ? ra::Union(std::move(l), std::move(r))
                 : ra::Diff(std::move(l), std::move(r));
    }
    case Expr::Op::kProduct: {
      SETREC_ASSIGN_OR_RETURN(ExprPtr l,
                              Transform(expr->left(), context, par_catalog));
      SETREC_ASSIGN_OR_RETURN(ExprPtr r,
                              Transform(expr->right(), context, par_catalog));
      return NatJoinOnSelf(l, r, par_catalog);
    }
    case Expr::Op::kSelectEq:
    case Expr::Op::kSelectNeq: {
      SETREC_ASSIGN_OR_RETURN(ExprPtr c,
                              Transform(expr->child(), context, par_catalog));
      return expr->op() == Expr::Op::kSelectEq
                 ? ra::SelectEq(std::move(c), expr->attr_a(), expr->attr_b())
                 : ra::SelectNeq(std::move(c), expr->attr_a(), expr->attr_b());
    }
    case Expr::Op::kProject: {
      SETREC_ASSIGN_OR_RETURN(ExprPtr c,
                              Transform(expr->child(), context, par_catalog));
      std::vector<std::string> attrs;
      attrs.push_back(kSelfRelation);
      for (const std::string& a : expr->projection()) {
        if (a != kSelfRelation) attrs.push_back(a);
      }
      return ra::Project(std::move(c), std::move(attrs));
    }
    case Expr::Op::kRename: {
      if (expr->rename_from() == kSelfRelation ||
          expr->rename_to() == kSelfRelation) {
        return Status::InvalidArgument(
            "par(E) cannot rename the reserved attribute self");
      }
      SETREC_ASSIGN_OR_RETURN(ExprPtr c,
                              Transform(expr->child(), context, par_catalog));
      return ra::Rename(std::move(c), expr->rename_from(), expr->rename_to());
    }
  }
  return Status::Internal("unknown expression operator");
}

}  // namespace

Result<ExprPtr> LiteralParTransform(const ExprPtr& expr,
                                    const MethodContext& context) {
  SETREC_ASSIGN_OR_RETURN(Catalog par_catalog, ParCatalog(context));
  return Transform(expr, context, par_catalog);
}

Result<Relation> EvaluateParOver(const ExprPtr& par_expr,
                                 const Instance& instance,
                                 const MethodContext& context,
                                 std::span<const Receiver> receivers,
                                 ExecBackend backend) {
  SETREC_ASSIGN_OR_RETURN(Database db, EncodeInstance(instance));
  SETREC_ASSIGN_OR_RETURN(RelationScheme rec_scheme,
                          RecScheme(context.signature));
  SETREC_ASSIGN_OR_RETURN(Relation rec, RecRelation(rec_scheme, receivers));
  db.Put(kRecRelation, std::move(rec));
  return Evaluate(par_expr, db, {.backend = backend});
}

Result<Instance> LiteralApplySequence(const AlgebraicUpdateMethod& method,
                                      const Instance& instance,
                                      std::span<const Receiver> sequence,
                                      ExecBackend backend, ExecContext& ctx) {
  Instance current = instance;
  for (const Receiver& t : sequence) {
    SETREC_RETURN_IF_ERROR(ctx.CheckPoint("sequential/receiver"));
    if (!t.IsValidOver(method.signature(), current)) {
      return Status::FailedPrecondition(
          "sequence is undefined: receiver not valid over intermediate "
          "instance");
    }
    SETREC_ASSIGN_OR_RETURN(Database db, EncodeInstance(current));
    SETREC_RETURN_IF_ERROR(InstallReceiverRelations(db, method.context(), t,
                                                    /*primed=*/false));
    Evaluator evaluator(&db, {.ctx = &ctx, .backend = backend});
    std::vector<Relation> results;
    for (const UpdateStatement& s : method.statements()) {
      SETREC_ASSIGN_OR_RETURN(Relation r, evaluator.Eval(s.expression));
      results.push_back(std::move(r));
    }
    Instance next = current;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const PropertyId property = method.statements()[i].property;
      SETREC_RETURN_IF_ERROR(
          next.ClearEdgesFrom(t.receiving_object(), property));
      for (const Tuple& target : results[i]) {
        SETREC_RETURN_IF_ERROR(
            next.AddEdge(t.receiving_object(), property, target.at(0)));
      }
    }
    current = std::move(next);
  }
  return current;
}

std::string SequenceMismatch(const AlgebraicUpdateMethod& method,
                             const Instance& instance,
                             std::span<const Receiver> receivers,
                             std::uint64_t seed) {
  std::vector<Receiver> given(receivers.begin(), receivers.end());
  std::vector<Receiver> reversed(given.rbegin(), given.rend());
  std::vector<Receiver> shuffled = given;
  SplitMix64 rng(seed);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.UniformInt(i)]);
  }
  const std::pair<const char*, const std::vector<Receiver>*> orders[] = {
      {"given", &given}, {"reversed", &reversed}, {"shuffled", &shuffled}};
  for (const auto& [name, order] : orders) {
    for (ExecBackend backend :
         {ExecBackend::kInterpreter, ExecBackend::kVectorized}) {
      const Result<Instance> maintained =
          ApplySequence(method, instance, *order, {.backend = backend});
      const Result<Instance> literal =
          LiteralApplySequence(method, instance, *order, backend);
      const std::string where = std::string(" (") + name + " order of " +
                                std::to_string(order->size()) +
                                " receivers, " + ExecBackendName(backend) +
                                ")";
      if (maintained.ok() != literal.ok()) {
        return "one side failed: " +
               (maintained.ok() ? literal.status() : maintained.status())
                   .ToString() +
               where;
      }
      if (!maintained.ok()) {
        if (maintained.status().code() != literal.status().code() ||
            maintained.status().message() != literal.status().message()) {
          return "statuses differ: " + maintained.status().ToString() +
                 " vs " + literal.status().ToString() + where;
        }
      } else if (!(*maintained == *literal)) {
        return "instances differ" + where + ":\n" +
               InstanceToString(*maintained) +
               "vs\n" + InstanceToString(*literal);
      }
    }
  }
  return "";
}

}  // namespace setrec
