// Tests for the shared operator plan (relational/plan.h): σ-chain condition
// classification, DAG sharing, type errors identical to InferScheme's, and
// linear-time handling of deeply self-shared expressions by every consumer
// of the plan.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "relational/builder.h"
#include "relational/evaluator.h"
#include "relational/expression.h"
#include "relational/plan.h"
#include "relational/relation.h"

namespace setrec {
namespace {

constexpr ClassId kP = 0;
constexpr ClassId kQ = 1;

RelationScheme MakeScheme(std::vector<Attribute> attrs) {
  return std::move(RelationScheme::Make(std::move(attrs))).value();
}

/// R(a, b) and S(c, d) over P, T(q) over Q.
Catalog TestCatalog() {
  Catalog catalog;
  EXPECT_TRUE(
      catalog.AddRelation("R", MakeScheme({{"a", kP}, {"b", kP}})).ok());
  EXPECT_TRUE(
      catalog.AddRelation("S", MakeScheme({{"c", kP}, {"d", kP}})).ok());
  EXPECT_TRUE(catalog.AddRelation("T", MakeScheme({{"q", kQ}})).ok());
  return catalog;
}

Database TestDatabase() {
  Database db;
  Relation r(MakeScheme({{"a", kP}, {"b", kP}}));
  EXPECT_TRUE(r.Insert(Tuple{ObjectId(kP, 0), ObjectId(kP, 1)}).ok());
  db.Put("R", std::move(r));
  db.Put("S", Relation(MakeScheme({{"c", kP}, {"d", kP}})));
  db.Put("T", Relation(MakeScheme({{"q", kQ}})));
  return db;
}

std::vector<const Expr*> Origins(const std::vector<Plan::Cond>& conds) {
  std::vector<const Expr*> out;
  for (const Plan::Cond& c : conds) out.push_back(c.origin);
  return out;
}

TEST(PlanTest, ChainConditionsLandInExactlyOneClassInChainOrder) {
  // Top σ first: two keys (one written right-side first), two probe
  // filters, two build filters, two residuals, interleaved.
  ExprPtr product = ra::Product(ra::Rel("R"), ra::Rel("S"));
  const std::vector<std::pair<std::string, std::string>> written = {
      {"a", "c"}, {"a", "b"}, {"c", "d"}, {"b", "c"},
      {"d", "b"}, {"b", "a"}, {"d", "c"}, {"a", "d"}};
  const std::vector<bool> equal = {true,  false, true, false,
                                   true,  true,  false, false};
  // Build bottom-up so that written[0] ends up as the chain's top.
  ExprPtr chain = product;
  for (std::size_t i = written.size(); i-- > 0;) {
    chain = equal[i] ? ra::SelectEq(chain, written[i].first, written[i].second)
                     : ra::SelectNeq(chain, written[i].first,
                                     written[i].second);
  }
  std::vector<const Expr*> chain_order;
  for (const Expr* s = chain.get(); s != product.get();
       s = s->child().get()) {
    chain_order.push_back(s);
  }

  Plan plan = std::move(Plan::Build(*chain, TestCatalog())).value();
  ASSERT_EQ(plan.size(), 3u);  // Scan R, Scan S, the fused join
  const Plan::Node& join = plan.root();
  ASSERT_EQ(join.kind, Plan::Kind::kJoin);
  EXPECT_EQ(join.origin, chain.get());
  EXPECT_EQ(plan.node(join.left).origin, product->left().get());
  EXPECT_EQ(plan.node(join.right).origin, product->right().get());

  auto at = [&](std::size_t i) { return chain_order[i]; };
  EXPECT_EQ(Origins(join.keys), (std::vector<const Expr*>{at(0), at(4)}));
  EXPECT_EQ(Origins(join.probe_filters),
            (std::vector<const Expr*>{at(1), at(5)}));
  EXPECT_EQ(Origins(join.build_filters),
            (std::vector<const Expr*>{at(2), at(6)}));
  EXPECT_EQ(Origins(join.residuals), (std::vector<const Expr*>{at(3), at(7)}));

  // Keys resolve to (left column, right column) pairs whichever side the
  // condition names first: a=c is (0, 0), d=b is (1, 1).
  EXPECT_EQ(join.left_key, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(join.right_key, (std::vector<std::size_t>{0, 1}));
  // Side-local indices: b≠c is left column 1 against right column 0.
  const Plan::Cond& residual = join.residuals[0];
  EXPECT_TRUE(residual.a_left);
  EXPECT_FALSE(residual.b_left);
  EXPECT_EQ(residual.ia, 1u);
  EXPECT_EQ(residual.ib, 0u);
  EXPECT_FALSE(residual.equal);
}

TEST(PlanTest, SharedSubtermIsOnePlanNode) {
  ExprPtr shared = ra::Project(ra::Rel("R"), {"a"});
  ExprPtr both = ra::Union(shared, shared);
  Plan plan = std::move(Plan::Build(*both, TestCatalog())).value();
  ASSERT_EQ(plan.size(), 3u);  // Scan R, Project, Union
  EXPECT_EQ(plan.root().left, plan.root().right);
  EXPECT_EQ(plan.node(plan.root().left).origin, shared.get());

  // A chain's interior σ that is also referenced on its own is planned
  // twice over one shared product input: once fused into the outer chain,
  // once as its own join.
  ExprPtr inner = ra::SelectEq(ra::Product(ra::Rel("R"), ra::Rel("S")), "a",
                               "c");
  ExprPtr outer = ra::SelectNeq(inner, "b", "d");
  ExprPtr shape = ra::Union(outer, inner);
  Plan chains = std::move(Plan::Build(*shape, TestCatalog())).value();
  ASSERT_EQ(chains.size(), 5u);  // Scan R, Scan S, two joins, Union
  const Plan::Node& outer_join = chains.node(chains.root().left);
  const Plan::Node& inner_join = chains.node(chains.root().right);
  EXPECT_EQ(outer_join.origin, outer.get());
  EXPECT_EQ(inner_join.origin, inner.get());
  EXPECT_EQ(outer_join.keys.size(), 1u);
  EXPECT_EQ(outer_join.residuals.size(), 1u);
  EXPECT_EQ(outer_join.left, inner_join.left);
  EXPECT_EQ(outer_join.right, inner_join.right);
  EXPECT_EQ(chains.base_relations(), (std::vector<std::string>{"R", "S"}));
}

TEST(PlanTest, GuardSideIsTheFirstNullaryProjection) {
  ExprPtr guard = ra::Guard(ra::Rel("T"));
  Plan left = std::move(Plan::Build(*ra::Product(guard, ra::Rel("R")),
                                    TestCatalog()))
                  .value();
  EXPECT_EQ(left.root().guard, Plan::Guard::kLeft);
  Plan right = std::move(Plan::Build(*ra::Product(ra::Rel("R"), guard),
                                     TestCatalog()))
                   .value();
  EXPECT_EQ(right.root().guard, Plan::Guard::kRight);
  EXPECT_EQ(right.root().scheme, MakeScheme({{"a", kP}, {"b", kP}}));
  Plan bare = std::move(Plan::Build(*ra::Product(ra::Rel("R"), ra::Rel("S")),
                                    TestCatalog()))
                  .value();
  EXPECT_EQ(bare.root().guard, Plan::Guard::kNone);
}

/// A self-shared union chain has 2^depth paths but depth + 1 nodes. Every
/// walk must be linear in the nodes: with an unmemoised walk this test
/// cannot finish.
TEST(PlanTest, DeepSelfSharedUnionChainIsLinear) {
  constexpr int kDepth = 40;
  ExprPtr e = ra::Rel("R");
  for (int i = 0; i < kDepth; ++i) e = ra::Union(e, e);

  const Catalog catalog = TestCatalog();
  Plan plan = std::move(Plan::Build(*e, catalog)).value();
  EXPECT_EQ(plan.size(), static_cast<std::size_t>(kDepth + 1));
  Result<RelationScheme> scheme = InferScheme(*e, catalog);
  ASSERT_TRUE(scheme.ok()) << scheme.status().message();
  EXPECT_EQ(*scheme, MakeScheme({{"a", kP}, {"b", kP}}));
  EXPECT_EQ(ReferencedRelations(*e), (std::vector<std::string>{"R"}));
  EXPECT_TRUE(IsPositive(*e));

  // Substitution keeps the sharing: one output node per input node.
  Catalog renamed = TestCatalog();
  ASSERT_TRUE(
      renamed.AddRelation("R2", MakeScheme({{"a", kP}, {"b", kP}})).ok());
  ExprPtr substituted = SubstituteRelation(e, "R", ra::Rel("R2"));
  Plan substituted_plan =
      std::move(Plan::Build(*substituted, renamed)).value();
  EXPECT_EQ(substituted_plan.size(), static_cast<std::size_t>(kDepth + 1));
  EXPECT_EQ(ReferencedRelations(*substituted),
            (std::vector<std::string>{"R2"}));

  const Database db = TestDatabase();
  const Relation& r = *std::move(db.Find("R")).value();
  for (ExecBackend backend : {ExecBackend::kAuto, ExecBackend::kInterpreter,
                              ExecBackend::kVectorized}) {
    ExecOptions options;
    options.backend = backend;
    Result<Relation> out = Evaluate(e, db, options);
    ASSERT_TRUE(out.ok()) << ExecBackendName(backend) << ": "
                          << out.status().message();
    EXPECT_EQ(out->size(), 1u) << ExecBackendName(backend);
    EXPECT_TRUE(*out == r) << ExecBackendName(backend);
  }
}

/// Ill-typed inputs fail with the status code and message InferScheme has
/// always reported — now for every consumer, since all of them plan first.
TEST(PlanTest, IllTypedInputsFailWithInferSchemesStatus) {
  struct Case {
    ExprPtr expr;
    StatusCode code;
    std::string message;
  };
  ExprPtr rs = ra::Product(ra::Rel("R"), ra::Rel("S"));
  const std::vector<Case> cases = {
      {ra::Rel("Nope"), StatusCode::kNotFound, "no relation named Nope"},
      {ra::Union(ra::Rel("R"), ra::Rel("S")), StatusCode::kInvalidArgument,
       "union/difference operands must have identical schemes"},
      {ra::Diff(ra::Rel("R"), ra::Rel("T")), StatusCode::kInvalidArgument,
       "union/difference operands must have identical schemes"},
      {ra::Product(ra::Rel("R"), ra::Rel("R")), StatusCode::kInvalidArgument,
       "product operands share attribute name a; rename first"},
      {ra::SelectEq(ra::Rel("R"), "a", "zz"), StatusCode::kNotFound,
       "no attribute named zz"},
      {ra::SelectNeq(ra::Product(ra::Rel("R"), ra::Rel("T")), "a", "q"),
       StatusCode::kInvalidArgument,
       "selection compares attributes of different domains: a vs q"},
      {ra::SelectEq(ra::Product(ra::Rel("R"), ra::Rel("T")), "q", "b"),
       StatusCode::kInvalidArgument,
       "selection compares attributes of different domains: q vs b"},
      // In a chain, the σ nearest the product is checked first.
      {ra::SelectEq(ra::SelectEq(rs, "a", "nope2"), "a", "nope1"),
       StatusCode::kNotFound, "no attribute named nope2"},
      {ra::Project(ra::Rel("R"), {"a", "a"}), StatusCode::kInvalidArgument,
       "duplicate projection attribute a"},
      {ra::Project(ra::Rel("R"), {"zz"}), StatusCode::kNotFound,
       "no attribute named zz"},
      {ra::Rename(ra::Rel("R"), "zz", "w"), StatusCode::kNotFound,
       "no attribute named zz"},
      {ra::Rename(ra::Rel("R"), "a", "b"), StatusCode::kInvalidArgument,
       "rename target attribute b already present"},
      // An empty π∅ guard skips the other side's data, not its type check.
      {ra::Product(ra::Guard(ra::Diff(ra::Rel("R"), ra::Rel("R"))),
                   ra::SelectEq(ra::Product(ra::Rel("R"), ra::Rel("T")), "a",
                                "q")),
       StatusCode::kInvalidArgument,
       "selection compares attributes of different domains: a vs q"},
      // Left operand first: its error wins over the right's.
      {ra::Union(ra::Rel("Nope1"), ra::Rel("Nope2")), StatusCode::kNotFound,
       "no relation named Nope1"},
  };
  const Catalog catalog = TestCatalog();
  const Database db = TestDatabase();
  for (const Case& c : cases) {
    const std::string text = ExprToString(*c.expr);
    Result<RelationScheme> inferred = InferScheme(*c.expr, catalog);
    ASSERT_FALSE(inferred.ok()) << text;
    EXPECT_EQ(inferred.status().code(), c.code) << text;
    EXPECT_EQ(inferred.status().message(), c.message) << text;

    Result<Plan> from_db = Plan::Build(*c.expr, db);
    ASSERT_FALSE(from_db.ok()) << text;
    EXPECT_EQ(from_db.status().code(), c.code) << text;
    EXPECT_EQ(from_db.status().message(), c.message) << text;

    for (ExecBackend backend :
         {ExecBackend::kInterpreter, ExecBackend::kVectorized}) {
      ExecOptions options;
      options.backend = backend;
      Result<Relation> evaluated = Evaluate(c.expr, db, options);
      ASSERT_FALSE(evaluated.ok()) << text;
      EXPECT_EQ(evaluated.status().code(), c.code) << text;
      EXPECT_EQ(evaluated.status().message(), c.message) << text;
    }
  }
}

/// Every backend plans before it executes, so an ill-typed expression
/// charges no work, even where a valid subterm would run first.
TEST(PlanTest, TypeErrorsSurfaceBeforeAnyWork) {
  ExprPtr renamed = ra::Rename(ra::Rename(ra::Rel("R"), "a", "a2"), "b", "b2");
  ExprPtr valid = ra::Product(ra::Rel("R"), renamed);
  ExprPtr ill_typed = ra::Union(valid, ra::Rel("Nope"));
  const Database db = TestDatabase();
  for (ExecBackend backend :
       {ExecBackend::kInterpreter, ExecBackend::kVectorized}) {
    MetricsRegistry metrics;
    ExecOptions options;
    options.metrics = &metrics;
    options.backend = backend;
    ASSERT_EQ(Evaluate(valid, db, options).status().code(), StatusCode::kOk);
    EXPECT_EQ(metrics.engine.eval_rows.value(), 1u);
    metrics.engine.eval_rows.Reset();
    EXPECT_EQ(Evaluate(ill_typed, db, options).status().code(),
              StatusCode::kNotFound);
    EXPECT_EQ(metrics.engine.eval_rows.value(), 0u)
        << ExecBackendName(backend);
  }
}

}  // namespace
}  // namespace setrec
