// Tests for the relational algebra engine: typed relations, the evaluator
// for all eight operators, scheme inference, positivity (Definition 5.2),
// dependencies, and classical algebraic identities as randomized properties.

#include <gtest/gtest.h>

#include "core/instance_generator.h"
#include "relational/builder.h"
#include "relational/dependencies.h"
#include "relational/evaluator.h"
#include "relational/expression.h"
#include "relational/relation.h"

namespace setrec {
namespace {

// Two domains: class 0 ("P") and class 1 ("Q").
constexpr ClassId kP = 0;
constexpr ClassId kQ = 1;

ObjectId P(std::uint32_t i) { return ObjectId(kP, i); }
ObjectId Q(std::uint32_t i) { return ObjectId(kQ, i); }

RelationScheme MakeScheme(std::vector<Attribute> attrs) {
  return std::move(RelationScheme::Make(std::move(attrs))).value();
}

class AlgebraTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Relation r(MakeScheme({{"x", kP}, {"y", kQ}}));
    ASSERT_TRUE(r.Insert(Tuple{P(0), Q(0)}).ok());
    ASSERT_TRUE(r.Insert(Tuple{P(0), Q(1)}).ok());
    ASSERT_TRUE(r.Insert(Tuple{P(1), Q(1)}).ok());
    db_.Put("R", std::move(r));

    Relation s(MakeScheme({{"y2", kQ}, {"z", kP}}));
    ASSERT_TRUE(s.Insert(Tuple{Q(1), P(0)}).ok());
    ASSERT_TRUE(s.Insert(Tuple{Q(2), P(1)}).ok());
    db_.Put("S", std::move(s));

    Relation u(MakeScheme({{"x", kP}, {"y", kQ}}));
    ASSERT_TRUE(u.Insert(Tuple{P(1), Q(1)}).ok());
    ASSERT_TRUE(u.Insert(Tuple{P(2), Q(2)}).ok());
    db_.Put("U", std::move(u));
  }

  Database db_;
};

TEST_F(AlgebraTest, RelationInsertEnforcesTyping) {
  Relation r(MakeScheme({{"x", kP}}));
  EXPECT_TRUE(r.Insert(Tuple{P(5)}).ok());
  EXPECT_EQ(r.Insert(Tuple{Q(5)}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.Insert(Tuple{P(1), P(2)}).code(), StatusCode::kInvalidArgument);
  // Duplicate insertion is a no-op.
  EXPECT_TRUE(r.Insert(Tuple{P(5)}).ok());
  EXPECT_EQ(r.size(), 1u);
}

TEST_F(AlgebraTest, UnionAndDifference) {
  Relation u = std::move(Evaluate(ra::Union(ra::Rel("R"), ra::Rel("U")), db_))
                   .value();
  EXPECT_EQ(u.size(), 4u);
  Relation d = std::move(Evaluate(ra::Diff(ra::Rel("R"), ra::Rel("U")), db_))
                   .value();
  EXPECT_EQ(d.size(), 2u);
  EXPECT_TRUE(d.Contains(Tuple{P(0), Q(0)}));
  EXPECT_TRUE(d.Contains(Tuple{P(0), Q(1)}));
  // Scheme mismatch is an error.
  EXPECT_FALSE(Evaluate(ra::Union(ra::Rel("R"), ra::Rel("S")), db_).ok());
}

TEST_F(AlgebraTest, ProductAndJoins) {
  Relation p = std::move(Evaluate(ra::Product(ra::Rel("R"), ra::Rel("S")),
                                  db_))
                   .value();
  EXPECT_EQ(p.size(), 6u);
  EXPECT_EQ(p.scheme().arity(), 4u);
  // Theta-join on y = y2.
  Relation j = std::move(Evaluate(ra::JoinEq(ra::Rel("R"), ra::Rel("S"), "y",
                                             "y2"),
                                  db_))
                   .value();
  EXPECT_EQ(j.size(), 2u);  // (P0,Q1)&(Q1,P0), (P1,Q1)&(Q1,P0)
  // Product with a name collision is rejected.
  EXPECT_FALSE(Evaluate(ra::Product(ra::Rel("R"), ra::Rel("R")), db_).ok());
  // Renaming resolves it.
  ExprPtr rr = ra::Product(
      ra::Rel("R"), ra::Rename(ra::Rename(ra::Rel("R"), "x", "x2"), "y", "y2"));
  EXPECT_EQ(std::move(Evaluate(rr, db_)).value().size(), 9u);
}

TEST_F(AlgebraTest, SelectionsRespectDomains) {
  // x and z share domain P.
  ExprPtr cross = ra::Product(ra::Rel("R"), ra::Rel("S"));
  Relation eq =
      std::move(Evaluate(ra::SelectEq(cross, "x", "z"), db_)).value();
  EXPECT_EQ(eq.size(), 3u);
  Relation neq =
      std::move(Evaluate(ra::SelectNeq(cross, "x", "z"), db_)).value();
  EXPECT_EQ(neq.size(), 3u);
  // Comparing attributes of different domains is a type error.
  EXPECT_FALSE(Evaluate(ra::SelectEq(cross, "x", "y"), db_).ok());
}

TEST_F(AlgebraTest, ProjectionAndGuards) {
  Relation xs = std::move(Evaluate(ra::Project(ra::Rel("R"), {"x"}), db_))
                    .value();
  EXPECT_EQ(xs.size(), 2u);
  // Reordering projection.
  Relation yx = std::move(Evaluate(ra::Project(ra::Rel("R"), {"y", "x"}), db_))
                    .value();
  EXPECT_EQ(yx.scheme().attribute(0).name, "y");
  // π_∅: the nullary guard, {()} iff non-empty.
  Relation guard = std::move(Evaluate(ra::Guard(ra::Rel("R")), db_)).value();
  EXPECT_EQ(guard.size(), 1u);
  EXPECT_EQ(guard.scheme().arity(), 0u);
  Relation empty_guard =
      std::move(Evaluate(ra::Guard(ra::Diff(ra::Rel("R"), ra::Rel("R"))),
                         db_))
          .value();
  EXPECT_TRUE(empty_guard.empty());
  // Guard as a multiplier conditions a relation.
  Relation conditioned = std::move(Evaluate(
                                       ra::Product(ra::Rel("S"),
                                                   ra::Guard(ra::Rel("R"))),
                                       db_))
                             .value();
  EXPECT_EQ(conditioned.size(), 2u);
}

TEST_F(AlgebraTest, RenameValidation) {
  EXPECT_FALSE(Evaluate(ra::Rename(ra::Rel("R"), "nope", "w"), db_).ok());
  EXPECT_FALSE(Evaluate(ra::Rename(ra::Rel("R"), "x", "y"), db_).ok());
  Relation renamed =
      std::move(Evaluate(ra::Rename(ra::Rel("R"), "x", "w"), db_)).value();
  EXPECT_EQ(renamed.scheme().attribute(0).name, "w");
  EXPECT_EQ(renamed.scheme().attribute(0).domain, kP);
}

TEST_F(AlgebraTest, InferSchemeAgreesWithEvaluation) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .AddRelation("R", MakeScheme({{"x", kP}, {"y", kQ}}))
                  .ok());
  ASSERT_TRUE(catalog
                  .AddRelation("S", MakeScheme({{"y2", kQ}, {"z", kP}}))
                  .ok());
  ExprPtr e = ra::Project(
      ra::JoinEq(ra::Rel("R"), ra::Rel("S"), "y", "y2"), {"x", "z"});
  RelationScheme inferred = std::move(InferScheme(*e, catalog)).value();
  Relation evaluated = std::move(Evaluate(e, db_)).value();
  EXPECT_EQ(inferred, evaluated.scheme());
  // Unknown relation.
  EXPECT_FALSE(InferScheme(*ra::Rel("nope"), catalog).ok());
}

TEST_F(AlgebraTest, PositivityAndReferencedRelations) {
  ExprPtr pos = ra::Union(
      ra::Project(ra::JoinNeq(ra::Rel("R"), ra::Rel("S"), "x", "z"), {"x"}),
      ra::Project(ra::Rel("R"), {"x"}));
  EXPECT_TRUE(IsPositive(*pos));
  ExprPtr neg = ra::Diff(ra::Project(ra::Rel("R"), {"x"}),
                         ra::Project(ra::Rel("U"), {"x"}));
  EXPECT_FALSE(IsPositive(*neg));
  EXPECT_EQ(ReferencedRelations(*pos), (std::vector<std::string>{"R", "S"}));
}

TEST_F(AlgebraTest, SubstituteRelationSharesUntouchedSubtrees) {
  ExprPtr left = ra::Project(ra::Rel("R"), {"x"});
  ExprPtr right = ra::Project(ra::Rel("U"), {"x"});
  ExprPtr u = ra::Union(left, right);
  ExprPtr substituted =
      SubstituteRelation(u, "U", ra::Rename(ra::Rel("R"), "y", "w"));
  // Left subtree is shared, right replaced.
  EXPECT_EQ(substituted->left().get(), left.get());
  EXPECT_NE(substituted->right().get(), right.get());
  Relation result = std::move(Evaluate(substituted, db_)).value();
  EXPECT_EQ(result.size(), 2u);
  // No-op substitution returns the identical node.
  EXPECT_EQ(SubstituteRelation(u, "Z", left).get(), u.get());
}

TEST_F(AlgebraTest, EvaluatorMemoizesSharedNodes) {
  ExprPtr shared = ra::Product(ra::Rel("R"), ra::Rel("S"));
  ExprPtr twice = ra::Union(ra::Project(shared, {"x"}),
                            ra::Project(shared, {"x"}));
  Relation result = std::move(Evaluate(twice, db_)).value();
  EXPECT_EQ(result.size(), 2u);
}

TEST_F(AlgebraTest, EvaluatorNeverServesAFreedTemporarysResult) {
  // Both memos are keyed by node address. Evaluating one temporary after
  // another on a single evaluator lets the allocator hand the second the
  // first one's freed address; its result must still be its own.
  Database db;
  Relation a(MakeScheme({{"x", kP}}));
  ASSERT_TRUE(a.Insert(Tuple{P(0)}).ok());
  Relation b(MakeScheme({{"x", kP}}));
  ASSERT_TRUE(b.Insert(Tuple{P(0)}).ok());
  ASSERT_TRUE(b.Insert(Tuple{P(1)}).ok());
  db.Put("A", std::move(a));
  db.Put("B", std::move(b));
  for (ExecBackend backend :
       {ExecBackend::kInterpreter, ExecBackend::kVectorized}) {
    Evaluator evaluator(&db, {.backend = backend});
    for (int i = 0; i < 4; ++i) {
      Result<Relation> a_out = evaluator.Eval(ra::Rel("A"));
      ASSERT_TRUE(a_out.ok()) << a_out.status().message();
      EXPECT_EQ(a_out->size(), 1u) << ExecBackendName(backend);
      Result<Relation> b_out = evaluator.Eval(ra::Rel("B"));
      ASSERT_TRUE(b_out.ok()) << b_out.status().message();
      EXPECT_EQ(b_out->size(), 2u) << ExecBackendName(backend);
    }
  }
}

TEST_F(AlgebraTest, ExprToStringRoundsTheSyntax) {
  ExprPtr e = ra::Project(
      ra::SelectNeq(ra::Product(ra::Rel("R"), ra::Rel("S")), "x", "z"),
      {"x"});
  EXPECT_EQ(ExprToString(*e), "π[x](σ[x≠z]((R × S)))");
}

TEST_F(AlgebraTest, DependencySatisfaction) {
  // R: x -> y fails (P0 maps to Q0 and Q1); U: x -> y holds.
  FunctionalDependency fd_r{"R", {"x"}, "y"};
  FunctionalDependency fd_u{"U", {"x"}, "y"};
  EXPECT_FALSE(std::move(Satisfies(db_, fd_r)).value());
  EXPECT_TRUE(std::move(Satisfies(db_, fd_u)).value());
  // Empty-LHS FD: at most one tuple overall.
  FunctionalDependency singleton{"R", {}, "x"};
  EXPECT_FALSE(std::move(Satisfies(db_, singleton)).value());

  // Full IND: U[x y] ⊆ R fails on (P2,Q2); U ⊆ R∪U holds — test via R.
  InclusionDependency ind{"U", {"x", "y"}, "R"};
  EXPECT_FALSE(std::move(Satisfies(db_, ind)).value());
  InclusionDependency refl{"R", {"x", "y"}, "R"};
  EXPECT_TRUE(std::move(Satisfies(db_, refl)).value());

  // Disjointness over unary relations.
  Relation a(MakeScheme({{"v", kP}}));
  ASSERT_TRUE(a.Insert(Tuple{P(0)}).ok());
  Relation b(MakeScheme({{"w", kP}}));
  ASSERT_TRUE(b.Insert(Tuple{P(1)}).ok());
  Database db2;
  db2.Put("A", std::move(a));
  db2.Put("B", std::move(b));
  EXPECT_TRUE(
      std::move(Satisfies(db2, DisjointnessDependency{"A", "B"})).value());
  Relation b2(MakeScheme({{"w", kP}}));
  ASSERT_TRUE(b2.Insert(Tuple{P(0)}).ok());
  db2.Put("B", std::move(b2));
  EXPECT_FALSE(
      std::move(Satisfies(db2, DisjointnessDependency{"A", "B"})).value());
}

/// Differential test for the evaluator's join fusion: selection chains over
/// a product must agree with the unfused reference (product first, filters
/// applied one at a time), across mixes of cross-side equalities (join
/// keys), same-side conditions (local filters) and cross non-equalities
/// (residual filters).
class JoinFusionTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JoinFusionTest, FusedChainMatchesUnfusedReference) {
  SplitMix64 rng(GetParam() * 104729);
  Database db;
  auto random_relation = [&](std::vector<Attribute> attrs) {
    Relation r(MakeScheme(std::move(attrs)));
    const std::size_t n = 2 + rng.UniformInt(8);
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<ObjectId> values;
      for (std::size_t k = 0; k < r.scheme().arity(); ++k) {
        values.push_back(
            ObjectId(r.scheme().attribute(k).domain,
                     static_cast<std::uint32_t>(rng.UniformInt(3))));
      }
      EXPECT_TRUE(r.Insert(Tuple(std::move(values))).ok());
    }
    return r;
  };
  db.Put("L", random_relation({{"a", kP}, {"b", kP}, {"c", kQ}}));
  db.Put("R2", random_relation({{"d", kP}, {"e", kP}, {"f", kQ}}));

  // A random chain of 1-4 selections over L × R2.
  const char* kAttrsP[] = {"a", "b", "d", "e"};
  const char* kAttrsQ[] = {"c", "f"};
  ExprPtr chain = ra::Product(ra::Rel("L"), ra::Rel("R2"));
  std::vector<std::pair<std::string, std::string>> conds;
  std::vector<bool> equals;
  const std::size_t n_conds = 1 + rng.UniformInt(4);
  for (std::size_t i = 0; i < n_conds; ++i) {
    std::string a, b;
    if (rng.UniformInt(4) == 0) {
      a = kAttrsQ[rng.UniformInt(2)];
      b = kAttrsQ[rng.UniformInt(2)];
    } else {
      a = kAttrsP[rng.UniformInt(4)];
      b = kAttrsP[rng.UniformInt(4)];
    }
    const bool eq = rng.UniformInt(2) == 0;
    chain = eq ? ra::SelectEq(chain, a, b) : ra::SelectNeq(chain, a, b);
    conds.emplace_back(a, b);
    equals.push_back(eq);
  }
  Relation fused = std::move(Evaluate(chain, db)).value();

  // Reference: materialize the product, then filter tuple by tuple.
  Relation product =
      std::move(Evaluate(ra::Product(ra::Rel("L"), ra::Rel("R2")), db))
          .value();
  Relation reference(fused.scheme());
  for (const Tuple& t : product) {
    bool keep = true;
    for (std::size_t i = 0; i < conds.size(); ++i) {
      const std::size_t ia =
          std::move(product.scheme().IndexOf(conds[i].first)).value();
      const std::size_t ib =
          std::move(product.scheme().IndexOf(conds[i].second)).value();
      if ((t.at(ia) == t.at(ib)) != equals[i]) {
        keep = false;
        break;
      }
    }
    if (keep) {
      ASSERT_TRUE(reference.Insert(t).ok());
    }
  }
  EXPECT_EQ(fused, reference);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinFusionTest,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST_F(AlgebraTest, GuardShortCircuitKeepsSchemes) {
  // E × π_∅(∅): empty guard; the result must still carry E's scheme even
  // though the data path is skipped.
  ExprPtr empty_guard = ra::Guard(ra::Diff(ra::Rel("R"), ra::Rel("R")));
  Relation left_guarded =
      std::move(Evaluate(ra::Product(empty_guard, ra::Rel("S")), db_))
          .value();
  EXPECT_TRUE(left_guarded.empty());
  EXPECT_EQ(left_guarded.scheme().attribute(0).name, "y2");
  Relation right_guarded =
      std::move(Evaluate(ra::Product(ra::Rel("S"), empty_guard), db_))
          .value();
  EXPECT_TRUE(right_guarded.empty());
  EXPECT_EQ(right_guarded.scheme().attribute(0).name, "y2");
  // Non-empty guard: identical to the plain relation.
  Relation passed =
      std::move(Evaluate(ra::Product(ra::Rel("S"), ra::Guard(ra::Rel("R"))),
                         db_))
          .value();
  EXPECT_EQ(passed.size(), 2u);
}

/// Randomized algebraic identities: distributivity of selection over union,
/// projection-pushing through union, and De Morgan-ish difference laws.
class AlgebraPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AlgebraPropertyTest, ClassicalIdentitiesHold) {
  SplitMix64 rng(GetParam());
  Database db;
  auto random_relation = [&]() {
    Relation r(MakeScheme({{"x", kP}, {"y", kP}}));
    const std::size_t n = 1 + rng.UniformInt(6);
    for (std::size_t i = 0; i < n; ++i) {
      Status s = r.Insert(Tuple{P(static_cast<std::uint32_t>(rng.UniformInt(3))),
                                P(static_cast<std::uint32_t>(rng.UniformInt(3)))});
      EXPECT_TRUE(s.ok());
    }
    return r;
  };
  db.Put("A", random_relation());
  db.Put("B", random_relation());

  auto eval = [&](const ExprPtr& e) {
    return std::move(Evaluate(e, db)).value();
  };
  ExprPtr a = ra::Rel("A"), b = ra::Rel("B");
  // σ(A ∪ B) = σ(A) ∪ σ(B).
  EXPECT_EQ(eval(ra::SelectEq(ra::Union(a, b), "x", "y")),
            eval(ra::Union(ra::SelectEq(a, "x", "y"),
                           ra::SelectEq(b, "x", "y"))));
  // σ(A − B) = σ(A) − σ(B).
  EXPECT_EQ(eval(ra::SelectNeq(ra::Diff(a, b), "x", "y")),
            eval(ra::Diff(ra::SelectNeq(a, "x", "y"),
                          ra::SelectNeq(b, "x", "y"))));
  // π(A ∪ B) = π(A) ∪ π(B).
  EXPECT_EQ(eval(ra::Project(ra::Union(a, b), {"x"})),
            eval(ra::Union(ra::Project(a, {"x"}), ra::Project(b, {"x"}))));
  // A − (A − B) = A ∩ B = join-free intersection via double difference.
  EXPECT_EQ(eval(ra::Diff(a, ra::Diff(a, b))), eval(ra::Diff(b, ra::Diff(b, a))));
  // Union is commutative and idempotent.
  EXPECT_EQ(eval(ra::Union(a, b)), eval(ra::Union(b, a)));
  EXPECT_EQ(eval(ra::Union(a, a)), eval(a));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgebraPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace setrec
