// Tests for parallel application (Section 6): the par(E) rewriting
// (Definition 6.1), M_par (Definition 6.2), the singleton coincidence
// (Proposition 6.3), the transitive-closure separation (Example 6.4), the
// key-set coincidence theorem (Theorem 6.5) as a randomized property, and
// the parity gadget (footnote 8).

#include <gtest/gtest.h>

#include <algorithm>

#include "algebraic/method_library.h"
#include "algebraic/parallel.h"
#include "relational/builder.h"
#include "relational/evaluator.h"
#include "core/instance_generator.h"
#include "core/sequential.h"
#include "par_literal.h"

namespace setrec {
namespace {

TEST(ParTransformTest, RewritesLeavesAndOperators) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  auto add_bar = std::move(MakeAddBar(ds)).value();
  const MethodContext& ctx = add_bar->context();
  ExprPtr par = std::move(ParTransform(add_bar->statements()[0].expression,
                                       ctx))
                    .value();
  // The rewritten expression references rec instead of self/arg1 and keeps
  // self in its result scheme.
  std::vector<std::string> rels = ReferencedRelations(*par);
  EXPECT_TRUE(std::find(rels.begin(), rels.end(), "rec") != rels.end());
  EXPECT_TRUE(std::find(rels.begin(), rels.end(), "self") == rels.end());
  EXPECT_TRUE(std::find(rels.begin(), rels.end(), "arg1") == rels.end());

  Catalog par_catalog = std::move(ParCatalog(ctx)).value();
  RelationScheme scheme = std::move(InferScheme(*par, par_catalog)).value();
  ASSERT_EQ(scheme.arity(), 2u);
  EXPECT_EQ(scheme.attribute(0).name, "self");
  EXPECT_EQ(scheme.attribute(0).domain, ds.drinker);
  EXPECT_EQ(scheme.attribute(1).domain, ds.bar);

  // Renaming the reserved attribute self is rejected.
  ExprPtr bad = ra::Rename(Expr::Relation("self"), "self", "elsewhere");
  EXPECT_EQ(ParTransform(bad, ctx).status().code(),
            StatusCode::kInvalidArgument);
}

/// Proposition 6.3: M_par(I, {t}) = M(I, t), as a randomized property over
/// the library methods.
class SingletonCoincidenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SingletonCoincidenceTest, ParallelOnSingletonEqualsDirect) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  InstanceGenerator gen(&ds.schema, GetParam());
  InstanceGenerator::Options options;
  options.min_objects_per_class = 1;
  options.max_objects_per_class = 4;
  options.edge_probability = 0.4;
  Instance instance = gen.RandomInstance(options);

  std::vector<std::unique_ptr<AlgebraicUpdateMethod>> methods;
  methods.push_back(std::move(MakeAddBar(ds)).value());
  methods.push_back(std::move(MakeFavoriteBar(ds)).value());
  methods.push_back(std::move(MakeDeleteBar(ds)).value());
  methods.push_back(std::move(MakeLikesServesBar(ds)).value());
  for (const auto& method : methods) {
    std::vector<Receiver> one =
        gen.RandomReceiverSet(instance, method->signature(), 1);
    if (one.empty()) continue;
    Instance direct = std::move(method->Apply(instance, one[0])).value();
    Instance parallel =
        std::move(ParallelApply(*method, instance, one)).value();
    EXPECT_EQ(direct, parallel) << method->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SingletonCoincidenceTest,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(Example64Test, SequentialComputesTransitiveClosureParallelDoesNot) {
  TcSchema tc = std::move(MakeTcSchema()).value();
  auto method = std::move(MakeTransitiveClosureMethod(tc)).value();

  // A 4-path 0 → 1 → 2 → 3 in e, no tc edges.
  Instance instance(&tc.schema);
  constexpr std::uint32_t kN = 4;
  for (std::uint32_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(instance.AddObject(ObjectId(tc.c, i)).ok());
  }
  for (std::uint32_t i = 0; i + 1 < kN; ++i) {
    ASSERT_TRUE(
        instance.AddEdge(ObjectId(tc.c, i), tc.e, ObjectId(tc.c, i + 1)).ok());
  }
  std::vector<Receiver> all = InstanceGenerator::AllReceivers(
      instance, MethodSignature({tc.c, tc.c}));
  ASSERT_EQ(all.size(), kN * kN);

  // Parallel: every e-edge is duplicated as a tc-edge, nothing more.
  Instance parallel =
      std::move(ParallelApply(*method, instance, all)).value();
  EXPECT_EQ(parallel.edges(tc.tc).size(), kN - 1);
  for (const auto& [src, dst] : instance.edges(tc.e)) {
    EXPECT_TRUE(parallel.HasEdge(src, tc.tc, dst));
  }

  // Sequential: iterating the applications computes the transitive closure
  // (one pass over C × C receivers repeated until fixpoint; on a path,
  // n passes certainly suffice).
  Instance sequential = instance;
  for (std::uint32_t round = 0; round < kN; ++round) {
    sequential =
        std::move(ApplySequence(*method, sequential, all)).value();
  }
  std::size_t expected_tc = 0;
  for (std::uint32_t i = 0; i < kN; ++i) {
    for (std::uint32_t j = i + 1; j < kN; ++j) {
      EXPECT_TRUE(
          sequential.HasEdge(ObjectId(tc.c, i), tc.tc, ObjectId(tc.c, j)))
          << i << "→" << j;
      ++expected_tc;
    }
  }
  EXPECT_EQ(sequential.edges(tc.tc).size(), expected_tc);
}

/// Theorem 6.5: on key sets, sequential and parallel application coincide
/// for key-order independent methods — randomized over instances and key
/// sets for all library methods that are key-order independent.
class Theorem65Test : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Theorem65Test, SequentialEqualsParallelOnKeySets) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  InstanceGenerator gen(&ds.schema, GetParam());
  InstanceGenerator::Options options;
  options.min_objects_per_class = 2;
  options.max_objects_per_class = 4;
  options.edge_probability = 0.4;
  Instance instance = gen.RandomInstance(options);

  std::vector<std::unique_ptr<AlgebraicUpdateMethod>> methods;
  methods.push_back(std::move(MakeAddBar(ds)).value());
  methods.push_back(std::move(MakeFavoriteBar(ds)).value());
  methods.push_back(std::move(MakeDeleteBar(ds)).value());
  methods.push_back(std::move(MakeLikesServesBar(ds)).value());
  for (const auto& method : methods) {
    std::vector<Receiver> keys =
        gen.RandomKeySet(instance, method->signature(), 3);
    ASSERT_TRUE(IsKeySet(keys));
    Instance sequential =
        std::move(ApplySequence(*method, instance, keys)).value();
    Instance parallel =
        std::move(ParallelApply(*method, instance, keys)).value();
    EXPECT_EQ(sequential, parallel) << method->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem65Test,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(Theorem65Test, FailsOnNonKeySetsForFavoriteBar) {
  // The theorem's key-set hypothesis is necessary: favorite_bar on a
  // non-key set gives different sequential and parallel results (parallel
  // assigns *all* argument bars at once).
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  auto favorite = std::move(MakeFavoriteBar(ds)).value();
  Instance instance(&ds.schema);
  const ObjectId d(ds.drinker, 0);
  const ObjectId b0(ds.bar, 0), b1(ds.bar, 1);
  ASSERT_TRUE(instance.AddObject(d).ok());
  ASSERT_TRUE(instance.AddObject(b0).ok());
  ASSERT_TRUE(instance.AddObject(b1).ok());
  std::vector<Receiver> non_key = {Receiver::Unchecked({d, b0}),
                                   Receiver::Unchecked({d, b1})};
  Instance parallel =
      std::move(ParallelApply(*favorite, instance, non_key)).value();
  // Parallel semantics: d points to both bars.
  EXPECT_EQ(parallel.Targets(d, ds.frequents),
            (std::vector<ObjectId>{b0, b1}));
  // Sequential (either order) leaves exactly one bar.
  Instance sequential =
      std::move(ApplySequence(*favorite, instance, non_key)).value();
  EXPECT_EQ(sequential.Targets(d, ds.frequents).size(), 1u);
}

/// Lemma 6.7 directly: on key sets, par(E)(I, T) = ∪_{t∈T} {t(self)} ×
/// E(I, t) — the per-receiver evaluations glued together by the self
/// column. (Stronger than the Theorem 6.5 end-to-end check: it pins the
/// *relation* par(E) computes, not just the final instance.)
class Lemma67Test : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lemma67Test, ParExpressionEqualsUnionOfPerReceiverResults) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  InstanceGenerator gen(&ds.schema, GetParam());
  InstanceGenerator::Options options;
  options.min_objects_per_class = 2;
  options.max_objects_per_class = 4;
  options.edge_probability = 0.4;
  Instance instance = gen.RandomInstance(options);

  std::vector<std::unique_ptr<AlgebraicUpdateMethod>> methods;
  methods.push_back(std::move(MakeAddBar(ds)).value());
  methods.push_back(std::move(MakeDeleteBar(ds)).value());
  for (const auto& method : methods) {
    const MethodContext& ctx = method->context();
    std::vector<Receiver> keys =
        gen.RandomKeySet(instance, method->signature(), 3);
    if (keys.empty()) continue;
    const UpdateStatement& statement = method->statements()[0];

    // Left side: evaluate par(E) against the instance plus rec = keys.
    Database db = std::move(EncodeInstance(instance)).value();
    RelationScheme rec_scheme =
        std::move(RecScheme(ctx.signature)).value();
    Relation rec(rec_scheme);
    for (const Receiver& t : keys) {
      std::vector<ObjectId> values;
      for (std::size_t i = 0; i < t.size(); ++i) {
        values.push_back(t.object_at(i));
      }
      ASSERT_TRUE(rec.Insert(Tuple(std::move(values))).ok());
    }
    db.Put(kRecRelation, std::move(rec));
    ExprPtr par_expr =
        std::move(ParTransform(statement.expression, ctx)).value();
    Relation lhs = std::move(Evaluate(par_expr, db)).value();

    // Right side: ∪_t {t(self)} × E(I, t), computed per receiver.
    std::set<std::pair<ObjectId, ObjectId>> rhs;
    for (const Receiver& t : keys) {
      Database per = std::move(EncodeInstance(instance)).value();
      ASSERT_TRUE(
          InstallReceiverRelations(per, ctx, t, /*primed=*/false).ok());
      Relation value =
          std::move(Evaluate(statement.expression, per)).value();
      for (const Tuple& v : value) {
        rhs.emplace(t.receiving_object(), v.at(0));
      }
    }

    ASSERT_EQ(lhs.scheme().arity(), 2u) << method->name();
    std::size_t self_idx =
        std::move(lhs.scheme().IndexOf("self")).value();
    std::set<std::pair<ObjectId, ObjectId>> lhs_pairs;
    for (const Tuple& t : lhs) {
      lhs_pairs.emplace(t.at(self_idx), t.at(1 - self_idx));
    }
    EXPECT_EQ(lhs_pairs, rhs) << method->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma67Test,
                         ::testing::Range<std::uint64_t>(1, 11));

/// The hoisting rewrite against the literal Definition 6.1 oracle: for the
/// four drinkers methods and the Section 7 payroll statements (B') and
/// (C'), hoisted and literal par(E) denote the same relation — schemes
/// included — for every receiver set: random non-key sets, key sets, the
/// empty set and all receivers. On key sets M_par = M_seq (Theorem 6.5)
/// for the key-order independent methods; (C') reads the Salary edges it
/// updates, so the theorem does not apply to it.
class ParHoistingTest : public ::testing::TestWithParam<std::uint64_t> {};

void ExpectHoistedEqualsLiteral(const AlgebraicUpdateMethod& method,
                                const Instance& instance,
                                InstanceGenerator& gen, bool key_order_oi) {
  const MethodContext& ctx = method.context();
  std::vector<std::vector<Receiver>> sets = {
      {},
      gen.RandomReceiverSet(instance, method.signature(), 12),
      gen.RandomKeySet(instance, method.signature(), 6),
      InstanceGenerator::AllReceivers(instance, method.signature())};
  for (const UpdateStatement& statement : method.statements()) {
    ExprPtr hoisted =
        std::move(ParTransform(statement.expression, ctx)).value();
    ExprPtr literal =
        std::move(LiteralParTransform(statement.expression, ctx)).value();
    for (const std::vector<Receiver>& set : sets) {
      Relation h =
          std::move(EvaluateParOver(hoisted, instance, ctx, set)).value();
      Relation l =
          std::move(EvaluateParOver(literal, instance, ctx, set)).value();
      EXPECT_TRUE(h == l) << method.name() << " over " << set.size()
                          << " receivers";
    }
  }
  const std::vector<Receiver>& keys = sets[2];
  ASSERT_TRUE(IsKeySet(keys));
  if (!key_order_oi) return;
  Instance sequential = std::move(ApplySequence(method, instance, keys)).value();
  Instance parallel = std::move(ParallelApply(method, instance, keys)).value();
  EXPECT_EQ(sequential, parallel) << method.name();
}

TEST_P(ParHoistingTest, HoistedEqualsLiteralOnEveryReceiverSet) {
  InstanceGenerator::Options options;
  options.min_objects_per_class = 2;
  options.max_objects_per_class = 5;
  options.edge_probability = 0.4;

  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  InstanceGenerator drinkers(&ds.schema, GetParam());
  const Instance bars = drinkers.RandomInstance(options);
  for (auto& method : {std::move(MakeAddBar(ds)).value(),
                       std::move(MakeFavoriteBar(ds)).value(),
                       std::move(MakeDeleteBar(ds)).value(),
                       std::move(MakeLikesServesBar(ds)).value()}) {
    ExpectHoistedEqualsLiteral(*method, bars, drinkers, true);
  }

  PayrollSchema ps = std::move(MakePayrollSchema()).value();
  InstanceGenerator payroll(&ps.schema, GetParam());
  const Instance staff = payroll.RandomInstance(options);
  ExpectHoistedEqualsLiteral(*std::move(MakeSalaryFromNewSal(ps)).value(),
                             staff, payroll, true);
  ExpectHoistedEqualsLiteral(
      *std::move(MakeSalaryFromManagersNewSal(ps)).value(), staff, payroll,
      false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParHoistingTest,
                         ::testing::Range<std::uint64_t>(1, 17));

TEST(ParityTest, SequentialApplicationExpressesParity) {
  // Footnote 8: greedy matching via sequential application leaves an
  // unmatched object iff |C| is odd — a query the relational algebra
  // (hence one-shot parallel application) cannot express.
  PairSchema ps = std::move(MakePairSchema()).value();
  auto method = std::move(MakeParityMethod(ps)).value();
  EXPECT_FALSE(method->IsPositiveMethod());

  for (std::uint32_t n = 1; n <= 5; ++n) {
    Instance instance(&ps.schema);
    for (std::uint32_t i = 0; i < n; ++i) {
      ASSERT_TRUE(instance.AddObject(ObjectId(ps.c, i)).ok());
    }
    std::vector<Receiver> all = InstanceGenerator::AllReceivers(
        instance, MethodSignature({ps.c, ps.c}));

    // Run several enumerations; the final instances may differ (the method
    // is order dependent) but the parity readout is invariant.
    std::vector<std::vector<Receiver>> orders;
    orders.push_back(all);
    orders.emplace_back(all.rbegin(), all.rend());
    std::vector<Receiver> shuffled = all;
    SplitMix64 rng(99 + n);
    for (std::size_t i = 0; i + 1 < shuffled.size(); ++i) {
      std::size_t j = i + rng.UniformInt(shuffled.size() - i);
      std::swap(shuffled[i], shuffled[j]);
    }
    orders.push_back(std::move(shuffled));

    for (const auto& order : orders) {
      Instance done = std::move(ApplySequence(*method, instance, order))
                          .value();
      std::set<ObjectId> matched;
      for (const auto& [src, dst] : done.edges(ps.a)) {
        matched.insert(src);
        matched.insert(dst);
      }
      const std::size_t unmatched = n - matched.size();
      EXPECT_EQ(unmatched, n % 2) << "n=" << n;
      // Matching edges pair distinct objects and form a matching.
      EXPECT_EQ(done.edges(ps.a).size(), n / 2);
    }
  }
}

}  // namespace
}  // namespace setrec
