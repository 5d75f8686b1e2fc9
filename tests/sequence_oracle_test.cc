// Sequential application over one maintained encoding
// (AlgebraicUpdateMethod::FoldSequence) against the step-by-step literal
// fold that re-encodes the instance for every receiver (par_literal.h):
// every library method, including (C'), which reads the relation it
// writes, and the transitive-closure method of Example 6.4, on arbitrary
// receiver sets in several orders at both backends; invalid receivers and
// budgets mid-sequence; and the backend SequentialApply is given.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algebraic/method_library.h"
#include "core/instance_generator.h"
#include "core/sequential.h"
#include "par_literal.h"

namespace setrec {
namespace {

using MethodPtr = std::unique_ptr<AlgebraicUpdateMethod>;

/// Checks every method of `methods` over random instances of `schema` and
/// random (non-key) receiver sets, as given and against Apply on single
/// receivers.
void CheckLibrary(const Schema& schema, const std::vector<MethodPtr>& methods,
                  std::uint64_t seed) {
  InstanceGenerator::Options options;
  options.min_objects_per_class = 2;
  options.max_objects_per_class = 4;
  options.edge_probability = 0.4;
  InstanceGenerator gen(&schema, seed);
  for (const MethodPtr& method : methods) {
    SCOPED_TRACE(method->ToString());
    const Instance instance = gen.RandomInstance(options);
    const std::vector<Receiver> receivers =
        gen.RandomReceiverSet(instance, method->signature(), 10);
    EXPECT_EQ(SequenceMismatch(*method, instance, receivers, seed), "");
    // Apply is the length-one fold.
    for (const Receiver& t : receivers) {
      const Result<Instance> direct = method->Apply(instance, t);
      const Result<Instance> literal =
          LiteralApplySequence(*method, instance, {&t, 1});
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();
      ASSERT_TRUE(literal.ok()) << literal.status().ToString();
      EXPECT_EQ(*direct, *literal);
    }
  }
}

class SequenceOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SequenceOracleTest, LibraryMethodsFoldAsTheLiteralSequence) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  std::vector<MethodPtr> drinkers;
  drinkers.push_back(std::move(MakeAddBar(ds)).value());
  drinkers.push_back(std::move(MakeFavoriteBar(ds)).value());
  drinkers.push_back(std::move(MakeDeleteBar(ds)).value());
  drinkers.push_back(std::move(MakeLikesServesBar(ds)).value());
  drinkers.push_back(std::move(MakeClearBars(ds)).value());
  drinkers.push_back(std::move(MakeAllBars(ds)).value());
  CheckLibrary(ds.schema, drinkers, GetParam());

  TcSchema tc = std::move(MakeTcSchema()).value();
  std::vector<MethodPtr> closure;
  closure.push_back(std::move(MakeTransitiveClosureMethod(tc)).value());
  CheckLibrary(tc.schema, closure, GetParam());

  PairSchema pair = std::move(MakePairSchema()).value();
  std::vector<MethodPtr> pairs;
  pairs.push_back(std::move(MakeConditionalDeleteMethod(pair)).value());
  pairs.push_back(std::move(MakeCopyExtendMethod(pair)).value());
  pairs.push_back(std::move(MakeParityMethod(pair)).value());
  CheckLibrary(pair.schema, pairs, GetParam());

  PayrollSchema ps = std::move(MakePayrollSchema()).value();
  std::vector<MethodPtr> payroll;
  payroll.push_back(std::move(MakeSalaryFromNewSal(ps)).value());
  // (C') reads EmpSalary, which it writes: each step sees the salaries the
  // earlier steps gave.
  payroll.push_back(std::move(MakeSalaryFromManagersNewSal(ps)).value());
  CheckLibrary(ps.schema, payroll, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SequenceOracleTest,
                         ::testing::Range<std::uint64_t>(0, 10));

/// The graph of examples/transitive_closure.cpp: a path 0→1→...→7 plus the
/// chord 2→6.
Instance ExampleGraph(const TcSchema& tc) {
  Instance graph(&tc.schema);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(graph.AddObject(ObjectId(tc.c, i)).ok());
  }
  for (std::uint32_t i = 0; i + 1 < 8; ++i) {
    EXPECT_TRUE(
        graph.AddEdge(ObjectId(tc.c, i), tc.e, ObjectId(tc.c, i + 1)).ok());
  }
  EXPECT_TRUE(graph.AddEdge(ObjectId(tc.c, 2), tc.e, ObjectId(tc.c, 6)).ok());
  return graph;
}

TEST(SequenceOracleExampleTest, TransitiveClosurePassesFoldAsTheLiteral) {
  // The example iterates sequential passes over C × C to the fixpoint; the
  // tc relation each step reads is the one the earlier steps wrote.
  TcSchema tc = std::move(MakeTcSchema()).value();
  MethodPtr method = std::move(MakeTransitiveClosureMethod(tc)).value();
  Instance current = ExampleGraph(tc);
  const std::vector<Receiver> all = InstanceGenerator::AllReceivers(
      current, MethodSignature({tc.c, tc.c}));
  for (int pass = 0; pass < 8; ++pass) {
    EXPECT_EQ(SequenceMismatch(*method, current, all, 7), "")
        << "pass " << pass;
    Instance next = std::move(ApplySequence(*method, current, all)).value();
    if (next == current) break;
    current = std::move(next);
  }
  // 0..7 reach every later vertex: 7 + 6 + ... + 1 tc-edges.
  EXPECT_EQ(current.edges(tc.tc).size(), 28u);
}

TEST(SequenceOracleErrorTest, InvalidReceiverMidSequenceFailsAsTheLiteral) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  MethodPtr add_bar = std::move(MakeAddBar(ds)).value();
  InstanceGenerator gen(&ds.schema, 3);
  const Instance instance = gen.RandomInstance({});
  std::vector<Receiver> sequence =
      gen.RandomReceiverSet(instance, add_bar->signature(), 6);
  ASSERT_GE(sequence.size(), 2u);
  // A drinker that is not in the instance, in the middle of the sequence.
  sequence.insert(
      sequence.begin() + 1,
      Receiver::Unchecked({ObjectId(ds.drinker, 999), ObjectId(ds.bar, 0)}));
  const Instance before = instance;
  const Result<Instance> maintained =
      ApplySequence(*add_bar, instance, sequence);
  const Result<Instance> literal =
      LiteralApplySequence(*add_bar, instance, sequence);
  ASSERT_FALSE(maintained.ok());
  EXPECT_EQ(maintained.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(maintained.status().code(), literal.status().code());
  EXPECT_EQ(maintained.status().message(), literal.status().message());
  EXPECT_EQ(SequenceMismatch(*add_bar, instance, sequence, 3), "");
  EXPECT_EQ(instance, before);
}

TEST(SequenceOracleErrorTest, StepBudgetMidSequenceLeavesTheInputUntouched) {
  PayrollSchema ps = std::move(MakePayrollSchema()).value();
  MethodPtr method = std::move(MakeSalaryFromManagersNewSal(ps)).value();
  InstanceGenerator gen(&ps.schema, 5);
  const Instance instance = gen.RandomInstance({.min_objects_per_class = 4,
                                                .max_objects_per_class = 6,
                                                .edge_probability = 0.5});
  const std::vector<Receiver> sequence =
      InstanceGenerator::AllReceivers(instance, method->signature());
  ASSERT_GE(sequence.size(), 4u);
  const Instance before = instance;

  ExecContext full;
  ASSERT_TRUE(ApplySequence(*method, instance, sequence, {.ctx = &full}).ok());
  // Half the steps a whole run takes: the budget stops the sequence
  // part-way, after some steps have changed the intermediate instance.
  ExecContext half(ExecContext::Limits{.max_steps = full.steps() / 2});
  const Result<Instance> stopped =
      ApplySequence(*method, instance, sequence, {.ctx = &half});
  ASSERT_FALSE(stopped.ok());
  EXPECT_EQ(stopped.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(instance, before);

  ExecContext literal_full;
  ASSERT_TRUE(LiteralApplySequence(*method, instance, sequence,
                                   ExecBackend::kAuto, literal_full)
                  .ok());
  ExecContext literal_half(
      ExecContext::Limits{.max_steps = literal_full.steps() / 2});
  EXPECT_EQ(LiteralApplySequence(*method, instance, sequence,
                                 ExecBackend::kAuto, literal_half)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

TEST(SequenceBackendTest, SequentialApplyRunsOnTheGivenBackend) {
  // SequentialApply evaluates every step on options.backend. The backends
  // agree on the result but not on the context's steps: the vectorized
  // engine charges rows once per batch, the interpreter once per row.
  TcSchema tc = std::move(MakeTcSchema()).value();
  MethodPtr method = std::move(MakeTransitiveClosureMethod(tc)).value();
  // A complete graph on 8 vertices: every step joins 7 e-edges.
  Instance graph(&tc.schema);
  for (std::uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(graph.AddObject(ObjectId(tc.c, i)).ok());
  }
  for (std::uint32_t i = 0; i < 8; ++i) {
    for (std::uint32_t j = 0; j < 8; ++j) {
      if (i == j) continue;
      ASSERT_TRUE(
          graph.AddEdge(ObjectId(tc.c, i), tc.e, ObjectId(tc.c, j)).ok());
    }
  }
  const std::vector<Receiver> all =
      InstanceGenerator::AllReceivers(graph, method->signature());

  ExecContext interpreter_ctx;
  const Result<Instance> interpreted =
      SequentialApply(*method, graph, all,
                      {.ctx = &interpreter_ctx,
                       .backend = ExecBackend::kInterpreter});
  ExecContext vectorized_ctx;
  const Result<Instance> vectorized =
      SequentialApply(*method, graph, all,
                      {.ctx = &vectorized_ctx,
                       .backend = ExecBackend::kVectorized});
  ASSERT_TRUE(interpreted.ok()) << interpreted.status().ToString();
  ASSERT_TRUE(vectorized.ok()) << vectorized.status().ToString();

  EXPECT_FALSE(*interpreted == graph);
  EXPECT_TRUE(*vectorized == *interpreted);
  EXPECT_LT(vectorized_ctx.steps(), interpreter_ctx.steps());
}

}  // namespace
}  // namespace setrec
