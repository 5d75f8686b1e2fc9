// Differential tests for the compiled vectorized batch backend
// (relational/vectorized/): the interpreter is the oracle, and every
// observable — results, error status codes, logical engine counters,
// per-node EXPLAIN ANALYZE statistics — must be bit-identical across
// ExecBackend::kInterpreter and kVectorized. The acceptance property rides
// the same 16-seed drinkers corpus the parallel runtime pins: identical
// instances at 1/2/8 workers under either backend.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algebraic/method_library.h"
#include "algebraic/parallel.h"
#include "core/instance_generator.h"
#include "core/thread_pool.h"
#include "obs/explain.h"
#include "relational/builder.h"
#include "relational/evaluator.h"
#include "relational/relation.h"
#include "sql/table.h"
#include "text/printer.h"

namespace setrec {
namespace {

constexpr ClassId kP = 0;

ObjectId P(std::uint32_t i) { return ObjectId(kP, i); }

RelationScheme MakeScheme(std::vector<Attribute> attrs) {
  return std::move(RelationScheme::Make(std::move(attrs))).value();
}

/// One governed run and its logical counters, collected into a fresh
/// registry so runs never share counter state.
struct CountedRun {
  Result<Relation> result;
  std::map<std::string, std::uint64_t> counters;
};

CountedRun RunCounted(const ExprPtr& expr, const Database& db,
                      ExecBackend backend) {
  MetricsRegistry metrics;
  ExecOptions options;
  options.metrics = &metrics;
  options.backend = backend;
  CountedRun run{Evaluate(expr, db, options), {}};
  run.counters = LogicalCounters(metrics);
  return run;
}

// ---------------------------------------------------------------------------
// 16-seed corpus: parallel apply, interpreter vs vectorized, 1/2/8 workers
// ---------------------------------------------------------------------------

class VectorizedCorpusTest : public ::testing::TestWithParam<std::uint64_t> {};

/// The acceptance property: for every drinkers method and random receiver
/// set, the instance produced under kVectorized at 1, 2 and 8 workers is
/// bit-identical (operator== and the canonical text form) to the
/// single-worker interpreter run, and the logical counter map matches
/// exactly.
TEST_P(VectorizedCorpusTest, BackendsAgreeAtEveryWorkerCount) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  InstanceGenerator gen(&ds.schema, GetParam());
  InstanceGenerator::Options options;
  options.min_objects_per_class = 3;
  options.max_objects_per_class = 8;
  options.edge_probability = 0.4;
  Instance instance = gen.RandomInstance(options);

  std::vector<std::unique_ptr<AlgebraicUpdateMethod>> methods;
  methods.push_back(std::move(MakeAddBar(ds)).value());
  methods.push_back(std::move(MakeFavoriteBar(ds)).value());
  methods.push_back(std::move(MakeDeleteBar(ds)).value());
  methods.push_back(std::move(MakeLikesServesBar(ds)).value());

  ThreadPool pool(8);
  for (const auto& method : methods) {
    std::vector<Receiver> receivers =
        gen.RandomReceiverSet(instance, method->signature(), 12);
    if (receivers.empty()) continue;

    auto run = [&](ExecBackend backend, std::size_t workers,
                   std::map<std::string, std::uint64_t>* counters) {
      MetricsRegistry metrics;
      ExecOptions opts;
      opts.metrics = &metrics;
      opts.num_workers = workers;
      if (workers > 1) opts.pool = &pool;
      opts.backend = backend;
      Instance out =
          std::move(ParallelApply(*method, instance, receivers, opts)).value();
      *counters = LogicalCounters(metrics);
      return out;
    };

    std::map<std::string, std::uint64_t> base_counters;
    Instance base = run(ExecBackend::kInterpreter, 1, &base_counters);
    const std::string base_text = InstanceToText(base);

    for (std::size_t workers : {std::size_t{1}, std::size_t{2},
                                std::size_t{8}}) {
      std::map<std::string, std::uint64_t> counters;
      Instance vec = run(ExecBackend::kVectorized, workers, &counters);
      EXPECT_TRUE(vec == base)
          << method->name() << " diverged at " << workers << " workers";
      EXPECT_EQ(InstanceToText(vec), base_text) << method->name();
      EXPECT_EQ(counters, base_counters)
          << method->name() << " counters drifted at " << workers
          << " workers";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorizedCorpusTest,
                         ::testing::Range<std::uint64_t>(1, 17));

// ---------------------------------------------------------------------------
// Randomized expression fuzz: interpreter vs vectorized
// ---------------------------------------------------------------------------

/// Scheme-aware random expression generator over a fixed catalog:
///   A(x, y)  B(x, y)  C(z, w)     (every attribute in class P)
/// Produces mostly well-typed expressions exercising all eight operators —
/// unions/differences within a scheme family, σ-chains over products (the
/// fused hash-join path), projections, renames, π_∅ guards and DAG-shaped
/// sharing — with an occasional deliberate type error so status-code parity
/// is fuzzed too.
class ExprGen {
 public:
  explicit ExprGen(std::uint64_t seed) : rng_(seed) {}

  /// Scheme (x, y).
  ExprPtr GenXY(int depth) {
    if (depth <= 0) return rng_.UniformInt(2) == 0 ? ra::Rel("A")
                                                   : ra::Rel("B");
    switch (rng_.UniformInt(6)) {
      case 0:
        return ra::Union(GenXY(depth - 1), GenXY(depth - 1));
      case 1:
        return ra::Diff(GenXY(depth - 1), GenXY(depth - 1));
      case 2:
        return ra::SelectEq(GenXY(depth - 1), "x", "y");
      case 3:
        return ra::SelectNeq(GenXY(depth - 1), "x", "y");
      case 4:
        // Guarded: ∅ unless the guard side is non-empty.
        return ra::Product(ra::Guard(GenZW(depth - 1)), GenXY(depth - 1));
      default: {
        // DAG: the same node used as guard and payload (one memo hit).
        ExprPtr shared = GenXY(depth - 1);
        return ra::Product(ra::Guard(shared), shared);
      }
    }
  }

  /// Scheme (z, w).
  ExprPtr GenZW(int depth) {
    if (depth <= 0 || rng_.UniformInt(3) == 0) return ra::Rel("C");
    return ra::Rename(ra::Rename(GenXY(depth - 1), "x", "z"), "y", "w");
  }

  /// Top-level shape: join chains, projections, or an occasional
  /// deliberately ill-typed union.
  ExprPtr GenTop(int depth) {
    switch (rng_.UniformInt(8)) {
      case 0:
        return GenXY(depth);
      case 1:
        return GenZW(depth);
      case 2:  // ill-typed on purpose: scheme mismatch
        return ra::Union(GenXY(depth - 1), GenZW(depth - 1));
      case 3: {
        ExprPtr chain = Chain(depth);
        std::vector<std::string> attrs;
        for (const char* a : {"x", "y", "z", "w"}) {
          if (rng_.UniformInt(2) == 0) attrs.push_back(a);
        }
        if (attrs.empty()) attrs.push_back("x");
        return ra::Project(chain, std::move(attrs));
      }
      default:
        return Chain(depth);
    }
  }

 private:
  /// A σ-chain over A-family × C-family — the shape the evaluator fuses
  /// into a hash join. Conditions mix cross-side equalities (join keys),
  /// per-side filters and cross-side inequalities (residuals).
  ExprPtr Chain(int depth) {
    ExprPtr e = ra::Product(GenXY(depth - 1), GenZW(depth - 1));
    const char* attrs[] = {"x", "y", "z", "w"};
    const std::size_t conditions = 1 + rng_.UniformInt(3);
    for (std::size_t i = 0; i < conditions; ++i) {
      const char* a = attrs[rng_.UniformInt(4)];
      const char* b = attrs[rng_.UniformInt(4)];
      if (std::string(a) == b) b = a == std::string("x") ? "z" : "x";
      e = rng_.UniformInt(2) == 0 ? ra::SelectEq(std::move(e), a, b)
                                  : ra::SelectNeq(std::move(e), a, b);
    }
    return e;
  }

  SplitMix64 rng_;
};

Database RandomDatabase(std::uint64_t seed) {
  SplitMix64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  Database db;
  auto fill = [&](Relation& r) {
    const std::size_t n = rng.UniformInt(8);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(
          r.Insert(Tuple{P(static_cast<std::uint32_t>(rng.UniformInt(4))),
                         P(static_cast<std::uint32_t>(rng.UniformInt(4)))})
              .ok());
    }
  };
  Relation a(MakeScheme({{"x", kP}, {"y", kP}}));
  Relation b(MakeScheme({{"x", kP}, {"y", kP}}));
  Relation c(MakeScheme({{"z", kP}, {"w", kP}}));
  fill(a);
  fill(b);
  fill(c);
  db.Put("A", std::move(a));
  db.Put("B", std::move(b));
  db.Put("C", std::move(c));
  return db;
}

class VectorizedFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

/// Random expressions through both backends. Status codes must
/// always agree; on success the relation, its canonical text rows, and the
/// logical counter map must be identical.
TEST_P(VectorizedFuzzTest, RandomExpressionsAgreeAcrossBackends) {
  Database db = RandomDatabase(GetParam());
  ExprGen gen(GetParam());
  for (int i = 0; i < 40; ++i) {
    ExprPtr expr = gen.GenTop(3);

    CountedRun interp = RunCounted(expr, db, ExecBackend::kInterpreter);
    CountedRun vec = RunCounted(expr, db, ExecBackend::kVectorized);

    ASSERT_EQ(interp.result.status().code(), vec.result.status().code())
        << "iteration " << i << ": interpreter said '"
        << interp.result.status().message() << "', vectorized said '"
        << vec.result.status().message() << "'";
    if (!interp.result.ok()) continue;
    EXPECT_TRUE(interp.result.value() == vec.result.value())
        << "iteration " << i;
    EXPECT_EQ(interp.counters, vec.counters) << "iteration " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorizedFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 17));

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE backend annotation
// ---------------------------------------------------------------------------

Database PayrollishDatabase() {
  Database db;
  Relation emp(MakeScheme({{"e", kP}, {"d", kP}}));
  Relation dept(MakeScheme({{"d2", kP}, {"m", kP}}));
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(emp.Insert(Tuple{P(i), P(i % 3)}).ok());
  }
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(dept.Insert(Tuple{P(i), P(i + 1)}).ok());
  }
  db.Put("Emp", std::move(emp));
  db.Put("Dept", std::move(dept));
  return db;
}

ExprPtr PayrollJoin() {
  return ra::Project(
      ra::JoinEq(ra::Rel("Emp"), ra::Rel("Dept"), "d", "d2"), {"e", "m"});
}

/// Pins the ANALYZE rendering: every analyzed operator line carries a
/// `backend=` annotation between the memo-hit count and the wall time, and
/// the JSON form carries a "backend" key. The fused σ-chain reports
/// `bytecode`, its inputs `vectorized`.
TEST(VectorizedExplainTest, AnalyzeAnnotatesVectorizedBackends) {
  Database db = PayrollishDatabase();
  ExecOptions options;
  options.backend = ExecBackend::kVectorized;
  ExplainPlan plan =
      std::move(ExplainExpressionAnalyze(
          PayrollJoin(), [&] { return db; }, options)).value();

  const std::string text = plan.ToText();
  EXPECT_NE(text.find(" backend=bytecode time="), std::string::npos) << text;
  EXPECT_NE(text.find(" backend=vectorized time="), std::string::npos)
      << text;
  EXPECT_EQ(text.find(" backend=interpreter"), std::string::npos) << text;

  const std::string json = plan.ToJson();
  EXPECT_NE(json.find("\"backend\":\"bytecode\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"backend\":\"vectorized\""), std::string::npos)
      << json;
}

TEST(VectorizedExplainTest, AnalyzeAnnotatesInterpreterBackend) {
  Database db = PayrollishDatabase();
  ExecOptions options;
  options.backend = ExecBackend::kInterpreter;
  ExplainPlan plan =
      std::move(ExplainExpressionAnalyze(
          PayrollJoin(), [&] { return db; }, options)).value();
  const std::string text = plan.ToText();
  EXPECT_NE(text.find(" backend=interpreter time="), std::string::npos)
      << text;
  EXPECT_EQ(text.find("backend=vectorized"), std::string::npos) << text;
  EXPECT_EQ(text.find("backend=bytecode"), std::string::npos) << text;
}

TEST(VectorizedExplainTest, PlainExplainCarriesNoBackend) {
  Database db = PayrollishDatabase();
  Catalog catalog;
  for (const std::string& name : db.Names()) {
    ASSERT_TRUE(
        catalog.AddRelation(name, std::move(db.Find(name)).value()->scheme())
            .ok());
  }
  ExplainPlan plan =
      std::move(ExplainExpression(PayrollJoin(), catalog)).value();
  EXPECT_EQ(plan.ToText().find("backend="), std::string::npos);
}

/// kAuto is a cost decision: tiny inputs stay on the interpreter, inputs at
/// or above Evaluator::kAutoVectorizeInputRows flip the whole evaluation to
/// the compiled backend.
TEST(VectorizedExplainTest, AutoBackendLatchesOnInputSize) {
  Database small = PayrollishDatabase();
  ExplainPlan plan =
      std::move(ExplainExpressionAnalyze(
          PayrollJoin(), [&] { return small; }, {})).value();
  EXPECT_NE(plan.ToText().find(" backend=interpreter"), std::string::npos);

  Database big;
  Relation emp(MakeScheme({{"e", kP}, {"d", kP}}));
  const auto rows =
      static_cast<std::uint32_t>(Evaluator::kAutoVectorizeInputRows);
  for (std::uint32_t i = 0; i < rows; ++i) {
    ASSERT_TRUE(emp.Insert(Tuple{P(i), P(i % 16)}).ok());
  }
  Relation dept(MakeScheme({{"d2", kP}, {"m", kP}}));
  for (std::uint32_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(dept.Insert(Tuple{P(i), P(i + 1)}).ok());
  }
  big.Put("Emp", std::move(emp));
  big.Put("Dept", std::move(dept));
  ExplainPlan big_plan =
      std::move(ExplainExpressionAnalyze(
          PayrollJoin(), [&] { return big; }, {})).value();
  EXPECT_NE(big_plan.ToText().find(" backend=bytecode"), std::string::npos)
      << big_plan.ToText();
  EXPECT_EQ(big_plan.ToText().find(" backend=interpreter"),
            std::string::npos);
}

/// ParallelApply latches kAuto once, in the prepare step, on the whole
/// receiver set; every shard runs on that backend. Over 4096 payroll
/// receivers the prepared inputs (rec plus NSOld and NSNew) cross
/// kAutoVectorizeInputRows, while an eighth of rec does not: a shard
/// latching on its own inputs would fall back to the interpreter.
TEST(VectorizedExplainTest, ShardsRunOnThePreparedBackend) {
  PayrollSchema ps = std::move(MakePayrollSchema()).value();
  const auto n =
      static_cast<std::uint32_t>(Evaluator::kAutoVectorizeInputRows);
  std::vector<EmployeeRow> employees;
  std::vector<NewSalRow> raises;
  for (std::uint32_t i = 0; i < n; ++i) {
    employees.push_back(EmployeeRow{i, 1000 + (i % 16), std::nullopt});
  }
  for (std::uint32_t s = 0; s < 16; ++s) {
    raises.push_back(NewSalRow{1000 + s, 2000 + s});
  }
  const Instance db =
      std::move(BuildPayrollInstance(ps, employees, {}, raises)).value();
  const auto salaries = std::move(ReadSalaries(ps, db)).value();
  std::vector<Receiver> receivers;
  for (auto [id, salary] : salaries) {
    receivers.push_back(Receiver::Unchecked(
        {ObjectId(ps.emp, id), ObjectId(ps.val, salary)}));
  }
  auto method = std::move(MakeSalaryFromNewSal(ps)).value();
  ThreadPool pool(4);
  for (std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
    ExecOptions options;
    options.num_workers = workers;
    options.pool = &pool;
    const std::string text =
        std::move(ExplainParallelApply(*method, db, receivers,
                                       /*analyze=*/true, options))
            .value()
            .ToText();
    EXPECT_NE(text.find(" backend=bytecode"), std::string::npos) << text;
    EXPECT_EQ(text.find(" backend=interpreter"), std::string::npos)
        << workers << " workers:\n"
        << text;
  }
}

// ---------------------------------------------------------------------------
// Sorted-view memo invalidation
// ---------------------------------------------------------------------------

/// The bulk-insert contract: one sorted-cache invalidation per
/// InsertValidatedBatch call, versus one per tuple on the single-tuple path.
TEST(RelationBatchInsertTest, BatchInvalidatesSortedCacheOncePerBatch) {
  const RelationScheme scheme = MakeScheme({{"x", kP}});

  Relation single(scheme);
  for (std::uint32_t i = 0; i < 10; ++i) single.InsertValidated(Tuple{P(i)});
  EXPECT_EQ(single.sorted_cache_invalidations(), 10u);

  Relation bulk(scheme);
  std::vector<Tuple> batch;
  for (std::uint32_t i = 0; i < 10; ++i) batch.push_back(Tuple{P(i)});
  bulk.InsertValidatedBatch(batch);
  EXPECT_EQ(bulk.sorted_cache_invalidations(), 1u);
  EXPECT_TRUE(batch.empty());
  EXPECT_TRUE(single == bulk);

  // The memo still invalidates: a sorted view taken before a second batch
  // must not leak into the view taken after it.
  EXPECT_EQ(bulk.SortedTuples().size(), 10u);
  std::vector<Tuple> more;
  for (std::uint32_t i = 10; i < 14; ++i) more.push_back(Tuple{P(i)});
  bulk.InsertValidatedBatch(more);
  EXPECT_EQ(bulk.sorted_cache_invalidations(), 2u);
  EXPECT_EQ(bulk.SortedTuples().size(), 14u);

  // An empty batch is a no-op, not an invalidation.
  std::vector<Tuple> empty;
  bulk.InsertValidatedBatch(empty);
  EXPECT_EQ(bulk.sorted_cache_invalidations(), 2u);
}

}  // namespace
}  // namespace setrec
