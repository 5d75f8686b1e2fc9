// Tests for the explainable-execution layer: EXPLAIN operator trees (golden
// texts pinned below), EXPLAIN ANALYZE with its worker-count-invariant
// logical counters (the acceptance property: bit-identical at 1/2/8 workers
// on the payroll workload and the 16-seed randomized corpus), and decision
// certificates with their JSONL / text renderings.

#include "obs/explain.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "algebraic/method_library.h"
#include "algebraic/order_independence.h"
#include "algebraic/parallel.h"
#include "core/instance_generator.h"
#include "core/thread_pool.h"
#include "par_literal.h"
#include "relational/evaluator.h"
#include "relational/builder.h"
#include "sql/improve.h"
#include "sql/table.h"
#include "text/printer.h"

namespace setrec {
namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Serializes everything *logical* about an analyzed plan — per-node rows,
/// build/probe counts and memo hits in preorder, plus the logical counter
/// map — and nothing temporal. Two runs agree exactly when these strings
/// are equal; this is the "bit-identical at any worker count" check.
void AppendLogicalStats(const PlanNode& node, std::string& out) {
  out += node.op + "[" + node.detail + "]" + node.scheme +
         " rows=" + std::to_string(node.actual_rows) +
         " build=" + std::to_string(node.build_rows) +
         " probes=" + std::to_string(node.probe_rows) +
         " hits=" + std::to_string(node.cache_hits) + "\n";
  for (const PlanNode& child : node.children) {
    AppendLogicalStats(child, out);
  }
}

std::string LogicalFingerprint(const ExplainPlan& plan) {
  std::string out;
  for (const PlanNode& root : plan.roots) AppendLogicalStats(root, out);
  for (const auto& [name, value] : plan.counters) {
    out += name + "=" + std::to_string(value) + "\n";
  }
  return out;
}

/// A line of JSONL is usable when it is one object per line with no raw
/// control characters — the property the JsonEscape funnel guarantees.
void ExpectJsonObjectLine(const std::string& line) {
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  for (const char c : line) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u)
        << "raw control character in JSONL line: " << line;
  }
}

// ---------------------------------------------------------------------------
// EXPLAIN golden plans
// ---------------------------------------------------------------------------

TEST(ExplainExpressionTest, JoinChainConditionsAreClassified) {
  // A four-condition σ-chain over a product renders as the single fused
  // HashJoin the evaluator executes, with each condition in its role: the
  // cross equality is the hash key, per-side conditions become build/probe
  // filters, and the cross non-equality is residual.
  Catalog catalog;
  const ClassId k = 1;
  ASSERT_TRUE(catalog
                  .AddRelation("R", std::move(RelationScheme::Make(
                                                  {{"a", k}, {"b", k}}))
                                        .value())
                  .ok());
  ASSERT_TRUE(catalog
                  .AddRelation("S", std::move(RelationScheme::Make(
                                                  {{"c", k}, {"d", k}}))
                                        .value())
                  .ok());
  ExprPtr chain = ra::SelectEq(
      ra::SelectNeq(
          ra::SelectEq(
              ra::SelectNeq(ra::Product(ra::Rel("R"), ra::Rel("S")), "a",
                            "b"),
              "c", "d"),
          "a", "d"),
      "a", "c");
  ExplainPlan plan =
      std::move(ExplainExpression(chain, catalog)).value();
  ASSERT_EQ(plan.roots.size(), 1u);
  const PlanNode& join = plan.roots[0];
  EXPECT_EQ(join.op, "HashJoin");
  EXPECT_EQ(join.detail,
            "keys: a=c; probe filter: a≠b; build filter: c=d; residual: a≠d");
  EXPECT_EQ(join.scheme, "(a, b, c, d)");
  ASSERT_EQ(join.children.size(), 2u);
  EXPECT_EQ(join.children[0].op, "Scan R");
  EXPECT_EQ(join.children[1].op, "Scan S");
  EXPECT_FALSE(plan.analyzed);
  EXPECT_TRUE(plan.counters.empty());
}

TEST(ExplainExpressionTest, UnknownRelationFailsLikeInferScheme) {
  Catalog catalog;
  EXPECT_FALSE(ExplainExpression(ra::Rel("Nope"), catalog).ok());
}

class ExplainPayrollTest : public ::testing::Test {
 protected:
  void SetUp() override { ps_ = std::move(MakePayrollSchema()).value(); }

  /// The Section 7 receiver query of update (B): "select EmpId, New from
  /// Employee, NewSal where Salary = Old".
  ExprPtr SalaryUpdateQuery() const {
    return ra::Project(
        ra::JoinEq(ra::Rel("EmpSalary"),
                   ra::Project(ra::JoinEq(ra::Rel("NSOld"),
                                          ra::Rename(ra::Rel("NSNew"), "NS",
                                                     "NS2"),
                                          "NS", "NS2"),
                               {"Old", "New"}),
                   "Salary", "Old"),
        {"Emp", "New"});
  }

  Instance SmallDb() const {
    std::vector<EmployeeRow> employees = {{1, 100, std::nullopt},
                                          {2, 200, std::nullopt},
                                          {3, 100, std::nullopt}};
    std::vector<NewSalRow> raises = {{100, 150}, {200, 250}};
    return std::move(BuildPayrollInstance(ps_, employees, {}, raises))
        .value();
  }

  /// The parallel_runtime_test payroll workload: 100 employees over 16
  /// salary levels, each re-salaried through NewSal.
  Instance LargeDb() const {
    std::vector<EmployeeRow> employees;
    std::vector<NewSalRow> raises;
    for (std::uint32_t i = 0; i < 100; ++i) {
      employees.push_back(EmployeeRow{i, 1000 + (i % 16), std::nullopt});
    }
    for (std::uint32_t s = 0; s < 16; ++s) {
      raises.push_back(NewSalRow{1000 + s, 2000 + s});
    }
    return std::move(BuildPayrollInstance(ps_, employees, {}, raises))
        .value();
  }

  std::vector<Receiver> SalaryReceivers(const Instance& instance) const {
    std::vector<Receiver> receivers;
    const auto salaries = std::move(ReadSalaries(ps_, instance)).value();
    for (auto [id, salary] : salaries) {
      receivers.push_back(Receiver::Unchecked(
          {ObjectId(ps_.emp, id), ObjectId(ps_.val, salary)}));
    }
    return receivers;
  }

  PayrollSchema ps_;
};

TEST_F(ExplainPayrollTest, GoldenSetOrientedUpdateB) {
  const Instance db = SmallDb();
  ExplainPlan plan = std::move(ExplainSetOrientedUpdate(
                                   db, ps_.salary, SalaryUpdateQuery(),
                                   /*analyze=*/false))
                         .value();
  EXPECT_EQ(plan.ToText(),
            "EXPLAIN: set-oriented UPDATE Salary\n"
            "ReceiverQuery [phase 1: evaluated against the pre-statement "
            "state] :: (Emp, New)\n"
            "  -> Project [Emp, New] :: (Emp, New)\n"
            "     -> HashJoin [keys: Salary=Old] :: (Emp, Salary, Old, "
            "New)\n"
            "        -> Scan EmpSalary :: (Emp, Salary)\n"
            "        -> Project [Old, New] :: (Old, New)\n"
            "           -> HashJoin [keys: NS=NS2] :: (NS, Old, NS2, New)\n"
            "              -> Scan NSOld :: (NS, Old)\n"
            "              -> Rename [NS→NS2] :: (NS2, New)\n"
            "                 -> Scan NSNew :: (NS, New)\n"
            "Apply [Salary := arg1 over the receiver key set] :: "
            "(Emp, New)\n")
      << plan.ToText();
}

TEST_F(ExplainPayrollTest, GoldenManagerTwoPhaseQuery) {
  // The end-of-Section-7 improvement of the order-dependent manager
  // variant (C): ImproveCursorUpdate derives the two-phase receiver query
  // that evaluates everything against the pre-statement state. Its plan is
  // the second pinned SQL scenario.
  auto method = std::move(MakeSalaryFromManagersNewSal(ps_)).value();
  ExprPtr mgr_new = std::move(ImproveCursorUpdate(
                                  *method,
                                  /*rec_source=*/
                                  ra::Rename(ra::Project(ra::Rel("Emp"),
                                                         {"Emp"}),
                                             "Emp", "self"),
                                  /*verify=*/false))
                        .value()
                        .receiver_query;
  const Instance db = SmallDb();
  ExplainPlan plan = std::move(ExplainSetOrientedUpdate(
                                   db, ps_.salary, mgr_new,
                                   /*analyze=*/false))
                         .value();
  const std::string text = plan.ToText();
  EXPECT_EQ(text, R"golden(EXPLAIN: set-oriented UPDATE Salary
ReceiverQuery [phase 1: evaluated against the pre-statement state] :: (self, New)
  -> Project [self, New] :: (self, New)
     -> HashJoin [keys: Sal2=Old] :: (self, Emp, Manager, Emp2, Sal2, Old, New)
        -> HashJoin [keys: Manager=Emp2] :: (self, Emp, Manager, Emp2, Sal2)
           -> HashJoin [keys: self=Emp] :: (self, Emp, Manager)
              -> Project [self] :: (self)
                 -> Rename [Emp→self] :: (self)
                    -> Project [Emp] :: (Emp)
                       -> Scan Emp :: (Emp)
              -> Scan EmpManager :: (Emp, Manager)
           -> Rename [Salary→Sal2] :: (Emp2, Sal2)
              -> Rename [Emp→Emp2] :: (Emp2, Salary)
                 -> Scan EmpSalary :: (Emp, Salary)
        -> Project [Old, New] :: (Old, New)
           -> HashJoin [keys: NS=NS2] :: (NS, Old, NS2, New)
              -> Scan NSOld :: (NS, Old)
              -> Rename [NS→NS2] :: (NS2, New)
                 -> Scan NSNew :: (NS, New)
Apply [Salary := arg1 over the receiver key set] :: (self, New)
)golden");
}

TEST_F(ExplainPayrollTest, ManagerTwoPhaseQueryMatchesLiteralOracle) {
  // The receiver query pinned by GoldenManagerTwoPhaseQuery comes from the
  // hoisting par(E) rewrite; built from the literal Definition 6.1 rewrite
  // instead, it yields the same rows and the same update.
  auto method = std::move(MakeSalaryFromManagersNewSal(ps_)).value();
  const ExprPtr rec_source =
      ra::Rename(ra::Project(ra::Rel("Emp"), {"Emp"}), "Emp", "self");
  ImprovedUpdate hoisted =
      std::move(ImproveCursorUpdate(*method, rec_source, /*verify=*/false))
          .value();
  const ExprPtr literal = SubstituteRelation(
      std::move(LiteralParTransform(method->statements()[0].expression,
                                    method->context()))
          .value(),
      kRecRelation, rec_source);

  std::vector<EmployeeRow> employees;
  for (std::uint32_t i = 0; i < 24; ++i) {
    employees.push_back(EmployeeRow{
        i, 100 + (i % 4),
        i % 5 == 0 ? std::nullopt : std::optional<std::uint32_t>(i / 3)});
  }
  const std::vector<NewSalRow> raises = {{100, 150}, {101, 151}, {103, 153}};
  const Instance db =
      std::move(BuildPayrollInstance(ps_, employees, {}, raises)).value();
  const Database encoded = std::move(EncodeInstance(db)).value();
  const Relation rows =
      std::move(Evaluate(hoisted.receiver_query, encoded)).value();
  EXPECT_GT(rows.size(), 0u);
  EXPECT_TRUE(rows == std::move(Evaluate(literal, encoded)).value());
  EXPECT_EQ(std::move(ApplyImprovedUpdate(hoisted, db)).value(),
            std::move(ApplyImprovedUpdate(
                          ImprovedUpdate{literal, hoisted.property}, db))
                .value());
}

TEST_F(ExplainPayrollTest, GoldenParallelApplyPipeline) {
  // The par(E) pipeline (Definition 6.1) of the payroll workload's method:
  // one ParStatement per update statement, the rec relation joined in.
  auto method = std::move(MakeSalaryFromNewSal(ps_)).value();
  ExplainPlan plan = std::move(ExplainParallelApply(*method, SmallDb(), {},
                                                    /*analyze=*/false))
                         .value();
  const std::string text = plan.ToText();
  EXPECT_EQ(plan.roots.size(), method->statements().size());
  ASSERT_FALSE(plan.roots.empty());
  EXPECT_EQ(plan.roots[0].op, "ParStatement");
  EXPECT_EQ(plan.roots[0].detail, "Salary := par(E)");
  // The pipeline reads rec — the receiver relation is what par(E) adds.
  EXPECT_NE(text.find("Scan rec"), std::string::npos) << text;
  // Deterministic: rendering twice pins the same golden text.
  ExplainPlan again = std::move(ExplainParallelApply(*method, SmallDb(), {},
                                                     /*analyze=*/false))
                          .value();
  EXPECT_EQ(text, again.ToText());
}

TEST_F(ExplainPayrollTest, GoldenParallelApplyMarksHoistedOperators) {
  // Every par(E) operator says where ParallelApply evaluates it: NewSal
  // reads no receiver, so it is evaluated once before the fan-out, and the
  // join that rec probes builds its hash table over it once.
  auto method = std::move(MakeSalaryFromNewSal(ps_)).value();
  ExplainPlan plan = std::move(ExplainParallelApply(*method, SmallDb(), {},
                                                    /*analyze=*/false))
                         .value();
  EXPECT_EQ(plan.ToText(), R"golden(EXPLAIN: parallel application of set_salary
ParStatement [Salary := par(E)] :: (self, New)
  -> Project [self, New] :: (self, New) {per shard}
     -> HashJoin [keys: arg1=Old] :: (self, arg1, Old, New) {per shard, build once}
        -> Project [self, arg1] :: (self, arg1) {per shard}
           -> Scan rec :: (self, arg1) {per shard}
        -> Project [Old, New] :: (Old, New) {once}
           -> HashJoin [keys: NS=NS2] :: (NS, Old, NS2, New) {once}
              -> Scan NSOld :: (NS, Old) {once}
              -> Rename [NS→NS2] :: (NS2, New) {once}
                 -> Scan NSNew :: (NS, New) {once}
)golden");
  EXPECT_NE(plan.ToJson().find("\"eval\":\"per shard, build once\""),
            std::string::npos);

  // ANALYZE at 4 workers: the hoisted join and build are charged once, the
  // probes once per receiver, exactly as at one worker.
  const Instance db = LargeDb();
  ThreadPool pool(4);
  ExecOptions options;
  options.num_workers = 4;
  options.pool = &pool;
  ExplainPlan analyzed =
      std::move(ExplainParallelApply(*method, db, SalaryReceivers(db),
                                     /*analyze=*/true, options))
          .value();
  const PlanNode& join = analyzed.roots[0].children[0].children[0];
  ASSERT_EQ(join.eval, "per shard, build once");
  EXPECT_EQ(join.build_rows, 16u);
  EXPECT_EQ(join.probe_rows, 100u);
  EXPECT_EQ(join.actual_rows, 100u);
  const PlanNode& new_sal = join.children[1].children[0];
  ASSERT_EQ(new_sal.eval, "once");
  EXPECT_EQ(new_sal.build_rows, 16u);
  EXPECT_EQ(new_sal.probe_rows, 16u);
  EXPECT_EQ(analyzed.counters.at("evaluator.join_build_rows"), 32u);
  EXPECT_EQ(analyzed.counters.at("evaluator.join_probes"), 116u);
  EXPECT_EQ(analyzed.counters.at("evaluator.rows"), 116u);
}

TEST_F(ExplainPayrollTest, ToJsonIsOneParseableLine) {
  const Instance db = SmallDb();
  ExplainPlan plan = std::move(ExplainSetOrientedUpdate(
                                   db, ps_.salary, SalaryUpdateQuery(),
                                   /*analyze=*/false))
                         .value();
  const std::string json = plan.ToJson();
  ExpectJsonObjectLine(json);
  EXPECT_NE(json.find("\"op\":\"HashJoin\""), std::string::npos);
  EXPECT_NE(json.find("\"analyzed\":false"), std::string::npos);
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE — logical counters, worker-count invariance
// ---------------------------------------------------------------------------

TEST_F(ExplainPayrollTest, AnalyzeSetOrientedUpdateReportsTheRun) {
  const Instance db = LargeDb();
  const std::string before = InstanceToText(db);
  ExplainPlan plan = std::move(ExplainSetOrientedUpdate(
                                   db, ps_.salary, SalaryUpdateQuery(),
                                   /*analyze=*/true))
                         .value();
  // ANALYZE ran on a scratch copy; the caller's instance is untouched.
  EXPECT_EQ(InstanceToText(db), before);

  EXPECT_TRUE(plan.analyzed);
  ASSERT_EQ(plan.roots.size(), 2u);
  const PlanNode& query = plan.roots[0];
  const PlanNode& apply = plan.roots[1];
  EXPECT_TRUE(query.analyzed);
  EXPECT_EQ(query.actual_rows, 100u);  // one (EmpId, New) row per employee
  EXPECT_TRUE(apply.analyzed);
  EXPECT_EQ(apply.actual_rows, 100u);  // one receiver per row

  // The fused join's counts surfaced on its node and in the counter map.
  const PlanNode& join = query.children[0].children[0];
  ASSERT_EQ(join.op, "HashJoin");
  EXPECT_TRUE(join.analyzed);
  EXPECT_EQ(join.probe_rows, 100u);  // probe side: EmpSalary
  EXPECT_EQ(join.build_rows, 16u);   // build side: the (Old, New) pairs
  EXPECT_EQ(plan.counters.at("sequential.receivers"), 0u);
  // Phase two is the statement's own key-set rewrite, not a sequential
  // application; the dependency-graph counter belongs to the parallel
  // runtime and stays zero here.
  EXPECT_EQ(plan.counters.at("apply.edges"), 0u);
  EXPECT_GT(plan.counters.at("evaluator.rows"), 0u);
  EXPECT_GT(plan.counters.at("evaluator.join_probes"), 0u);
  EXPECT_GT(plan.counters.at("evaluator.join_build_rows"), 0u);
  // Every logical counter is present (zero-valued ones included).
  for (const std::string& name : LogicalCounterNames()) {
    EXPECT_EQ(plan.counters.count(name), 1u) << name;
  }
}

TEST_F(ExplainPayrollTest, AnalyzeCountersAreWorkerCountInvariant) {
  const Instance db = LargeDb();
  auto method = std::move(MakeSalaryFromNewSal(ps_)).value();
  const std::vector<Receiver> receivers = SalaryReceivers(db);
  ASSERT_GE(receivers.size(), 100u);

  ExplainPlan base = std::move(ExplainParallelApply(*method, db, receivers,
                                                    /*analyze=*/true))
                         .value();
  EXPECT_GT(base.counters.at("evaluator.rows"), 0u);
  const std::string fingerprint = LogicalFingerprint(base);

  ThreadPool pool(4);
  for (std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
    ExecOptions options;
    options.num_workers = workers;
    options.pool = &pool;
    ExplainPlan sharded =
        std::move(ExplainParallelApply(*method, db, receivers,
                                       /*analyze=*/true, options))
            .value();
    EXPECT_EQ(fingerprint, LogicalFingerprint(sharded))
        << "logical counters drifted at " << workers << " workers";
  }

  // The same invariance through the set-oriented UPDATE entry point.
  ExplainPlan update_base =
      std::move(ExplainSetOrientedUpdate(db, ps_.salary, SalaryUpdateQuery(),
                                         /*analyze=*/true))
          .value();
  for (std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
    ExecOptions options;
    options.num_workers = workers;
    options.pool = &pool;
    ExplainPlan sharded = std::move(ExplainSetOrientedUpdate(
                                        db, ps_.salary, SalaryUpdateQuery(),
                                        /*analyze=*/true, options))
                              .value();
    EXPECT_EQ(LogicalFingerprint(update_base), LogicalFingerprint(sharded))
        << "UPDATE counters drifted at " << workers << " workers";
  }
}

TEST(ExplainAnalyzeTest, PartitionedProbeKeepsLogicalCountsExact) {
  // A 2048-row probe side against a 64-row build side: the hash join charges
  // one probe per probe-side tuple and one build row per indexed tuple.
  const ClassId k = 1;
  Relation r(std::move(RelationScheme::Make({{"a", k}, {"b", k}})).value());
  for (std::uint32_t i = 0; i < 2048; ++i) {
    ASSERT_TRUE(r.Insert(Tuple({ObjectId(k, i), ObjectId(k, i % 64)})).ok());
  }
  Relation s(std::move(RelationScheme::Make({{"c", k}, {"d", k}})).value());
  for (std::uint32_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        s.Insert(Tuple({ObjectId(k, i), ObjectId(k, 4096 + i)})).ok());
  }
  Database db;
  db.Put("R", std::move(r));
  db.Put("S", std::move(s));
  const ExprPtr join = ra::JoinEq(ra::Rel("R"), ra::Rel("S"), "b", "c");

  ExplainPlan base =
      std::move(ExplainExpressionAnalyze(join, [&] { return db; })).value();
  ASSERT_EQ(base.roots.size(), 1u);
  EXPECT_EQ(base.roots[0].op, "HashJoin");
  EXPECT_EQ(base.roots[0].probe_rows, 2048u);
  EXPECT_EQ(base.roots[0].build_rows, 64u);
  EXPECT_EQ(base.roots[0].actual_rows, 2048u);
  EXPECT_EQ(base.counters.at("evaluator.join_probes"), 2048u);
  EXPECT_EQ(base.counters.at("evaluator.join_build_rows"), 64u);
}

/// The 16-seed corpus of parallel_runtime_test, re-run through EXPLAIN
/// ANALYZE: for every drinkers method and random receiver set, the logical
/// fingerprint at 2 and 8 workers equals the single-worker one.
class ExplainSeededCorpusTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ExplainSeededCorpusTest, CountersAreWorkerCountInvariant) {
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

  ThreadPool pool(4);
  for (const auto& method : methods) {
    std::vector<Receiver> receivers =
        gen.RandomReceiverSet(instance, method->signature(), 12);
    if (receivers.empty()) continue;
    ExplainPlan base = std::move(ExplainParallelApply(*method, instance,
                                                      receivers,
                                                      /*analyze=*/true))
                           .value();
    const std::string fingerprint = LogicalFingerprint(base);
    for (std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
      ExecOptions opts;
      opts.num_workers = workers;
      opts.pool = &pool;
      ExplainPlan sharded =
          std::move(ExplainParallelApply(*method, instance, receivers,
                                         /*analyze=*/true, opts))
              .value();
      EXPECT_EQ(fingerprint, LogicalFingerprint(sharded))
          << method->name() << " drifted at " << workers << " workers";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExplainSeededCorpusTest,
                         ::testing::Range<std::uint64_t>(1, 17));

// ---------------------------------------------------------------------------
// Decision certificates
// ---------------------------------------------------------------------------

TEST(CertificateTest, AddBarCertificateRecordsEveryContainedTest) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  auto add_bar = std::move(MakeAddBar(ds)).value();
  DecisionCertificate cert =
      std::move(DecideOrderIndependenceCertified(
                    *add_bar, OrderIndependenceKind::kAbsolute))
          .value();
  EXPECT_TRUE(cert.order_independent);
  EXPECT_EQ(cert.method_name, add_bar->name());
  // Two directions per updated property, all contained, each with its
  // budget accounting.
  ASSERT_EQ(cert.tests.size(), 2 * cert.properties.size());
  ASSERT_FALSE(cert.tests.empty());
  for (std::size_t i = 0; i < cert.tests.size(); ++i) {
    const ContainmentCertificate& t = cert.tests[i];
    EXPECT_EQ(t.direction, i % 2 == 0 ? "tt⊆ts" : "ts⊆tt");
    EXPECT_TRUE(t.contained);
    EXPECT_TRUE(t.counterexample.empty());
    EXPECT_GE(t.containment_tests, 1u);
    EXPECT_GT(t.steps, 0u);
  }
  // The certified verdict agrees with the plain decision procedure.
  EXPECT_TRUE(std::move(DecideOrderIndependence(
                            *add_bar, OrderIndependenceKind::kAbsolute))
                  .value());
}

TEST(CertificateTest, FavoriteBarRefutationNamesItsCounterexample) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  auto favorite = std::move(MakeFavoriteBar(ds)).value();
  DecisionCertificate cert =
      std::move(DecideOrderIndependenceCertified(
                    *favorite, OrderIndependenceKind::kAbsolute))
          .value();
  EXPECT_FALSE(cert.order_independent);
  bool refuted = false;
  for (const ContainmentCertificate& t : cert.tests) {
    if (t.contained) {
      EXPECT_TRUE(t.counterexample.empty());
      continue;
    }
    refuted = true;
    // The refutation carries the witness and the canonical database.
    EXPECT_NE(t.counterexample.find("witness"), std::string::npos)
        << t.counterexample;
    EXPECT_NE(t.counterexample.find("canonical database"), std::string::npos);
  }
  EXPECT_TRUE(refuted);

  // Key-order independence of the same method holds, and its certificate
  // says so with every test contained.
  DecisionCertificate key_cert =
      std::move(DecideOrderIndependenceCertified(
                    *favorite, OrderIndependenceKind::kKeyOrder))
          .value();
  EXPECT_TRUE(key_cert.order_independent);
  for (const ContainmentCertificate& t : key_cert.tests) {
    EXPECT_TRUE(t.contained);
  }
}

TEST(CertificateTest, JsonlAndTextRenderingsAreParseable) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  auto favorite = std::move(MakeFavoriteBar(ds)).value();
  DecisionCertificate cert =
      std::move(DecideOrderIndependenceCertified(
                    *favorite, OrderIndependenceKind::kAbsolute))
          .value();

  std::ostringstream out;
  WriteCertificateJsonl(cert, out);
  std::istringstream lines(out.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    ExpectJsonObjectLine(line);
    if (count == 0) {
      EXPECT_NE(line.find("\"type\":\"decision-certificate\""),
                std::string::npos);
      EXPECT_NE(line.find("\"order_independent\":false"), std::string::npos);
      EXPECT_NE(line.find("\"kind\":\"absolute\""), std::string::npos);
    } else {
      EXPECT_NE(line.find("\"type\":\"containment-test\""),
                std::string::npos);
    }
    ++count;
  }
  EXPECT_EQ(count, 1 + cert.tests.size());

  const std::string text = CertificateToText(cert);
  EXPECT_NE(text.find("NOT ORDER INDEPENDENT"), std::string::npos);
  EXPECT_NE(text.find("REFUTED"), std::string::npos);
  EXPECT_NE(text.find(favorite->name()), std::string::npos);
}

TEST(CertificateTest, NonPositiveMethodsAreRejected) {
  // The footnote-8 parity gadget uses difference, so Theorem 5.12's
  // decision procedure (and hence its certificate) does not apply.
  PairSchema s = std::move(MakePairSchema()).value();
  auto parity = std::move(MakeParityMethod(s)).value();
  ASSERT_FALSE(parity->IsPositiveMethod());
  EXPECT_EQ(DecideOrderIndependenceCertified(
                *parity, OrderIndependenceKind::kAbsolute)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace setrec
