// Experiment E20 — the Section 6/7 efficiency claim: parallel application
// evaluates ONE relational algebra expression per updated property while
// sequential application evaluates one per receiver. Both encode the
// instance once and evaluate its receiver-free subterms once; sequential
// then pays the receiver-dependent part of E, and a fixed per-step cost,
// per receiver, so it is Θ(N·|E(I,t)|). By Theorem 6.5 the two compute the
// same result on key sets, so this is a pure performance comparison.
//
// Workload: the Section 7 payroll update (B') over |T| = 2^3 ... 2^9
// employees (every employee re-salaried through NewSal).

#include <benchmark/benchmark.h>

#include "algebraic/parallel.h"
#include "bench_obs.h"
#include "core/sequential.h"
#include "sql/table.h"

namespace setrec {
namespace {

struct Workload {
  PayrollSchema schema;
  Instance instance;
  std::unique_ptr<AlgebraicUpdateMethod> method;
  std::vector<Receiver> receivers;

  Workload() : instance(nullptr) {}
};

Workload BuildWorkload(std::int64_t n_employees) {
  Workload w;
  w.schema = std::move(MakePayrollSchema()).value();
  std::vector<EmployeeRow> employees;
  std::vector<NewSalRow> raises;
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(n_employees);
       ++i) {
    employees.push_back(EmployeeRow{i, 1000 + (i % 16), std::nullopt});
  }
  for (std::uint32_t s = 0; s < 16; ++s) {
    raises.push_back(NewSalRow{1000 + s, 2000 + s});
  }
  w.instance = std::move(BuildPayrollInstance(w.schema, employees, {},
                                              raises))
                   .value();
  w.method = std::move(MakeSalaryFromNewSal(w.schema)).value();
  const auto salaries = std::move(ReadSalaries(w.schema, w.instance)).value();
  for (auto [id, salary] : salaries) {
    w.receivers.push_back(Receiver::Unchecked(
        {ObjectId(w.schema.emp, id), ObjectId(w.schema.val, salary)}));
  }
  return w;
}

void BM_SequentialApplication(benchmark::State& state) {
  Workload w = BuildWorkload(state.range(0));
  for (auto _ : state) {
    Result<Instance> out = ApplySequence(*w.method, w.instance, w.receivers,
                                         benchobs::ObsOptions());
    if (!out.ok()) state.SkipWithError("sequential application failed");
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.receivers.size()));
  state.counters["receivers"] =
      static_cast<double>(w.receivers.size());
}
BENCHMARK(BM_SequentialApplication)
    ->RangeMultiplier(2)
    ->Range(8, 2048)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelApplication(benchmark::State& state) {
  Workload w = BuildWorkload(state.range(0));
  for (auto _ : state) {
    Result<Instance> out =
        ParallelApply(*w.method, w.instance, w.receivers,
                      ExecOptions{.ctx = &benchobs::ObsContext()});
    if (!out.ok()) state.SkipWithError("parallel application failed");
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.receivers.size()));
  state.counters["receivers"] =
      static_cast<double>(w.receivers.size());
}
BENCHMARK(BM_ParallelApplication)
    ->RangeMultiplier(2)
    ->Range(8, 2048)
    ->Unit(benchmark::kMillisecond);

/// Sanity anchor for Proposition 6.3: at |T| = 1 the strategies do the same
/// work and give the same result.
void BM_SingletonParity(benchmark::State& state) {
  Workload w = BuildWorkload(8);
  std::vector<Receiver> one = {w.receivers[0]};
  Instance seq = std::move(ApplySequence(*w.method, w.instance, one)).value();
  Instance par = std::move(ParallelApply(*w.method, w.instance, one)).value();
  if (!(seq == par)) state.SkipWithError("Proposition 6.3 violated");
  for (auto _ : state) {
    Result<Instance> out = ParallelApply(
        *w.method, w.instance, one,
        ExecOptions{.ctx = &benchobs::ObsContext()});
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SingletonParity)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace setrec
