// raise-par / raise-seq: the Section 7 payroll raise (B') applied to every
// employee, closed loop.
//
//   raise-par: N = 2048 through ParallelApply on a persistent pool of
//              nproc workers (one par(E) evaluation per call, sharded),
//              one caller;
//   raise-seq: N = 512 through SequentialApply (one tiny evaluation, and
//              one re-encoding of the instance, per receiver), nproc
//              independent callers.
//
// Every call's output is checked against the NewSal mapping the generator
// drew. Set-up also checks Theorem 6.5 (M_par = M_seq on a key set) and
// Proposition 6.3 (M_par({t}) = M(I, t)).
#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "algebraic/method_library.h"
#include "algebraic/parallel.h"
#include "core/sequential.h"
#include "core/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "objrel/encoding.h"
#include "report.h"
#include "sql/table.h"

namespace perfbench {
namespace {

using setrec::Instance;
using setrec::ObjectId;
using setrec::Receiver;

constexpr std::uint32_t kScales = 16;
constexpr std::size_t kKeySetSize = 24;
constexpr int kSetupRepeats = 5;

struct RaiseInputs {
  std::vector<setrec::EmployeeRow> employees;
  std::vector<setrec::NewSalRow> new_sal;
};

/// N employees over 16 salary scales with a total NewSal mapping; old and
/// new amounts are distinct draws, so every employee's salary changes.
RaiseInputs GenerateInputs(std::uint64_t seed, std::uint32_t n) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint32_t> amounts(2000);
  for (std::uint32_t i = 0; i < amounts.size(); ++i) amounts[i] = 1000 + i;
  for (std::size_t i = amounts.size() - 1; i > 0; --i) {
    std::swap(amounts[i], amounts[rng() % (i + 1)]);
  }
  RaiseInputs in;
  for (std::uint32_t s = 0; s < kScales; ++s) {
    in.new_sal.push_back({amounts[s], amounts[kScales + s]});
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    in.employees.push_back(
        {i, in.new_sal[rng() % kScales].old_salary, std::nullopt});
  }
  return in;
}

struct RaiseState {
  setrec::PayrollSchema schema;
  Instance instance{nullptr};
  std::unique_ptr<setrec::AlgebraicUpdateMethod> method;
  std::vector<Receiver> receivers;
  std::unique_ptr<setrec::ThreadPool> pool;
};

setrec::Status BuildState(const RaiseInputs& in, bool parallel,
                          RaiseState& st) {
  SETREC_ASSIGN_OR_RETURN(st.schema, setrec::MakePayrollSchema());
  SETREC_ASSIGN_OR_RETURN(st.instance,
                          setrec::BuildPayrollInstance(
                              st.schema, in.employees, {}, in.new_sal));
  SETREC_ASSIGN_OR_RETURN(st.method, setrec::MakeSalaryFromNewSal(st.schema));
  st.receivers.clear();
  for (const setrec::EmployeeRow& e : in.employees) {
    st.receivers.push_back(Receiver::Unchecked(
        {ObjectId(st.schema.emp, e.id), ObjectId(st.schema.val, e.salary)}));
  }
  if (parallel) {
    st.pool = std::make_unique<setrec::ThreadPool>(
        setrec::ThreadPool::DefaultWorkerCount());
  }
  return setrec::Status::OK();
}

/// Number of employees whose salary is the NewSal image of their old one;
/// equals N exactly when the output is correct.
std::size_t CountRaised(const RaiseInputs& in, const RaiseState& st,
                        const Instance& out) {
  auto salaries = setrec::ReadSalaries(st.schema, out);
  if (!salaries.ok() || salaries->size() != in.employees.size()) return 0;
  std::map<std::uint32_t, std::uint32_t> mapping;
  for (const setrec::NewSalRow& r : in.new_sal) {
    mapping[r.old_salary] = r.new_salary;
  }
  std::size_t raised = 0;
  for (const auto& [id, salary] : *salaries) {
    if (id < in.employees.size() &&
        mapping.at(in.employees[id].salary) == salary) {
      ++raised;
    }
  }
  return raised;
}

/// Theorem 6.5 on a key set and Proposition 6.3 on a singleton.
void CheckOracles(const RaiseState& st, Report& report) {
  const std::size_t k = std::min(kKeySetSize, st.receivers.size());
  const std::span<const Receiver> keys(st.receivers.data(), k);
  auto par = setrec::ParallelApply(*st.method, st.instance, keys,
                                   setrec::ExecOptions{});
  auto seq = setrec::SequentialApply(*st.method, st.instance, keys,
                                     setrec::ExecOptions{});
  report.Check(par.ok() && seq.ok() && *par == *seq,
               "thm6.5 M_par = M_seq on a key set of " + std::to_string(k));
  const std::span<const Receiver> one(st.receivers.data(), 1);
  auto par_one = setrec::ParallelApply(*st.method, st.instance, one,
                                       setrec::ExecOptions{});
  auto direct = st.method->Apply(st.instance, st.receivers[0]);
  report.Check(par_one.ok() && direct.ok() && *par_one == *direct,
               "prop6.3 M_par({t}) = M(I, t)");
}

setrec::ExecOptions CallOptions(const RaiseState& st) {
  setrec::ExecOptions options;
  if (st.pool != nullptr) {
    options.pool = st.pool.get();
    options.num_workers = st.pool->num_workers();
  }
  return options;
}

setrec::Result<Instance> Call(const RaiseState& st, bool parallel,
                              const setrec::ExecOptions& options) {
  return parallel ? setrec::ParallelApply(*st.method, st.instance,
                                          st.receivers, options)
                  : setrec::SequentialApply(*st.method, st.instance,
                                            st.receivers, options);
}

/// One closed-loop caller: its own state, samples and findings, merged
/// into the run's report when every caller has joined.
struct Caller {
  RaiseState st;
  std::vector<CallSample> calls;
  Report findings;
  std::size_t traced_calls = 0;
};

/// Runs fn(i) for each caller on its own thread and joins them.
template <typename Fn>
void OnEachCaller(std::vector<Caller>& callers, Fn fn) {
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < callers.size(); ++i) {
    threads.emplace_back([&fn, &callers, i] { fn(callers[i]); });
  }
  for (std::thread& t : threads) t.join();
}

/// Closed loop until the deadline (at least three calls, so even a slow
/// host reports a median). A traced run alternates traced and untraced
/// calls, so tracing overhead is measured against calls from the same
/// process and period.
void CallLoop(const Args& args, const RaiseInputs& inputs, bool parallel,
              Clock::time_point deadline, setrec::Tracer& tracer,
              setrec::MetricsRegistry& metrics, Caller& caller) {
  const std::size_t n = inputs.employees.size();
  auto last_done = Clock::now();
  while (caller.calls.size() < 3 || Clock::now() < deadline) {
    const bool traced = args.trace && caller.calls.size() % 2 == 1;
    setrec::ExecOptions options = CallOptions(caller.st);
    if (traced) {
      options.tracer = &tracer;
      options.metrics = &metrics;
    }
    CallSample sample;
    sample.traced = traced;
    setrec::Result<Instance> out = Instance(nullptr);
    const auto start = Clock::now();
    sample.gap_ms =
        std::chrono::duration<double, std::milli>(start - last_done).count();
    {
      setrec::TraceSpan root(traced ? &tracer : nullptr, "bench/call");
      out = Call(caller.st, parallel, options);
    }
    last_done = Clock::now();
    sample.ms =
        std::chrono::duration<double, std::milli>(last_done - start).count();
    Report& f = caller.findings;
    ++f.attempted;
    if (!out.ok()) f.Error(out.status().ToString());
    const std::size_t raised =
        out.ok() ? CountRaised(inputs, caller.st, *out) : 0;
    if (raised != n) {
      ++f.failed;
      f.Check(false, std::to_string(raised) + "/" + std::to_string(n) +
                         " salaries raised by a call");
    }
    if (traced) {
      ++caller.traced_calls;
      // objrel's cost for this call's input: one encoding, timed apart
      // from the call (par(E) encodes it once, the sequential path once per
      // receiver).
      setrec::TraceSpan encode(&tracer, "bench/encode");
      if (!setrec::EncodeInstance(caller.st.instance).ok()) {
        f.Error("encoding the call's input failed");
      }
    }
    caller.calls.push_back(sample);
    // The check above ran outside the timed window; restart the gap clock
    // so it measures the generator, not the checker.
    last_done = Clock::now();
  }
}

}  // namespace

int RunRaise(const Args& args, bool parallel, Report& report) {
  const std::uint32_t n = parallel ? 2048 : 512;
  const RaiseInputs inputs = GenerateInputs(args.seed, n);
  // raise-par has one caller driving an nproc-worker pool. raise-seq has
  // nproc independent callers, one per CPU: a lone single-threaded caller
  // ran at whatever speed the host's load left one virtual CPU, and its
  // per-call time toggled between about 120 and 190 ms from run to run.
  std::vector<Caller> callers(
      parallel ? 1 : setrec::ThreadPool::DefaultWorkerCount());
  // Set-up, timed as a whole and repeated: build each caller's state, run
  // the set-up oracles, and make one warm-up call per caller, which pays
  // the first-touch allocations a long-lived caller pays once. Checks are
  // recorded from the last repeat; a failure in any repeat is kept.
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    for (Caller& c : callers) {
      c = Caller{};
      setrec::Status built = BuildState(inputs, parallel, c.st);
      if (!built.ok()) {
        report.Check(false, "set-up: " + built.ToString());
        return 1;
      }
    }
    Report scratch;
    Report& checks = i + 1 == kSetupRepeats ? report : scratch;
    CheckOracles(callers[0].st, checks);
    std::vector<char> warmed(callers.size(), 0);
    OnEachCaller(callers, [&](Caller& c) {
      auto warm = Call(c.st, parallel, CallOptions(c.st));
      warmed[static_cast<std::size_t>(&c - callers.data())] =
          warm.ok() && CountRaised(inputs, c.st, *warm) == n;
    });
    checks.Check(std::count(warmed.begin(), warmed.end(), 1) ==
                     static_cast<std::ptrdiff_t>(callers.size()),
                 "every caller's warm-up call raised every salary");
    report.setup_s.push_back(MsSince(start) / 1000.0);
    report.failures.insert(report.failures.end(), scratch.failures.begin(),
                           scratch.failures.end());
  }
  report.values["receivers"] = n;
  report.values["callers"] = static_cast<double>(callers.size());

  setrec::Tracer tracer;
  setrec::MetricsRegistry metrics;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  const auto loop_start = Clock::now();
  OnEachCaller(callers, [&](Caller& c) {
    CallLoop(args, inputs, parallel, deadline, tracer, metrics, c);
  });
  report.values["loop_seconds"] = MsSince(loop_start) / 1000.0;
  std::size_t traced_calls = 0;
  for (Caller& c : callers) {
    report.calls.insert(report.calls.end(), c.calls.begin(), c.calls.end());
    report.attempted += c.findings.attempted;
    report.failed += c.findings.failed;
    report.failures.insert(report.failures.end(), c.findings.failures.begin(),
                           c.findings.failures.end());
    for (const std::string& e : c.findings.errors) report.Error(e);
    traced_calls += c.traced_calls;
  }
  if (report.failed == 0) {
    report.Check(true, "every call raised all " + std::to_string(n) +
                           " salaries per NewSal");
  }
  report.values["traced_calls"] = static_cast<double>(traced_calls);
  const setrec::MetricsRegistry::Engine& e = metrics.engine;
  report.values["evaluator.rows"] = static_cast<double>(e.eval_rows.value());
  report.values["evaluator.join_probes"] =
      static_cast<double>(e.eval_join_probes.value());
  report.values["evaluator.join_build_rows"] =
      static_cast<double>(e.eval_join_build_rows.value());
  if (args.trace) WriteTrace(tracer, args.out_dir + "/trace.json");
  return 0;
}

}  // namespace perfbench
