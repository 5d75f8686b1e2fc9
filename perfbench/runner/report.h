// Raw measurements of one runner run, written as JSON for run.py, which
// turns them into the benchmark's metrics. The runner records; it does not
// summarize (percentiles, self times and ratios live in metrics.py).
#ifndef PERFBENCH_RUNNER_REPORT_H_
#define PERFBENCH_RUNNER_REPORT_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Offered rate of the service workload's fixed-rate phase (1/s).
  double rate = 0.0;
  /// Directory for the report, the chrome trace and the service data.
  std::string out_dir;
};

/// One closed-loop call of a raise workload.
struct CallSample {
  double ms = 0.0;
  /// Time from the previous call's completion to this call's start: the
  /// closed-loop generator's own lateness.
  double gap_ms = 0.0;
  bool traced = false;
};

/// One service request. Times are nanoseconds after the phase's start.
struct RequestSample {
  std::uint8_t op = 0;  // OpKind
  std::uint32_t tenant = 0;
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;
  bool ok = false;
  /// 0 = fixed-rate phase, 1 = saturation probe.
  std::uint8_t phase = 0;
  bool traced = false;
  std::uint32_t body_bytes = 0;
};

struct Report {
  std::vector<double> setup_s;
  std::vector<std::string> checks;    // passed output checks
  std::vector<std::string> failures;  // failed output checks
  /// First distinct error messages of failed operations (capped).
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<CallSample> calls;
  std::vector<RequestSample> requests;
  /// Named scalars: workload shape, counters read from the program's
  /// metrics registry, phase lengths.
  std::map<std::string, double> values;

  void Check(bool ok, const std::string& what) {
    (ok ? checks : failures).push_back(what);
  }
  void Error(const std::string& message) {
    if (errors.size() < 8 &&
        std::find(errors.begin(), errors.end(), message) == errors.end()) {
      errors.push_back(message);
    }
  }
};

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Peak resident set of this process, in kilobytes.
long PeakRssKb();

void WriteReport(const Args& args, const Report& report,
                 const std::string& path);

/// Chrome trace ("Complete" events) with nanosecond-exact timestamps and
/// the explicit parent id of every span, so self time can be computed from
/// the tree rather than guessed from per-thread nesting.
void WriteTrace(const setrec::Tracer& tracer, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_REPORT_H_
