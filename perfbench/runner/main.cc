// perfbench_runner — runs one benchmark workload and writes its raw
// measurements (report.json, and trace.json when traced) to --out.
//
//   perfbench_runner --workload raise-par|raise-seq|service-mix --seed N
//                    --seconds S --trace 0|1 --out DIR [--rate R]
//
// Exit code 0 means the run completed; output checks are reported in the
// report, not through the exit code, so run.py can say which one failed.
#include <filesystem>
#include <iostream>
#include <string>

#include "awake.h"
#include "core/thread_pool.h"
#include "report.h"

namespace perfbench {
int RunRaise(const Args& args, bool parallel, Report& report);
int RunService(const Args& args, Report& report);
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--rate") {
      args.rate = std::stod(value);
    } else if (key == "--out") {
      args.out_dir = value;
    } else {
      std::cerr << "unknown flag " << key << "\n";
      return 2;
    }
  }
  if (args.out_dir.empty() || args.seconds <= 0) {
    std::cerr << "usage: perfbench_runner --workload W --seed N --seconds S "
                 "--trace 0|1 --out DIR\n";
    return 2;
  }
  std::filesystem::create_directories(args.out_dir);
  perfbench::Report report;
  int rc = 2;
  if (args.workload == "raise-par" || args.workload == "raise-seq") {
    rc = perfbench::RunRaise(args, args.workload == "raise-par", report);
  } else if (args.workload == "service-mix") {
    if (args.rate <= 0) {
      std::cerr << "service-mix needs --rate\n";
      return 2;
    }
    // The service's requests cross threads, so its latencies hinge on
    // wakeups; held for the whole run, set-up included (see awake.h). The
    // raise workloads keep to compute and run without it: a spinner on a
    // sibling hardware thread would only slow them.
    const perfbench::KeepCpusAwake awake(
        setrec::ThreadPool::DefaultWorkerCount());
    rc = perfbench::RunService(args, report);
  } else {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  perfbench::WriteReport(args, report, args.out_dir + "/report.json");
  return rc;
}
