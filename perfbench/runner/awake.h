// Keeps every CPU of the host busy at the lowest scheduling priority while
// a workload runs.
//
// On a virtual machine an idle virtual CPU is descheduled by the host, and
// waking it costs a host scheduling round trip whose length depends on the
// neighbours' load: a request that crosses threads (client -> session ->
// pool) pays it several times, so latencies and saturation rates moved by
// 2x between runs. Spinning SCHED_IDLE threads keep the virtual CPUs
// running; any runnable thread of the workload preempts them at once, so
// a wakeup costs an in-guest context switch instead.
#ifndef PERFBENCH_RUNNER_AWAKE_H_
#define PERFBENCH_RUNNER_AWAKE_H_

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace perfbench {

class KeepCpusAwake {
 public:
  explicit KeepCpusAwake(std::size_t threads);
  ~KeepCpusAwake();
  KeepCpusAwake(const KeepCpusAwake&) = delete;
  KeepCpusAwake& operator=(const KeepCpusAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_AWAKE_H_
