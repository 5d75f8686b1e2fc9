#include "awake.h"

#include <pthread.h>
#include <sched.h>

namespace perfbench {

KeepCpusAwake::KeepCpusAwake(std::size_t threads) {
  for (std::size_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this] {
      sched_param param{};
      // Lowering one's own priority needs no privilege; if it fails the
      // thread exits rather than compete with the workload.
      if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
        return;
      }
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
}

KeepCpusAwake::~KeepCpusAwake() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

}  // namespace perfbench
