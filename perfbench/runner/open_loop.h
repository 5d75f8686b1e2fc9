// Open-loop arrival schedule for the service workload: seeded Poisson
// arrivals at a fixed offered rate, each tagged with an operation kind and a
// tenant. The schedule is a pure function of (seed, rate, duration), so two
// runs with one seed offer the same requests at the same due times.
#ifndef PERFBENCH_RUNNER_OPEN_LOOP_H_
#define PERFBENCH_RUNNER_OPEN_LOOP_H_

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

namespace perfbench {

enum class OpKind : std::uint8_t { kQuery = 0, kDelta = 1, kUpdate = 2 };

struct Arrival {
  /// Due time, nanoseconds after the schedule's start.
  std::int64_t due_ns = 0;
  OpKind op = OpKind::kQuery;
  std::uint32_t tenant = 0;
  /// Per-arrival variant draw (query shape, update shape, delta contents).
  std::uint64_t variant = 0;
};

/// Shares of the traffic; the rest (70%) is queries.
inline constexpr double kDeltaShare = 0.2;
inline constexpr double kUpdateShare = 0.1;

/// Exponential inter-arrival gaps at `rate_per_s` until `duration_ns`.
/// Inverse-CDF sampling over a 64-bit engine keeps the draws identical
/// across standard libraries (std::exponential_distribution is not pinned).
inline std::vector<Arrival> PoissonSchedule(std::uint64_t seed,
                                            double rate_per_s,
                                            std::int64_t duration_ns,
                                            std::uint32_t tenants) {
  std::vector<Arrival> out;
  if (rate_per_s <= 0.0 || duration_ns <= 0 || tenants == 0) return out;
  std::mt19937_64 rng(seed);
  const auto uniform = [&rng] {
    // 53 random bits -> [0, 1).
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  double t_ns = 0.0;
  while (true) {
    t_ns += -std::log1p(-uniform()) / rate_per_s * 1e9;
    if (t_ns >= static_cast<double>(duration_ns)) break;
    Arrival a;
    a.due_ns = static_cast<std::int64_t>(t_ns);
    const double pick = uniform();
    a.op = pick < kUpdateShare                ? OpKind::kUpdate
           : pick < kUpdateShare + kDeltaShare ? OpKind::kDelta
                                              : OpKind::kQuery;
    a.tenant = static_cast<std::uint32_t>(rng() % tenants);
    a.variant = rng();
    out.push_back(a);
  }
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_OPEN_LOOP_H_
