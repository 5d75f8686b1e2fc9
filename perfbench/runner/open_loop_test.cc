// Tests for the open-loop schedule: seed-reproducible, rate-faithful,
// ordered, and mixed in the workload's shares.
#include "open_loop.h"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>

namespace perfbench {
namespace {

constexpr std::int64_t kSecond = 1'000'000'000;

bool SameSchedule(const std::vector<Arrival>& a,
                  const std::vector<Arrival>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].due_ns != b[i].due_ns || a[i].op != b[i].op ||
        a[i].tenant != b[i].tenant || a[i].variant != b[i].variant) {
      return false;
    }
  }
  return true;
}

TEST(PoissonScheduleTest, SameSeedSameSchedule) {
  EXPECT_TRUE(SameSchedule(PoissonSchedule(42, 500, 2 * kSecond, 2),
                           PoissonSchedule(42, 500, 2 * kSecond, 2)));
}

TEST(PoissonScheduleTest, DifferentSeedsDiffer) {
  EXPECT_FALSE(SameSchedule(PoissonSchedule(1, 500, 2 * kSecond, 2),
                            PoissonSchedule(2, 500, 2 * kSecond, 2)));
}

TEST(PoissonScheduleTest, DueTimesAreOrderedAndInsideTheWindow) {
  const auto s = PoissonSchedule(7, 1000, kSecond, 2);
  ASSERT_FALSE(s.empty());
  for (std::size_t i = 1; i < s.size(); ++i) {
    EXPECT_LE(s[i - 1].due_ns, s[i].due_ns);
  }
  EXPECT_GE(s.front().due_ns, 0);
  EXPECT_LT(s.back().due_ns, kSecond);
}

TEST(PoissonScheduleTest, OfferedRateIsHonored) {
  // 20000 expected arrivals; the Poisson count's sd is ~141.
  const auto s = PoissonSchedule(3, 2000, 10 * kSecond, 2);
  EXPECT_NEAR(static_cast<double>(s.size()), 20000.0, 600.0);
}

TEST(PoissonScheduleTest, MixAndTenantsFollowTheShares) {
  const auto s = PoissonSchedule(11, 5000, 4 * kSecond, 2);
  std::array<double, 3> ops{};
  std::array<double, 2> tenants{};
  for (const Arrival& a : s) {
    ops[static_cast<std::size_t>(a.op)] += 1;
    tenants[a.tenant] += 1;
  }
  const double n = static_cast<double>(s.size());
  EXPECT_NEAR(ops[0] / n, 0.7, 0.02);
  EXPECT_NEAR(ops[1] / n, 0.2, 0.02);
  EXPECT_NEAR(ops[2] / n, 0.1, 0.02);
  EXPECT_NEAR(tenants[0] / n, 0.5, 0.02);
}

TEST(PoissonScheduleTest, EmptyForDegenerateInputs) {
  EXPECT_TRUE(PoissonSchedule(1, 0, kSecond, 2).empty());
  EXPECT_TRUE(PoissonSchedule(1, 100, 0, 2).empty());
  EXPECT_TRUE(PoissonSchedule(1, 100, kSecond, 0).empty());
}

}  // namespace
}  // namespace perfbench
