// Shared test helpers.
#ifndef CONCLAVE_TESTS_TEST_UTIL_H_
#define CONCLAVE_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "conclave/net/network.h"

namespace conclave {
namespace test {

// Asserts that two networks were charged alike, bit for bit: clock, meter, every
// counter and the per-party byte matrix. Drains both meters.
inline void ExpectSameCharges(SimNetwork& run, SimNetwork& priced,
                              const std::string& what) {
  EXPECT_EQ(run.ElapsedSeconds(), priced.ElapsedSeconds()) << what;
  EXPECT_EQ(run.TakeMeterSeconds(), priced.TakeMeterSeconds()) << what;
  const CostCounters& a = run.counters();
  const CostCounters& b = priced.counters();
  EXPECT_EQ(a.network_bytes, b.network_bytes) << what;
  EXPECT_EQ(a.network_rounds, b.network_rounds) << what;
  EXPECT_EQ(a.mpc_multiplications, b.mpc_multiplications) << what;
  EXPECT_EQ(a.mpc_comparisons, b.mpc_comparisons) << what;
  EXPECT_EQ(a.gc_and_gates, b.gc_and_gates) << what;
  for (PartyId from = 0; from < kMaxParties; ++from) {
    for (PartyId to = 0; to < kMaxParties; ++to) {
      EXPECT_EQ(run.BytesSent(from, to), priced.BytesSent(from, to))
          << what << ": " << from << " -> " << to;
    }
  }
}

// RAII guard for process environment variables. Tests that set executor knobs
// (CONCLAVE_THREADS, CONCLAVE_BATCH_ROWS, CONCLAVE_MEM_BUDGET, ...) must use this
// so a failing assertion cannot leak the override into later tests in the same
// binary — under `ctest -j` every binary is its own process, but within a
// binary gtest runs cases sequentially and environment state persists.
//
//   ScopedEnvVar batch("CONCLAVE_BATCH_ROWS", "64");    // set for this scope
//   ScopedEnvVar none("CONCLAVE_BATCH_ROWS", nullptr);  // force-unset for this scope
//
// The destructor restores exactly the prior state (previous value, or unset).
class ScopedEnvVar {
 public:
  ScopedEnvVar(const char* name, const char* value) : name_(name) {
    if (const char* prev = std::getenv(name)) {
      previous_ = prev;
    }
    Apply(value);
  }

  ~ScopedEnvVar() {
    Apply(previous_.has_value() ? previous_->c_str() : nullptr);
  }

  ScopedEnvVar(const ScopedEnvVar&) = delete;
  ScopedEnvVar& operator=(const ScopedEnvVar&) = delete;

 private:
  void Apply(const char* value) {
    if (value != nullptr) {
      ::setenv(name_.c_str(), value, /*overwrite=*/1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

  std::string name_;
  std::optional<std::string> previous_;
};

}  // namespace test
}  // namespace conclave

#endif  // CONCLAVE_TESTS_TEST_UTIL_H_
