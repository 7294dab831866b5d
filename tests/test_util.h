// Shared test helpers.
#ifndef CONCLAVE_TESTS_TEST_UTIL_H_
#define CONCLAVE_TESTS_TEST_UTIL_H_

#include <cstdlib>
#include <optional>
#include <string>

namespace conclave {
namespace test {

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
