// Centralized parsing for the CONCLAVE_* environment knobs.
//
// The numeric and boolean runtime knobs go through the two readers below
// instead of ad-hoc atoi/atoll at each call site:
//   CONCLAVE_BATCH_ROWS, CONCLAVE_MEM_BUDGET — run options, applied only by
//     compiler::ResolveExecOptions;
//   CONCLAVE_THREADS — the shared pool's size (common/thread_pool.h);
//   CONCLAVE_SIMD — the SIMD/scalar kernel switch (common/cpu.h).
// (CONCLAVE_FAULT_PLAN and CONCLAVE_SPILL_DIR are strings with their own
// parsers.) The core parsers are pure functions over the variable's text and
// return Status on malformed input — the readers crash with a message naming
// the variable and the offending value rather than silently coercing garbage
// to 0.
#ifndef CONCLAVE_COMMON_ENV_H_
#define CONCLAVE_COMMON_ENV_H_

#include <cstdint>
#include <string>

#include "conclave/common/status.h"

namespace conclave {
namespace env {

// Strict integer parse of one knob's text: the whole string must be a base-10
// integer (leading '-' allowed) in [min_value, max_value]. Surrounding
// whitespace, trailing garbage, empty strings, and out-of-range values are all
// errors that name the variable.
StatusOr<int64_t> ParseInt64Knob(const std::string& name, const std::string& text,
                                 int64_t min_value, int64_t max_value);

// Strict boolean parse: "1"/"on"/"ON"/"true" -> true, "0"/"off"/"OFF"/"false"
// -> false, anything else is an error that names the variable.
StatusOr<bool> ParseBoolKnob(const std::string& name, const std::string& text);

// Environment readers over the parsers above. Unset variables return
// `fallback`; set-but-malformed values crash with the parser's message (a knob
// typo should never silently select a default).
int64_t Int64Knob(const char* name, int64_t fallback, int64_t min_value,
                  int64_t max_value);
bool BoolKnob(const char* name, bool fallback);

}  // namespace env
}  // namespace conclave

#endif  // CONCLAVE_COMMON_ENV_H_
