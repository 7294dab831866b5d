#include "conclave/common/env.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "conclave/common/strings.h"

namespace conclave {
namespace env {
namespace {

[[noreturn]] void KnobFailed(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  std::abort();
}

}  // namespace

StatusOr<int64_t> ParseInt64Knob(const std::string& name, const std::string& text,
                                 int64_t min_value, int64_t max_value) {
  if (text.empty()) {
    return InvalidArgumentError(
        StrFormat("%s is set but empty; expected an integer", name.c_str()));
  }
  // strtoll silently skips leading whitespace; the knob contract does not.
  if (text.front() != '-' && (text.front() < '0' || text.front() > '9')) {
    return InvalidArgumentError(StrFormat(
        "%s=\"%s\" is not an integer", name.c_str(), text.c_str()));
  }
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || errno == ERANGE) {
    return InvalidArgumentError(StrFormat(
        "%s=\"%s\" is not an integer", name.c_str(), text.c_str()));
  }
  if (parsed < min_value || parsed > max_value) {
    return InvalidArgumentError(StrFormat(
        "%s=%lld is out of range [%lld, %lld]", name.c_str(), parsed,
        static_cast<long long>(min_value), static_cast<long long>(max_value)));
  }
  return static_cast<int64_t>(parsed);
}

StatusOr<bool> ParseBoolKnob(const std::string& name, const std::string& text) {
  if (text == "1" || text == "on" || text == "ON" || text == "true") {
    return true;
  }
  if (text == "0" || text == "off" || text == "OFF" || text == "false") {
    return false;
  }
  return InvalidArgumentError(StrFormat(
      "%s=\"%s\" is not a boolean (expected 0/off/false or 1/on/true)",
      name.c_str(), text.c_str()));
}

int64_t Int64Knob(const char* name, int64_t fallback, int64_t min_value,
                  int64_t max_value) {
  const char* text = std::getenv(name);
  if (text == nullptr) {
    return fallback;
  }
  StatusOr<int64_t> parsed = ParseInt64Knob(name, text, min_value, max_value);
  if (!parsed.ok()) {
    KnobFailed(parsed.status());
  }
  return *parsed;
}

bool BoolKnob(const char* name, bool fallback) {
  const char* text = std::getenv(name);
  if (text == nullptr) {
    return fallback;
  }
  StatusOr<bool> parsed = ParseBoolKnob(name, text);
  if (!parsed.ok()) {
    KnobFailed(parsed.status());
  }
  return *parsed;
}

}  // namespace env
}  // namespace conclave
