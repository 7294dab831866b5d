#include "conclave/net/fault.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <system_error>
#include <type_traits>

#include "conclave/common/rng.h"
#include "conclave/common/strings.h"

namespace conclave {
namespace {

// Domain tags separating the per-kind random-mode decision streams.
uint64_t KindTag(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kDropSend:
      return 0x64726f70ULL;  // "drop"
    case FaultEvent::Kind::kAddLatency:
      return 0x6c617465ULL;  // "late"
    case FaultEvent::Kind::kCrashJob:
      return 0x63726173ULL;  // "cras"
    case FaultEvent::Kind::kCorruptReveal:
      return 0x636f7272ULL;  // "corr"
  }
  return 0;
}

const char* KindName(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kDropSend:
      return "drop";
    case FaultEvent::Kind::kAddLatency:
      return "lat";
    case FaultEvent::Kind::kCrashJob:
      return "crash";
    case FaultEvent::Kind::kCorruptReveal:
      return "corrupt";
  }
  return "?";
}

double UnitDouble(uint64_t word) {
  return static_cast<double>(word >> 11) * 0x1.0p-53;
}

// Parses all of `text` as a T: a base-10 integer in T's range, or a finite double.
template <typename T>
bool ParseNumber(const std::string& text, T* out) {
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, *out);
  if (error != std::errc() || stop != end) {
    return false;
  }
  if constexpr (std::is_floating_point_v<T>) {
    return std::isfinite(*out);
  }
  return true;
}

// The shortest text that ParseNumber reads back as exactly `value`.
std::string ShortestDouble(double value) {
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

}  // namespace

std::string FormatFaultEvents(const std::vector<FaultEvent>& events) {
  if (events.empty()) {
    return "(none)";
  }
  std::string out;
  for (size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& event = events[i];
    out += StrFormat("%s%s@n%d", i == 0 ? "" : ", ", KindName(event.kind),
                     event.node_id);
    if (event.kind != FaultEvent::Kind::kCrashJob && event.ordinal >= 0) {
      out += StrFormat("#%d", event.ordinal);
    }
    if (event.kind == FaultEvent::Kind::kAddLatency) {
      out += StrFormat("+%gs", event.extra_seconds);
    } else if (event.times != 1) {
      out += StrFormat("x%d", event.times);
    }
  }
  return out;
}

StatusOr<FaultPlan> FaultPlan::Parse(const std::string& spec) {
  FaultPlan plan;
  if (spec.empty() || spec == "off") {
    return plan;
  }
  plan.enabled = true;
  size_t pos = 0;
  while (pos < spec.size()) {
    const size_t end = spec.find_first_of(", ", pos);
    const std::string token =
        spec.substr(pos, end == std::string::npos ? std::string::npos : end - pos);
    pos = end == std::string::npos ? spec.size() : end + 1;
    if (token.empty()) {
      continue;
    }
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return InvalidArgumentError(
          StrFormat("fault plan token '%s' is not key=value", token.c_str()));
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    bool parsed = false;
    if (key == "seed") {
      parsed = ParseNumber(value, &plan.seed);
    } else if (key == "drop") {
      parsed = ParseNumber(value, &plan.drop_rate);
    } else if (key == "corrupt") {
      parsed = ParseNumber(value, &plan.corrupt_rate);
    } else if (key == "crash") {
      parsed = ParseNumber(value, &plan.crash_rate);
    } else if (key == "latency") {
      parsed = ParseNumber(value, &plan.latency_rate);
    } else if (key == "latency_s") {
      parsed = ParseNumber(value, &plan.latency_seconds);
    } else if (key == "drops") {
      parsed = ParseNumber(value, &plan.max_consecutive_drops);
    } else if (key == "crash_times") {
      parsed = ParseNumber(value, &plan.crash_times);
    } else if (key == "corrupt_times") {
      parsed = ParseNumber(value, &plan.corrupt_times);
    } else if (key == "retries") {
      parsed = ParseNumber(value, &plan.job_retries);
    } else {
      return InvalidArgumentError(
          StrFormat("unknown fault plan key '%s'", key.c_str()));
    }
    if (!parsed) {
      return InvalidArgumentError(StrFormat("fault plan value '%s' for key '%s'",
                                            value.c_str(), key.c_str()));
    }
  }
  const bool rate_ok = [&] {
    for (double rate : {plan.drop_rate, plan.corrupt_rate, plan.crash_rate,
                        plan.latency_rate}) {
      if (rate < 0 || rate > 1) {
        return false;
      }
    }
    return plan.max_consecutive_drops >= 1 && plan.crash_times >= 1 &&
           plan.corrupt_times >= 1 && plan.job_retries >= 0 &&
           plan.latency_seconds >= 0;
  }();
  if (!rate_ok) {
    return InvalidArgumentError(
        StrFormat("fault plan out of range: %s", plan.ToString().c_str()));
  }
  return plan;
}

StatusOr<FaultPlan> FaultPlan::FromEnv() {
  const char* env = std::getenv("CONCLAVE_FAULT_PLAN");
  if (env == nullptr) {
    return FaultPlan{};
  }
  return Parse(env);
}

std::string FaultPlan::ToString() const {
  if (!enabled) {
    return "off";
  }
  std::string out = StrFormat(
      "seed=%llu,drop=%s,corrupt=%s,crash=%s,latency=%s,latency_s=%s,drops=%d,"
      "crash_times=%d,corrupt_times=%d,retries=%d",
      static_cast<unsigned long long>(seed), ShortestDouble(drop_rate).c_str(),
      ShortestDouble(corrupt_rate).c_str(), ShortestDouble(crash_rate).c_str(),
      ShortestDouble(latency_rate).c_str(), ShortestDouble(latency_seconds).c_str(),
      max_consecutive_drops, crash_times, corrupt_times, job_retries);
  if (!events.empty()) {
    out += StrFormat(" events=[%s]", FormatFaultEvents(events).c_str());
  }
  return out;
}

std::string FaultReport::ToString() const {
  if (!fault_mode) {
    return "fault-report: off";
  }
  std::string out = StrFormat(
      "fault-report: injected drops=%llu corruptions=%llu crashes=%llu "
      "latencies=%llu; retried sends=%llu, job restarts=%llu, recovered=%llu; "
      "recovery %.9fs, %llu B",
      static_cast<unsigned long long>(injected_drops),
      static_cast<unsigned long long>(injected_corruptions),
      static_cast<unsigned long long>(injected_crashes),
      static_cast<unsigned long long>(injected_latencies),
      static_cast<unsigned long long>(retried_sends),
      static_cast<unsigned long long>(job_restarts),
      static_cast<unsigned long long>(recovered_faults), recovery_seconds,
      static_cast<unsigned long long>(recovery_bytes));
  if (!first_failure.empty()) {
    out += StrFormat("\nfirst failure (node #%d): %s", first_failure_node,
                     first_failure.c_str());
  }
  out += StrFormat("\ninjected events: %s",
                   FormatFaultEvents(injected_events).c_str());
  return out;
}

FaultInjector::FaultInjector(FaultPlan plan, CostModel model)
    : plan_(std::move(plan)), model_(model) {
  report_.fault_mode = plan_.enabled;
}

void FaultInjector::EnterScope(int node_id) {
  scope_ = node_id;
  attempt_ = 0;
  send_ordinal_ = 0;
  reveal_ordinal_ = 0;
}

void FaultInjector::BeginAttempt(int attempt) {
  attempt_ = attempt;
  send_ordinal_ = 0;
  reveal_ordinal_ = 0;
}

const FaultEvent* FaultInjector::MatchEvent(FaultEvent::Kind kind,
                                            int ordinal) const {
  for (const FaultEvent& event : plan_.events) {
    if (event.kind != kind) {
      continue;
    }
    if (event.node_id != -1 && event.node_id != scope_) {
      continue;
    }
    if (event.kind != FaultEvent::Kind::kCrashJob && event.ordinal != -1 &&
        event.ordinal != ordinal) {
      continue;
    }
    return &event;
  }
  return nullptr;
}

uint64_t FaultInjector::DecisionWord(FaultEvent::Kind kind,
                                     uint64_t index) const {
  // Stream = (scope, attempt); index addresses the decision within the attempt.
  // Pure in (plan seed, kind, scope, attempt, index): the schedule replays
  // identically at every configuration and on every frontier-rollback replay.
  const uint64_t stream =
      (static_cast<uint64_t>(scope_ + 1) << 20) ^ static_cast<uint64_t>(attempt_);
  return CounterRng(plan_.seed ^ KindTag(kind), stream).At(index);
}

void FaultInjector::Trace(FaultEvent::Kind kind, int ordinal, int times,
                          double extra_seconds) {
  FaultEvent event;
  event.kind = kind;
  event.node_id = scope_;
  event.ordinal = ordinal;
  event.times = times;
  event.extra_seconds = extra_seconds;
  report_.injected_events.push_back(event);
}

void FaultInjector::RaisePendingFailure(std::string provenance) {
  if (pending_failure_) {
    return;  // One escalation per coordinator step is enough; first wins.
  }
  pending_failure_ = true;
  pending_failure_text_ = std::move(provenance);
  pending_failure_node_ = scope_;
}

std::string FaultInjector::TakePendingFailure(int* node_id) {
  pending_failure_ = false;
  if (node_id != nullptr) {
    *node_id = pending_failure_node_;
  }
  return std::move(pending_failure_text_);
}

void FaultInjector::RecordFirstFailure(int node_id, std::string provenance) {
  report_.first_failure = std::move(provenance);
  report_.first_failure_node = node_id;
}

void FaultInjector::OnSend(PartyId from, PartyId to, uint64_t bytes) {
  const int ordinal = send_ordinal_++;
  NodeRecovery& recovery = Recovery();

  // Added latency: recovered immediately, priced once.
  double extra = 0;
  if (const FaultEvent* event = MatchEvent(FaultEvent::Kind::kAddLatency, ordinal)) {
    extra = event->extra_seconds;
  } else if (plan_.latency_rate > 0 &&
             UnitDouble(DecisionWord(FaultEvent::Kind::kAddLatency,
                                     static_cast<uint64_t>(ordinal))) <
                 plan_.latency_rate) {
    extra = plan_.latency_seconds;
  }
  if (extra > 0) {
    ++report_.injected_latencies;
    ++report_.recovered_faults;
    ++recovery.counts.injected;
    ++recovery.counts.recovered;
    recovery.seconds += extra;
    Trace(FaultEvent::Kind::kAddLatency, ordinal, 1, extra);
  }

  // Transient drops: each lost copy is detected after the backoff timeout and
  // retransmitted; drops beyond the bounded retry budget escalate.
  int drops = 0;
  if (const FaultEvent* event = MatchEvent(FaultEvent::Kind::kDropSend, ordinal)) {
    drops = event->times;
  } else if (plan_.drop_rate > 0) {
    const uint64_t fire =
        DecisionWord(FaultEvent::Kind::kDropSend, 2 * static_cast<uint64_t>(ordinal));
    if (UnitDouble(fire) < plan_.drop_rate) {
      const uint64_t count = DecisionWord(FaultEvent::Kind::kDropSend,
                                          2 * static_cast<uint64_t>(ordinal) + 1);
      drops = 1 + static_cast<int>(
                      count % static_cast<uint64_t>(plan_.max_consecutive_drops));
    }
  }
  if (drops == 0) {
    return;
  }
  Trace(FaultEvent::Kind::kDropSend, ordinal, drops, 0);
  report_.injected_drops += static_cast<uint64_t>(drops);
  recovery.counts.injected += static_cast<uint64_t>(drops);
  const int retried = std::min(drops, model_.max_send_retries);
  for (int k = 0; k < retried; ++k) {
    recovery.seconds += model_.RetrySeconds(k, bytes);
  }
  report_.retried_sends += static_cast<uint64_t>(retried);
  recovery.counts.retried += static_cast<uint64_t>(retried);
  report_.recovery_bytes += static_cast<uint64_t>(retried) * bytes;
  if (drops <= model_.max_send_retries) {
    report_.recovered_faults += static_cast<uint64_t>(drops);
    recovery.counts.recovered += static_cast<uint64_t>(drops);
  } else {
    RaisePendingFailure(StrFormat(
        "send #%d (%d -> %d, %llu B) of node #%d's step dropped %d time(s), "
        "exceeding max_send_retries=%d",
        ordinal, static_cast<int>(from), static_cast<int>(to),
        static_cast<unsigned long long>(bytes), scope_, drops,
        model_.max_send_retries));
  }
}

std::vector<FaultInjector::RevealCorruption> FaultInjector::ScheduleRevealFaults(
    int64_t rows, int cols, uint64_t* nonce_out) {
  const int ordinal = reveal_ordinal_++;
  *nonce_out =
      plan_.seed ^ (static_cast<uint64_t>(scope_ + 1) * 0x100000001b3ULL +
                    static_cast<uint64_t>(ordinal));
  if (rows == 0 || cols == 0) {
    return {};  // No payload cells to corrupt.
  }
  int times = 0;
  if (const FaultEvent* event =
          MatchEvent(FaultEvent::Kind::kCorruptReveal, ordinal)) {
    times = event->times;
  } else if (plan_.corrupt_rate > 0 &&
             UnitDouble(DecisionWord(FaultEvent::Kind::kCorruptReveal,
                                     static_cast<uint64_t>(ordinal))) <
                 plan_.corrupt_rate) {
    times = plan_.corrupt_times;
  }
  if (times == 0) {
    return {};
  }
  Trace(FaultEvent::Kind::kCorruptReveal, ordinal, times, 0);
  NodeRecovery& recovery = Recovery();
  report_.injected_corruptions += static_cast<uint64_t>(times);
  recovery.counts.injected += static_cast<uint64_t>(times);

  const uint64_t bytes = static_cast<uint64_t>(rows) *
                         static_cast<uint64_t>(cols) * sizeof(int64_t);
  const int retried = std::min(times, model_.max_send_retries);
  std::vector<RevealCorruption> schedule;
  schedule.reserve(static_cast<size_t>(retried));
  for (int k = 0; k < retried; ++k) {
    const uint64_t word =
        DecisionWord(FaultEvent::Kind::kCorruptReveal,
                     (static_cast<uint64_t>(ordinal) << 8) ^
                         (0x40 + static_cast<uint64_t>(k)));
    RevealCorruption corruption;
    corruption.row = static_cast<int64_t>(word % static_cast<uint64_t>(rows));
    corruption.col = static_cast<int>((word >> 32) % static_cast<uint64_t>(cols));
    corruption.bit = 1LL << (word % 63);
    schedule.push_back(corruption);
    recovery.seconds += model_.RetrySeconds(k, bytes);
    ++report_.retried_sends;
    ++recovery.counts.retried;
    report_.recovery_bytes += bytes;
  }
  if (times <= model_.max_send_retries) {
    report_.recovered_faults += static_cast<uint64_t>(times);
    recovery.counts.recovered += static_cast<uint64_t>(times);
  } else {
    RaisePendingFailure(StrFormat(
        "reveal #%d into node #%d corrupted %d time(s) (commitment mismatch), "
        "exceeding max_send_retries=%d",
        ordinal, scope_, times, model_.max_send_retries));
  }
  return schedule;
}

int FaultInjector::JobCrashes(int node_id) {
  CONCLAVE_CHECK_EQ(node_id, scope_);
  int crashes = 0;
  if (const FaultEvent* event = MatchEvent(FaultEvent::Kind::kCrashJob, 0)) {
    crashes = event->times;
  } else if (plan_.crash_rate > 0 &&
             UnitDouble(DecisionWord(FaultEvent::Kind::kCrashJob, 0)) <
                 plan_.crash_rate) {
    crashes = plan_.crash_times;
  }
  if (crashes == 0) {
    return 0;
  }
  Trace(FaultEvent::Kind::kCrashJob, -1, crashes, 0);
  NodeRecovery& recovery = Recovery();
  report_.injected_crashes += static_cast<uint64_t>(crashes);
  recovery.counts.injected += static_cast<uint64_t>(crashes);
  if (crashes > plan_.job_retries) {
    RaisePendingFailure(
        StrFormat("job for node #%d crashed %d time(s), exhausting the "
                  "job_retries=%d recovery budget",
                  node_id, crashes, plan_.job_retries));
  }
  return crashes;
}

void FaultInjector::ChargeJobRestart(int node_id, double wasted_seconds) {
  NodeRecovery& recovery = recovery_[node_id];
  recovery.seconds += wasted_seconds + model_.crash_restart_seconds;
  ++recovery.counts.retried;
  ++recovery.counts.recovered;
  ++report_.job_restarts;
  ++report_.recovered_faults;
}

void FaultInjector::AddRecoverySeconds(int node_id, double seconds) {
  recovery_[node_id].seconds += seconds;
}

double FaultInjector::NodeRecoverySeconds(int node_id) const {
  const auto it = recovery_.find(node_id);
  return it == recovery_.end() ? 0 : it->second.seconds;
}

FaultReport FaultInjector::Report(const std::vector<int>& topo_node_ids) const {
  FaultReport report = report_;
  // Fold the recovery charges in the caller's (topo) order — never in encounter
  // order, which is scheduling-dependent across pool sizes.
  report.recovery_seconds = 0;
  for (int node_id : topo_node_ids) {
    report.recovery_seconds += NodeRecoverySeconds(node_id);
  }
  for (const auto& [node_id, recovery] : recovery_) {
    report.node_faults[node_id] = recovery.counts;
  }
  return report;
}

}  // namespace conclave
