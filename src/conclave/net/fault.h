// Deterministic fault injection for the simulated deployment (DESIGN.md §11).
//
// A FaultPlan schedules transient send drops, job crash/restarts, reveal-payload
// corruption, and added delivery latency; a FaultInjector executes the schedule
// against one run. Faults are addressed by (DAG node, per-step ordinal, attempt) —
// the dispatcher step that performs an operation and the operation's position
// within that step — never by global operation indices or virtual-clock stamps,
// which vary with pool-size interleaving. Each node's step runs sequentially on
// the coordinator thread, so its ordinals are a pure function of the plan and the
// query, and the whole schedule replays bit-identically at every
// {pool, batch} configuration.
//
// Recovery is priced, not free: every retransmission, backoff wait, wasted crashed
// attempt, and restart penalty accrues in injector-owned per-node accumulators,
// charged through CostModel::RetrySeconds / crash_restart_seconds. The SimNetwork
// meter, clock attribution, and cost counters never see fault charges — the
// fault-free portion of a faulted run stays bit-identical to the fault-free run,
// and the final virtual clock is exactly (fault-free total + recovery_seconds).
// That identity is the chaos differential fuzzer's headline property.
#ifndef CONCLAVE_NET_FAULT_H_
#define CONCLAVE_NET_FAULT_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "conclave/common/party.h"
#include "conclave/common/status.h"
#include "conclave/net/cost_model.h"

namespace conclave {

// One scheduled (or, in a FaultReport trace, realized) fault.
struct FaultEvent {
  enum class Kind {
    kDropSend,       // The ordinal-th Send of the node's step is lost `times` times
                     // before a retransmission gets through.
    kAddLatency,     // ... is delayed by extra_seconds (recovered, priced, once).
    kCrashJob,       // The node's job crashes `times` times; each crash restarts
                     // from the last MPC-frontier checkpoint.
    kCorruptReveal,  // The ordinal-th reveal delivered by the node's step arrives
                     // corrupted `times` times; each corruption is detected by a
                     // commitment opening check and retransmitted.
  };
  Kind kind = Kind::kDropSend;
  int node_id = -1;  // -1 = matches every node.
  int ordinal = -1;  // -1 = matches every operation of the step (ignored by crash).
  int times = 1;     // Consecutive repetitions before the fault clears.
  double extra_seconds = 0;  // kAddLatency only.
};

// Renders a schedule/trace like "drop@n4#0x2, crash@n7x1, corrupt@n9#0x1,
// lat@n4#3+0.002s" — the shrinker's printable form of a failing fault schedule.
std::string FormatFaultEvents(const std::vector<FaultEvent>& events);

// A deterministic fault schedule: explicit events for targeted tests, plus seeded
// random rates for chaos sweeps. Random decisions are pure functions of
// (plan seed, node, attempt, ordinal) via CounterRng, so a plan injects the same
// faults at every pool/batch configuration.
//
// A plan is *recoverable* by construction when every drop/corruption count stays
// within CostModel::max_send_retries and every crash count within job_retries;
// anything beyond escalates to a structured abort carrying a FaultReport.
struct FaultPlan {
  bool enabled = false;
  uint64_t seed = 0;

  // Random-mode rates in [0, 1], evaluated per send / reveal / job dispatch.
  double drop_rate = 0;
  double corrupt_rate = 0;
  double crash_rate = 0;
  double latency_rate = 0;
  double latency_seconds = 2e-3;  // Added per injected-latency send.

  // Repetition counts for random-mode injections.
  int max_consecutive_drops = 1;
  int crash_times = 1;
  int corrupt_times = 1;

  // Per-job recovery budget: frontier rollbacks / task restarts tolerated per job
  // before the run aborts.
  int job_retries = 2;

  std::vector<FaultEvent> events;

  // Parses the compact knob form, e.g.
  //   "seed=7,drop=0.05,corrupt=0.02,crash=0.1,latency=0.2,latency_s=0.002,
  //    drops=2,crash_times=1,corrupt_times=1,retries=3"
  // Separators are commas or spaces; "off" (or empty) parses to a disabled plan.
  // Explicit events are programmatic-only (no string form).
  static StatusOr<FaultPlan> Parse(const std::string& spec);

  // Resolves the CONCLAVE_FAULT_PLAN environment knob (disabled when unset).
  // A malformed value is an error so typos fail loud, not silently fault-free.
  static StatusOr<FaultPlan> FromEnv();

  // Compact knob-form rendering of the rates/budgets plus any explicit events;
  // "off" when disabled. What the differential shrinker prints.
  std::string ToString() const;
};

// Per-job injected/retried/recovered counts for FaultReport::node_faults.
struct FaultNodeCounts {
  uint64_t injected = 0;
  uint64_t retried = 0;
  uint64_t recovered = 0;
};

// Structured recovery outcome attached to every ExecutionResult run under fault
// injection; carried by the dispatcher's graceful abort when a budget is
// exhausted.
struct FaultReport {
  bool fault_mode = false;

  uint64_t injected_drops = 0;
  uint64_t injected_corruptions = 0;
  uint64_t injected_crashes = 0;
  uint64_t injected_latencies = 0;

  uint64_t retried_sends = 0;    // Retransmissions (dropped sends + corrupted reveals).
  uint64_t job_restarts = 0;     // Frontier rollbacks + modeled task restarts.
  uint64_t recovered_faults = 0; // Injections absorbed without escalating.

  // Priced recovery time: exactly the virtual-clock delta vs. the fault-free run.
  double recovery_seconds = 0;
  uint64_t recovery_bytes = 0;   // Retransmitted payload bytes (not in counters).

  // Provenance of the canonical first unrecoverable fault (earliest failing node
  // in topological order; empty when the run recovered).
  std::string first_failure;
  int first_failure_node = -1;

  // Per-job counts, keyed by DAG node id.
  std::map<int, FaultNodeCounts> node_faults;

  // Realized injections in coordinator encounter order — the printable fault
  // schedule the differential shrinker reports alongside the minimal plan.
  std::vector<FaultEvent> injected_events;

  std::string ToString() const;
};

// Executes one FaultPlan against one run. Owned by the dispatcher and consulted
// only from the coordinator thread (pool tasks receive plain copies of any
// decision they need): injector state is part of the single-owner simulation
// state of DESIGN.md §5.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, CostModel model);

  const FaultPlan& plan() const { return plan_; }

  // Enters the dispatcher step for `node_id` (acquisition + execution), resetting
  // the step's operation ordinals. Attempt 0 of the node's job.
  void EnterScope(int node_id);
  // Re-enters the current scope for retry attempt `attempt` (>= 1) after a
  // frontier rollback: ordinals reset so the replay addresses the same
  // operations; the attempt feeds the random-mode hash, so a retried job sees
  // fresh (usually clear) network conditions.
  void BeginAttempt(int attempt);

  // Consulted by SimNetwork::Send after the normal (fault-free) charge: injects
  // scheduled drops/latency for the current scope's next send ordinal, pricing
  // retransmissions with exponential backoff into the recovery accumulators.
  // Drops beyond CostModel::max_send_retries raise a pending failure.
  void OnSend(PartyId from, PartyId to, uint64_t bytes);

  // One scheduled corruption of a reveal: flip `bit` in cell (row, col) of
  // the k-th delivery attempt. Produced by ScheduleRevealFaults, consumed by
  // mpc::RevealSource, which performs the commitment-mismatch detection when a
  // pull reaches the corrupted row.
  struct RevealCorruption {
    int64_t row = 0;
    int col = 0;
    int64_t bit = 0;
  };

  // The one reveal-fault entry point: consumes the next reveal ordinal of the
  // current scope and makes the injection decisions, retry charges (with
  // backoff), counter updates, and pending-failure escalations from the
  // reveal's public shape (rows x cols, ByteSize = rows * cols * 8).
  // Corruption beyond max_send_retries raises a pending failure. Returns the
  // corruption schedule (empty when this reveal is untouched) and the
  // commitment nonce for the opening checks mpc::RevealSource runs.
  std::vector<RevealCorruption> ScheduleRevealFaults(int64_t rows, int cols,
                                                     uint64_t* nonce_out);

  // Crash injections scheduled for `node_id`'s job, consulted at dispatch (counts
  // the injections; the caller executes/prices the restarts). Counts beyond
  // plan().job_retries raise a pending failure.
  int JobCrashes(int node_id);

  // Prices one job restart: the wasted attempt's work plus
  // CostModel::crash_restart_seconds, accrued to `node_id`.
  void ChargeJobRestart(int node_id, double wasted_seconds);

  // Adds priced recovery time to `node_id` without counting a new restart —
  // the interior members of a fused chain re-run inside the head's restarts.
  void AddRecoverySeconds(int node_id, double seconds);

  // Pending-failure escalation: an unrecoverable injection parks its provenance
  // here; the dispatcher polls after each coordinator step and canonicalizes to
  // the earliest failing node in topo order (mirroring RecordFailure).
  bool has_pending_failure() const { return pending_failure_; }
  std::string TakePendingFailure(int* node_id);

  // Records the canonical (earliest-topo) failure chosen by the dispatcher.
  void RecordFirstFailure(int node_id, std::string provenance);

  // Recovery seconds accrued to one node (0 when the node injected nothing).
  // The dispatcher folds these in topo order — like every other float total —
  // so recovery_seconds is bit-identical at every pool size.
  double NodeRecoverySeconds(int node_id) const;

  // The final report; `topo_node_ids` fixes the recovery_seconds fold order.
  FaultReport Report(const std::vector<int>& topo_node_ids) const;

 private:
  struct NodeRecovery {
    double seconds = 0;
    FaultNodeCounts counts;
  };

  NodeRecovery& Recovery() { return recovery_[scope_]; }
  // First explicit event matching (kind, current scope, ordinal); nullptr if none.
  const FaultEvent* MatchEvent(FaultEvent::Kind kind, int ordinal) const;
  // Random-mode decision word `index` for (kind, scope, attempt) — pure.
  uint64_t DecisionWord(FaultEvent::Kind kind, uint64_t index) const;
  void Trace(FaultEvent::Kind kind, int ordinal, int times, double extra_seconds);
  void RaisePendingFailure(std::string provenance);

  FaultPlan plan_;
  CostModel model_;

  int scope_ = -1;
  int attempt_ = 0;
  int send_ordinal_ = 0;
  int reveal_ordinal_ = 0;

  bool pending_failure_ = false;
  std::string pending_failure_text_;
  int pending_failure_node_ = -1;

  FaultReport report_;
  std::unordered_map<int, NodeRecovery> recovery_;
};

}  // namespace conclave

#endif  // CONCLAVE_NET_FAULT_H_
