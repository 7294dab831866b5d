// Simulated multi-party network.
//
// All protocol engines charge their communication and computation here. SimNetwork
// owns the virtual clock and the cost counters for one end-to-end execution; the
// per-party byte matrix supports tests that assert *who* saw how much data (e.g., the
// STP in a hybrid join receives exactly the key columns plus index relations).
#ifndef CONCLAVE_NET_NETWORK_H_
#define CONCLAVE_NET_NETWORK_H_

#include <array>
#include <cstdint>

#include "conclave/common/party.h"
#include "conclave/common/virtual_clock.h"
#include "conclave/net/cost_model.h"

namespace conclave {

class FaultInjector;  // net/fault.h: consulted per Send under fault injection.

class SimNetwork {
 public:
  explicit SimNetwork(CostModel model) : model_(model) {}
  SimNetwork() : SimNetwork(CostModel{}) {}

  const CostModel& model() const { return model_; }

  // Point-to-point transfer: counts bytes and charges bandwidth time. Under fault
  // injection the reliable-delivery layer then consults the injector: scheduled
  // drops are absorbed by timeout + backed-off retransmission (bounded by
  // CostModel::max_send_retries), priced into the injector's recovery
  // accumulators — never into this network's meter or counters, which stay
  // bit-identical to the fault-free run (DESIGN.md §11).
  void Send(PartyId from, PartyId to, uint64_t bytes) {
    CONCLAVE_CHECK_NE(from, to);
    counters_.network_bytes += bytes;
    bytes_matrix_[Index(from)][Index(to)] += bytes;
    Charge(model_.SecondsForBytes(bytes));
    if (fault_ != nullptr) {
      FaultOnSend(from, to, bytes);
    }
  }

  // Broadcast from one party to all others.
  void Broadcast(PartyId from, int num_parties, uint64_t bytes) {
    for (PartyId to = 0; to < num_parties; ++to) {
      if (to != from) {
        Send(from, to, bytes);
      }
    }
  }

  // A synchronous round barrier: charges one LAN latency per round.
  void Rounds(uint64_t count) {
    counters_.network_rounds += count;
    Charge(model_.SecondsForRounds(count));
  }

  // Computation charged directly in seconds (per-primitive amortized costs).
  void CpuSeconds(double seconds) { Charge(seconds); }

  // Zero-based charge meter for per-step cost attribution. The job-graph executor
  // reads each step's virtual cost as TakeMeterSeconds() (the sum of charges since
  // the previous take, accumulated from zero) instead of subtracting clock stamps:
  // a difference of clock readings picks up floating-point rounding that depends on
  // how much virtual time happened to precede the step, which would make per-step
  // costs — and therefore the reported totals — vary with execution interleaving.
  double TakeMeterSeconds() {
    const double taken = meter_seconds_;
    meter_seconds_ = 0;
    return taken;
  }

  // Aggregate byte count for symmetric batched primitives (e.g., Beaver openings),
  // where traffic is spread evenly across all party pairs and the per-op amortized
  // seconds already cover transfer time.
  void CountAggregateBytes(uint64_t bytes) { counters_.network_bytes += bytes; }

  double ElapsedSeconds() const { return clock_.now_seconds(); }
  const CostCounters& counters() const { return counters_; }
  CostCounters& mutable_counters() { return counters_; }

  uint64_t BytesSent(PartyId from, PartyId to) const {
    return bytes_matrix_[Index(from)][Index(to)];
  }
  uint64_t BytesReceivedBy(PartyId to) const {
    uint64_t total = 0;
    for (int from = 0; from < kMaxParties; ++from) {
      total += bytes_matrix_[static_cast<size_t>(from)][Index(to)];
    }
    return total;
  }

  // Meter hygiene: a Reset that discards an undrained meter silently loses cost
  // attribution (some step's charges would vanish from the per-node totals), so
  // callers must TakeMeterSeconds() before resetting.
  void Reset() {
    CONCLAVE_CHECK_EQ(meter_seconds_, 0);
    clock_.Reset();
    counters_.Reset();
    bytes_matrix_ = {};
  }

  // Full simulation-state snapshot for frontier-checkpoint rollback (the
  // dispatcher's crash recovery, DESIGN.md §11). The fault injector binding is
  // deliberately not part of the snapshot: the injector's accumulators record the
  // crashed attempt's recovery charges and must survive the rollback.
  struct Snapshot {
    double clock_seconds = 0;
    double meter_seconds = 0;
    CostCounters counters;
    std::array<std::array<uint64_t, kMaxParties>, kMaxParties> bytes_matrix{};
  };
  Snapshot TakeSnapshot() const {
    Snapshot snapshot;
    snapshot.clock_seconds = clock_.now_seconds();
    snapshot.meter_seconds = meter_seconds_;
    snapshot.counters = counters_;
    snapshot.bytes_matrix = bytes_matrix_;
    return snapshot;
  }
  void RestoreSnapshot(const Snapshot& snapshot) {
    clock_.Reset();
    clock_.Advance(snapshot.clock_seconds);  // 0 + x == x, bit for bit.
    meter_seconds_ = snapshot.meter_seconds;
    counters_ = snapshot.counters;
    bytes_matrix_ = snapshot.bytes_matrix;
  }

  // Binds/unbinds the run's fault injector (coordinator-owned; see net/fault.h).
  void set_fault_injector(FaultInjector* fault) { fault_ = fault; }
  FaultInjector* fault_injector() const { return fault_; }

 private:
  static size_t Index(PartyId party) {
    CONCLAVE_CHECK_GE(party, 0);
    CONCLAVE_CHECK_LT(party, kMaxParties);
    return static_cast<size_t>(party);
  }

  void Charge(double seconds) {
    clock_.Advance(seconds);
    meter_seconds_ += seconds;
  }

  // Out of line (net/network.cc) so this header needs no fault.h dependency.
  void FaultOnSend(PartyId from, PartyId to, uint64_t bytes);

  CostModel model_;
  VirtualClock clock_;
  double meter_seconds_ = 0;
  CostCounters counters_;
  std::array<std::array<uint64_t, kMaxParties>, kMaxParties> bytes_matrix_{};
  FaultInjector* fault_ = nullptr;
};

}  // namespace conclave

#endif  // CONCLAVE_NET_NETWORK_H_
