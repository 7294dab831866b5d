// Virtual (simulated) time accounting.
//
// The MPC substrates in this repo execute real protocols on real data in-process, but
// report runtime on a *virtual* clock: each protocol step advances the clock by a
// modeled cost (network rounds x latency, bytes / bandwidth, per-element CPU work).
// Benches report virtual seconds so the multi-machine deployments of the paper can be
// reproduced on one machine with faithful cost shapes.
#ifndef CONCLAVE_COMMON_VIRTUAL_CLOCK_H_
#define CONCLAVE_COMMON_VIRTUAL_CLOCK_H_

#include <cstdint>

#include "conclave/common/check.h"

namespace conclave {

class VirtualClock {
 public:
  VirtualClock() = default;

  void Advance(double seconds) {
    CONCLAVE_CHECK_GE(seconds, 0.0);
    now_seconds_ += seconds;
  }

  double now_seconds() const { return now_seconds_; }

  void Reset() { now_seconds_ = 0.0; }

 private:
  double now_seconds_ = 0.0;
};

// Aggregate counters for one simulated execution. Substrates add to these as they run;
// benches and tests read them to assert cost properties (e.g., an oblivious shuffle of
// n elements moves O(n log n) bytes).
struct CostCounters {
  uint64_t network_bytes = 0;     // Total bytes crossing party boundaries.
  uint64_t network_rounds = 0;    // Sequential communication rounds.
  uint64_t mpc_multiplications = 0;
  uint64_t mpc_comparisons = 0;
  uint64_t gc_and_gates = 0;      // Non-free garbled gates.
  uint64_t cleartext_records = 0; // Records processed by cleartext backends.
  uint64_t zk_proofs = 0;         // Input-consistency proofs (malicious security).

  void Add(const CostCounters& other) {
    network_bytes += other.network_bytes;
    network_rounds += other.network_rounds;
    mpc_multiplications += other.mpc_multiplications;
    mpc_comparisons += other.mpc_comparisons;
    gc_and_gates += other.gc_and_gates;
    cleartext_records += other.cleartext_records;
    zk_proofs += other.zk_proofs;
  }

  void Reset() { *this = CostCounters{}; }
};

}  // namespace conclave

#endif  // CONCLAVE_COMMON_VIRTUAL_CLOCK_H_
