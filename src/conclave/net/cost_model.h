// Calibrated cost model for the simulated deployment.
//
// The paper evaluates on per-party clusters (three 2-vCPU Spark VMs + one 4-vCPU
// Sharemind VM per party) connected by a LAN. This repo executes every protocol
// in-process and advances a virtual clock using the constants below. Constants are
// calibrated against the anchor points the paper reports (see DESIGN.md §6 and
// EXPERIMENTS.md):
//
//   * Sharemind oblivious sort of 16k elements ~ 200 s            [paper §2.3, ref 39]
//   * Sharemind projection of 3M records ~ 10 min (storage layer) [Fig. 1c]
//   * Sharemind Cartesian join of 10k x 10k ~ 20 min              [Fig. 5a]
//   * Obliv-C join OOM at ~30k total records, projection OOM at ~300k [Fig. 1b/1c]
//   * Spark: "tens of millions of records in seconds"             [Fig. 1]
//   * Conclave hybrid join on 200k records ~ 10 min               [Fig. 5a]
//
// Absolute seconds are not the reproduction target (our substrate is a simulator, not
// the authors' testbed); the *shape* of each curve — who wins, crossover locations,
// where OOM / timeout cliffs fall — is.
#ifndef CONCLAVE_NET_COST_MODEL_H_
#define CONCLAVE_NET_COST_MODEL_H_

#include <cstdint>

namespace conclave {

// Cell and byte counts for memory checks saturate: the planner applies the engines'
// checks to estimates of up to 2^62 rows, where a wrapped count would pass.
inline uint64_t SaturatingMul(uint64_t a, uint64_t b) {
  uint64_t product = 0;
  return __builtin_mul_overflow(a, b, &product) ? UINT64_MAX : product;
}
inline uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  uint64_t sum = 0;
  return __builtin_add_overflow(a, b, &sum) ? UINT64_MAX : sum;
}

// Row keys of the secret-sharing calibration table (CostModel::SsChargeFor). One row
// per batched primitive the engine executes. The engine's charge functions
// (mpc/secret_share_engine.h) read these rows, and the planner prices a plan by
// applying those same functions to a scratch network (compiler/plan_cost.cc).
enum class SsPrimitive {
  kMult,          // Beaver multiplication; per element.
  kEquality,      // Private equality test; per element.
  kCompare,       // Private ordered comparison (bit decomposition); per element.
  kDivision,      // Private division; per element.
  kShuffleCell,   // Resharing-based oblivious shuffle; per cell.
  kSelectOp,      // Laud oblivious-index op; per element-step. Rounds scale with
                  // log2(n + m) and are charged by the caller, not the table.
  kRecordIngest,  // Secret-share ingest + storage layer; seconds per *record*,
                  // bytes per *cell* (the storage layer writes whole rows, the
                  // network moves cells).
  kOpen,          // Public opening; per element. Traffic only (6 x 8 B), no seconds.
  kReveal,        // Relation reveal at the frontier; per cell. Traffic only.
};

// One calibration row: amortized virtual seconds and counted bytes per unit (see the
// SsPrimitive commentary for each primitive's unit), plus synchronous communication
// rounds per batched invocation. Seconds already include the primitive's own traffic
// time; bytes are additionally *counted* so tests can assert communication volume
// without double-charging the clock.
struct SsCharge {
  double seconds = 0;
  uint64_t bytes = 0;
  uint64_t rounds = 0;
};

struct CostModel {
  // --- LAN ------------------------------------------------------------------------
  double latency_seconds = 1e-3;          // One communication round, LAN RTT-ish.
  double bandwidth_bytes_per_second = 125e6;  // 1 Gbit/s.

  // --- Cleartext backends -----------------------------------------------------------
  // Sequential Python agent: interpreter-speed row processing.
  double python_records_per_second = 3e5;
  // Spark: per-worker scan/aggregate throughput and fixed job overhead. A party runs
  // `spark_workers_per_party` workers (the paper: three Spark VMs per party).
  double spark_records_per_second_per_worker = 5e5;
  int spark_workers_per_party = 3;
  double spark_job_startup_seconds = 4.0;

  // --- Secret-sharing MPC (Sharemind-like, 3 parties) -------------------------------
  // Amortized wall-clock per batched primitive invocation, including the network
  // traffic the primitive generates (bytes are additionally *counted* for tests, but
  // not double-charged to the clock).
  double ss_mult_seconds = 2e-6;        // Beaver multiplication, batched.
  double ss_equality_seconds = 12e-6;   // Private equality test (join workhorse).
  double ss_compare_seconds = 232e-6;   // Private less-than (sorting workhorse).
  double ss_division_seconds = 300e-6;  // Private division (rare; goldschmidt-style).
  double ss_shuffle_op_seconds = 2e-6;  // Resharing-based shuffle, per cell.
  double ss_select_op_seconds = 1.5e-4; // Laud oblivious-index op, per element-step.
  double ss_record_io_seconds = 2e-4;   // Secret-share ingest + storage layer, per
                                        // record (dominates linear passes; Fig. 1c).
  // Bytes generated per primitive (counted for leakage/cost assertions).
  uint64_t ss_bytes_per_mult = 96;      // 2 openings x 8 B x 3 party pairs x 2 dirs.
  uint64_t ss_bytes_per_equality = 1536;
  uint64_t ss_bytes_per_compare = 29000;
  uint64_t ss_bytes_per_shuffle_cell = 48;
  uint64_t ss_bytes_per_select_op = 96;
  uint64_t ss_bytes_per_shared_cell = 24;  // Input sharing: 8 B to each of 3 parties.
  // Resident bytes per shared cell across shares, bookkeeping, and the storage layer.
  // 350 B/cell with an 8 GB VM reproduces Sharemind's OOM in the MPC part of the
  // hybrid join at ~2M input records (Fig. 5a).
  uint64_t ss_bytes_per_resident_cell = 350;
  uint64_t ss_memory_limit_bytes = 8ULL << 30;  // 8 GB Sharemind VM.

  // --- Garbled circuits (Obliv-C-like, 2 parties) ------------------------------------
  double gc_seconds_per_and_gate = 5e-7;    // Garble + transfer + evaluate, amortized.
  uint64_t gc_bytes_per_and_gate = 32;      // Half-gates: 2 ciphertexts x 16 B.
  // Live wire-label state per retained input bit. Obliv-C keeps the whole relation's
  // labels plus bookkeeping resident; 200 B/bit reproduces the projection OOM at 300k
  // rows x 1 column with a 4 GB VM (Fig. 1c).
  uint64_t gc_bytes_per_live_bit = 200;
  // Transient per-pair bookkeeping in the Cartesian join; 20 B/pair reproduces the
  // join OOM at 30k total records with a 4 GB VM (Fig. 1b).
  uint64_t gc_bytes_per_join_pair = 20;
  uint64_t gc_memory_limit_bytes = 4ULL << 30;  // 4 GB per-party VM.
  // ObliVM (SMCQL's backend) uses the same circuit model but far slower constants;
  // the paper: "ObliVM ... is slower than Sharemind, particularly on large data"
  // (§7.4), and SMCQL's comorbidity run exceeds an hour at 20k rows entering MPC
  // (Fig. 7b) — consistent with an interpreted, non-hardware-accelerated garbling
  // pipeline roughly two orders of magnitude behind Obliv-C.
  double oblivm_slowdown = 100.0;

  // --- Malicious security (Appendix A.5) ----------------------------------------------
  // Active-adversary protocols cost "at least 7x" their passive counterparts (§2.2,
  // ref [2]); applied to the MPC portion of the virtual time when the query runs with
  // CompilerOptions::malicious_security.
  double malicious_overhead_factor = 7.0;
  // Simulated ZK input-consistency proofs (commit + prove + verify per input row).
  double zk_prove_seconds_per_row = 1e-4;
  double zk_verify_seconds_per_row = 4e-5;
  uint64_t zk_proof_bytes_per_row = 192;

  // --- Reliable delivery under fault injection (net/fault.h, DESIGN.md §11) ----------
  // SimNetwork's reliable-delivery layer detects a lost point-to-point send after a
  // timeout and retransmits with exponential backoff, bounded by max_send_retries;
  // corrupted reveals (detected by a commitment opening check) retransmit on the
  // same schedule, and a crashed job restarts from its last MPC-frontier checkpoint
  // after crash_restart_seconds. Recovery time accrues in injector-owned
  // accumulators, separate from every fault-free charge — these constants never
  // affect a run without injected faults.
  double retry_timeout_seconds = 5e-3;  // Loss detected after this long.
  double retry_backoff_factor = 2.0;    // Timeout multiplier per retransmission.
  int max_send_retries = 4;             // Bounded retry before escalation.
  double crash_restart_seconds = 0.5;   // Checkpoint restore + job restart.

  // --- Spill I/O for beyond-RAM blocking operators (DESIGN.md §12) -------------------
  // Sequential throughput of the local spill volume. Each priced spill pass is one
  // write plus one read of the operator's run cells; planner estimate and dispatcher
  // meter share NodeSpillSeconds (compiler/plan_cost.h), built on this rate, so the
  // spill-advice estimate equals the metered charge identically.
  double spill_bytes_per_second = 500e6;

  // --- Derived helpers ---------------------------------------------------------------
  // Priced cost of retransmission `attempt` (0-based) of a `bytes`-sized payload:
  // the sender waits out the backed-off timeout, then resends.
  double RetrySeconds(int attempt, uint64_t bytes) const {
    double timeout = retry_timeout_seconds;
    for (int k = 0; k < attempt; ++k) {
      timeout *= retry_backoff_factor;
    }
    return timeout + SecondsForBytes(bytes);
  }
  double SecondsForBytes(uint64_t bytes) const {
    return static_cast<double>(bytes) / bandwidth_bytes_per_second;
  }
  // One write + one read of `bytes` spilled cells on the local spill volume.
  double SpillPassSeconds(double bytes) const {
    return 2.0 * bytes / spill_bytes_per_second;
  }
  double SecondsForRounds(uint64_t rounds) const {
    return static_cast<double>(rounds) * latency_seconds;
  }
  double SparkSeconds(uint64_t records, int workers) const {
    return spark_job_startup_seconds +
           static_cast<double>(records) /
               (spark_records_per_second_per_worker * workers);
  }
  double PythonSeconds(uint64_t records) const {
    return static_cast<double>(records) / python_records_per_second;
  }
  // Cleartext backend scan time for one job's input records, without the per-job
  // Spark startup charge (that is charged once per job, not per node). The
  // dispatcher's cost meters and the planner's local estimates share this formula.
  double CleartextScanSeconds(uint64_t records, bool use_spark) const {
    if (use_spark) {
      return static_cast<double>(records) /
             (spark_records_per_second_per_worker * spark_workers_per_party);
    }
    return PythonSeconds(records);
  }

  // The secret-sharing calibration table (defined in cost_model.cc). All per-primitive
  // charging — runtime and planner alike — goes through this one accessor.
  SsCharge SsChargeFor(SsPrimitive primitive) const;
};

}  // namespace conclave

#endif  // CONCLAVE_NET_COST_MODEL_H_
