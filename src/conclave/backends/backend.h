// Shared execution-time types for the backends and the dispatcher.
//
// During plan execution every DAG node materializes to one of four value kinds,
// mirroring where the data lives in a real deployment:
//   * kCleartext — a relation held in the clear by one party (local jobs);
//   * kShardedClear — the same cleartext domain, horizontally sharded for the
//                  data-parallel executor (shard_count > 1 runs); coalesces back
//                  into one kCleartext relation at the MPC frontier and at
//                  Collects, so the engines always see the single-relation
//                  contract (see relational/sharded.h);
//   * kShared    — a secret-shared relation inside the Sharemind-style backend;
//   * kGarbled   — a relation inside the garbled-circuit backend (payload evaluated
//                  in the ideal model, costs and memory fully accounted; see
//                  mpc/garbled/gc_engine.h).
#ifndef CONCLAVE_BACKENDS_BACKEND_H_
#define CONCLAVE_BACKENDS_BACKEND_H_

#include <map>
#include <memory>
#include <string>

#include "conclave/common/party.h"
#include "conclave/common/status.h"
#include "conclave/common/virtual_clock.h"
#include "conclave/mpc/reveal_source.h"
#include "conclave/mpc/share.h"
#include "conclave/net/fault.h"
#include "conclave/relational/csv.h"
#include "conclave/relational/relation.h"
#include "conclave/relational/sharded.h"
#include "conclave/relational/spill.h"

namespace conclave {
namespace backends {

struct MaterializedValue {
  // kCsvSource is the streaming-ingest form (DESIGN.md §12): a CSV-backed
  // Create whose sole consumer is a fused local chain materializes only the
  // indexed raw text; the chain's per-shard pipelines parse row ranges
  // batch-at-a-time and the source relation never exists in memory.
  // kRevealSource is its reveal-boundary twin (DESIGN.md §14): a shared value
  // whose sole consumer is a fused local chain keeps its shares; the chain's
  // per-shard pipelines reconstruct row ranges batch-at-a-time and the
  // revealed relation never exists in memory.
  enum class Kind {
    kCleartext,
    kShardedClear,
    kShared,
    kGarbled,
    kCsvSource,
    kRevealSource
  };

  Kind kind = Kind::kCleartext;
  Relation clear;          // kCleartext / kGarbled payload.
  PartyId location = kNoParty;  // kCleartext / kShardedClear / k*Source: holder.
  SharedRelation shared;   // kShared.
  ShardedRelation sharded;  // kShardedClear.
  std::shared_ptr<CsvSource> csv;  // kCsvSource (shared with in-flight tasks).
  // kRevealSource (shared with in-flight tasks).
  std::shared_ptr<mpc::RevealSource> reveal;

  // One lazily-built split per (value, shard_count): N sharded consumers of a
  // revealed value reuse this instead of each cutting a task-owned copy
  // (coordinator-built, then only read by tasks).
  std::shared_ptr<const ShardedRelation> cached_split;

  int64_t NumRows() const {
    switch (kind) {
      case Kind::kShared:
        return shared.NumRows();
      case Kind::kShardedClear:
        return sharded.NumRows();
      case Kind::kCsvSource:
        return csv->NumRows();
      case Kind::kRevealSource:
        return reveal->NumRows();
      default:
        return clear.NumRows();
    }
  }
};

// Beyond-RAM execution outcome (DESIGN.md §12). The priced fields are closed
// forms over node-total row counts (compiler::NodeSpillSeconds), identical at
// every {pool, shard, batch_rows} grid point; `stats` carries the physical
// spill counters, whose layout varies with shard/batch structure and which are
// therefore reported for observability only.
struct SpillReport {
  int64_t mem_budget_rows = 0;  // Resolved per-operator budget (0 = unbounded).
  int spilling_nodes = 0;       // Nodes whose priced charge was non-zero.
  int64_t spill_passes = 0;     // Total priced merge passes across those nodes.
  double spill_seconds = 0;     // Priced spill I/O, folded into virtual_seconds.
  spill::SpillStats stats;      // Physical counters (merged in topo order).
};

struct ExecutionResult {
  std::map<std::string, Relation> outputs;  // Keyed by Collect name.
  double virtual_seconds = 0;
  // Virtual-time breakdown by engine (local cleartext vs. MPC vs. hybrid protocols).
  double local_seconds = 0;
  double mpc_seconds = 0;
  double hybrid_seconds = 0;
  // Total differential-privacy budget consumed by noisy outputs (sequential
  // composition across Collects with a DpSpec; 0 for exact queries).
  double dp_epsilon_spent = 0;
  CostCounters counters;
  // Measured virtual seconds per DAG node id: the node's metered engine/boundary
  // charges (x the malicious-security scale) plus its cleartext compute time. The
  // runtime half of the plan-cost contract — tests compare these meters against
  // compiler::PlanCostReport estimates. Deterministic across pool sizes (folded in
  // topo order, like every other total).
  std::map<int, double> node_seconds;
  // Fault-injection outcome (net/fault.h; fault_mode is false for runs without an
  // active FaultPlan). Under injection, virtual_seconds equals the fault-free
  // run's total plus fault_report.recovery_seconds, exactly.
  FaultReport fault_report;
  // Beyond-RAM execution outcome (DESIGN.md §12). With a budget,
  // virtual_seconds equals the unbounded run's total plus
  // spill_report.spill_seconds, exactly; results stay bit-identical.
  SpillReport spill_report;
  // Streaming-ingest residency witness (DESIGN.md §12): the largest row range
  // any CSV source parsed at once. For a streamed source this is at most one
  // pipeline batch — the proof the source relation never materialized; 0 when
  // no Create streamed.
  int64_t csv_peak_parse_rows = 0;
  // Reveal-boundary residency witness (DESIGN.md §14): the largest row range
  // any streaming reveal reconstructed at once. At most one pipeline batch —
  // the proof the revealed relation never materialized; 0 when no reveal
  // streamed.
  int64_t reveal_peak_rows = 0;
  // Graceful degradation: when the fault-recovery budget is exhausted, Run returns
  // ok() with aborted = true, abort_status carrying the canonical (earliest node
  // in topological order) failure provenance, and no outputs — a structured abort
  // with a populated FaultReport instead of a bare error. Non-fault failures keep
  // returning a plain error Status from Run, as always.
  bool aborted = false;
  Status abort_status;
};

}  // namespace backends
}  // namespace conclave

#endif  // CONCLAVE_BACKENDS_BACKEND_H_
