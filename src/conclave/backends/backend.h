// Execution-time result types shared by the backends and the dispatcher.
//
// During plan execution every DAG node materializes to a value that is either
// held in the clear by one party (local jobs), secret-shared inside the
// Sharemind-style backend, held inside the garbled-circuit backend, or streamed
// from a party's CSV file or an opened reveal; the dispatcher keeps that value
// in its record of the node (dispatcher.cc) and reports the run through the
// types below.
#ifndef CONCLAVE_BACKENDS_BACKEND_H_
#define CONCLAVE_BACKENDS_BACKEND_H_

#include <map>
#include <string>

#include "conclave/common/status.h"
#include "conclave/common/virtual_clock.h"
#include "conclave/net/fault.h"
#include "conclave/relational/relation.h"
#include "conclave/relational/spill.h"

namespace conclave {
namespace backends {

// Beyond-RAM execution outcome (DESIGN.md §12). The priced fields are closed
// forms over node-total row counts (compiler::NodeSpillSeconds), priced by the
// dispatcher's accounting pass and identical at every {pool, batch_rows} grid
// point; `stats` carries the physical spill counters, reported for
// observability only.
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
  // charges (x the malicious-security scale) plus, for a local node, the
  // cleartext compute the accounting pass prices from the rows it read. The
  // runtime half of the plan-cost contract — tests compare these meters against
  // compiler::PlanCostReport estimates. Deterministic across pool sizes (priced
  // in topo order, like every other total).
  std::map<int, double> node_seconds;
  // Fault-injection outcome (net/fault.h; fault_mode is false for runs without an
  // active FaultPlan). Under injection, virtual_seconds equals the fault-free
  // run's total plus fault_report.recovery_seconds, exactly.
  FaultReport fault_report;
  // Beyond-RAM execution outcome (DESIGN.md §12). With a budget,
  // virtual_seconds equals the unbounded run's total plus
  // spill_report.spill_seconds, exactly; results stay bit-identical.
  SpillReport spill_report;
  // Streaming residency witness (DESIGN.md §12, §14): the largest row range
  // any streamed source (a CSV file or a reveal feeding a fused chain)
  // materialized at once. At most one pipeline batch — the proof the source
  // relation never materialized; 0 when nothing streamed.
  int64_t source_peak_rows = 0;
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
