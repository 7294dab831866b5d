// The plan-cost subsystem: prices every MPC-resident operator under both MPC
// backends by applying the engines' own charges to a scratch SimNetwork and reading
// its meter. A secret-sharing node applies its protocol's charge composite
// (mpc/protocols.h, hybrid/*.h), a garbled-circuit node its operator's circuit cost
// (mpc/garbled/gc_cost.h) through the GC engine's charge, each after the ingest of
// its cleartext inputs; this file only maps a node to its shape. The backend
// chooser, the explain API and tests derive from it. Given exact cardinalities, a
// node's estimate equals the virtual seconds the dispatcher meters for it, bit for
// bit (tests assert this); given estimated cardinalities, the ranking of backends
// still tracks the measured ranking on the paper's query shapes.
#ifndef CONCLAVE_COMPILER_PLAN_COST_H_
#define CONCLAVE_COMPILER_PLAN_COST_H_

#include <span>
#include <string>
#include <vector>

#include "conclave/compiler/cardinality.h"
#include "conclave/compiler/codegen.h"
#include "conclave/ir/dag.h"
#include "conclave/net/cost_model.h"
#include "conclave/net/fault.h"

namespace conclave {
namespace compiler {

// Cost of one operator under one backend. Infeasible = the engine would refuse to
// run it (simulated OOM, a hybrid protocol on the GC backend, or a >2-party query
// for Obliv-C); seconds is +infinity in that case.
struct BackendOpCost {
  double seconds = 0;
  bool feasible = true;
  std::string infeasible_reason;  // Empty when feasible.
};

// One explain line: an MPC/hybrid-resident operator with its estimated cardinalities
// and its price under each backend. Boundary ingest of cleartext inputs (inputToMPC)
// is folded into the first consuming node, exactly where the dispatcher meters it.
struct NodeCost {
  int node_id = -1;
  std::string label;       // e.g. "join[mpc]", "aggregate[hybrid-agg]".
  double in_rows = 0;      // Estimated left-input cardinality.
  double right_rows = 0;   // Estimated right-input cardinality (joins only).
  double out_rows = 0;     // Estimated output cardinality.
  double ingest_rows = 0;  // Cleartext rows first entering the MPC at this node.
  BackendOpCost sharemind;
  BackendOpCost oblivc;
};

struct PlanCostReport {
  std::vector<NodeCost> nodes;
  // Whole-clique totals; +infinity when any node is infeasible on that backend.
  double sharemind_seconds = 0;
  double oblivc_seconds = 0;
  // The backend with the minimal estimated total. Ties — including both-infeasible
  // plans, where secret sharing can also exceed its VM — resolve to secret sharing:
  // it is the only backend that can attempt every operator, and the runtime then
  // surfaces the predicted OOM as a typed status.
  MpcBackendKind cheapest = MpcBackendKind::kSharemind;

  // Pipeline-fusion advice (filled by AnnotatePipelineAdvice): how many local
  // operator chains the executor fuses into push-based batch pipelines, and the
  // resident-row bound the streaming contract guarantees per chain. Advisory
  // only — fusion changes wall clock and memory, never results or virtual time
  // (fused nodes are priced per node with the same formulas the unfused
  // executor meters, so the estimate==meter identities hold at every batch
  // size).
  int fused_pipeline_chains = 0;
  int fused_pipeline_nodes = 0;
  int longest_pipeline_chain = 0;
  int64_t pipeline_batch_rows = 0;

  // Streaming-reveal advice (DESIGN.md §14, filled alongside the chain
  // counts): how many of the fused chains PipelineChains marks as streaming
  // an MPC/hybrid input — those reveals stream batch-at-a-time into the chain
  // instead of materializing. Advisory only: the reveal's boundary charge is
  // one whole-relation reveal either way, so the estimate==meter identities
  // are untouched.
  int streamed_reveal_chains = 0;

  // Fault-injection advice (filled by AnnotateFaultAdvice from the resolved
  // FaultPlan): whether injection is armed, the plan's compact knob summary,
  // the recovery budgets, and the worst-case backoff envelope one send can
  // absorb before escalating (sum of the bounded retry timeouts). Advisory
  // only — a recoverable plan changes the virtual clock by exactly its priced
  // recovery time and nothing else (DESIGN.md §11).
  bool fault_mode = false;
  std::string fault_plan_summary;
  int fault_max_send_retries = 0;
  int fault_job_retries = 0;
  double fault_retry_envelope_seconds = 0;

  // Spill advice (filled by AnnotateSpillAdvice from the resolved memory
  // budget, DESIGN.md §12): how many cleartext-local blocking operators the
  // budget forces to spill at estimated cardinalities, their total priced merge
  // passes, and the priced spill I/O seconds. Unlike the advisory lines above,
  // spill_seconds IS a virtual-clock charge: the dispatcher adds exactly this
  // formula (NodeSpillSeconds over node-total input rows) to the clock, so with
  // exact cardinalities the estimate equals the meter.
  int64_t spill_mem_budget_rows = 0;  // 0 = unbounded (no spilling).
  int spilling_nodes = 0;
  int64_t spill_total_passes = 0;
  double spill_seconds = 0;

  // The explain listing: one header line ("plan-cost: ...") plus one line per node
  // with estimated rows and per-backend seconds, and trailing advice lines
  // (pipeline, expr, reveal, fault, spill).
  std::string ToString() const;
};

// Renders an estimated total for logs and tables: "%.<decimals>fs", or
// "infeasible" for +infinity. Shared by the explain listing, the chooser's
// rationale line, and benches so the three render identically.
std::string FormatPlanSeconds(double seconds, int decimals = 3);

// Prices every MPC/hybrid-resident operator of the placed DAG (plus the boundary
// ingest of its cleartext inputs) under both MPC backends. Call after placement —
// the estimate covers exactly what stays under MPC.
PlanCostReport EstimatePlanCost(const ir::Dag& dag, const CostModel& model,
                                int num_parties,
                                const CardinalityOptions& cardinality = {});

// --- Pipeline fusion (push-based batch pipelines, DESIGN.md §10) --------------------

// True when `node` can be a streaming member of a fused chain: a single-input
// cleartext-local operator whose kernel consumes and emits batches without
// materializing (an aggregate can only end a chain; see PipelineChains). Filter, project, arithmetic and limit always fuse; distinct
// fuses when an upstream walk through order-preserving ops (filter / limit /
// project / arithmetic that does not shadow a distinct column) reaches an
// ascending sort whose column list the distinct columns prefix — the
// sortedness proof for the streaming adjacent-run dedup.
bool PipelineFusibleOp(const ir::OpNode& node);

// One fused chain: its members in chain order, and whether its head streams
// its input.
struct PipelineChain {
  std::vector<const ir::OpNode*> nodes;
  // The one streaming rule (DESIGN.md §12, §14): the head pulls its input
  // batch-at-a-time from a RowSource, so the input never materializes, when
  // the head is the sole consumer of either
  //   * a CSV-backed Create at the head's own party, or
  //   * an MPC or hybrid node under secret sharing (the reveal streams;
  //     Obliv-C's garbled outputs decode whole).
  bool streams_input = false;
};

// Maximal chains (length >= 2) of fusible nodes within `topo`, where every
// interior link is the producer's only consuming edge inside `topo` and both
// ends run at the same party, each marked by the streaming rule under
// `backend`. A local single-input aggregate that is the tail's sole consumer
// at the tail's party joins as the chain's last member; it never heads one, so
// a chain always has a streaming op ahead of its aggregate. The dispatcher
// executes exactly these chains as one BatchPipeline each and streams exactly
// the marked heads; the explain annotation counts the same chains and marks —
// one decision procedure, two callers, so the planner can never disagree with
// the runtime about what fuses or streams.
std::vector<PipelineChain> PipelineChains(std::span<const ir::OpNode* const> topo,
                                          MpcBackendKind backend);

// Fills the report's pipeline-fusion advice from the placed DAG at the given
// (positive) batch size, for a run on `backend`.
void AnnotatePipelineAdvice(PlanCostReport& report, const ir::Dag& dag,
                            int64_t batch_rows, MpcBackendKind backend);

// Fills the report's fault-injection advice from the resolved FaultPlan (the
// dispatcher resolves the same CONCLAVE_FAULT_PLAN knob at run time) and the
// cost model's retry/backoff pricing.
void AnnotateFaultAdvice(PlanCostReport& report, const FaultPlan& plan,
                         const CostModel& model);

// --- Beyond-RAM spill pricing (DESIGN.md §12) ---------------------------------------

// Priced spill I/O seconds for one cleartext-local blocking operator at the given
// node-TOTAL input cardinalities and per-instance memory budget. Zero when the
// budget is unbounded (<= 0), the node is not a blocking local operator, or the
// inputs fit. The formula is closed over (rows, budget, schema widths) only —
// never physical batch layout — so the charge is identical at every
// {pool, batch_rows} grid point. The dispatcher meters this exact function;
// the planner estimates it; with exact cardinalities the two are equal.
double NodeSpillSeconds(const ir::OpNode& node, double in_rows, double right_rows,
                        const CostModel& model, int64_t mem_budget_rows);

// Fills the report's spill advice: prices NodeSpillSeconds over every
// cleartext-local node at estimated cardinalities and records how many nodes the
// budget forces to spill, their total merge passes, and the summed seconds.
void AnnotateSpillAdvice(PlanCostReport& report, const ir::Dag& dag,
                         const CostModel& model, int64_t mem_budget_rows,
                         const CardinalityOptions& cardinality = {});

}  // namespace compiler
}  // namespace conclave

#endif  // CONCLAVE_COMPILER_PLAN_COST_H_
