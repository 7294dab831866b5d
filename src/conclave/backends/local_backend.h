// Cleartext execution of DAG nodes (the sequential-Python agent of §4.1).
//
// Pure operator semantics live in relational/ops.h; this backend resolves a node's
// column names against its runtime input schemas (ir::ResolveOp, shared with the MPC
// backends) and dispatches. Cost accounting (Python vs. Spark) is the dispatcher's
// job: its accounting pass prices the rows each node read with
// CostModel::CleartextScanSeconds.
#ifndef CONCLAVE_BACKENDS_LOCAL_BACKEND_H_
#define CONCLAVE_BACKENDS_LOCAL_BACKEND_H_

#include <vector>

#include "conclave/common/status.h"
#include "conclave/ir/op.h"
#include "conclave/relational/pipeline.h"
#include "conclave/relational/relation.h"
#include "conclave/relational/spill.h"

namespace conclave {
namespace backends {

// Per-node execution knobs threaded from the dispatcher (DESIGN.md §12).
struct LocalExecOptions {
  // Memory budget per blocking-operator instance; 0 = unbounded (the in-memory
  // kernels). SortBy / Distinct / Aggregate / Join over budget run through the
  // spill:: kernels. Window, pad, and concat's merge step stay materializing.
  int64_t mem_budget_rows = 0;
  // Physical spill counters for this node, filled when non-null. Reported for
  // observability only.
  spill::SpillStats* spill_stats = nullptr;
};

// Executes one non-Create node on cleartext inputs (one Relation per DAG input).
StatusOr<Relation> ExecuteLocal(const ir::OpNode& node,
                                const std::vector<const Relation*>& inputs,
                                const LocalExecOptions& options = {});

// Resolves one member of a fused chain (compiler::PipelineChains: a
// compiler::PipelineFusibleOp, or the chain's aggregate tail) into a pipeline
// operator against its runtime input schema. Name resolution is
// ExecuteLocal's (ir::ResolveOp), so a failure carries the same status the
// unfused execution of the node would report. The stage's output schema is
// BatchPipeline::DeriveSchema(input_schema, op).
StatusOr<PipelineOp> ResolvePipelineOp(const Schema& input_schema,
                                       const ir::OpNode& node);

}  // namespace backends
}  // namespace conclave

#endif  // CONCLAVE_BACKENDS_LOCAL_BACKEND_H_
