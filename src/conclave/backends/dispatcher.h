// The dispatcher executes a compiled plan end-to-end (§4.1's per-party Conclave
// agents, collapsed into one in-process orchestrator).
//
// Execution is a parallel job-graph walk over one record per DAG node, which holds
// the node's value: a node dispatches once its producers are materialized and its
// turn at each input value has come (consumers take a value in topo order).
// Cleartext work (Create ingest and local operator chains) runs on a thread pool,
// so independent per-party preprocessing overlaps in *real* time the way the
// virtual-clock schedule always said it did; each pool task holds handles to the
// rows it reads. MPC and hybrid nodes stay serialized on a dedicated lane in a
// fixed topological order, because the secret-sharing and garbling engines consume a
// stateful RNG and charge a shared SimNetwork. Frontier crossings insert the data
// movement the paper's generated code performs: inputToMPC (secret-share / garble a
// cleartext relation, charging ingest) when a local value flows into an MPC node,
// and reveal when a shared value flows into a local node or a Collect.
//
// The MPC lane is serialized *across* nodes but parallel *within* them: the run's
// pool is bound to the coordinator thread (ThreadPool::Scope), so the secret-sharing
// engine's morsel kernels (mpc/secret_share_engine.cc, mpc/oblivious.cc) fan their
// row loops out over the same thread budget as the cleartext jobs. Counter-based
// randomness and fixed morsel summation order keep every sharing bit-identical at
// any pool size (DESIGN.md §5).
//
// Virtual time is job-scheduled and independent of the pool size. Execution only
// records facts per node (metered engine/boundary charges, the rows each local
// node read, how often its pool task crashed); one accounting pass then prices
// them in topo order (cleartext compute, spill, crash restarts), each job gets a
// duration (cost-model time for local jobs, engine-measured time for MPC/hybrid
// jobs), and the total is the critical path over the job dependency graph. The
// determinism contract (same results and virtual-clock totals for every pool size,
// bit for bit) is spelled out in DESIGN.md §5.
//
// Cleartext work dispatches through one path: every local node belongs to one
// local job, a fused chain (DESIGN.md §10) or a lone node as a one-member job,
// and each job is one pool task. A failure, including a fault escalation that
// ends in a structured abort (DESIGN.md §11), lands in one record that keeps the
// earliest failing node in topo order.
#ifndef CONCLAVE_BACKENDS_DISPATCHER_H_
#define CONCLAVE_BACKENDS_DISPATCHER_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "conclave/backends/backend.h"
#include "conclave/backends/oblivc_backend.h"
#include "conclave/backends/sharemind_backend.h"
#include "conclave/common/thread_pool.h"
#include "conclave/compiler/compiler.h"
#include "conclave/compiler/exec_options.h"
#include "conclave/net/fault.h"

namespace conclave {
namespace backends {

class Dispatcher {
 public:
  // `exec` carries the run options (compiler/exec_options.h): thread budget,
  // batch size, fault plan, and memory budget. Unset fields take their
  // CONCLAVE_* environment defaults when Run resolves them through
  // compiler::ResolveExecOptions. Results, counters, and share bits are
  // identical for every option combination (DESIGN.md §5, §10, §12), with
  // or without a recoverable fault plan; under injection the virtual clock
  // additionally carries exactly the priced recovery time, and under a budget
  // exactly the priced spill I/O time (compiler::NodeSpillSeconds).
  Dispatcher(CostModel model, uint64_t seed, compiler::ExecOptions exec = {})
      : model_(model), seed_(seed), exec_(std::move(exec)) {
    if (exec_.pool_parallelism > 0) {
      owned_pool_ = std::make_unique<ThreadPool>(exec_.pool_parallelism);
    }
  }

  // Executes the compiled plan. `inputs` maps each Create node's name to the relation
  // its owning party contributes. The DAG must be the one `compilation` was built
  // from. Creates borrow their relations rather than copy them: `inputs` must
  // outlive the call, and the run never writes them.
  StatusOr<ExecutionResult> Run(const ir::Dag& dag,
                                const compiler::Compilation& compilation,
                                const std::map<std::string, Relation>& inputs);

 private:
  ThreadPool& pool() {
    return owned_pool_ != nullptr ? *owned_pool_ : ThreadPool::Shared();
  }

  CostModel model_;
  uint64_t seed_;
  compiler::ExecOptions exec_;
  std::unique_ptr<ThreadPool> owned_pool_;
};

}  // namespace backends
}  // namespace conclave

#endif  // CONCLAVE_BACKENDS_DISPATCHER_H_
