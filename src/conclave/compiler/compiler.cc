#include "conclave/compiler/compiler.h"

#include <utility>

#include "conclave/common/logging.h"
#include "conclave/common/thread_pool.h"
#include "conclave/compiler/backend_chooser.h"
#include "conclave/compiler/exec_options.h"
#include "conclave/compiler/hybrid_transform.h"
#include "conclave/compiler/ownership.h"
#include "conclave/compiler/padding.h"
#include "conclave/compiler/pushdown.h"
#include "conclave/compiler/pushup.h"
#include "conclave/compiler/sort_elimination.h"
#include "conclave/compiler/sort_pushup.h"
#include "conclave/compiler/trust.h"

namespace conclave {
namespace compiler {

std::string Compilation::ExplainPlan() const {
  if (!has_cost_report) {
    return "plan-cost: not computed (set CompilerOptions::explain_plan or "
           "auto_backend)\n";
  }
  return cost_report.ToString();
}

StatusOr<Compilation> Compile(ir::Dag& dag, const CompilerOptions& options) {
  if (dag.Creates().empty()) {
    return InvalidArgumentError("query has no input relations");
  }
  if (dag.Collects().empty()) {
    return InvalidArgumentError("query has no output relations (writeToCsv missing)");
  }

  Compilation result;
  result.options = options;
  result.num_parties = dag.NumParties();

  // Stage 1: input locations and the initial MPC frontier.
  PropagateOwnership(dag);

  // Stage 2: frontier push-down rewrites (re-propagates ownership internally).
  if (options.push_down) {
    auto log = PushDown(dag, options.allow_cardinality_leak);
    result.transformations.insert(result.transformations.end(), log.begin(),
                                  log.end());
  }

  // Stage 3: trust annotation propagation.
  PropagateTrust(dag, result.num_parties);

  // Stage 3b: sort push-up below concats (re-propagates trust for new nodes).
  if (options.sort_push_up) {
    auto log = PushSortsUp(dag);
    if (!log.empty()) {
      PropagateTrust(dag, result.num_parties);
    }
    result.transformations.insert(result.transformations.end(), log.begin(),
                                  log.end());
  }

  // Stage 4: frontier push-up through reversible leaf operators.
  if (options.push_up) {
    auto log = PushUp(dag);
    result.transformations.insert(result.transformations.end(), log.begin(),
                                  log.end());
  }

  // Stage 5: hybrid protocol insertion.
  if (options.use_hybrid) {
    auto log = ApplyHybridTransforms(dag, result.num_parties);
    result.transformations.insert(result.transformations.end(), log.begin(),
                                  log.end());
  }

  // Stage 5b: adaptive padding on the MPC boundary (after placement, so the pass
  // sees the final frontier; before sort elimination, since pads break sortedness).
  if (options.pad_mpc_inputs) {
    auto log = ApplyPadding(dag);
    if (!log.empty()) {
      PropagateTrust(dag, result.num_parties);
    }
    result.transformations.insert(result.transformations.end(), log.begin(),
                                  log.end());
  }

  // Stage 6: oblivious-sort elimination (after placement, since sortedness depends
  // on which engine runs each operator).
  if (options.sort_elimination) {
    auto log = EliminateSorts(dag);
    result.transformations.insert(result.transformations.end(), log.begin(),
                                  log.end());
  }

  // Stage 6b: cost-based MPC backend choice (§9 extension) — after all placement
  // decisions, since the estimate prices exactly what stays under MPC. The same
  // plan-cost walk feeds the explain API.
  if (options.auto_backend || options.explain_plan) {
    BackendChoice choice =
        ChooseMpcBackend(dag, options.planning_cost_model, result.num_parties,
                         options.planning_cardinality);
    if (options.auto_backend) {
      result.options.mpc_backend = choice.chosen;
      result.transformations.push_back(choice.rationale);
    }
    result.cost_report = std::move(choice.report);
    result.has_cost_report = true;
  }

  // Stage 7: partition and generate code.
  result.plan = PartitionDag(dag);
  result.generated_code =
      GenerateCode(result.plan, result.options.mpc_backend, options.use_spark);
  if (result.has_cost_report) {
    // Sharding advice for the explain listing: priced from the Create nodes' row
    // hints (the planner's compile-time input knowledge) at the hardware-default
    // pool.
    int64_t hinted_rows = 0;
    for (const ir::OpNode* create : dag.Creates()) {
      hinted_rows += create->Params<ir::CreateParams>().num_rows_hint;
    }
    AnnotateShardAdvice(result.cost_report, result.plan,
                        options.planning_cost_model,
                        ThreadPool::DefaultParallelism(), hinted_rows);
    // The batch, fault, and spill advice describe the run options a default
    // run resolves (the dispatcher calls the same resolver).
    CONCLAVE_ASSIGN_OR_RETURN(const ExecOptions exec, ResolveExecOptions({}));
    // Pipeline-fusion advice at the advised shard count; the dispatcher fuses
    // exactly these chains.
    AnnotatePipelineAdvice(result.cost_report, dag,
                           result.cost_report.recommended_shard_count,
                           exec.batch_rows);
    AnnotateFaultAdvice(result.cost_report, *exec.fault_plan,
                        options.planning_cost_model);
    // With exact cardinalities the spill estimate equals the metered charge
    // (DESIGN.md §12).
    AnnotateSpillAdvice(result.cost_report, dag, options.planning_cost_model,
                        exec.mem_budget_rows, options.planning_cardinality);
  }

  CONCLAVE_LOG(kInfo, "compiled query: %zu transformations, %zu jobs",
               result.transformations.size(), result.plan.jobs.size());
  return result;
}

}  // namespace compiler
}  // namespace conclave
