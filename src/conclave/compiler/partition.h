// Stage 6 (§5): partition the rewritten DAG into jobs at every transition between
// local and MPC operators.
//
// A job is a maximal connected group of nodes with identical placement (local at one
// party, or one contiguous MPC region); hybrid operators form singleton jobs since
// they interleave MPC and STP-local steps internally. Jobs matter for cost fidelity —
// each local Spark job pays one fixed startup — and give codegen its unit of output
// (one generated script per job, like the paper's per-backend code generation).
#ifndef CONCLAVE_COMPILER_PARTITION_H_
#define CONCLAVE_COMPILER_PARTITION_H_

#include <string>
#include <vector>

#include "conclave/ir/dag.h"

namespace conclave {
namespace compiler {

enum class JobKind { kLocal, kMpc, kHybrid };

const char* JobKindName(JobKind kind);

struct Job {
  int id = -1;
  JobKind kind = JobKind::kLocal;
  PartyId party = kNoParty;  // For kLocal: the executing party.
  std::vector<ir::OpNode*> nodes;  // In topological order.

  // For kHybrid singletons.
  ir::HybridKind hybrid = ir::HybridKind::kNone;
  PartyId stp = kNoParty;
};

struct ExecutionPlan {
  // Numbered by each job's first node in DAG topological order, which is not a
  // topological order of the job graph: with A@p0 -> B[mpc] -> D[mpc] <- C@p1,
  // the MPC job {B, D} gets id 1 and C's job id 2, yet the MPC job waits on C.
  // Walks that need dependency order (the dispatcher's critical-path schedule)
  // follow the job edges instead.
  std::vector<Job> jobs;

  int CountJobs(JobKind kind) const;
  // "5 jobs: 3 local, 1 mpc, 1 hybrid" plus one line per job.
  std::string Summary() const;
};

ExecutionPlan PartitionDag(const ir::Dag& dag);

}  // namespace compiler
}  // namespace conclave

#endif  // CONCLAVE_COMPILER_PARTITION_H_
