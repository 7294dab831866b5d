// Run options of one query execution: the single struct api::Query::Run and
// backends::Dispatcher take, and the one place the CONCLAVE_* environment
// defaults are applied. The compiler's explain advice resolves the same struct,
// so the listing describes the configuration a run would use.
//
// None of these options changes a result, a counter, or a share bit (DESIGN.md
// §5, §10, §12). Two add priced virtual time and nothing else: a
// recoverable fault plan adds exactly its recovery time (§11), and a memory
// budget adds exactly its spill I/O time (§12).
#ifndef CONCLAVE_COMPILER_EXEC_OPTIONS_H_
#define CONCLAVE_COMPILER_EXEC_OPTIONS_H_

#include <cstdint>
#include <optional>

#include "conclave/common/status.h"
#include "conclave/net/fault.h"

namespace conclave {
namespace compiler {

struct ExecOptions {
  // Executor thread budget: 0 shares the process-wide pool (CONCLAVE_THREADS,
  // else the hardware), 1 runs fully serial, N > 1 creates a dedicated pool
  // with N lanes; negative is an error.
  int pool_parallelism = 0;
  // Rows per batch of the fused local chains (DESIGN.md §10): 0 =
  // CONCLAVE_BATCH_ROWS (else kDefaultBatchRows); negative is an error.
  int64_t batch_rows = 0;
  // Deterministic fault injection (net/fault.h, DESIGN.md §11): nullopt =
  // CONCLAVE_FAULT_PLAN (disabled when unset); a disabled plan forces
  // injection off regardless of the environment.
  std::optional<FaultPlan> fault_plan;
  // Resident-row cap of each blocking cleartext operator instance (DESIGN.md
  // §12): 0 = CONCLAVE_MEM_BUDGET (else unbounded), N > 0 makes over-budget
  // sorts/joins/group-bys/distincts spill, negative forces unbounded.
  int64_t mem_budget_rows = 0;
};

// Applies the environment defaults to every unset field. The result has
// batch_rows > 0, fault_plan set, and mem_budget_rows >= 0 (0 = unbounded);
// pool_parallelism passes through (0 still means the shared pool). A negative
// pool_parallelism or batch_rows, or a malformed CONCLAVE_FAULT_PLAN, is
// InvalidArgument; malformed numeric knobs abort naming the variable
// (common/env.h).
StatusOr<ExecOptions> ResolveExecOptions(ExecOptions options);

}  // namespace compiler
}  // namespace conclave

#endif  // CONCLAVE_COMPILER_EXEC_OPTIONS_H_
