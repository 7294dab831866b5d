#include "conclave/compiler/exec_options.h"

#include <algorithm>

#include "conclave/common/strings.h"
#include "conclave/relational/pipeline.h"
#include "conclave/relational/spill.h"

namespace conclave {
namespace compiler {

StatusOr<ExecOptions> ResolveExecOptions(ExecOptions options) {
  if (options.pool_parallelism < 0) {
    return InvalidArgumentError(StrFormat(
        "pool_parallelism=%d must not be negative (0 = the shared pool)",
        options.pool_parallelism));
  }
  if (options.batch_rows < 0) {
    return InvalidArgumentError(
        StrFormat("batch_rows=%lld must be positive (0 = CONCLAVE_BATCH_ROWS)",
                  static_cast<long long>(options.batch_rows)));
  }
  if (options.batch_rows == 0) {
    options.batch_rows = DefaultBatchRows();
  }
  if (!options.fault_plan.has_value()) {
    CONCLAVE_ASSIGN_OR_RETURN(options.fault_plan, FaultPlan::FromEnv());
  }
  options.mem_budget_rows = options.mem_budget_rows == 0
                                ? DefaultMemBudgetRows()
                                : std::max<int64_t>(0, options.mem_budget_rows);
  return options;
}

}  // namespace compiler
}  // namespace conclave
