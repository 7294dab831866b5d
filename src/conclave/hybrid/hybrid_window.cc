#include "conclave/hybrid/hybrid_window.h"

#include <vector>

#include "conclave/hybrid/stp.h"

namespace conclave {
namespace hybrid {

StatusOr<SharedRelation> HybridWindow(SecretShareEngine& engine,
                                      const SharedRelation& input,
                                      std::span<const int> partition_columns,
                                      int order_column, WindowFn fn, int value_column,
                                      const std::string& output_name, PartyId stp,
                                      int num_parties) {
  CONCLAVE_CHECK_GT(partition_columns.size(), 0u);
  const int64_t n = input.NumRows();
  if (n == 0) {
    return mpc::Window(engine, input, partition_columns, order_column, fn,
                       value_column, output_name, /*assume_sorted=*/false);
  }
  CONCLAVE_RETURN_IF_ERROR(mpc::CheckWorkingSet(engine.network().model(),
                                                3 * input.NumCells(), "hybrid window"));

  // Steps 1–6: the STP orders the shuffled rows by (partition, order) and shares
  // the same-partition flags.
  std::vector<int> key_columns(partition_columns.begin(), partition_columns.end());
  key_columns.push_back(order_column);
  const StpOrdered ordered = StpOrder(engine, input, key_columns,
                                      partition_columns.size(), stp, num_parties);

  // Step 7: flag-gated window scan, shared with the pure-MPC window.
  return mpc::WindowWithFlags(engine, ordered.relation, fn, value_column,
                              output_name, ordered.equal_prev);
}

Status HybridWindowCharges(SimNetwork& network, uint64_t rows, uint64_t columns,
                           uint64_t partitions, WindowFn fn, PartyId stp,
                           int num_parties) {
  if (rows == 0) {
    return Status::Ok();  // The empty result charges nothing.
  }
  CONCLAVE_RETURN_IF_ERROR(mpc::CheckWorkingSet(
      network.model(), mpc::LiveCells(3, rows, columns), "hybrid window"));
  StpOrderCharges(network, rows, columns, partitions + 1, stp, num_parties);
  mpc::WindowWithFlagsCharges(network, rows, fn);
  return Status::Ok();
}

}  // namespace hybrid
}  // namespace conclave
