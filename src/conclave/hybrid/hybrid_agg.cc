#include "conclave/hybrid/hybrid_agg.h"

#include "conclave/hybrid/stp.h"

namespace conclave {
namespace hybrid {

StatusOr<SharedRelation> HybridAggregate(SecretShareEngine& engine,
                                         const SharedRelation& input,
                                         std::span<const int> group_columns,
                                         AggKind kind, int agg_column,
                                         const std::string& output_name, PartyId stp,
                                         int num_parties) {
  CONCLAVE_CHECK_GT(group_columns.size(), 0u);
  const int64_t n = input.NumRows();
  if (n == 0) {
    // Zero rows aggregate to zero groups; fall through to the plain MPC protocol,
    // which constructs the empty result with the right schema.
    return mpc::Aggregate(engine, input, group_columns, kind, agg_column, output_name,
                          /*assume_sorted=*/false);
  }
  CONCLAVE_RETURN_IF_ERROR(mpc::CheckWorkingSet(
      engine.network().model(), 3 * input.NumCells(), "hybrid aggregate"));

  // Steps 1–6: the STP orders the shuffled rows by the group-by columns and shares
  // the key-equality flags.
  const StpOrdered ordered = StpOrder(engine, input, group_columns,
                                      group_columns.size(), stp, num_parties);

  // Steps 7–8: flag-driven scan, shuffle, reveal keep-flags, compact — shared with
  // the pure-MPC aggregation.
  return mpc::AggregateWithFlags(engine, ordered.relation, group_columns, kind,
                                 agg_column, output_name, ordered.equal_prev);
}

Status HybridAggregateCharges(SimNetwork& network, uint64_t rows, uint64_t columns,
                              uint64_t keys, AggKind kind, PartyId stp,
                              int num_parties) {
  if (rows == 0) {
    return Status::Ok();  // The empty result charges nothing.
  }
  CONCLAVE_RETURN_IF_ERROR(mpc::CheckWorkingSet(
      network.model(), mpc::LiveCells(3, rows, columns), "hybrid aggregate"));
  StpOrderCharges(network, rows, columns, keys, stp, num_parties);
  mpc::AggregateWithFlagsCharges(network, rows, keys, kind);
  return Status::Ok();
}

}  // namespace hybrid
}  // namespace conclave
