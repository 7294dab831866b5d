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
  const CostModel& model = engine.network().model();
  CONCLAVE_CHECK_GT(group_columns.size(), 0u);
  const int64_t n = input.NumRows();
  if (n == 0) {
    // Zero rows aggregate to zero groups; fall through to the plain MPC protocol,
    // which constructs the empty result with the right schema.
    return mpc::Aggregate(engine, input, group_columns, kind, agg_column, output_name,
                          /*assume_sorted=*/false);
  }
  CONCLAVE_RETURN_IF_ERROR(mpc::CheckWorkingSet(model, 3 * input.NumCells()));

  // Steps 1–6: the STP orders the shuffled rows by the group-by columns and shares
  // the key-equality flags.
  const StpOrdered ordered = StpOrder(engine, input, group_columns,
                                      group_columns.size(), stp, num_parties);

  // Steps 7–8: flag-driven scan, shuffle, reveal keep-flags, compact — shared with
  // the pure-MPC aggregation.
  return mpc::AggregateWithFlags(engine, ordered.relation, group_columns, kind,
                                 agg_column, output_name, ordered.equal_prev);
}

}  // namespace hybrid
}  // namespace conclave
