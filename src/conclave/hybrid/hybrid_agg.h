// Hybrid MPC–cleartext aggregation (§5.3 of the paper).
//
// Adapts the sorting-based MPC aggregation of Jónsson et al. [39] by outsourcing the
// sort to the STP:
//   1. Obliviously shuffle the input; reveal the shuffled group-by column to the STP.
//   2. STP sorts the revealed rows' positions by key in the clear.
//   3. STP computes per-row equality flags (key equal to previous row's key).
//   4. STP sends the index ordering to the other parties in the clear.
//   5. STP secret-shares the equality flags.
//   6. Parties reorder the shuffled relation by the public ordering.
//   (Steps 1–6 are hybrid::StpOrder, shared with the hybrid window.)
//   7. Under MPC, a flag-driven (log-depth segmented) scan accumulates each group
//      into its last row; keep-flags mark group boundaries.
//   8. Shuffle the result, reveal keep-flags, discard non-final rows.
//
// Leakage: STP learns the shuffled group-by column; all parties learn the group count.
// Asymptotics: O(n log n) shuffle + scan multiplications instead of an
// O(n log^2 n)-comparison oblivious sort — and no oblivious comparisons at all, which
// are the slowest secret-sharing primitive (§5.3).
#ifndef CONCLAVE_HYBRID_HYBRID_AGG_H_
#define CONCLAVE_HYBRID_HYBRID_AGG_H_

#include <span>
#include <string>

#include "conclave/common/status.h"
#include "conclave/mpc/protocols.h"

namespace conclave {
namespace hybrid {

StatusOr<SharedRelation> HybridAggregate(SecretShareEngine& engine,
                                         const SharedRelation& input,
                                         std::span<const int> group_columns,
                                         AggKind kind, int agg_column,
                                         const std::string& output_name, PartyId stp,
                                         int num_parties);
Status HybridAggregateCharges(SimNetwork& network, uint64_t rows, uint64_t columns,
                              uint64_t keys, AggKind kind, PartyId stp,
                              int num_parties);

}  // namespace hybrid
}  // namespace conclave

#endif  // CONCLAVE_HYBRID_HYBRID_AGG_H_
