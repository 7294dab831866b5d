// Hybrid MPC–cleartext window function (an extension in the style of §5.3).
//
// Window functions sort by (partition, order) and scan — the same shape as the
// aggregation of Jónsson et al. [39] — so the hybrid aggregation's trick applies
// unchanged: outsource the sort to the STP.
//   1. Obliviously shuffle the input; reveal the shuffled (partition, order) columns
//      to the STP.
//   2. STP sorts the revealed rows' positions by (partition, order) in the clear.
//   3. STP computes per-row same-partition flags.
//   4. STP sends the index ordering to the other parties in the clear.
//   5. STP secret-shares the same-partition flags.
//   6. Parties reorder the shuffled relation by the public ordering.
//   (Steps 1–6 are hybrid::StpOrder, shared with the hybrid aggregation.)
//   7. Under MPC, a flag-gated pass computes the window column (lag: one
//      multiplication per row; row_number / running_sum: log-depth segmented scan).
//
// Leakage: the STP learns the shuffled partition and order columns. Unlike the hybrid
// aggregation, nothing is compacted, so the other parties learn nothing at all —
// the output row count equals the (public) input row count.
// Asymptotics: O(n log n) shuffle instead of an O(n log^2 n)-comparison oblivious
// sort, and no oblivious comparisons (the slowest secret-sharing primitive).
#ifndef CONCLAVE_HYBRID_HYBRID_WINDOW_H_
#define CONCLAVE_HYBRID_HYBRID_WINDOW_H_

#include <span>
#include <string>

#include "conclave/common/status.h"
#include "conclave/mpc/protocols.h"

namespace conclave {
namespace hybrid {

StatusOr<SharedRelation> HybridWindow(SecretShareEngine& engine,
                                      const SharedRelation& input,
                                      std::span<const int> partition_columns,
                                      int order_column, WindowFn fn, int value_column,
                                      const std::string& output_name, PartyId stp,
                                      int num_parties);
Status HybridWindowCharges(SimNetwork& network, uint64_t rows, uint64_t columns,
                           uint64_t partitions, WindowFn fn, PartyId stp,
                           int num_parties);

}  // namespace hybrid
}  // namespace conclave

#endif  // CONCLAVE_HYBRID_HYBRID_WINDOW_H_
