// Hybrid MPC–cleartext join (§5.3, Figure 3 of the paper).
//
// Preconditions (enforced by the compiler's trust propagation): the join-key columns
// of both sides share a selectively-trusted party (STP). Protocol:
//   1. Obliviously shuffle both input relations under MPC.
//   2. Project to the key columns and reveal those columns (only) to the STP.
//   3. STP pairs the matching rows of the two key relations in the clear
//      (ops::JoinRowPairs, the pair step every join shares).
//   4. STP secret-shares the pairs' two row-index columns back.
//   5. Under MPC, obliviously select the contributing rows from the shuffled inputs
//      (Laud-style indexing [45]).
//   6. Assemble the selected rows column-wise and reshuffle.
//
// Leakage: the STP learns both key columns (in shuffled order); all parties learn the
// result row count. Asymptotics: O((n+m) log (n+m)) non-linear MPC operations versus
// O(n^2) for the Cartesian MPC join.
#ifndef CONCLAVE_HYBRID_HYBRID_JOIN_H_
#define CONCLAVE_HYBRID_HYBRID_JOIN_H_

#include <span>

#include "conclave/common/status.h"
#include "conclave/mpc/protocols.h"

namespace conclave {
namespace hybrid {

// `stp` identifies the selectively-trusted party (for network accounting: the key
// columns are revealed to it and index relations are shared back from it).
// `num_parties` is the number of computing parties in the deployment.
StatusOr<SharedRelation> HybridJoin(SecretShareEngine& engine,
                                    const SharedRelation& left,
                                    const SharedRelation& right,
                                    std::span<const int> left_keys,
                                    std::span<const int> right_keys, PartyId stp,
                                    int num_parties);
Status HybridJoinCharges(SimNetwork& network, uint64_t left_rows, uint64_t right_rows,
                         uint64_t left_columns, uint64_t right_columns, uint64_t keys,
                         uint64_t out_rows, PartyId stp, int num_parties);

}  // namespace hybrid
}  // namespace conclave

#endif  // CONCLAVE_HYBRID_HYBRID_JOIN_H_
