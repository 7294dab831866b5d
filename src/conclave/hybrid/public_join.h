// Public join (§5.3): when the join-key columns of both sides are public (every
// party is in their trust sets), the join structure can be computed entirely in the
// clear by one party — no oblivious shuffling or indexing is needed. The inputs live
// under MPC; key columns are opened, a designated party computes the (left-index,
// right-index) pairs, broadcasts them, and every party assembles the joined result
// by local share gathering (free).
#ifndef CONCLAVE_HYBRID_PUBLIC_JOIN_H_
#define CONCLAVE_HYBRID_PUBLIC_JOIN_H_

#include <span>

#include "conclave/common/status.h"
#include "conclave/mpc/protocols.h"

namespace conclave {
namespace hybrid {

StatusOr<SharedRelation> PublicJoinShared(SecretShareEngine& engine,
                                          const SharedRelation& left,
                                          const SharedRelation& right,
                                          std::span<const int> left_keys,
                                          std::span<const int> right_keys,
                                          PartyId joiner, int num_parties);
Status PublicJoinCharges(SimNetwork& network, uint64_t left_rows, uint64_t right_rows,
                         uint64_t left_columns, uint64_t right_columns, uint64_t keys,
                         uint64_t out_rows, PartyId joiner, int num_parties);

}  // namespace hybrid
}  // namespace conclave

#endif  // CONCLAVE_HYBRID_PUBLIC_JOIN_H_
