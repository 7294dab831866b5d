// The selectively-trusted party's (STP's) steps shared by the hybrid protocols
// (§5.3 of the paper): opening shuffled key columns to the STP, sharing its cleartext
// results back into the MPC, and the ordering phase that the hybrid aggregation and
// the hybrid window both start with.
#ifndef CONCLAVE_HYBRID_STP_H_
#define CONCLAVE_HYBRID_STP_H_

#include <cstdint>
#include <span>

#include "conclave/mpc/protocols.h"

namespace conclave {
namespace hybrid {

// Reveals `relation` (already safe to open, e.g. shuffled key columns) to the STP:
// the other parties send their shares of every cell.
Relation RevealToStp(SecretShareEngine& engine, const SharedRelation& relation,
                     PartyId stp, int num_parties);
void ChargeRevealToStp(SimNetwork& network, uint64_t cells, PartyId stp,
                       int num_parties);

// The STP secret-shares cleartext values it computed back into the MPC.
SharedColumn ShareFromStp(SecretShareEngine& engine, std::span<const int64_t> values,
                          PartyId stp, int num_parties);
void ChargeShareFromStp(SimNetwork& network, uint64_t values, PartyId stp,
                        int num_parties);

// The STP's (or the public joiner's) cleartext pass over `records` records.
void ChargeStpWork(SimNetwork& network, uint64_t records);

// The shuffled input, arranged in the STP's order, and the shared 0/1 flags marking
// each row that equals its predecessor on the flag keys (flag 0 at row 0).
struct StpOrdered {
  SharedRelation relation;
  SharedColumn equal_prev;
};

// The STP ordering phase: obliviously shuffle `input` and reveal its `key_columns`
// to the STP, which sorts them in the clear (stably, by every key) and flags rows
// equal to their predecessor on the first `flag_keys` keys. The STP broadcasts the
// order and secret-shares the flags (one two-round exchange), and the parties
// reorder the shuffled relation locally. Requires a non-empty input.
StpOrdered StpOrder(SecretShareEngine& engine, const SharedRelation& input,
                    std::span<const int> key_columns, size_t flag_keys, PartyId stp,
                    int num_parties);
// StpOrder's charges over a rows x columns input ordered by `keys` columns: the
// composites of the hybrid aggregation and the hybrid window start with these.
void StpOrderCharges(SimNetwork& network, uint64_t rows, uint64_t columns,
                     uint64_t keys, PartyId stp, int num_parties);

}  // namespace hybrid
}  // namespace conclave

#endif  // CONCLAVE_HYBRID_STP_H_
