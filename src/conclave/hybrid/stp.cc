#include "conclave/hybrid/stp.h"

#include <numeric>
#include <vector>

namespace conclave {
namespace hybrid {

namespace {

// StpOrder's steps at the STP: it sorts the `rows` rows in the clear, broadcasts
// the order and sends each party its shares of the flags, then two round barriers.
void ChargeStpSortAndExchange(SimNetwork& network, uint64_t rows, PartyId stp,
                              int num_parties) {
  ChargeStpWork(network, rows);
  network.Broadcast(stp, num_parties, rows * 8);
  network.Broadcast(stp, num_parties, rows * 8);
  network.Rounds(2);
}

}  // namespace

Relation RevealToStp(SecretShareEngine& engine, const SharedRelation& relation,
                     PartyId stp, int num_parties) {
  ChargeRevealToStp(engine.network(), relation.NumCells(), stp, num_parties);
  return ReconstructRelation(relation);
}

void ChargeRevealToStp(SimNetwork& network, uint64_t cells, PartyId stp,
                       int num_parties) {
  for (PartyId p = 0; p < num_parties; ++p) {
    if (p != stp) {
      network.Send(p, stp, cells * 8);
    }
  }
  network.Rounds(1);
}

SharedColumn ShareFromStp(SecretShareEngine& engine, std::span<const int64_t> values,
                          PartyId stp, int num_parties) {
  ChargeShareFromStp(engine.network(), values.size(), stp, num_parties);
  return engine.Share(values);
}

void ChargeShareFromStp(SimNetwork& network, uint64_t values, PartyId stp,
                        int num_parties) {
  network.Broadcast(stp, num_parties, values * 8);  // Each party's shares.
  network.Rounds(1);
}

void ChargeStpWork(SimNetwork& network, uint64_t records) {
  network.CpuSeconds(network.model().PythonSeconds(records));
}

StpOrdered StpOrder(SecretShareEngine& engine, const SharedRelation& input,
                    std::span<const int> key_columns, size_t flag_keys, PartyId stp,
                    int num_parties) {
  const int64_t n = input.NumRows();
  CONCLAVE_CHECK_GT(n, 0);
  CONCLAVE_CHECK_LE(flag_keys, key_columns.size());

  // Shuffle, then reveal only the key columns to the STP.
  SharedRelation shuffled = ObliviousShuffle(engine, input);
  const Relation keys =
      RevealToStp(engine, mpc::Project(shuffled, key_columns), stp, num_parties);

  // The STP sorts by the keys and flags equal neighbours in the clear, one
  // contiguous key-column pass at a time.
  std::vector<int> positions(key_columns.size());
  std::iota(positions.begin(), positions.end(), 0);
  const std::vector<int64_t> order = ops::SortedOrder(keys, positions);
  std::vector<int64_t> flags(static_cast<size_t>(n), 1);
  flags[0] = 0;
  for (size_t k = 0; k < flag_keys; ++k) {
    const auto column = keys.ColumnSpan(static_cast<int>(k));
    for (size_t r = 1; r < order.size(); ++r) {
      flags[r] &= column[static_cast<size_t>(order[r])] ==
                          column[static_cast<size_t>(order[r - 1])]
                      ? 1
                      : 0;
    }
  }

  // The order travels in the clear; the flags are secret-shared by the STP.
  ChargeStpSortAndExchange(engine.network(), static_cast<uint64_t>(n), stp,
                           num_parties);
  SharedColumn equal_prev = engine.Share(flags);
  return {ApplyPublicOrder(shuffled, order), std::move(equal_prev)};
}

void StpOrderCharges(SimNetwork& network, uint64_t rows, uint64_t columns,
                     uint64_t keys, PartyId stp, int num_parties) {
  ChargeObliviousShuffle(network, rows * columns);
  ChargeRevealToStp(network, rows * keys, stp, num_parties);
  ChargeStpSortAndExchange(network, rows, stp, num_parties);
}

}  // namespace hybrid
}  // namespace conclave
