#include "conclave/hybrid/stp.h"

#include <numeric>
#include <vector>

namespace conclave {
namespace hybrid {

Relation RevealToStp(SecretShareEngine& engine, const SharedRelation& relation,
                     PartyId stp, int num_parties) {
  const uint64_t bytes_per_sender = relation.NumCells() * 8;
  for (PartyId p = 0; p < num_parties; ++p) {
    if (p != stp) {
      engine.network().Send(p, stp, bytes_per_sender);
    }
  }
  engine.network().Rounds(1);
  return ReconstructRelation(relation);
}

SharedColumn ShareFromStp(SecretShareEngine& engine, std::span<const int64_t> values,
                          PartyId stp, int num_parties) {
  const uint64_t bytes = static_cast<uint64_t>(values.size()) * 8;
  for (PartyId p = 0; p < num_parties; ++p) {
    if (p != stp) {
      engine.network().Send(stp, p, bytes);
    }
  }
  engine.network().Rounds(1);
  return engine.Share(values);
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
  engine.network().CpuSeconds(
      engine.network().model().PythonSeconds(static_cast<uint64_t>(n)));
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
  engine.network().Broadcast(stp, num_parties, static_cast<uint64_t>(n) * 8);
  for (PartyId p = 0; p < num_parties; ++p) {
    if (p != stp) {
      engine.network().Send(stp, p, static_cast<uint64_t>(n) * 8);
    }
  }
  engine.network().Rounds(2);
  SharedColumn equal_prev = engine.Share(flags);
  return {ApplyPublicOrder(shuffled, order), std::move(equal_prev)};
}

}  // namespace hybrid
}  // namespace conclave
