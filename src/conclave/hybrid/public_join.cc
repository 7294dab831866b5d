#include "conclave/hybrid/public_join.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "conclave/hybrid/stp.h"

namespace conclave {
namespace hybrid {
namespace {

// The joiner's cleartext step: the matching (left row, right row) pairs, ordered by
// key (stably, so ties keep join order).
void JoinIndexes(const Relation& left_keys, const Relation& right_keys,
                 std::vector<int64_t>* left_rows, std::vector<int64_t>* right_rows) {
  std::vector<int> key_positions(static_cast<size_t>(left_keys.NumColumns()));
  std::iota(key_positions.begin(), key_positions.end(), 0);
  std::vector<int64_t> left_pairs;
  std::vector<int64_t> right_pairs;
  ops::JoinRowPairs(left_keys, right_keys, key_positions, key_positions, &left_pairs,
                    &right_pairs);
  // The joiner sorts by key in the clear; downstream oblivious sorts become
  // redundant (the sort-elimination win of §5.4 / §7.4).
  const std::vector<int64_t> order =
      ops::SortedOrder(ops::GatherRows(left_keys, left_pairs), key_positions);
  left_rows->resize(order.size());
  right_rows->resize(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    (*left_rows)[i] = left_pairs[static_cast<size_t>(order[i])];
    (*right_rows)[i] = right_pairs[static_cast<size_t>(order[i])];
  }
}

// The public join's charges past its working-set check, which no other step
// interleaves: the n + m rows' keys sent to the joiner (the other parties split
// the bytes; the first key_bytes % senders of them carry one byte more, so every
// byte is counted), the joiner's cleartext join, and its broadcast of the
// `pairs` index pairs.
void ChargeKeysAndPairs(SimNetwork& network, uint64_t n, uint64_t m, uint64_t keys,
                        uint64_t pairs, PartyId joiner, int num_parties) {
  const uint64_t key_bytes = (n + m) * keys * 8;
  const uint64_t senders = static_cast<uint64_t>(std::max(num_parties - 1, 1));
  uint64_t remainder = key_bytes % senders;
  for (PartyId p = 0; p < num_parties; ++p) {
    if (p != joiner) {
      const uint64_t extra = remainder > 0 ? 1 : 0;
      remainder -= extra;
      network.Send(p, joiner, key_bytes / senders + extra);
    }
  }
  network.Rounds(1);
  ChargeStpWork(network, n + m + pairs);
  network.Broadcast(joiner, num_parties, pairs * 16);
  network.Rounds(1);
}

}  // namespace

StatusOr<SharedRelation> PublicJoinShared(SecretShareEngine& engine,
                                          const SharedRelation& left,
                                          const SharedRelation& right,
                                          std::span<const int> left_keys,
                                          std::span<const int> right_keys,
                                          PartyId joiner, int num_parties) {
  const uint64_t n = static_cast<uint64_t>(left.NumRows());
  const uint64_t m = static_cast<uint64_t>(right.NumRows());
  CONCLAVE_RETURN_IF_ERROR(mpc::CheckWorkingSet(
      engine.network().model(), left.NumCells() + right.NumCells(), "public join"));

  // Open the public key columns (keys are public, so no shuffle is required) to
  // the joiner, which computes the index pairs in the clear and broadcasts them.
  std::vector<int64_t> left_rows;
  std::vector<int64_t> right_rows;
  JoinIndexes(ReconstructRelation(mpc::Project(left, left_keys)),
              ReconstructRelation(mpc::Project(right, right_keys)), &left_rows,
              &right_rows);
  ChargeKeysAndPairs(engine.network(), n, m, left_keys.size(), left_rows.size(), joiner,
                     num_parties);

  // Every party assembles the joined result by local share gathering — the public
  // indexes make this communication-free.
  return mpc::AssembleJoin(
      left.schema(), right.schema(), left_keys, right_keys,
      [&](int c) { return GatherColumn(left.Column(c), left_rows); },
      [&](int c) { return GatherColumn(right.Column(c), right_rows); });
}

Status PublicJoinCharges(SimNetwork& network, uint64_t left_rows, uint64_t right_rows,
                         uint64_t left_columns, uint64_t right_columns, uint64_t keys,
                         uint64_t out_rows, PartyId joiner, int num_parties) {
  CONCLAVE_RETURN_IF_ERROR(mpc::CheckWorkingSet(
      network.model(),
      SaturatingAdd(mpc::LiveCells(1, left_rows, left_columns),
                    mpc::LiveCells(1, right_rows, right_columns)),
      "public join"));
  ChargeKeysAndPairs(network, left_rows, right_rows, keys, out_rows, joiner, num_parties);
  return Status::Ok();
}

}  // namespace hybrid
}  // namespace conclave
