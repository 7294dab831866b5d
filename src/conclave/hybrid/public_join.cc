#include "conclave/hybrid/public_join.h"

#include <algorithm>
#include <numeric>
#include <vector>

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

}  // namespace

StatusOr<SharedRelation> PublicJoinShared(SecretShareEngine& engine,
                                          const SharedRelation& left,
                                          const SharedRelation& right,
                                          std::span<const int> left_keys,
                                          std::span<const int> right_keys,
                                          PartyId joiner, int num_parties) {
  const CostModel& model = engine.network().model();
  CONCLAVE_RETURN_IF_ERROR(
      mpc::CheckWorkingSet(model, left.NumCells() + right.NumCells()));

  // Open the public key columns (keys are public, so no shuffle is required).
  Relation left_keys_clear =
      ReconstructRelation(mpc::Project(left, left_keys));
  Relation right_keys_clear =
      ReconstructRelation(mpc::Project(right, right_keys));
  // The other parties split the key bytes between them; the first
  // key_bytes % senders of them carry one byte more, so every byte is counted.
  const uint64_t key_bytes =
      (static_cast<uint64_t>(left_keys_clear.NumRows()) +
       static_cast<uint64_t>(right_keys_clear.NumRows())) *
      left_keys.size() * 8;
  const uint64_t senders = static_cast<uint64_t>(std::max(num_parties - 1, 1));
  uint64_t remainder = key_bytes % senders;
  for (PartyId p = 0; p < num_parties; ++p) {
    if (p != joiner) {
      const uint64_t extra = remainder > 0 ? 1 : 0;
      remainder -= extra;
      engine.network().Send(p, joiner, key_bytes / senders + extra);
    }
  }
  engine.network().Rounds(1);

  // Joiner computes the index pairs in the clear and broadcasts them.
  std::vector<int64_t> left_rows;
  std::vector<int64_t> right_rows;
  JoinIndexes(left_keys_clear, right_keys_clear, &left_rows, &right_rows);
  engine.network().CpuSeconds(model.PythonSeconds(
      static_cast<uint64_t>(left_keys_clear.NumRows() + right_keys_clear.NumRows() +
                            static_cast<int64_t>(left_rows.size()))));
  engine.network().Broadcast(joiner, num_parties,
                             static_cast<uint64_t>(left_rows.size()) * 16);
  engine.network().Rounds(1);

  // Every party assembles the joined result by local share gathering — the public
  // indexes make this communication-free.
  return mpc::AssembleJoin(
      left.schema(), right.schema(), left_keys, right_keys,
      [&](int c) { return GatherColumn(left.Column(c), left_rows); },
      [&](int c) { return GatherColumn(right.Column(c), right_rows); });
}

}  // namespace hybrid
}  // namespace conclave
