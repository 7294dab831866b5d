#include "conclave/hybrid/hybrid_join.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "conclave/hybrid/stp.h"

namespace conclave {
namespace hybrid {

StatusOr<SharedRelation> HybridJoin(SecretShareEngine& engine,
                                    const SharedRelation& left,
                                    const SharedRelation& right,
                                    std::span<const int> left_keys,
                                    std::span<const int> right_keys, PartyId stp,
                                    int num_parties) {
  const CostModel& model = engine.network().model();
  // The protocol keeps ~6 live copies of the inputs at its peak (originals, shuffled
  // versions, selected rows, reshuffle buffers); this is what makes Sharemind exhaust
  // its memory in the MPC part of the hybrid join at ~2M input records (Fig. 5a).
  CONCLAVE_RETURN_IF_ERROR(
      mpc::CheckWorkingSet(model, 6 * (left.NumCells() + right.NumCells())));

  // Step 1: oblivious shuffles decorrelate revealed keys from input row order.
  SharedRelation left_shuffled = ObliviousShuffle(engine, left);
  SharedRelation right_shuffled = ObliviousShuffle(engine, right);

  // Step 2: reveal only the key columns to the STP.
  Relation left_keys_clear =
      RevealToStp(engine, mpc::Project(left_shuffled, left_keys), stp, num_parties);
  Relation right_keys_clear =
      RevealToStp(engine, mpc::Project(right_shuffled, right_keys), stp, num_parties);

  // Step 3: STP pairs the matching rows in the clear.
  std::vector<int> key_positions(left_keys.size());
  std::iota(key_positions.begin(), key_positions.end(), 0);
  std::vector<int64_t> left_pairs;
  std::vector<int64_t> right_pairs;
  ops::JoinRowPairs(left_keys_clear, right_keys_clear, key_positions, key_positions,
                    &left_pairs, &right_pairs);
  const int64_t out_rows = static_cast<int64_t>(left_pairs.size());
  engine.network().CpuSeconds(model.PythonSeconds(static_cast<uint64_t>(
      left_keys_clear.NumRows() + right_keys_clear.NumRows() + out_rows)));

  // Step 4: STP shares the two row-index columns back into the MPC.
  SharedColumn left_indexes = ShareFromStp(engine, left_pairs, stp, num_parties);
  SharedColumn right_indexes = ShareFromStp(engine, right_pairs, stp, num_parties);

  CONCLAVE_RETURN_IF_ERROR(mpc::CheckWorkingSet(
      model, 3 * (left.NumCells() + right.NumCells()) +
                 static_cast<uint64_t>(out_rows) *
                     (left.NumCells() / std::max<int64_t>(left.NumRows(), 1) +
                      right.NumCells() / std::max<int64_t>(right.NumRows(), 1))));

  // Step 5: oblivious indexing selects the contributing rows.
  SharedRelation left_rows = ObliviousSelect(engine, left_shuffled, left_indexes);
  SharedRelation right_rows = ObliviousSelect(engine, right_shuffled, right_indexes);

  // Step 6: assemble the join output and reshuffle.
  return ObliviousShuffle(
      engine, mpc::AssembleJoin(
                  left.schema(), right.schema(), left_keys, right_keys,
                  [&](int c) { return left_rows.Column(c); },
                  [&](int c) { return right_rows.Column(c); }));
}

}  // namespace hybrid
}  // namespace conclave
