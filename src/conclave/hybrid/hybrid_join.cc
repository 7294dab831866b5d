#include "conclave/hybrid/hybrid_join.h"

#include <numeric>
#include <vector>

#include "conclave/hybrid/stp.h"

namespace conclave {
namespace hybrid {
namespace {

// Live cells at the protocol's two checks: `copies` copies of both inputs plus
// `out_rows` selected rows, as wide as each side's cells per row (zero for an
// empty side). At its peak the protocol keeps ~6 live copies of the inputs
// (originals, shuffled versions, selected rows, reshuffle buffers); this is what
// makes Sharemind exhaust its memory in the MPC part of the hybrid join at ~2M
// input records (Fig. 5a). Before the selects it keeps three.
uint64_t JoinLiveCells(uint64_t copies, uint64_t n, uint64_t left_columns, uint64_t m,
                       uint64_t right_columns, uint64_t out_rows) {
  const uint64_t inputs = SaturatingAdd(mpc::LiveCells(1, n, left_columns),
                                        mpc::LiveCells(1, m, right_columns));
  const uint64_t width = (n > 0 ? left_columns : 0) + (m > 0 ? right_columns : 0);
  return SaturatingAdd(SaturatingMul(copies, inputs), mpc::LiveCells(1, out_rows, width));
}

}  // namespace

StatusOr<SharedRelation> HybridJoin(SecretShareEngine& engine,
                                    const SharedRelation& left,
                                    const SharedRelation& right,
                                    std::span<const int> left_keys,
                                    std::span<const int> right_keys, PartyId stp,
                                    int num_parties) {
  const CostModel& model = engine.network().model();
  const uint64_t n = static_cast<uint64_t>(left.NumRows());
  const uint64_t m = static_cast<uint64_t>(right.NumRows());
  const uint64_t left_columns = static_cast<uint64_t>(left.NumColumns());
  const uint64_t right_columns = static_cast<uint64_t>(right.NumColumns());
  CONCLAVE_RETURN_IF_ERROR(mpc::CheckWorkingSet(
      model, JoinLiveCells(6, n, left_columns, m, right_columns, 0), "hybrid join"));

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
  const uint64_t out_rows = left_pairs.size();
  ChargeStpWork(engine.network(), n + m + out_rows);

  // Step 4: STP shares the two row-index columns back into the MPC.
  SharedColumn left_indexes = ShareFromStp(engine, left_pairs, stp, num_parties);
  SharedColumn right_indexes = ShareFromStp(engine, right_pairs, stp, num_parties);

  CONCLAVE_RETURN_IF_ERROR(mpc::CheckWorkingSet(
      model, JoinLiveCells(3, n, left_columns, m, right_columns, out_rows),
      "hybrid join select"));

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

Status HybridJoinCharges(SimNetwork& network, uint64_t left_rows, uint64_t right_rows,
                         uint64_t left_columns, uint64_t right_columns, uint64_t keys,
                         uint64_t out_rows, PartyId stp, int num_parties) {
  const CostModel& model = network.model();
  CONCLAVE_RETURN_IF_ERROR(mpc::CheckWorkingSet(
      model, JoinLiveCells(6, left_rows, left_columns, right_rows, right_columns, 0),
      "hybrid join"));
  ChargeObliviousShuffle(network, left_rows * left_columns);
  ChargeObliviousShuffle(network, right_rows * right_columns);
  ChargeRevealToStp(network, left_rows * keys, stp, num_parties);
  ChargeRevealToStp(network, right_rows * keys, stp, num_parties);
  ChargeStpWork(network, left_rows + right_rows + out_rows);
  ChargeShareFromStp(network, out_rows, stp, num_parties);
  ChargeShareFromStp(network, out_rows, stp, num_parties);
  CONCLAVE_RETURN_IF_ERROR(mpc::CheckWorkingSet(
      model,
      JoinLiveCells(3, left_rows, left_columns, right_rows, right_columns, out_rows),
      "hybrid join select"));
  ChargeObliviousSelect(network, left_rows, out_rows);
  ChargeObliviousSelect(network, right_rows, out_rows);
  ChargeObliviousShuffle(network, out_rows * (left_columns + right_columns - keys));
  return Status::Ok();
}

}  // namespace hybrid
}  // namespace conclave
