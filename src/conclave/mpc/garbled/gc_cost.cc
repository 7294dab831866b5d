#include "conclave/mpc/garbled/gc_cost.h"

#include <algorithm>

#include "conclave/mpc/batcher.h"

namespace conclave {
namespace gc {

uint64_t LiveBytesForCells(const CostModel& model, uint64_t rows, uint64_t cols) {
  return rows * cols * 64 * model.gc_bytes_per_live_bit;
}

GcOpCost LinearPassCost(const CostModel& model, uint64_t rows, uint64_t in_cols,
                        uint64_t out_cols, uint64_t per_row_and_gates) {
  GcOpCost cost;
  cost.and_gates = rows * per_row_and_gates;
  cost.live_state_bytes = LiveBytesForCells(model, rows, in_cols) +
                          LiveBytesForCells(model, rows, out_cols);
  return cost;
}

GcOpCost JoinCost(const CostModel& model, uint64_t left_rows, uint64_t right_rows,
                  uint64_t left_cols, uint64_t right_cols, uint64_t key_cols) {
  GcOpCost cost;
  const uint64_t pairs = left_rows * right_rows;
  const uint64_t out_cols = left_cols + right_cols - key_cols;
  // Per pair: key equality + conditional output assembly (mux every output column).
  cost.and_gates = pairs * (key_cols * kAndPerEqual + out_cols * kAndPerMux);
  cost.live_state_bytes = LiveBytesForCells(model, left_rows, left_cols) +
                          LiveBytesForCells(model, right_rows, right_cols) +
                          pairs * model.gc_bytes_per_join_pair;
  return cost;
}

uint64_t BatcherCompareExchanges(uint64_t rows) {
  uint64_t exchanges = 0;
  for (const BatcherLayer& layer : BatcherSortNetwork(static_cast<int64_t>(rows))) {
    exchanges += layer.Exchanges();
  }
  return exchanges;
}

GcOpCost SortCost(const CostModel& model, uint64_t rows, uint64_t cols,
                  uint64_t key_cols) {
  GcOpCost cost;
  const uint64_t exchanges = BatcherCompareExchanges(rows);
  // Per compare-exchange: lexicographic compare + 2-way mux of every column (one mux
  // computes new_lo, new_hi derives by XOR-algebra; count both conservatively).
  cost.and_gates =
      exchanges * (key_cols * kAndPerLess + (key_cols - 1) * kAndPerEqual +
                   2 * cols * kAndPerMux);
  cost.live_state_bytes = 2 * LiveBytesForCells(model, rows, cols);
  return cost;
}

GcOpCost AggregateCost(const CostModel& model, uint64_t rows, uint64_t cols,
                       uint64_t group_cols, bool assume_sorted) {
  group_cols = std::max<uint64_t>(group_cols, 1);
  GcOpCost cost;
  if (!assume_sorted) {
    cost += SortCost(model, rows, cols, group_cols);
  }
  // Linear accumulation scan: adjacent key equality + accumulate mux + add per row.
  cost.and_gates +=
      rows * (group_cols * kAndPerEqual + kAndPerMux + kAndPerAdd);
  cost.live_state_bytes += 2 * LiveBytesForCells(model, rows, cols);
  return cost;
}

GcOpCost WindowCost(const CostModel& model, uint64_t rows, uint64_t cols,
                    uint64_t partition_cols, bool assume_sorted) {
  GcOpCost cost;
  if (!assume_sorted) {
    cost += SortCost(model, rows, cols, partition_cols + 1);
  }
  // Adjacent partition-equality per row, then a log-depth Hillis-Steele segmented
  // scan: ~log2(rows) rounds of (add + value mux + flag AND) per row.
  uint64_t scan_rounds = 0;
  for (uint64_t d = 1; d < rows; d *= 2) {
    ++scan_rounds;
  }
  cost.and_gates += rows * partition_cols * kAndPerEqual;
  cost.and_gates += rows * scan_rounds * (kAndPerAdd + 2 * kAndPerMux);
  cost.live_state_bytes += 2 * LiveBytesForCells(model, rows, cols + 1);
  return cost;
}

GcOpCost FilterCost(const CostModel& model, uint64_t rows, uint64_t cols,
                    CompareOp op) {
  const uint64_t per_row =
      (op == CompareOp::kEq || op == CompareOp::kNe) ? kAndPerEqual : kAndPerLess;
  return LinearPassCost(model, rows, cols, cols, per_row);
}

GcOpCost ArithmeticCost(const CostModel& model, uint64_t rows, uint64_t cols,
                        ArithKind kind) {
  // By ArithKind: add, sub, mul, and div as a restoring divider.
  constexpr uint64_t kPerRow[] = {kAndPerAdd, kAndPerSub, kAndPerMul, 4 * kAndPerMul};
  return LinearPassCost(model, rows, cols, cols + 1,
                        kPerRow[static_cast<size_t>(kind)]);
}

GcOpCost LimitCost(const CostModel& model, uint64_t rows, uint64_t cols,
                   int64_t count) {
  const uint64_t kept =
      std::min(rows, static_cast<uint64_t>(std::max<int64_t>(count, 0)));
  return LinearPassCost(model, kept, cols, cols, /*per_row_and_gates=*/0);
}

GcOpCost DistinctCost(const CostModel& model, uint64_t rows, uint64_t keys,
                      bool assume_sorted) {
  GcOpCost cost;
  if (!assume_sorted) {
    cost += SortCost(model, rows, keys, keys);
  }
  cost += LinearPassCost(model, rows, keys, keys, keys * kAndPerEqual);
  return cost;
}

}  // namespace gc
}  // namespace conclave
