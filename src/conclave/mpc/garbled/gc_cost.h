// Analytic gate-count and memory formulas for garbled-circuit relational operators.
//
// Per-primitive AND-gate constants match the real builders in circuit.h (tests assert
// this), so costing a 10^10-gate join is exact without materializing it. Memory follows
// Obliv-C's observed behaviour (Fig. 1): the engine retains live wire labels for whole
// relations (~200 B per input bit once bookkeeping is included) and per-pair transient
// state in the Cartesian join; both are calibrated to reproduce the paper's OOM points
// (join ~30k total records, projection ~300k rows on a 4 GB VM).
#ifndef CONCLAVE_MPC_GARBLED_GC_COST_H_
#define CONCLAVE_MPC_GARBLED_GC_COST_H_

#include <cstdint>

#include "conclave/net/cost_model.h"
#include "conclave/relational/ops.h"

namespace conclave {
namespace gc {

// AND gates per 64-bit primitive, mirroring circuit.cc's builders.
inline constexpr uint64_t kAndPerAdd = 126;   // Ripple-carry, final carry elided.
inline constexpr uint64_t kAndPerSub = 126;
inline constexpr uint64_t kAndPerEqual = 63;  // XNOR + AND tree.
inline constexpr uint64_t kAndPerLess = 127;  // Sub + 1-bit sign mux.
inline constexpr uint64_t kAndPerMux = 64;    // 1 AND per bit.
inline constexpr uint64_t kAndPerMul =
    2080 + 64 * kAndPerAdd;  // 2080 partial-product ANDs + 64 accumulator adds.

struct GcOpCost {
  uint64_t and_gates = 0;        // Non-free gates to garble/transfer/evaluate.
  uint64_t live_state_bytes = 0; // Peak resident wire-label state.

  GcOpCost& operator+=(const GcOpCost& other) {
    and_gates += other.and_gates;
    live_state_bytes += other.live_state_bytes;
    return *this;
  }
};

// Live label state for a relation of rows x cols 64-bit cells.
uint64_t LiveBytesForCells(const CostModel& model, uint64_t rows, uint64_t cols);

// Single linear pass retaining input + output labels (project, filter, arithmetic,
// concat, limit). `per_row_and_gates` varies by operator.
GcOpCost LinearPassCost(const CostModel& model, uint64_t rows, uint64_t in_cols,
                        uint64_t out_cols, uint64_t per_row_and_gates);

// Cartesian-product join: per pair, key equality + output muxing; per-pair transient
// bookkeeping dominates memory.
GcOpCost JoinCost(const CostModel& model, uint64_t left_rows, uint64_t right_rows,
                  uint64_t left_cols, uint64_t right_cols, uint64_t key_cols);

// Compare-exchanges of the Batcher network that sorts `rows` rows (mpc/batcher.h),
// summed from its layers' closed-form counts (~n log^2 n / 4).
uint64_t BatcherCompareExchanges(uint64_t rows);

// Sort-based operator (order-by, distinct, aggregation's sort phase + linear scan).
GcOpCost SortCost(const CostModel& model, uint64_t rows, uint64_t cols,
                  uint64_t key_cols);
// A global aggregate (no group columns) prices as one group column.
GcOpCost AggregateCost(const CostModel& model, uint64_t rows, uint64_t cols,
                       uint64_t group_cols, bool assume_sorted);

// Window function: sort phase (unless pre-sorted) + per-row partition-equality tests
// and a log-depth segmented scan of adds/muxes.
GcOpCost WindowCost(const CostModel& model, uint64_t rows, uint64_t cols,
                    uint64_t partition_cols, bool assume_sorted);

// The remaining operators' circuits. GcEngine charges each operator's cost from
// one of these functions (or LinearPassCost with no gates, for project and
// concat), and the planner (compiler/plan_cost.cc) prices GC nodes with the same.
// Filter: one equality (kEq/kNe) or less-than per row.
GcOpCost FilterCost(const CostModel& model, uint64_t rows, uint64_t cols, CompareOp op);
// Arithmetic appends one column; division is a restoring divider, ~4x a multiplier.
GcOpCost ArithmeticCost(const CostModel& model, uint64_t rows, uint64_t cols,
                        ArithKind kind);
// Limit keeps min(rows, count) rows (none for a negative count).
GcOpCost LimitCost(const CostModel& model, uint64_t rows, uint64_t cols, int64_t count);
// Distinct over `keys` projected columns: a sort unless pre-sorted, then an
// adjacent-equality pass.
GcOpCost DistinctCost(const CostModel& model, uint64_t rows, uint64_t keys,
                      bool assume_sorted);

}  // namespace gc
}  // namespace conclave

#endif  // CONCLAVE_MPC_GARBLED_GC_COST_H_
