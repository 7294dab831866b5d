// Oblivious MPC sub-protocols over shared relations (§5.3–5.4 of the paper).
//
//  * ObliviousShuffle — hides row order under a secret permutation; O(cells) resharing
//    work. Conclave uses it before revealing anything row-aligned to an STP.
//  * ObliviousSort — Batcher odd-even merge-sort network (mpc/batcher.h),
//    O(n log^2 n) oblivious compare-exchanges; the dominant cost in MPC
//    aggregations [39].
//  * ObliviousMerge — merges two sorted relations; the cheaper network Conclave's
//    future-work sort push-up relies on (§5.4).
//  * ObliviousSelect — Laud-style oblivious indexing [45]: given secret indices,
//    gathers rows with O((n+m) log(n+m)) work; the hybrid join's MPC finale.
//
// Costs flow through the engine's SimNetwork; correctness is checked against the
// cleartext operator library in tests.
#ifndef CONCLAVE_MPC_OBLIVIOUS_H_
#define CONCLAVE_MPC_OBLIVIOUS_H_

#include <span>

#include "conclave/mpc/batcher.h"
#include "conclave/mpc/secret_share_engine.h"

namespace conclave {

SharedRelation ObliviousShuffle(SecretShareEngine& engine, const SharedRelation& input);

SharedRelation ObliviousSort(SecretShareEngine& engine, const SharedRelation& input,
                             std::span<const int> key_columns, bool ascending = true);

// Requires a.NumRows() to be a power of two >= b.NumRows() for the O(n log n) merge
// network; other shapes fall back to a full oblivious sort (correct, costlier).
SharedRelation ObliviousMerge(SecretShareEngine& engine, const SharedRelation& a,
                              const SharedRelation& b, std::span<const int> key_columns);

// Secret indices must reconstruct to valid row numbers of `input`.
SharedRelation ObliviousSelect(SecretShareEngine& engine, const SharedRelation& input,
                               const SharedColumn& indices);

// Reorders rows by a *public* permutation (hybrid aggregation step 6: the STP reveals
// the ordering of the already-shuffled relation). order[i] = source row of output i.
// Local share movement; no protocol cost.
SharedRelation ApplyPublicOrder(const SharedRelation& input,
                                std::span<const int64_t> order);

// Communication rounds of one ObliviousSelect over n input rows and m indices —
// ceil(log2(n + m)), floored at 1. Shared with the planner's cost estimate.
inline uint64_t ObliviousSelectRounds(int64_t n, int64_t m) {
  uint64_t log_term = 1;
  while ((int64_t{1} << log_term) < n + m) {
    ++log_term;
  }
  return log_term;
}

}  // namespace conclave

#endif  // CONCLAVE_MPC_OBLIVIOUS_H_
