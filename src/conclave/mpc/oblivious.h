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
// Costs flow through the engine's SimNetwork by the charge functions below;
// correctness is checked against the cleartext operator library in tests.
#ifndef CONCLAVE_MPC_OBLIVIOUS_H_
#define CONCLAVE_MPC_OBLIVIOUS_H_

#include <span>
#include <vector>

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

// --- Charges ---------------------------------------------------------------------------
void ChargeObliviousShuffle(SimNetwork& network, uint64_t cells);

// Communication rounds of one ObliviousSelect over n input rows and m indices:
// ceil(log2(n + m)), floored at 1. Defined for every n and m.
uint64_t ObliviousSelectRounds(uint64_t n, uint64_t m);
// One ObliviousSelect of m rows out of n: (n + m) * rounds select steps.
void ChargeObliviousSelect(SimNetwork& network, uint64_t n, uint64_t m);

// The compare-exchange layers ObliviousMerge runs for sorted runs of
// `run_rows` and `other_rows` rows: the merge pass where BatcherMergeFits,
// else the whole sort network over both.
std::vector<BatcherLayer> ObliviousMergeLayers(int64_t run_rows, int64_t other_rows);

// A Batcher network over `num_columns` columns and `num_keys` keys, layer by layer
// (each key's comparison ladder, then one swap multiplication per column):
// ObliviousSort and ObliviousMerge charge the layer list they then run.
void ChargeBatcherNetwork(SimNetwork& network, std::span<const BatcherLayer> layers,
                          size_t num_keys, uint64_t num_columns, bool ascending);

}  // namespace conclave

#endif  // CONCLAVE_MPC_OBLIVIOUS_H_
