// The generalized (arbitrary-n) Batcher odd-even merge-sort network [39], one layer
// at a time. It is defined once, here: the secret-sharing engine expands each layer
// into comparators as it runs it and charges each layer by its closed-form
// comparator count (mpc/oblivious.cc, which the planner's estimates also apply),
// and the garbled-circuit gate counts (mpc/garbled/gc_cost.cc) sum the same counts,
// so no reader materializes the whole network.
#ifndef CONCLAVE_MPC_BATCHER_H_
#define CONCLAVE_MPC_BATCHER_H_

#include <cstdint>
#include <vector>

namespace conclave {

// One compare-exchange layer: step k of the merge pass that turns sorted runs of p
// rows into runs of 2p, over n rows (k and p powers of two, k <= p < n). Its
// comparators touch disjoint rows, so the layer runs as one batched step.
struct BatcherLayer {
  int64_t n = 0;
  int64_t p = 1;
  int64_t k = 1;

  // Replaces lo/hi with the layer's comparators (lo[i] < hi[i]), in ascending lo
  // order; reusing the vectors across layers keeps one layer's worth of buffers.
  void Comparators(std::vector<int64_t>* lo, std::vector<int64_t>* hi) const;

  // The number of comparators Comparators emits, in O(1). They are the a < n - k
  // with a mod 2k >= k (k < p) that stay inside one 2p block (a mod 2p < 2p - k);
  // every a mod 2k < k passes the block test, so it subtracts out. At k == p the
  // pass starts at 0 and the block test always holds.
  uint64_t Exchanges() const;
};

// The non-empty layers of the network that sorts n rows, in execution order.
std::vector<BatcherLayer> BatcherSortNetwork(int64_t n);

// True when sorted runs of `run_length` and `other_rows` rows can merge through
// BatcherMergeNetwork: run_length a power of two and 0 < other_rows <= run_length.
// Other shapes take a full sort, in the engine and in the planner alike.
bool BatcherMergeFits(int64_t run_length, int64_t other_rows);

// The final merge pass alone, for sorted runs [0, run_length) and
// [run_length, total); requires BatcherMergeFits(run_length, total - run_length).
std::vector<BatcherLayer> BatcherMergeNetwork(int64_t run_length, int64_t total);

}  // namespace conclave

#endif  // CONCLAVE_MPC_BATCHER_H_
