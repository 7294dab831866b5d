#include "conclave/mpc/batcher.h"

#include <algorithm>

#include "conclave/common/check.h"

namespace conclave {
namespace {

// Number of a in [0, x) with a mod m < t (0 <= t <= m).
uint64_t CountModLessPrefix(int64_t x, int64_t m, int64_t t) {
  return static_cast<uint64_t>(x / m) * static_cast<uint64_t>(t) +
         static_cast<uint64_t>(std::min(x % m, t));
}

// Appends the non-empty layers of the merge pass of width p over n rows.
void AppendMergePass(int64_t n, int64_t p, std::vector<BatcherLayer>* layers) {
  for (int64_t k = p; k >= 1; k >>= 1) {
    const BatcherLayer layer{n, p, k};
    if (layer.Exchanges() > 0) {
      layers->push_back(layer);
    }
  }
}

}  // namespace

uint64_t BatcherLayer::Exchanges() const {
  if (k == p) {
    return CountModLessPrefix(n - p, 2 * p, p);
  }
  return CountModLessPrefix(n - k, 2 * p, 2 * p - k) -
         CountModLessPrefix(n - k, 2 * k, k);
}

void BatcherLayer::Comparators(std::vector<int64_t>* lo,
                               std::vector<int64_t>* hi) const {
  lo->clear();
  hi->clear();
  lo->reserve(Exchanges());
  hi->reserve(Exchanges());
  // Comparators (a, a + k) come in blocks a in [j, j + k), j = k mod p + 2k·t.
  // A block lies inside one 2k-aligned span, so either every comparator of it
  // stays inside one 2p block, or the block ends exactly at a 2p boundary and
  // every comparator would cross it.
  for (int64_t j = k % p; j + k < n; j += 2 * k) {
    if (((j + k) & (2 * p - 1)) == 0) {
      continue;
    }
    const int64_t end = j + std::min(k, n - j - k);
    for (int64_t a = j; a < end; ++a) {
      lo->push_back(a);
      hi->push_back(a + k);
    }
  }
}

std::vector<BatcherLayer> BatcherSortNetwork(int64_t n) {
  std::vector<BatcherLayer> layers;
  for (int64_t p = 1; p < n; p <<= 1) {
    AppendMergePass(n, p, &layers);
  }
  return layers;
}

bool BatcherMergeFits(int64_t run_length, int64_t other_rows) {
  return run_length > 0 && (run_length & (run_length - 1)) == 0 && other_rows > 0 &&
         other_rows <= run_length;
}

std::vector<BatcherLayer> BatcherMergeNetwork(int64_t run_length, int64_t total) {
  CONCLAVE_CHECK(BatcherMergeFits(run_length, total - run_length));
  std::vector<BatcherLayer> layers;
  AppendMergePass(total, run_length, &layers);
  return layers;
}

}  // namespace conclave
