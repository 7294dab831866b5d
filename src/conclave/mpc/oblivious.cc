#include "conclave/mpc/oblivious.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "conclave/common/cpu.h"
#include "conclave/common/thread_pool.h"

namespace conclave {
namespace {

// Builds every output column as a fresh re-randomized gather of the corresponding
// input column at `rows`. Streams are claimed per column up front, in column order
// on the serialized lane, so the fan-out over columns (each column's kernel is
// itself morsel-parallel over rows) cannot perturb stream assignment — the result
// is bit-identical at every pool size.
std::vector<SharedColumn> GatherRerandomizeColumns(SecretShareEngine& engine,
                                                   const SharedRelation& input,
                                                   std::span<const int64_t> rows) {
  const int num_columns = input.NumColumns();
  std::vector<CounterRng> streams;
  streams.reserve(static_cast<size_t>(num_columns));
  for (int c = 0; c < num_columns; ++c) {
    streams.push_back(engine.NewStream());
  }
  std::vector<SharedColumn> columns(static_cast<size_t>(num_columns));
  ParallelFor(
      0, num_columns,
      [&](int64_t lo, int64_t hi) {
        for (int64_t c = lo; c < hi; ++c) {
          columns[static_cast<size_t>(c)] = SecretShareEngine::GatherRerandomizeWith(
              input.Column(static_cast<int>(c)), rows,
              streams[static_cast<size_t>(c)]);
        }
      },
      /*grain=*/1);
  return columns;
}

// The randomness of one compare-exchange layer. Per key: the comparison's masks,
// the equality's (every key but the last) and, past the first key, the triples that
// fold the comparison into the swap bit and those that extend the equality chain.
// Then one triple batch per column for the swap itself.
struct LayerStreams {
  struct Key {
    CounterRng compare_masks;
    CounterRng equal_masks;
    CounterRng greater_triples;
    CounterRng equal_triples;
  };
  std::vector<Key> keys;
  std::vector<CounterRng> swap_triples;
};

// Claims the streams of a layer of `m` comparators in the order of the comparison
// ladder: compare (and equality, with 2+ keys) for key 0; compare, mul (and
// equality, mul, unless it is the last key) for each further key; then one mul
// per column. ChargeBatcherNetwork charges the same steps in the same order.
LayerStreams ClaimLayer(SecretShareEngine& engine, size_t m, size_t num_keys,
                        int num_columns) {
  LayerStreams streams;
  streams.keys.resize(num_keys);
  TripleDealer& dealer = engine.dealer();
  for (size_t k = 0; k < num_keys; ++k) {
    LayerStreams::Key& key = streams.keys[k];
    key.compare_masks = engine.NewStream();
    if (k > 0) {
      key.greater_triples = dealer.ClaimBatch(m);
    }
    if (k + 1 < num_keys) {
      key.equal_masks = engine.NewStream();
      if (k > 0) {
        key.equal_triples = dealer.ClaimBatch(m);
      }
    }
  }
  streams.swap_triples.resize(static_cast<size_t>(num_columns));
  for (CounterRng& triples : streams.swap_triples) {
    triples = dealer.ClaimBatch(m);
  }
  return streams;
}

// Reconstructs the values of rows[j], j in [0, len), of the column whose shares
// are `shares` into out (the ideal functionality's view of the compared keys).
void ReconstructRows(ConstShareRun shares, const int64_t* rows, size_t len,
                     int64_t* out) {
  for (size_t j = 0; j < len; ++j) {
    const size_t row = static_cast<size_t>(rows[j]);
    out[j] = FromRing(shares.p[0][row] + shares.p[1][row] + shares.p[2][row]);
  }
}

// Applies one compare-exchange layer in place, in one morsel-parallel pass. Per
// block of comparators: reconstruct the lo and hi keys and share the swap bit
// through the comparison ladder (greater |= all_equal & gt_k, the events being
// disjoint; all_equal &= eq_k), then per column z = swap * (hi - lo) with the
// column's triples, writing back lo + z and hi - z. Comparators touch disjoint rows,
// so morsels read and write their own rows only.
void CompareExchangeLayer(SecretShareEngine& engine, SharedRelation& rel,
                          std::span<const int64_t> lo, std::span<const int64_t> hi,
                          std::span<const int> key_columns, bool ascending) {
  CONCLAVE_CHECK_GT(key_columns.size(), 0u);
  // For descending order, "must swap" means lo < hi: flip the comparison direction.
  const CompareOp cmp = ascending ? CompareOp::kGt : CompareOp::kLt;
  const size_t num_keys = key_columns.size();
  const LayerStreams streams =
      ClaimLayer(engine, lo.size(), num_keys, rel.NumColumns());
  std::vector<ConstShareRun> keys;
  for (int column : key_columns) {
    keys.push_back(RunOf(rel.Column(column)));
  }
  std::vector<ShareRun> columns;
  for (int c = 0; c < rel.NumColumns(); ++c) {
    columns.push_back(RunOf(rel.MutableColumn(c)));
  }

  ParallelFor(
      0, static_cast<int64_t>(lo.size()),
      [&](int64_t begin, int64_t end) {
        int64_t lhs[kFusedBlockRows] = {};
        int64_t rhs[kFusedBlockRows] = {};
        uint8_t bits[kFusedBlockRows] = {};
        ShareBlock greater;
        ShareBlock all_equal;
        ShareBlock step;
        ShareBlock lo_shares;
        ShareBlock hi_shares;
        BeaverBlock beaver;
        for (int64_t first = begin; first < end;
             first += static_cast<int64_t>(kFusedBlockRows)) {
          const size_t len =
              std::min(kFusedBlockRows, static_cast<size_t>(end - first));
          const uint64_t block = static_cast<uint64_t>(first);
          const int64_t* const lo_rows = lo.data() + first;
          const int64_t* const hi_rows = hi.data() + first;

          for (size_t k = 0; k < num_keys; ++k) {
            const LayerStreams::Key& key = streams.keys[k];
            ReconstructRows(keys[k], lo_rows, len, lhs);
            ReconstructRows(keys[k], hi_rows, len, rhs);
            SecretShareEngine::ShareComparison(cmp, lhs, rhs, len, key.compare_masks,
                                               block, bits,
                                               k == 0 ? greater.run() : step.run());
            if (k > 0) {
              beaver.Mul(key.greater_triples, block, len, all_equal.run(), step.run(),
                         step.run());
              for (int p = 0; p < kNumShareParties; ++p) {
                cpu::AddU64(greater.s[p], step.s[p], len, greater.s[p]);
              }
            }
            if (k + 1 < num_keys) {
              SecretShareEngine::ShareComparison(CompareOp::kEq, lhs, rhs, len,
                                                 key.equal_masks, block, bits,
                                                 k == 0 ? all_equal.run() : step.run());
              if (k > 0) {
                beaver.Mul(key.equal_triples, block, len, all_equal.run(), step.run(),
                           all_equal.run());
              }
            }
          }

          for (size_t c = 0; c < columns.size(); ++c) {
            const ShareRun column = columns[c];
            for (int p = 0; p < kNumShareParties; ++p) {
              for (size_t j = 0; j < len; ++j) {
                lo_shares.s[p][j] = column.p[p][lo_rows[j]];
                hi_shares.s[p][j] = column.p[p][hi_rows[j]];
              }
              cpu::SubU64(hi_shares.s[p], lo_shares.s[p], len, step.s[p]);
            }
            beaver.Mul(streams.swap_triples[c], block, len, greater.run(), step.run(),
                       step.run());
            for (int p = 0; p < kNumShareParties; ++p) {
              for (size_t j = 0; j < len; ++j) {
                column.p[p][lo_rows[j]] = lo_shares.s[p][j] + step.s[p][j];
                column.p[p][hi_rows[j]] = hi_shares.s[p][j] - step.s[p][j];
              }
            }
          }
        }
      },
      kMpcFusedGrainRows);
}

// Charges the whole network, then runs its layers in order, expanding one layer
// at a time into buffers reused across layers.
void RunNetwork(SecretShareEngine& engine, SharedRelation& rel,
                const std::vector<BatcherLayer>& layers,
                std::span<const int> key_columns, bool ascending) {
  ChargeBatcherNetwork(engine.network(), layers, key_columns.size(),
                       static_cast<uint64_t>(rel.NumColumns()), ascending);
  std::vector<int64_t> lo;
  std::vector<int64_t> hi;
  for (const BatcherLayer& layer : layers) {
    layer.Comparators(&lo, &hi);
    CompareExchangeLayer(engine, rel, lo, hi, key_columns, ascending);
  }
}

}  // namespace

void ChargeObliviousShuffle(SimNetwork& network, uint64_t cells) {
  ChargeSsBatch(network, SsPrimitive::kShuffleCell, cells);
}

uint64_t ObliviousSelectRounds(uint64_t n, uint64_t m) {
  const uint64_t total = SaturatingAdd(n, m);
  uint64_t log_term = 1;
  while (log_term < 64 && (uint64_t{1} << log_term) < total) {
    ++log_term;
  }
  return log_term;
}

void ChargeObliviousSelect(SimNetwork& network, uint64_t n, uint64_t m) {
  const uint64_t total = n + m;
  const uint64_t log_term = ObliviousSelectRounds(n, m);
  const double select_ops = static_cast<double>(total) * static_cast<double>(log_term);
  const SsCharge charge = network.model().SsChargeFor(SsPrimitive::kSelectOp);
  network.CpuSeconds(select_ops * charge.seconds);
  network.CountAggregateBytes(total * log_term * charge.bytes);
  network.Rounds(log_term);
}

std::vector<BatcherLayer> ObliviousMergeLayers(int64_t run_rows, int64_t other_rows) {
  return BatcherMergeFits(run_rows, other_rows)
             ? BatcherMergeNetwork(run_rows, run_rows + other_rows)
             : BatcherSortNetwork(run_rows + other_rows);
}

void ChargeBatcherNetwork(SimNetwork& network, std::span<const BatcherLayer> layers,
                          size_t num_keys, uint64_t num_columns, bool ascending) {
  const CompareOp cmp = ascending ? CompareOp::kGt : CompareOp::kLt;
  for (const BatcherLayer& layer : layers) {
    const uint64_t m = layer.Exchanges();
    for (size_t k = 0; k < num_keys; ++k) {
      ChargeCompare(network, cmp, m);
      if (k > 0) {
        ChargeMul(network, m);
      }
      if (k + 1 < num_keys) {
        ChargeCompare(network, CompareOp::kEq, m);
        if (k > 0) {
          ChargeMul(network, m);
        }
      }
    }
    for (uint64_t c = 0; c < num_columns; ++c) {
      ChargeMul(network, m);
    }
  }
}

SharedRelation ObliviousShuffle(SecretShareEngine& engine,
                                const SharedRelation& input) {
  const int64_t rows = input.NumRows();
  std::vector<int64_t> perm(static_cast<size_t>(rows));
  std::iota(perm.begin(), perm.end(), 0);
  // Fisher-Yates is inherently sequential; it draws from the lane-owned generator.
  std::shuffle(perm.begin(), perm.end(), engine.rng());

  std::vector<SharedColumn> columns = GatherRerandomizeColumns(engine, input, perm);
  ChargeObliviousShuffle(engine.network(), input.NumCells());
  return SharedRelation(input.schema(), std::move(columns));
}

SharedRelation ObliviousSort(SecretShareEngine& engine, const SharedRelation& input,
                             std::span<const int> key_columns, bool ascending) {
  SharedRelation rel = input;
  RunNetwork(engine, rel, BatcherSortNetwork(rel.NumRows()), key_columns, ascending);
  return rel;
}

SharedRelation ObliviousMerge(SecretShareEngine& engine, const SharedRelation& a,
                              const SharedRelation& b,
                              std::span<const int> key_columns) {
  const SharedRelation* both[2] = {&a, &b};
  SharedRelation rel = ConcatShares(both);
  RunNetwork(engine, rel, ObliviousMergeLayers(a.NumRows(), b.NumRows()), key_columns,
             /*ascending=*/true);
  return rel;
}

SharedRelation ObliviousSelect(SecretShareEngine& engine, const SharedRelation& input,
                               const SharedColumn& indices) {
  const int64_t n = input.NumRows();
  const int64_t m = static_cast<int64_t>(indices.size());

  // Ideal-functionality gather: indices are reconstructed internally, rows gathered,
  // and outputs re-randomized; the real protocol's O((n+m) log(n+m)) cost is charged.
  const std::vector<int64_t> rows = SecretShareEngine::IdealReconstruct(indices);
  for (int64_t row : rows) {
    CONCLAVE_CHECK_GE(row, 0);
    CONCLAVE_CHECK_LT(row, n);
  }

  std::vector<SharedColumn> columns = GatherRerandomizeColumns(engine, input, rows);
  ChargeObliviousSelect(engine.network(), static_cast<uint64_t>(n),
                        static_cast<uint64_t>(m));
  return SharedRelation(input.schema(), std::move(columns));
}

SharedRelation ApplyPublicOrder(const SharedRelation& input,
                                std::span<const int64_t> order) {
  CONCLAVE_CHECK_EQ(static_cast<int64_t>(order.size()), input.NumRows());
  // RNG-free share movement: columns fan out with no stream claims to sequence.
  std::vector<SharedColumn> columns(static_cast<size_t>(input.NumColumns()));
  ParallelFor(
      0, input.NumColumns(),
      [&](int64_t lo, int64_t hi) {
        for (int64_t c = lo; c < hi; ++c) {
          columns[static_cast<size_t>(c)] =
              GatherColumn(input.Column(static_cast<int>(c)), order);
        }
      },
      /*grain=*/1);
  return SharedRelation(input.schema(), std::move(columns));
}

}  // namespace conclave
