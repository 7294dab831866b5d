#include "conclave/mpc/oblivious.h"

#include <algorithm>
#include <numeric>
#include <utility>

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
  std::vector<AesCounterRng> streams;
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

// Shared 0/1 column: 1 iff the row at `lo` is lexicographically greater than the row
// at `hi` on the key columns (i.e., the pair must swap for ascending order).
SharedColumn RowGreater(SecretShareEngine& engine, const SharedRelation& rel,
                        std::span<const int64_t> lo, std::span<const int64_t> hi,
                        std::span<const int> key_columns, bool ascending) {
  // For descending order, "must swap" means lo < hi: flip the comparison direction.
  const CompareOp cmp = ascending ? CompareOp::kGt : CompareOp::kLt;
  CONCLAVE_CHECK_GT(key_columns.size(), 0u);
  SharedColumn greater;
  SharedColumn all_equal;
  for (size_t k = 0; k < key_columns.size(); ++k) {
    const SharedColumn& column = rel.Column(key_columns[k]);
    SharedColumn lo_vals = GatherColumn(column, lo);
    SharedColumn hi_vals = GatherColumn(column, hi);
    SharedColumn gt_k = engine.Compare(cmp, lo_vals, hi_vals);
    if (k == 0) {
      greater = std::move(gt_k);
      if (key_columns.size() > 1) {
        all_equal = engine.Compare(CompareOp::kEq, lo_vals, hi_vals);
      }
    } else {
      // greater |= all_equal & gt_k — the events are disjoint, so addition suffices.
      greater = SecretShareEngine::Add(greater, engine.Mul(all_equal, gt_k));
      if (k + 1 < key_columns.size()) {
        all_equal =
            engine.Mul(all_equal, engine.Compare(CompareOp::kEq, lo_vals, hi_vals));
      }
    }
  }
  return greater;
}

// Applies one batched compare-exchange layer in place.
void CompareExchangeLayer(SecretShareEngine& engine, SharedRelation& rel,
                          std::span<const int64_t> lo, std::span<const int64_t> hi,
                          std::span<const int> key_columns, bool ascending) {
  const SharedColumn swap = RowGreater(engine, rel, lo, hi, key_columns, ascending);
  for (int c = 0; c < rel.NumColumns(); ++c) {
    SharedColumn& column = rel.MutableColumn(c);
    SharedColumn lo_vals = GatherColumn(column, lo);
    SharedColumn hi_vals = GatherColumn(column, hi);
    // new_lo = lo + swap * (hi - lo); new_hi = lo + hi - new_lo (only one Mul).
    SharedColumn new_lo = SecretShareEngine::Add(
        lo_vals, engine.Mul(swap, SecretShareEngine::Sub(hi_vals, lo_vals)));
    SharedColumn new_hi = SecretShareEngine::Sub(
        SecretShareEngine::Add(lo_vals, hi_vals), new_lo);
    ScatterColumn(column, lo, new_lo);
    ScatterColumn(column, hi, new_hi);
  }
}

// Runs the network's layers in order, expanding one layer at a time into buffers
// reused across layers.
void RunNetwork(SecretShareEngine& engine, SharedRelation& rel,
                const std::vector<BatcherLayer>& layers,
                std::span<const int> key_columns, bool ascending) {
  std::vector<int64_t> lo;
  std::vector<int64_t> hi;
  for (const BatcherLayer& layer : layers) {
    layer.Comparators(&lo, &hi);
    CompareExchangeLayer(engine, rel, lo, hi, key_columns, ascending);
  }
}

}  // namespace

SharedRelation ObliviousShuffle(SecretShareEngine& engine,
                                const SharedRelation& input) {
  const int64_t rows = input.NumRows();
  std::vector<int64_t> perm(static_cast<size_t>(rows));
  std::iota(perm.begin(), perm.end(), 0);
  // Fisher-Yates is inherently sequential; it draws from the lane-owned generator.
  std::shuffle(perm.begin(), perm.end(), engine.rng());

  std::vector<SharedColumn> columns = GatherRerandomizeColumns(engine, input, perm);

  const CostModel& model = engine.network().model();
  const uint64_t cells = input.NumCells();
  const SsCharge charge = model.SsChargeFor(SsPrimitive::kShuffleCell);
  engine.network().CpuSeconds(static_cast<double>(cells) * charge.seconds);
  engine.network().CountAggregateBytes(cells * charge.bytes);
  engine.network().Rounds(charge.rounds);
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
  CONCLAVE_CHECK(a.schema().NamesMatch(b.schema()));
  // Column-wise concatenation of shares.
  std::vector<SharedColumn> columns;
  columns.reserve(static_cast<size_t>(a.NumColumns()));
  for (int c = 0; c < a.NumColumns(); ++c) {
    SharedColumn merged(a.Column(c).size() + b.Column(c).size());
    for (int p = 0; p < kNumShareParties; ++p) {
      auto& dest = merged.shares[p];
      const auto& first = a.Column(c).shares[p];
      const auto& second = b.Column(c).shares[p];
      std::copy(first.begin(), first.end(), dest.begin());
      std::copy(second.begin(), second.end(),
                dest.begin() + static_cast<int64_t>(first.size()));
    }
    columns.push_back(std::move(merged));
  }
  SharedRelation rel(a.schema(), std::move(columns));

  if (BatcherMergeFits(a.NumRows(), b.NumRows())) {
    RunNetwork(engine, rel, BatcherMergeNetwork(a.NumRows(), rel.NumRows()),
               key_columns, /*ascending=*/true);
    return rel;
  }
  // Shapes the merge network cannot handle: fall back to a full sort.
  return ObliviousSort(engine, rel, key_columns);
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

  const CostModel& model = engine.network().model();
  const double total = static_cast<double>(n + m);
  const uint64_t log_term = ObliviousSelectRounds(n, m);
  const double select_ops = total * static_cast<double>(log_term);
  const SsCharge charge = model.SsChargeFor(SsPrimitive::kSelectOp);
  engine.network().CpuSeconds(select_ops * charge.seconds);
  engine.network().CountAggregateBytes(
      static_cast<uint64_t>(select_ops) * charge.bytes);
  engine.network().Rounds(log_term);
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
