// Tests for the oblivious sub-protocols: the Batcher network generator (validated as
// a sorting network on adversarial sizes), shuffle, sort, merge, and select.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "conclave/mpc/oblivious.h"

namespace conclave {
namespace {

// Materializes one column as a vector (the zero-copy ColumnSpan is the runtime
// accessor; tests copy for gtest matchers).
std::vector<int64_t> Column(const Relation& rel, int col) {
  const auto span = rel.ColumnSpan(col);
  return {span.begin(), span.end()};
}

SharedRelation ShareSingleColumn(const std::vector<int64_t>& values, Rng& rng,
                                 const std::string& name = "k") {
  Relation rel{Schema::Of({name})};
  for (int64_t v : values) {
    rel.AppendRow({v});
  }
  return ShareRelation(rel, rng);
}

// Expands every layer of a network into its comparator pairs.
std::vector<std::vector<std::pair<int64_t, int64_t>>> Expand(
    const std::vector<BatcherLayer>& network) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> layers;
  std::vector<int64_t> lo;
  std::vector<int64_t> hi;
  for (const BatcherLayer& layer : network) {
    layer.Comparators(&lo, &hi);
    auto& pairs = layers.emplace_back();
    for (size_t i = 0; i < lo.size(); ++i) {
      pairs.emplace_back(lo[i], hi[i]);
    }
  }
  return layers;
}

// Applies the generated network layers to a cleartext vector; the network is valid
// iff this sorts every input (we use random + adversarial inputs as evidence).
std::vector<int64_t> ApplyNetwork(
    const std::vector<std::vector<std::pair<int64_t, int64_t>>>& layers,
    std::vector<int64_t> data) {
  for (const auto& layer : layers) {
    for (const auto& [lo, hi] : layer) {
      if (data[static_cast<size_t>(lo)] > data[static_cast<size_t>(hi)]) {
        std::swap(data[static_cast<size_t>(lo)], data[static_cast<size_t>(hi)]);
      }
    }
  }
  return data;
}

class BatcherNetworkTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(BatcherNetworkTest, SortsRandomInputs) {
  const int64_t n = GetParam();
  const auto layers = Expand(BatcherSortNetwork(n));
  Rng rng(static_cast<uint64_t>(n));
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<int64_t> data(static_cast<size_t>(n));
    for (auto& v : data) {
      v = rng.NextInRange(-100, 100);
    }
    const auto sorted = ApplyNetwork(layers, data);
    EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
  }
}

TEST_P(BatcherNetworkTest, SortsReverseAndConstantInputs) {
  const int64_t n = GetParam();
  const auto layers = Expand(BatcherSortNetwork(n));
  std::vector<int64_t> reverse(static_cast<size_t>(n));
  std::iota(reverse.rbegin(), reverse.rend(), 0);
  const auto sorted_reverse = ApplyNetwork(layers, reverse);
  EXPECT_TRUE(std::is_sorted(sorted_reverse.begin(), sorted_reverse.end()));
  std::vector<int64_t> constant(static_cast<size_t>(n), 7);
  EXPECT_EQ(ApplyNetwork(layers, constant), constant);
}

TEST_P(BatcherNetworkTest, LayersTouchDisjointIndices) {
  for (const auto& layer : Expand(BatcherSortNetwork(GetParam()))) {
    std::vector<int64_t> touched;
    for (const auto& [lo, hi] : layer) {
      touched.push_back(lo);
      touched.push_back(hi);
    }
    std::sort(touched.begin(), touched.end());
    EXPECT_TRUE(std::adjacent_find(touched.begin(), touched.end()) == touched.end())
        << "layer reuses an index; batching would race";
  }
}

// Adversarial non-power-of-two sizes matter twice over: the generalized network must
// still sort (correctness), and every layer must stay pair-disjoint (the property
// intra-layer morsel parallelism relies on — gathers/scatters of one layer write
// disjoint rows).
INSTANTIATE_TEST_SUITE_P(Sizes, BatcherNetworkTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31,
                                           33, 63, 64, 100, 127, 129, 200, 255, 257,
                                           333, 511, 1000));

class MergeNetworkTest : public ::testing::TestWithParam<std::pair<int64_t, int64_t>> {
};

TEST_P(MergeNetworkTest, MergesTwoSortedRuns) {
  const auto [run, extra] = GetParam();
  const int64_t total = run + extra;
  const auto layers = Expand(BatcherMergeNetwork(run, total));
  Rng rng(static_cast<uint64_t>(total));
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<int64_t> data(static_cast<size_t>(total));
    for (auto& v : data) {
      v = rng.NextInRange(0, 50);
    }
    std::sort(data.begin(), data.begin() + run);
    std::sort(data.begin() + run, data.end());
    const auto merged = ApplyNetwork(layers, data);
    EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end()));
  }
}

TEST_P(MergeNetworkTest, LayersTouchDisjointIndices) {
  const auto [run, extra] = GetParam();
  for (const auto& layer : Expand(BatcherMergeNetwork(run, run + extra))) {
    std::vector<int64_t> touched;
    for (const auto& [lo, hi] : layer) {
      EXPECT_GE(lo, 0);
      EXPECT_LT(lo, hi);
      EXPECT_LT(hi, run + extra);
      touched.push_back(lo);
      touched.push_back(hi);
    }
    std::sort(touched.begin(), touched.end());
    EXPECT_TRUE(std::adjacent_find(touched.begin(), touched.end()) == touched.end())
        << "merge layer reuses an index; batching would race";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MergeNetworkTest,
    ::testing::Values(std::pair<int64_t, int64_t>{1, 1},
                      std::pair<int64_t, int64_t>{2, 1},
                      std::pair<int64_t, int64_t>{4, 3},
                      std::pair<int64_t, int64_t>{4, 4},
                      std::pair<int64_t, int64_t>{8, 1},
                      std::pair<int64_t, int64_t>{8, 5},
                      std::pair<int64_t, int64_t>{16, 16},
                      std::pair<int64_t, int64_t>{32, 7},
                      std::pair<int64_t, int64_t>{64, 63},
                      std::pair<int64_t, int64_t>{128, 100}));

class ObliviousFixture : public ::testing::Test {
 protected:
  ObliviousFixture() : net_(CostModel{}), engine_(&net_, 1234), rng_(4321) {}
  SimNetwork net_;
  SecretShareEngine engine_;
  Rng rng_;
};

TEST_F(ObliviousFixture, ShuffleIsAPermutation) {
  std::vector<int64_t> values(100);
  std::iota(values.begin(), values.end(), 0);
  SharedRelation rel = ShareSingleColumn(values, rng_);
  SharedRelation shuffled = ObliviousShuffle(engine_, rel);
  auto result = ReconstructValues(shuffled.Column(0));
  EXPECT_NE(result, values);  // 1/100! chance of false failure.
  std::sort(result.begin(), result.end());
  EXPECT_EQ(result, values);
}

TEST_F(ObliviousFixture, ShuffleRerandomizesShares) {
  SharedRelation rel = ShareSingleColumn({5, 5, 5, 5}, rng_);
  SharedRelation shuffled = ObliviousShuffle(engine_, rel);
  // All secrets equal, so any share equality would reveal the permutation;
  // re-randomization makes shares fresh.
  EXPECT_NE(rel.Column(0).shares[0], shuffled.Column(0).shares[0]);
  EXPECT_EQ(ReconstructValues(shuffled.Column(0)),
            (std::vector<int64_t>{5, 5, 5, 5}));
}

TEST_F(ObliviousFixture, ShuffleChargesCosts) {
  SharedRelation rel = ShareSingleColumn({1, 2, 3, 4}, rng_);
  const double before = net_.ElapsedSeconds();
  ObliviousShuffle(engine_, rel);
  EXPECT_GT(net_.ElapsedSeconds(), before);
  EXPECT_GE(net_.counters().network_bytes,
            4 * net_.model().ss_bytes_per_shuffle_cell);
}

TEST_F(ObliviousFixture, SortSingleKey) {
  Relation rel{Schema::Of({"k", "v"})};
  Rng data_rng(7);
  for (int64_t i = 0; i < 50; ++i) {
    rel.AppendRow({data_rng.NextInRange(-20, 20), i});
  }
  SharedRelation shared = ShareRelation(rel, rng_);
  const int keys[] = {0};
  Relation sorted = ReconstructRelation(ObliviousSort(engine_, shared, keys));
  EXPECT_TRUE(ops::IsSortedBy(sorted, keys));
  EXPECT_TRUE(UnorderedEqual(sorted, rel));
}

TEST_F(ObliviousFixture, SortDescending) {
  SharedRelation shared = ShareSingleColumn({3, 1, 4, 1, 5}, rng_);
  const int keys[] = {0};
  Relation sorted = ReconstructRelation(
      ObliviousSort(engine_, shared, keys, /*ascending=*/false));
  EXPECT_EQ(Column(sorted, 0), (std::vector<int64_t>{5, 4, 3, 1, 1}));
}

TEST_F(ObliviousFixture, SortMultiKeyLexicographic) {
  Relation rel{Schema::Of({"a", "b"})};
  Rng data_rng(8);
  for (int64_t i = 0; i < 40; ++i) {
    rel.AppendRow({data_rng.NextInRange(0, 3), data_rng.NextInRange(0, 5)});
  }
  SharedRelation shared = ShareRelation(rel, rng_);
  const int keys[] = {0, 1};
  Relation sorted = ReconstructRelation(ObliviousSort(engine_, shared, keys));
  EXPECT_TRUE(ops::IsSortedBy(sorted, keys));
  EXPECT_TRUE(UnorderedEqual(sorted, rel));
}

TEST_F(ObliviousFixture, SortCostMatchesComparisonCount) {
  SharedRelation shared = ShareSingleColumn({4, 2, 9, 1, 7, 3, 8, 5}, rng_);
  const int keys[] = {0};
  ObliviousSort(engine_, shared, keys);
  uint64_t expected = 0;
  for (const auto& layer : Expand(BatcherSortNetwork(8))) {
    expected += layer.size();
  }
  EXPECT_EQ(net_.counters().mpc_comparisons, expected);
}

TEST_F(ObliviousFixture, MergePowerOfTwoRuns) {
  Relation a{Schema::Of({"k"})};
  Relation b{Schema::Of({"k"})};
  for (int64_t v : {1, 3, 5, 9}) {
    a.AppendRow({v});
  }
  for (int64_t v : {2, 4, 8}) {
    b.AppendRow({v});
  }
  const int keys[] = {0};
  Relation merged = ReconstructRelation(
      ObliviousMerge(engine_, ShareRelation(a, rng_), ShareRelation(b, rng_), keys));
  EXPECT_EQ(Column(merged, 0), (std::vector<int64_t>{1, 2, 3, 4, 5, 8, 9}));
}

TEST_F(ObliviousFixture, MergeFallbackForOddShapes) {
  Relation a{Schema::Of({"k"})};
  Relation b{Schema::Of({"k"})};
  for (int64_t v : {1, 4, 6}) {  // 3 rows: not a power of two -> full-sort fallback.
    a.AppendRow({v});
  }
  for (int64_t v : {2, 3}) {
    b.AppendRow({v});
  }
  const int keys[] = {0};
  Relation merged = ReconstructRelation(
      ObliviousMerge(engine_, ShareRelation(a, rng_), ShareRelation(b, rng_), keys));
  EXPECT_EQ(Column(merged, 0), (std::vector<int64_t>{1, 2, 3, 4, 6}));
}

// The full-sort fallback triggers whenever the left run is not a power of two or the
// right run is longer (or empty); the merged output must still be exactly sorted.
TEST_F(ObliviousFixture, MergeFallbackAdversarialShapes) {
  const std::pair<int64_t, int64_t> shapes[] = {
      {3, 2}, {5, 5}, {6, 7}, {4, 9}, {0, 4}, {7, 0}, {12, 20}};
  Rng data_rng(31);
  for (const auto& [left_rows, right_rows] : shapes) {
    Relation a{Schema::Of({"k"})};
    Relation b{Schema::Of({"k"})};
    for (int64_t i = 0; i < left_rows; ++i) {
      a.AppendRow({data_rng.NextInRange(-30, 30)});
    }
    for (int64_t i = 0; i < right_rows; ++i) {
      b.AppendRow({data_rng.NextInRange(-30, 30)});
    }
    const int keys[] = {0};
    Relation a_sorted = ops::SortBy(a, keys);
    Relation b_sorted = ops::SortBy(b, keys);
    Relation merged = ReconstructRelation(ObliviousMerge(
        engine_, ShareRelation(a_sorted, rng_), ShareRelation(b_sorted, rng_), keys));
    std::vector<int64_t> expected = Column(a, 0);
    const std::vector<int64_t> more = Column(b, 0);
    expected.insert(expected.end(), more.begin(), more.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(Column(merged, 0), expected)
        << "shape (" << left_rows << ", " << right_rows << ")";
  }
}

// Power-of-two left runs with a right run up to the same length use the cheap merge
// network; sweep the boundary shapes around it.
TEST_F(ObliviousFixture, MergeNetworkBoundaryShapes) {
  const std::pair<int64_t, int64_t> shapes[] = {
      {4, 1}, {4, 4}, {8, 7}, {8, 8}, {16, 3}, {16, 16}, {32, 31}};
  Rng data_rng(32);
  for (const auto& [left_rows, right_rows] : shapes) {
    Relation a{Schema::Of({"k"})};
    Relation b{Schema::Of({"k"})};
    for (int64_t i = 0; i < left_rows; ++i) {
      a.AppendRow({data_rng.NextInRange(0, 40)});
    }
    for (int64_t i = 0; i < right_rows; ++i) {
      b.AppendRow({data_rng.NextInRange(0, 40)});
    }
    const int keys[] = {0};
    Relation a_sorted = ops::SortBy(a, keys);
    Relation b_sorted = ops::SortBy(b, keys);
    Relation merged = ReconstructRelation(ObliviousMerge(
        engine_, ShareRelation(a_sorted, rng_), ShareRelation(b_sorted, rng_), keys));
    std::vector<int64_t> expected = Column(a, 0);
    const std::vector<int64_t> more = Column(b, 0);
    expected.insert(expected.end(), more.begin(), more.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(Column(merged, 0), expected)
        << "shape (" << left_rows << ", " << right_rows << ")";
  }
}

// End-to-end oblivious sort on adversarial non-power-of-two sizes (the MPC layers,
// not just the cleartext network validation above).
TEST_F(ObliviousFixture, SortAdversarialSizes) {
  for (int64_t n : {1, 2, 3, 5, 9, 17, 33, 65, 127, 129}) {
    Relation rel{Schema::Of({"k", "v"})};
    Rng data_rng(static_cast<uint64_t>(n) + 100);
    for (int64_t i = 0; i < n; ++i) {
      rel.AppendRow({data_rng.NextInRange(-50, 50), i});
    }
    SharedRelation shared = ShareRelation(rel, rng_);
    const int keys[] = {0};
    Relation sorted = ReconstructRelation(ObliviousSort(engine_, shared, keys));
    EXPECT_TRUE(ops::IsSortedBy(sorted, keys)) << "n = " << n;
    EXPECT_TRUE(UnorderedEqual(sorted, rel)) << "n = " << n;
  }
}

TEST_F(ObliviousFixture, MergeCheaperThanSort) {
  Relation a{Schema::Of({"k"})};
  Relation b{Schema::Of({"k"})};
  Rng data_rng(9);
  for (int64_t i = 0; i < 64; ++i) {
    a.AppendRow({data_rng.NextInRange(0, 100)});
    b.AppendRow({data_rng.NextInRange(0, 100)});
  }
  const int keys[] = {0};
  Relation a_sorted = ops::SortBy(a, keys);
  Relation b_sorted = ops::SortBy(b, keys);

  SimNetwork merge_net{CostModel{}};
  SecretShareEngine merge_engine(&merge_net, 10);
  Rng share_rng(11);
  ObliviousMerge(merge_engine, ShareRelation(a_sorted, share_rng),
                 ShareRelation(b_sorted, share_rng), keys);

  SimNetwork sort_net{CostModel{}};
  SecretShareEngine sort_engine(&sort_net, 10);
  SharedRelation both = ShareRelation(
      ops::Concat(std::vector<Relation>{a_sorted, b_sorted}), share_rng);
  ObliviousSort(sort_engine, both, keys);

  EXPECT_LT(merge_net.counters().mpc_comparisons,
            sort_net.counters().mpc_comparisons / 2);
}

TEST_F(ObliviousFixture, SelectGathersRowsAtSecretIndices) {
  Relation rel{Schema::Of({"a", "b"})};
  for (int64_t i = 0; i < 10; ++i) {
    rel.AppendRow({i, 100 + i});
  }
  SharedRelation shared = ShareRelation(rel, rng_);
  SharedColumn indices = engine_.Share({7, 0, 7, 3});
  Relation selected = ReconstructRelation(ObliviousSelect(engine_, shared, indices));
  Relation expected{Schema::Of({"a", "b"})};
  expected.AppendRow({7, 107});
  expected.AppendRow({0, 100});
  expected.AppendRow({7, 107});
  expected.AppendRow({3, 103});
  EXPECT_TRUE(selected.RowsEqual(expected));
}

TEST_F(ObliviousFixture, SelectOutputRerandomized) {
  SharedRelation rel = ShareSingleColumn({11, 22}, rng_);
  SharedColumn indices = engine_.Share({1, 1});
  SharedRelation out = ObliviousSelect(engine_, rel, indices);
  // Selecting the same row twice must not produce identical shares.
  EXPECT_NE(out.Column(0).shares[0][0], out.Column(0).shares[0][1]);
}

TEST_F(ObliviousFixture, SelectChargesLogLinearCost) {
  SharedRelation rel = ShareSingleColumn(std::vector<int64_t>(64, 1), rng_);
  SharedColumn indices = engine_.Share(std::vector<int64_t>(64, 0));
  const double before = net_.ElapsedSeconds();
  ObliviousSelect(engine_, rel, indices);
  // (n + m) log2(n + m) = 128 * 7 select-ops.
  EXPECT_NEAR(net_.ElapsedSeconds() - before,
              128 * 7 * net_.model().ss_select_op_seconds +
                  7 * net_.model().latency_seconds,
              1e-6);
}

TEST_F(ObliviousFixture, ApplyPublicOrderReordersRows) {
  SharedRelation rel = ShareSingleColumn({10, 20, 30}, rng_);
  const std::vector<int64_t> order{2, 0, 1};
  Relation out = ReconstructRelation(ApplyPublicOrder(rel, order));
  EXPECT_EQ(Column(out, 0), (std::vector<int64_t>{30, 10, 20}));
}

// ceil(log2(n + m)), floored at 1, for every n and m: planner estimates reach
// 2^62 rows a side, where n + m no longer fits a signed 64-bit integer.
TEST(ObliviousSelectRoundsTest, DefinedForEverySize) {
  EXPECT_EQ(ObliviousSelectRounds(0, 0), 1u);
  EXPECT_EQ(ObliviousSelectRounds(1, 1), 1u);
  EXPECT_EQ(ObliviousSelectRounds(2, 1), 2u);
  EXPECT_EQ(ObliviousSelectRounds(5, 3), 3u);
  EXPECT_EQ(ObliviousSelectRounds(uint64_t{1} << 62, uint64_t{1} << 62), 63u);
  EXPECT_EQ(ObliviousSelectRounds(UINT64_MAX, 1), 64u);
}

}  // namespace
}  // namespace conclave
