// Tests for the hybrid MPC-cleartext protocols (§5.3): correctness against the
// cleartext reference, cost advantages over pure MPC, and leakage accounting (what
// exactly the STP receives).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "conclave/hybrid/hybrid_agg.h"
#include "conclave/hybrid/hybrid_join.h"
#include "conclave/hybrid/hybrid_window.h"
#include "conclave/hybrid/public_join.h"
#include "test_util.h"

namespace conclave {
namespace {

constexpr PartyId kStp = 0;
constexpr int kParties = 3;

Relation RandomKeyed(const std::string& key, const std::string& value, int64_t rows,
                     int64_t key_range, uint64_t seed) {
  Relation rel{Schema::Of({key, value})};
  Rng rng(seed);
  for (int64_t i = 0; i < rows; ++i) {
    rel.AppendRow({rng.NextInRange(0, key_range - 1), rng.NextInRange(0, 999)});
  }
  return rel;
}

class HybridTest : public ::testing::Test {
 protected:
  HybridTest() : net_(CostModel{}), engine_(&net_, 2024), rng_(4048) {}
  SimNetwork net_;
  SecretShareEngine engine_;
  Rng rng_;
};

TEST_F(HybridTest, HybridJoinMatchesCleartext) {
  Relation left = RandomKeyed("k", "x", 40, 15, 1);
  Relation right = RandomKeyed("k", "y", 35, 15, 2);
  const int keys[] = {0};
  const auto secure =
      hybrid::HybridJoin(engine_, ShareRelation(left, rng_),
                         ShareRelation(right, rng_), keys, keys, kStp, kParties);
  ASSERT_TRUE(secure.ok());
  EXPECT_TRUE(UnorderedEqual(ReconstructRelation(*secure),
                             ops::Join(left, right, keys, keys)));
}

TEST_F(HybridTest, HybridJoinEmptyIntersection) {
  Relation left{Schema::Of({"k", "x"})};
  left.AppendRow({1, 5});
  Relation right{Schema::Of({"k", "y"})};
  right.AppendRow({9, 6});
  const int keys[] = {0};
  const auto secure =
      hybrid::HybridJoin(engine_, ShareRelation(left, rng_),
                         ShareRelation(right, rng_), keys, keys, kStp, kParties);
  ASSERT_TRUE(secure.ok());
  EXPECT_EQ(secure->NumRows(), 0);
}

TEST_F(HybridTest, HybridJoinDuplicateKeys) {
  Relation left{Schema::Of({"k", "x"})};
  left.AppendRow({3, 1});
  left.AppendRow({3, 2});
  Relation right{Schema::Of({"k", "y"})};
  right.AppendRow({3, 7});
  right.AppendRow({3, 8});
  const int keys[] = {0};
  const auto secure =
      hybrid::HybridJoin(engine_, ShareRelation(left, rng_),
                         ShareRelation(right, rng_), keys, keys, kStp, kParties);
  ASSERT_TRUE(secure.ok());
  EXPECT_EQ(secure->NumRows(), 4);
  EXPECT_TRUE(UnorderedEqual(ReconstructRelation(*secure),
                             ops::Join(left, right, keys, keys)));
}

TEST_F(HybridTest, HybridJoinStpReceivesOnlyKeyColumnsPlusIndexes) {
  Relation left = RandomKeyed("k", "x", 20, 10, 3);
  Relation right = RandomKeyed("k", "y", 30, 10, 4);
  const int keys[] = {0};
  const auto secure =
      hybrid::HybridJoin(engine_, ShareRelation(left, rng_),
                         ShareRelation(right, rng_), keys, keys, kStp, kParties);
  ASSERT_TRUE(secure.ok());
  // The STP gets: its shares of two key-column-only relations, from each other party.
  // 8 bytes per cell per sending party; anything more would leak non-key columns.
  const uint64_t key_cells = 20 + 30;
  EXPECT_EQ(net_.BytesReceivedBy(kStp), key_cells * 8 * (kParties - 1));
}

TEST_F(HybridTest, HybridJoinCheaperThanMpcJoin) {
  // The crossover sits near n ~ 500 under the calibrated cost model (below that the
  // per-element oblivious-select constant dominates), matching Fig. 5a's shape.
  Relation left = RandomKeyed("k", "x", 2000, 8000, 5);
  Relation right = RandomKeyed("k", "y", 2000, 8000, 6);
  const int keys[] = {0};

  SimNetwork hybrid_net{CostModel{}};
  SecretShareEngine hybrid_engine(&hybrid_net, 7);
  Rng rng1(8);
  ASSERT_TRUE(hybrid::HybridJoin(hybrid_engine, ShareRelation(left, rng1),
                                 ShareRelation(right, rng1), keys, keys, kStp,
                                 kParties)
                  .ok());

  SimNetwork mpc_net{CostModel{}};
  SecretShareEngine mpc_engine(&mpc_net, 7);
  Rng rng2(8);
  ASSERT_TRUE(mpc::Join(mpc_engine, ShareRelation(left, rng2),
                        ShareRelation(right, rng2), keys, keys)
                  .ok());

  // O((n+m) log(n+m)) select ops vs O(n*m) equality tests: the asymptotic win of §5.3.
  EXPECT_LT(hybrid_net.ElapsedSeconds(), mpc_net.ElapsedSeconds());
}

TEST_F(HybridTest, PublicJoinSharedMatchesCleartextAndIsSorted) {
  Relation left = RandomKeyed("k", "x", 50, 12, 9);
  Relation right = RandomKeyed("k", "y", 45, 12, 10);
  const int keys[] = {0};
  const auto secure =
      hybrid::PublicJoinShared(engine_, ShareRelation(left, rng_),
                               ShareRelation(right, rng_), keys, keys, 1, kParties);
  ASSERT_TRUE(secure.ok());
  Relation result = ReconstructRelation(*secure);
  EXPECT_TRUE(UnorderedEqual(result, ops::Join(left, right, keys, keys)));
  EXPECT_TRUE(ops::IsSortedBy(result, keys));  // Joiner sorts by key in the clear.
}

TEST_F(HybridTest, PublicJoinAvoidsMpcPrimitives) {
  Relation left = RandomKeyed("k", "x", 40, 8, 11);
  Relation right = RandomKeyed("k", "y", 40, 8, 12);
  const int keys[] = {0};
  const auto secure =
      hybrid::PublicJoinShared(engine_, ShareRelation(left, rng_),
                               ShareRelation(right, rng_), keys, keys, 1, kParties);
  ASSERT_TRUE(secure.ok());
  EXPECT_EQ(net_.counters().mpc_comparisons, 0u);
  EXPECT_EQ(net_.counters().mpc_multiplications, 0u);
}

class HybridAggTest : public ::testing::TestWithParam<AggKind> {};

TEST_P(HybridAggTest, MatchesCleartextAggregation) {
  SimNetwork net{CostModel{}};
  SecretShareEngine engine(&net, 99);
  Rng rng(100);
  Relation rel = RandomKeyed("g", "v", 60, 7, 15);
  const int group[] = {0};
  const auto secure =
      hybrid::HybridAggregate(engine, ShareRelation(rel, rng), group, GetParam(), 1,
                              "out", kStp, kParties);
  ASSERT_TRUE(secure.ok());
  EXPECT_TRUE(UnorderedEqual(ReconstructRelation(*secure),
                             ops::Aggregate(rel, group, GetParam(), 1, "out")));
}

INSTANTIATE_TEST_SUITE_P(Kinds, HybridAggTest,
                         ::testing::Values(AggKind::kSum, AggKind::kCount,
                                           AggKind::kMin, AggKind::kMax,
                                           AggKind::kMean));

TEST_F(HybridTest, HybridAggregateAvoidsObliviousComparisonsForSum) {
  Relation rel = RandomKeyed("g", "v", 80, 9, 16);
  const int group[] = {0};
  const auto secure = hybrid::HybridAggregate(
      engine_, ShareRelation(rel, rng_), group, AggKind::kSum, 1, "s", kStp, kParties);
  ASSERT_TRUE(secure.ok());
  // §5.3: "the hybrid aggregation also avoids oblivious comparison and equality
  // operations" — the STP computes the flags in the clear.
  EXPECT_EQ(net_.counters().mpc_comparisons, 0u);
}

TEST_F(HybridTest, HybridAggregateCheaperThanMpcAggregate) {
  Relation rel = RandomKeyed("g", "v", 128, 10, 17);
  const int group[] = {0};

  SimNetwork hybrid_net{CostModel{}};
  SecretShareEngine hybrid_engine(&hybrid_net, 18);
  Rng rng1(19);
  ASSERT_TRUE(hybrid::HybridAggregate(hybrid_engine, ShareRelation(rel, rng1), group,
                                      AggKind::kSum, 1, "s", kStp, kParties)
                  .ok());

  SimNetwork mpc_net{CostModel{}};
  SecretShareEngine mpc_engine(&mpc_net, 18);
  Rng rng2(19);
  ASSERT_TRUE(mpc::Aggregate(mpc_engine, ShareRelation(rel, rng2), group,
                             AggKind::kSum, 1, "s")
                  .ok());

  EXPECT_LT(hybrid_net.ElapsedSeconds(), mpc_net.ElapsedSeconds() / 5);
}

TEST_F(HybridTest, HybridAggregateMultiKeyGroups) {
  Relation rel{Schema::Of({"g1", "g2", "v"})};
  Rng data_rng(20);
  for (int64_t i = 0; i < 50; ++i) {
    rel.AppendRow({data_rng.NextInRange(0, 2), data_rng.NextInRange(0, 3),
                   data_rng.NextInRange(0, 99)});
  }
  const int group[] = {0, 1};
  const auto secure = hybrid::HybridAggregate(
      engine_, ShareRelation(rel, rng_), group, AggKind::kSum, 2, "s", kStp, kParties);
  ASSERT_TRUE(secure.ok());
  EXPECT_TRUE(UnorderedEqual(ReconstructRelation(*secure),
                             ops::Aggregate(rel, group, AggKind::kSum, 2, "s")));
}

TEST_F(HybridTest, HybridJoinOomPropagates) {
  CostModel model;
  model.ss_memory_limit_bytes = 1000;  // Toy VM.
  SimNetwork net(model);
  SecretShareEngine engine(&net, 21);
  Relation left = RandomKeyed("k", "x", 50, 10, 22);
  Relation right = RandomKeyed("k", "y", 50, 10, 23);
  const int keys[] = {0};
  Rng rng(24);
  const auto result =
      hybrid::HybridJoin(engine, ShareRelation(left, rng), ShareRelation(right, rng),
                         keys, keys, kStp, kParties);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

class HybridSweepTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(HybridSweepTest, JoinAndAggAgreeAcrossSizes) {
  const int64_t n = GetParam();
  SimNetwork net{CostModel{}};
  SecretShareEngine engine(&net, static_cast<uint64_t>(n));
  Rng rng(static_cast<uint64_t>(n) + 1);
  Relation left = RandomKeyed("k", "x", n, std::max<int64_t>(2, n / 3), 30);
  Relation right = RandomKeyed("k", "y", n, std::max<int64_t>(2, n / 3), 31);
  const int keys[] = {0};
  const auto joined =
      hybrid::HybridJoin(engine, ShareRelation(left, rng), ShareRelation(right, rng),
                         keys, keys, kStp, kParties);
  ASSERT_TRUE(joined.ok());
  EXPECT_TRUE(UnorderedEqual(ReconstructRelation(*joined),
                             ops::Join(left, right, keys, keys)));

  const auto agg = hybrid::HybridAggregate(engine, ShareRelation(left, rng), keys,
                                           AggKind::kSum, 1, "s", kStp, kParties);
  ASSERT_TRUE(agg.ok());
  EXPECT_TRUE(UnorderedEqual(ReconstructRelation(*agg),
                             ops::Aggregate(left, keys, AggKind::kSum, 1, "s")));
}

INSTANTIATE_TEST_SUITE_P(Sizes, HybridSweepTest,
                         ::testing::Values(1, 2, 3, 8, 17, 64, 200));

// --- Hybrid window (STP-assisted sort, extension in the style of §5.3) -------------

Relation UniqueOrderedEvents(int64_t rows, int64_t partitions, uint64_t seed) {
  Relation rel{Schema::Of({"pid", "t", "v"})};
  Rng rng(seed);
  std::vector<int64_t> next_time(static_cast<size_t>(partitions), 0);
  for (int64_t i = 0; i < rows; ++i) {
    const int64_t p = rng.NextInRange(0, partitions - 1);
    next_time[static_cast<size_t>(p)] += 1 + rng.NextInRange(0, 9);
    rel.AppendRow({p, next_time[static_cast<size_t>(p)], rng.NextInRange(0, 99)});
  }
  return rel;
}

TEST_F(HybridTest, HybridWindowLagMatchesCleartext) {
  Relation rel = UniqueOrderedEvents(80, 12, 3);
  const int partition[] = {0};
  const auto secure =
      hybrid::HybridWindow(engine_, ShareRelation(rel, rng_), partition, 1,
                           WindowFn::kLag, 1, "prev_t", kStp, kParties);
  ASSERT_TRUE(secure.ok());
  WindowSpec spec;
  spec.partition_columns = {0};
  spec.order_column = 1;
  spec.fn = WindowFn::kLag;
  spec.value_column = 1;
  spec.output_name = "prev_t";
  EXPECT_TRUE(ReconstructRelation(*secure).RowsEqual(ops::Window(rel, spec)));
}

TEST_F(HybridTest, HybridWindowRowNumberAndRunningSumMatch) {
  Relation rel = UniqueOrderedEvents(60, 7, 8);
  const int partition[] = {0};
  for (const WindowFn fn : {WindowFn::kRowNumber, WindowFn::kRunningSum}) {
    const auto secure = hybrid::HybridWindow(engine_, ShareRelation(rel, rng_),
                                             partition, 1, fn, 2, "w", kStp, kParties);
    ASSERT_TRUE(secure.ok()) << WindowFnName(fn);
    WindowSpec spec;
    spec.partition_columns = {0};
    spec.order_column = 1;
    spec.fn = fn;
    spec.value_column = 2;
    spec.output_name = "w";
    EXPECT_TRUE(ReconstructRelation(*secure).RowsEqual(ops::Window(rel, spec)))
        << WindowFnName(fn);
  }
}

TEST_F(HybridTest, HybridWindowEmptyInput) {
  Relation rel{Schema::Of({"pid", "t", "v"})};
  const int partition[] = {0};
  const auto secure =
      hybrid::HybridWindow(engine_, ShareRelation(rel, rng_), partition, 1,
                           WindowFn::kRunningSum, 2, "rs", kStp, kParties);
  ASSERT_TRUE(secure.ok());
  EXPECT_EQ(secure->NumRows(), 0);
  EXPECT_EQ(secure->NumColumns(), 4);
}

TEST_F(HybridTest, HybridWindowAvoidsObliviousComparisons) {
  // The point of the hybrid variant: the STP's cleartext sort replaces the oblivious
  // sort, so no MPC comparisons are spent at all (only shuffle/scan multiplications).
  Relation rel = UniqueOrderedEvents(128, 10, 13);
  const int partition[] = {0};

  const uint64_t cmp_before = net_.counters().mpc_comparisons;
  const auto hybrid_run =
      hybrid::HybridWindow(engine_, ShareRelation(rel, rng_), partition, 1,
                           WindowFn::kRowNumber, 2, "rn", kStp, kParties);
  ASSERT_TRUE(hybrid_run.ok());
  const uint64_t hybrid_cmps = net_.counters().mpc_comparisons - cmp_before;

  const uint64_t cmp_mid = net_.counters().mpc_comparisons;
  const auto mpc_run = mpc::Window(engine_, ShareRelation(rel, rng_), partition, 1,
                                   WindowFn::kRowNumber, 2, "rn");
  ASSERT_TRUE(mpc_run.ok());
  const uint64_t mpc_cmps = net_.counters().mpc_comparisons - cmp_mid;

  EXPECT_EQ(hybrid_cmps, 0u);
  EXPECT_GT(mpc_cmps, 0u);
}

TEST_F(HybridTest, HybridWindowStpSeesOnlyKeyColumns) {
  // The STP receives the shuffled (partition, order) columns and nothing else: the
  // bytes flowing to the STP are bounded by 2 columns x 8 bytes x rows (plus index
  // relations it sends back, which leave, not enter).
  const int64_t rows = 100;
  Relation rel = UniqueOrderedEvents(rows, 9, 21);
  SimNetwork net{CostModel{}};
  SecretShareEngine engine(&net, 77);
  const int partition[] = {0};
  const auto before = net.BytesReceivedBy(kStp);
  const auto secure =
      hybrid::HybridWindow(engine, ShareRelation(rel, rng_), partition, 1,
                           WindowFn::kLag, 1, "prev", kStp, kParties);
  ASSERT_TRUE(secure.ok());
  const uint64_t key_bytes = static_cast<uint64_t>(rows) * 2 * 8;
  // Two regular parties each send the key columns; allow protocol-internal share
  // traffic (shuffles, scan multiplications) on top, but the cleartext reveal itself
  // is exactly the key columns.
  EXPECT_GE(net.BytesReceivedBy(kStp) - before, (kParties - 1) * key_bytes);
}

// --- Each hybrid protocol's charge composite reproduces its run exactly -------------

// `rows` rows: `keys` key columns with few distinct values, then two value columns.
Relation HybridKeyed(int64_t rows, int keys, uint64_t seed) {
  std::vector<ColumnDef> defs;
  for (int k = 0; k < keys; ++k) {
    defs.emplace_back("k" + std::to_string(k));
  }
  defs.emplace_back("v0");
  defs.emplace_back("v1");
  Relation rel{Schema(std::move(defs))};
  Rng rng(seed);
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<int64_t> row;
    for (int c = 0; c < rel.NumColumns(); ++c) {
      row.push_back(rng.NextInRange(0, c < keys ? 3 : 999));
    }
    rel.AppendRow(row);
  }
  return rel;
}

std::vector<int> Leading(int count) {
  std::vector<int> columns;
  for (int c = 0; c < count; ++c) {
    columns.push_back(c);
  }
  return columns;
}

// Runs a protocol on an engine over a fresh network and its composite on another,
// under the default model and under a VM of ten cells; asserts the same status code
// and bit-identical charges.
template <typename Run, typename Price>
void ExpectHybridCompositeMatches(Run run, Price price, const std::string& what) {
  CostModel tiny;
  tiny.ss_memory_limit_bytes = 10 * tiny.ss_bytes_per_resident_cell;
  for (const CostModel& model : {CostModel{}, tiny}) {
    SimNetwork run_net(model);
    SecretShareEngine engine(&run_net, 91);
    const Status ran = run(engine);
    SimNetwork priced_net(model);
    const Status priced = price(priced_net);
    ASSERT_EQ(ran.code(), priced.code())
        << what << ": " << ran.ToString() << " vs " << priced.ToString();
    test::ExpectSameCharges(run_net, priced_net, what);
  }
}

// 2-5 parties, with the STP (or the public joiner) as the first party and as the
// last.
std::vector<std::pair<int, PartyId>> PartyShapes() {
  std::vector<std::pair<int, PartyId>> shapes;
  for (int parties = 2; parties <= 5; ++parties) {
    shapes.emplace_back(parties, 0);
    shapes.emplace_back(parties, parties - 1);
  }
  return shapes;
}

TEST(HybridChargeCompositeTest, JoinsMatchAtEveryPartyCount) {
  Rng rng(11);
  for (const auto& [parties, stp] : PartyShapes()) {
    for (int64_t n : {0, 1, 2, 3, 17, 1000}) {
      for (int keys = 1; keys <= 2; ++keys) {
        const Relation left = HybridKeyed(n, keys, 100 + n);
        const Relation right = HybridKeyed(n == 1000 ? 60 : n + 1, keys, 200 + n);
        const std::vector<int> key_columns = Leading(keys);
        const uint64_t out = static_cast<uint64_t>(
            ops::Join(left, right, key_columns, key_columns).NumRows());
        const SharedRelation l = ShareRelation(left, rng);
        const SharedRelation r = ShareRelation(right, rng);
        const uint64_t m = static_cast<uint64_t>(right.NumRows());
        const std::string shape = " n=" + std::to_string(n) +
                                  " keys=" + std::to_string(keys) +
                                  " parties=" + std::to_string(parties) +
                                  " stp=" + std::to_string(stp);
        ExpectHybridCompositeMatches(
            [&](SecretShareEngine& e) {
              return hybrid::HybridJoin(e, l, r, key_columns, key_columns, stp, parties)
                  .status();
            },
            [&](SimNetwork& net) {
              return hybrid::HybridJoinCharges(net, n, m, keys + 2, keys + 2, keys, out,
                                               stp, parties);
            },
            "hybrid join" + shape);
        ExpectHybridCompositeMatches(
            [&](SecretShareEngine& e) {
              return hybrid::PublicJoinShared(e, l, r, key_columns, key_columns, stp,
                                              parties)
                  .status();
            },
            [&](SimNetwork& net) {
              return hybrid::PublicJoinCharges(net, n, m, keys + 2, keys + 2, keys, out,
                                               stp, parties);
            },
            "public join" + shape);
      }
    }
  }
}

TEST(HybridChargeCompositeTest, AggregateAndWindowMatchAtEveryPartyCount) {
  Rng rng(12);
  for (const auto& [parties, stp] : PartyShapes()) {
    for (int64_t n : {0, 1, 2, 3, 17, 1000}) {
      for (int keys = 1; keys <= 2; ++keys) {
        const SharedRelation shared = ShareRelation(HybridKeyed(n, keys, 300 + n), rng);
        const std::vector<int> key_columns = Leading(keys);
        const std::string shape = " n=" + std::to_string(n) +
                                  " keys=" + std::to_string(keys) +
                                  " parties=" + std::to_string(parties) +
                                  " stp=" + std::to_string(stp);
        for (AggKind kind : {AggKind::kSum, AggKind::kCount, AggKind::kMin,
                             AggKind::kMax, AggKind::kMean}) {
          ExpectHybridCompositeMatches(
              [&](SecretShareEngine& e) {
                return hybrid::HybridAggregate(e, shared, key_columns, kind, keys, "out",
                                               stp, parties)
                    .status();
              },
              [&](SimNetwork& net) {
                return hybrid::HybridAggregateCharges(net, n, keys + 2, keys, kind, stp,
                                                      parties);
              },
              "hybrid aggregate" + shape +
                  " kind=" + std::to_string(static_cast<int>(kind)));
        }
        // Partition by the keys, order by v0, over v1.
        for (WindowFn fn :
             {WindowFn::kRowNumber, WindowFn::kLag, WindowFn::kRunningSum}) {
          ExpectHybridCompositeMatches(
              [&](SecretShareEngine& e) {
                return hybrid::HybridWindow(e, shared, key_columns, keys, fn, keys + 1,
                                            "w", stp, parties)
                    .status();
              },
              [&](SimNetwork& net) {
                return hybrid::HybridWindowCharges(net, n, keys + 2, keys, fn, stp,
                                                   parties);
              },
              "hybrid window" + shape + " fn=" + std::to_string(static_cast<int>(fn)));
        }
      }
    }
  }
}

}  // namespace
}  // namespace conclave
