// Shard-kernel unit tests: every shard-aware kernel (including the exchange step
// and the sharded CSV ingest) against its unsharded reference, with the edge cases
// the differential fuzzer is too coarse to pin individually — 0-row and 1-row
// relations, shard_count > row count (empty shards), all rows hashing to one
// shard, and non-power-of-two shard counts.
#include <gtest/gtest.h>

#include "conclave/api/conclave.h"
#include "conclave/common/rng.h"
#include "conclave/compiler/partition.h"
#include "conclave/relational/csv.h"
#include "conclave/relational/expr.h"
#include "conclave/relational/ops.h"
#include "conclave/relational/shard_ops.h"
#include "conclave/relational/sharded.h"

namespace conclave {
namespace {

// The shard-count sweep every case runs: 1 (degenerate), non-powers-of-two (3, 5),
// powers of two (2, 8), and more shards than most test relations have rows.
const int kShardCounts[] = {1, 2, 3, 5, 8};

Relation MakeRelation(std::initializer_list<std::string> names,
                      std::initializer_list<std::initializer_list<int64_t>> rows) {
  Relation rel{Schema::Of(names)};
  for (const auto& row : rows) {
    rel.AppendRow(row);
  }
  return rel;
}

// Random relation with a duplicate-heavy key column (values in a small domain).
Relation RandomRelation(int64_t rows, int cols, uint64_t seed, int64_t key_range) {
  std::vector<ColumnDef> defs;
  for (int c = 0; c < cols; ++c) {
    defs.emplace_back("c" + std::to_string(c));
  }
  Relation rel{Schema(std::move(defs))};
  rel.Resize(rows);
  Rng rng(seed);
  for (int c = 0; c < cols; ++c) {
    int64_t* const data = rel.ColumnData(c);
    const int64_t range = c == 0 ? key_range : 1000;
    for (int64_t r = 0; r < rows; ++r) {
      data[r] = static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(range)));
    }
  }
  return rel;
}

// The canonical shapes: empty, single row, fewer rows than most shard counts, and
// a duplicate-heavy larger relation.
std::vector<Relation> EdgeShapes(uint64_t seed) {
  std::vector<Relation> shapes;
  shapes.push_back(RandomRelation(0, 3, seed, 4));
  shapes.push_back(RandomRelation(1, 3, seed + 1, 4));
  shapes.push_back(RandomRelation(5, 3, seed + 2, 2));
  shapes.push_back(RandomRelation(97, 3, seed + 3, 7));
  // All rows share one key value: every row hashes to the same shard.
  Relation constant = RandomRelation(23, 3, seed + 4, 1000);
  for (int64_t r = 0; r < constant.NumRows(); ++r) {
    constant.Set(r, 0, 42);
  }
  shapes.push_back(std::move(constant));
  return shapes;
}

TEST(ShardedRelationTest, SplitEvenCoalesceRoundTrips) {
  for (const Relation& rel : EdgeShapes(/*seed=*/11)) {
    for (int shards : kShardCounts) {
      const ShardedRelation sharded = ShardedRelation::SplitEven(rel, shards);
      EXPECT_EQ(sharded.NumShards(), shards);
      EXPECT_EQ(sharded.NumRows(), rel.NumRows());
      EXPECT_EQ(sharded.ByteSize(), rel.ByteSize());
      EXPECT_TRUE(sharded.Coalesce().RowsEqual(rel))
          << "rows=" << rel.NumRows() << " shards=" << shards;
    }
  }
}

TEST(ShardedRelationTest, SplitEvenMoreShardsThanRowsLeavesEmptyShards) {
  const Relation rel = RandomRelation(3, 2, /*seed=*/7, 10);
  const ShardedRelation sharded = ShardedRelation::SplitEven(rel, 8);
  EXPECT_EQ(sharded.NumShards(), 8);
  int64_t non_empty = 0;
  for (int s = 0; s < sharded.NumShards(); ++s) {
    non_empty += sharded.Shard(s).NumRows() > 0 ? 1 : 0;
  }
  EXPECT_EQ(non_empty, 3);
  EXPECT_TRUE(sharded.Coalesce().RowsEqual(rel));
}

TEST(ExchangeTest, PartitionsByKeyHashPreservingCanonicalOrder) {
  for (const Relation& rel : EdgeShapes(/*seed=*/23)) {
    for (int buckets : kShardCounts) {
      for (int input_shards : {1, 3}) {
        const ShardedRelation sharded =
            ShardedRelation::SplitEven(rel, input_shards);
        const std::vector<int> keys{0};
        std::vector<std::vector<int64_t>> gids;
        const std::vector<Relation> exchanged =
            ops::ExchangeByHash(sharded.ShardPtrs(), keys, buckets, &gids);
        ASSERT_EQ(exchanged.size(), static_cast<size_t>(buckets));
        int64_t total = 0;
        for (int b = 0; b < buckets; ++b) {
          const Relation& bucket = exchanged[static_cast<size_t>(b)];
          total += bucket.NumRows();
          ASSERT_EQ(gids[static_cast<size_t>(b)].size(),
                    static_cast<size_t>(bucket.NumRows()));
          int64_t previous_gid = -1;
          for (int64_t r = 0; r < bucket.NumRows(); ++r) {
            // Bucket placement matches the exchange hash.
            const int64_t key = bucket.At(r, 0);
            EXPECT_EQ(ops::ShardOfKey({&key, 1}, buckets), b);
            // Rows keep canonical order, and gids point at the source rows.
            const int64_t gid = gids[static_cast<size_t>(b)][static_cast<size_t>(r)];
            EXPECT_GT(gid, previous_gid);
            previous_gid = gid;
            for (int c = 0; c < rel.NumColumns(); ++c) {
              EXPECT_EQ(bucket.At(r, c), rel.At(gid, c));
            }
          }
        }
        EXPECT_EQ(total, rel.NumRows());
      }
    }
  }
}

TEST(ExchangeTest, AllRowsWithOneKeyLandInOneBucket) {
  Relation rel = RandomRelation(17, 2, /*seed=*/5, 1000);
  for (int64_t r = 0; r < rel.NumRows(); ++r) {
    rel.Set(r, 0, 7);
  }
  const ShardedRelation sharded = ShardedRelation::SplitEven(rel, 4);
  const std::vector<int> keys{0};
  const std::vector<Relation> exchanged =
      ops::ExchangeByHash(sharded.ShardPtrs(), keys, 4, nullptr);
  int64_t non_empty = 0;
  for (const Relation& bucket : exchanged) {
    non_empty += bucket.NumRows() > 0 ? 1 : 0;
  }
  EXPECT_EQ(non_empty, 1);
}

// Runs `sharded_fn` at every shard count and requires bit-identical coalesced
// output against `expected`.
template <typename Fn>
void ExpectShardInvariant(const Relation& input, const Relation& expected,
                          Fn sharded_fn, const char* what) {
  for (int shards : kShardCounts) {
    const ShardedRelation sharded = ShardedRelation::SplitEven(input, shards);
    const ShardedRelation result = sharded_fn(sharded.ShardPtrs(), shards);
    EXPECT_TRUE(result.Coalesce().RowsEqual(expected))
        << what << " diverges at shard_count=" << shards
        << " rows=" << input.NumRows() << "\nexpected\n"
        << expected.ToString() << "\ngot\n"
        << result.Coalesce().ToString();
  }
}

TEST(ShardOpsTest, FilterMatchesUnsharded) {
  for (const Relation& rel : EdgeShapes(/*seed=*/31)) {
    const auto predicate =
        FilterPredicate::ColumnVsLiteral(0, CompareOp::kGe, 2);
    ExpectShardInvariant(
        rel, ops::Filter(rel, predicate),
        [&](std::span<const Relation* const> shards, int) {
          return ops::ShardedFilter(shards, predicate);
        },
        "filter");
  }
}

TEST(ShardOpsTest, ProjectMatchesUnsharded) {
  for (const Relation& rel : EdgeShapes(/*seed=*/37)) {
    const std::vector<int> columns{2, 0};
    ExpectShardInvariant(
        rel, ops::Project(rel, columns),
        [&](std::span<const Relation* const> shards, int) {
          return ops::ShardedProject(shards, columns);
        },
        "project");
  }
}

TEST(ShardOpsTest, ArithmeticMatchesUnsharded) {
  for (const Relation& rel : EdgeShapes(/*seed=*/41)) {
    ArithSpec spec;
    spec.kind = ArithKind::kDiv;
    spec.lhs_column = 1;
    spec.rhs_is_column = true;
    spec.rhs_column = 0;  // Hits division by zero on some rows.
    spec.scale = 100;
    spec.result_name = "q";
    ExpectShardInvariant(
        rel, ops::Arithmetic(rel, spec),
        [&](std::span<const Relation* const> shards, int) {
          return ops::ShardedArithmetic(shards, spec);
        },
        "arithmetic");
  }
}

TEST(ShardOpsTest, LimitMatchesUnsharded) {
  for (const Relation& rel : EdgeShapes(/*seed=*/43)) {
    for (int64_t count : {int64_t{0}, int64_t{1}, int64_t{4}, int64_t{1000}}) {
      ExpectShardInvariant(
          rel, ops::Limit(rel, count),
          [&](std::span<const Relation* const> shards, int) {
            return ops::ShardedLimit(shards, count);
          },
          "limit");
    }
  }
}

TEST(ShardOpsTest, RebalanceMatchesIdentity) {
  for (const Relation& rel : EdgeShapes(/*seed=*/47)) {
    ExpectShardInvariant(
        rel, rel,
        [&](std::span<const Relation* const> shards, int out_shards) {
          return ops::ShardedRebalance(shards, out_shards);
        },
        "rebalance");
  }
}

TEST(ShardOpsTest, SortByMatchesUnshardedStableSort) {
  for (const Relation& rel : EdgeShapes(/*seed=*/53)) {
    const std::vector<int> columns{0};  // Duplicate-heavy: exercises tie stability.
    for (const bool ascending : {true, false}) {
      ExpectShardInvariant(
          rel, ops::SortBy(rel, columns, ascending),
          [&](std::span<const Relation* const> shards, int out_shards) {
            return ops::ShardedSortBy(shards, columns, ascending, out_shards);
          },
          "sort_by");
    }
  }
}

TEST(ShardOpsTest, DistinctMatchesUnsharded) {
  for (const Relation& rel : EdgeShapes(/*seed=*/59)) {
    const std::vector<int> columns{0, 1};
    ExpectShardInvariant(
        rel, ops::Distinct(rel, columns),
        [&](std::span<const Relation* const> shards, int out_shards) {
          return ops::ShardedDistinct(shards, columns, out_shards);
        },
        "distinct");
  }
}

TEST(ShardOpsTest, AggregateMatchesUnshardedForEveryKind) {
  for (const Relation& rel : EdgeShapes(/*seed=*/61)) {
    for (const AggKind kind : {AggKind::kSum, AggKind::kCount, AggKind::kMin,
                               AggKind::kMax, AggKind::kMean}) {
      // Grouped.
      const std::vector<int> group{0};
      ExpectShardInvariant(
          rel, ops::Aggregate(rel, group, kind, 1, "agg"),
          [&](std::span<const Relation* const> shards, int out_shards) {
            return ops::ShardedAggregate(shards, group, kind, 1, "agg",
                                         out_shards);
          },
          "aggregate");
      // Global (empty group list): 0 rows in, 0 rows out; else one row.
      ExpectShardInvariant(
          rel, ops::Aggregate(rel, {}, kind, 1, "agg"),
          [&](std::span<const Relation* const> shards, int out_shards) {
            return ops::ShardedAggregate(shards, {}, kind, 1, "agg", out_shards);
          },
          "global aggregate");
    }
  }
}

TEST(ShardOpsTest, JoinMatchesUnshardedIncludingDuplicateKeys) {
  for (uint64_t seed : {71u, 73u}) {
    const std::vector<Relation> left_shapes = EdgeShapes(seed);
    // Right sides: small key domains force many-to-many matches.
    const Relation right_small = RandomRelation(13, 2, seed + 10, 4);
    const Relation right_empty = RandomRelation(0, 2, seed + 11, 4);
    const Relation right_one = RandomRelation(1, 2, seed + 12, 4);
    for (const Relation& left : left_shapes) {
      for (const Relation* right : {&right_small, &right_empty, &right_one}) {
        const std::vector<int> lk{0};
        const std::vector<int> rk{0};
        const Relation expected = ops::Join(left, *right, lk, rk);
        for (int shards : kShardCounts) {
          const ShardedRelation sl = ShardedRelation::SplitEven(left, shards);
          const ShardedRelation sr = ShardedRelation::SplitEven(*right, shards);
          const ShardedRelation result =
              ops::ShardedJoin(sl.ShardPtrs(), sr.ShardPtrs(), lk, rk, shards);
          EXPECT_TRUE(result.Coalesce().RowsEqual(expected))
              << "join diverges at shard_count=" << shards << " left rows="
              << left.NumRows() << " right rows=" << right->NumRows();
        }
      }
    }
  }
}

TEST(ShardOpsTest, MultiKeyJoinMatchesUnsharded) {
  const Relation left = RandomRelation(50, 3, /*seed=*/83, 3);
  const Relation right = RandomRelation(40, 3, /*seed=*/89, 3);
  const std::vector<int> lk{0, 1};
  const std::vector<int> rk{0, 1};
  const Relation expected = ops::Join(left, right, lk, rk);
  for (int shards : kShardCounts) {
    const ShardedRelation sl = ShardedRelation::SplitEven(left, shards);
    const ShardedRelation sr = ShardedRelation::SplitEven(right, shards);
    const ShardedRelation result =
        ops::ShardedJoin(sl.ShardPtrs(), sr.ShardPtrs(), lk, rk, shards);
    EXPECT_TRUE(result.Coalesce().RowsEqual(expected))
        << "multi-key join diverges at shard_count=" << shards;
  }
}

TEST(ShardedCsvTest, ParseShardedMatchesUnsharded) {
  const std::string text = "a,b\n1,2\n3,4\n\n5,6\n-7,8\n";
  const auto reference = ParseCsv(text);
  ASSERT_TRUE(reference.ok());
  for (int shards : kShardCounts) {
    const auto sharded = ParseCsvSharded(text, shards);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    EXPECT_EQ(sharded->NumShards(), shards);
    EXPECT_TRUE(sharded->Coalesce().RowsEqual(*reference))
        << "shard_count=" << shards;
  }
}

TEST(ShardedCsvTest, HeaderOnlyAndErrorsMatchUnsharded) {
  for (const char* text : {"a,b\n", "a,b"}) {
    const auto sharded = ParseCsvSharded(text, 3);
    ASSERT_TRUE(sharded.ok());
    EXPECT_EQ(sharded->NumRows(), 0);
    EXPECT_EQ(sharded->schema().NumColumns(), 2);
  }
  // Malformed cells fail with the sequential parser's message (earliest line).
  const std::string bad = "a,b\n1,2\n3,x\n5,6\n7,oops\n";
  const auto reference = ParseCsv(bad);
  ASSERT_FALSE(reference.ok());
  for (int shards : kShardCounts) {
    const auto sharded = ParseCsvSharded(bad, shards);
    ASSERT_FALSE(sharded.ok());
    EXPECT_EQ(sharded.status().ToString(), reference.status().ToString())
        << "shard_count=" << shards;
  }
}

// --- The planner's shard-count decision and the auto knob --------------------------

api::Query MakeTwoPartyQuery(std::map<std::string, Relation>* inputs,
                             int64_t rows_per_party) {
  api::Query query;
  auto pa = query.AddParty("a");
  auto pb = query.AddParty("b");
  auto ta = query.NewTable("ta", {{"k"}, {"v"}}, pa, rows_per_party);
  auto tb = query.NewTable("tb", {{"k"}, {"v"}}, pb, rows_per_party);
  query.Concat({ta, tb})
      .Filter("v", CompareOp::kGe, 10)
      .Aggregate("total", AggKind::kSum, {"k"}, "v")
      .WriteToCsv("out", {pa});
  (*inputs)["ta"] = RandomRelation(rows_per_party, 2, 5, 50);
  (*inputs)["tb"] = RandomRelation(rows_per_party, 2, 6, 50);
  for (auto& [name, rel] : *inputs) {
    rel.mutable_schema() = Schema::Of({"k", "v"});
  }
  return query;
}

TEST(ChooseShardCountTest, PricesTheDecisionWithTheCostModel) {
  std::map<std::string, Relation> inputs;
  api::Query query = MakeTwoPartyQuery(&inputs, 100);
  auto compilation = query.Compile({});
  ASSERT_TRUE(compilation.ok());
  const CostModel model;
  // Serial pool or trivial input: never shard.
  EXPECT_EQ(compiler::ChooseShardCount(compilation->plan, model, 1, 1000000), 1);
  EXPECT_EQ(compiler::ChooseShardCount(compilation->plan, model, 8, 0), 1);
  // Tiny priced scan work: the exchange/merge copies cannot pay off.
  EXPECT_EQ(compiler::ChooseShardCount(compilation->plan, model, 8, 10), 1);
  // Large scan work: capped by the pool and kMaxAutoShards.
  EXPECT_EQ(compiler::ChooseShardCount(compilation->plan, model, 4, 10000000), 4);
  EXPECT_EQ(compiler::ChooseShardCount(compilation->plan, model, 64, 10000000),
            compiler::kMaxAutoShards);
}

TEST(ChooseShardCountTest, AutoRunMatchesUnshardedBitForBit) {
  std::map<std::string, Relation> baseline_inputs;
  api::Query baseline_query = MakeTwoPartyQuery(&baseline_inputs, 120);
  const auto baseline = baseline_query.Run(baseline_inputs);
  ASSERT_TRUE(baseline.ok());

  std::map<std::string, Relation> auto_inputs;
  api::Query auto_query = MakeTwoPartyQuery(&auto_inputs, 120);
  const auto with_auto =
      auto_query.Run(auto_inputs, {}, CostModel{}, /*seed=*/42,
                     {.pool_parallelism = 4,
                      .shard_count = compiler::ExecOptions::kAutoShardCount});
  ASSERT_TRUE(with_auto.ok());
  EXPECT_TRUE(with_auto->outputs.at("out").RowsEqual(baseline->outputs.at("out")));
  EXPECT_EQ(with_auto->virtual_seconds, baseline->virtual_seconds);
}

TEST(ChooseShardCountTest, ExplainReportsShardAdvice) {
  std::map<std::string, Relation> inputs;
  api::Query query = MakeTwoPartyQuery(&inputs, 100);
  const auto report = query.ExplainPlan();
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->recommended_shard_count, 1);
  EXPECT_NE(report->ToString().find("shard-advice:"), std::string::npos)
      << report->ToString();
}

TEST(ChooseShardCountTest, ExplainReportsFusedExprAdvice) {
  std::map<std::string, Relation> inputs;
  api::Query query = MakeTwoPartyQuery(&inputs, 100);
  const auto report = query.ExplainPlan();
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->ToString().find("expr-advice:"), std::string::npos)
      << report->ToString();
  // Every expression group lives inside a fused chain, so its node count is
  // bounded by the chains' and a group needs at least one node.
  EXPECT_LE(report->fused_expr_nodes, report->fused_pipeline_nodes);
  EXPECT_GE(report->fused_expr_nodes, report->fused_expr_groups);
}

}  // namespace
}  // namespace conclave
