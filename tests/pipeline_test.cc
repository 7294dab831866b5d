// Tests of the push-based batch pipeline (DESIGN.md §10): every streaming
// operator against its materializing ops.h kernel across a batch-size grid with
// boundary edge cases (0-row inputs, 1-row batches, limits cut mid-batch,
// distinct runs spanning batch boundaries), an aggregate tail against
// ops::Aggregate over the materialized prefix and against the unfused
// aggregate's spill under a budget, limits and a sorted distinct between
// filters and arithmetic in one run, bounded-memory high-water marks
// proving at most two batches resident (and none for a fused run's masked
// handoff to its aggregate tail), the CONCLAVE_BATCH_ROWS knob, per-node
// pricing of fused members, end-to-end {pool, batch} invariance of a fused
// chain feeding a blocking operator through the public Query API, and
// single-party plans whose limit, distinct and window run on the cleartext
// executor, checked against the row-major reference.
#include "conclave/relational/pipeline.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "conclave/api/conclave.h"
#include "conclave/common/rng.h"
#include "conclave/compiler/plan_cost.h"
#include "conclave/data/generators.h"
#include "conclave/mpc/reveal_source.h"
#include "conclave/mpc/share.h"
#include "conclave/relational/ops.h"
#include "conclave/relational/relation.h"
#include "row_major_reference.h"
#include "test_util.h"

namespace conclave {
namespace {

Relation MakeRelation(std::initializer_list<std::string> names,
                      std::initializer_list<std::initializer_list<int64_t>> rows) {
  std::vector<ColumnDef> defs;
  for (const auto& name : names) {
    defs.emplace_back(name);
  }
  Relation rel{Schema(std::move(defs))};
  for (const auto& row : rows) {
    rel.AppendRow(row);
  }
  return rel;
}

Relation RunPipeline(const PipelineSpec& spec, const Relation& input,
                     int64_t batch_rows) {
  BatchPipeline pipeline(spec);
  return pipeline.Run(input, batch_rows);
}

// Batch sizes covering the boundary cases: one row per batch, boundaries that
// fall mid-relation both on and off operator-relevant edges, the default, the
// whole relation in one batch (0), and a batch far larger than any input.
const int64_t kBatchGrid[] = {1, 2, 3, 4, 7, kDefaultBatchRows, 0, 1 << 20};

// A batch no test input reaches: every fused chain runs as a single batch.
constexpr int64_t kOneBatch = std::numeric_limits<int>::max();

// `tail_input_rows`, when set, is the rows the spec's last op must be metered
// as consuming (an aggregate tail's op_input_rows entry).
void ExpectPipelineMatches(const PipelineSpec& spec, const Relation& input,
                           const Relation& expected,
                           std::optional<int64_t> tail_input_rows = std::nullopt) {
  for (int64_t batch_rows : kBatchGrid) {
    BatchPipeline pipeline(spec);
    const Relation got = pipeline.Run(input, batch_rows);
    EXPECT_TRUE(got.RowsEqual(expected))
        << "batch_rows=" << batch_rows << ": got " << got.NumRows()
        << " rows, want " << expected.NumRows();
    EXPECT_EQ(got.schema().ToString(), expected.schema().ToString())
        << "batch_rows=" << batch_rows;
    if (tail_input_rows.has_value()) {
      ASSERT_EQ(pipeline.stats().op_input_rows.size(), spec.ops.size());
      EXPECT_EQ(pipeline.stats().op_input_rows.back(), *tail_input_rows)
          << "batch_rows=" << batch_rows;
    }
  }
}

TEST(BatchPipelineTest, FilterMatchesMaterializingKernel) {
  const Relation input = data::UniformInts(257, {"a", "b"}, 50, /*seed=*/11);
  PipelineSpec spec;
  spec.input_schema = input.schema();
  const FilterPredicate predicate =
      FilterPredicate::ColumnVsLiteral(0, CompareOp::kLt, 25);
  spec.ops.push_back(PipelineOp::Filter(predicate));
  ExpectPipelineMatches(spec, input, ops::Filter(input, predicate));
}

TEST(BatchPipelineTest, FilterColumnVsColumnAndEmptySelections) {
  // Batches whose every row is filtered out must not surface as empty batches
  // downstream or corrupt the output.
  const Relation input = MakeRelation({"a", "b"}, {{1, 2},
                                                   {5, 5},
                                                   {9, 3},
                                                   {0, 0},
                                                   {7, 8}});
  PipelineSpec spec;
  spec.input_schema = input.schema();
  const FilterPredicate predicate =
      FilterPredicate::ColumnVsColumn(0, CompareOp::kGe, 1);
  spec.ops.push_back(PipelineOp::Filter(predicate));
  ExpectPipelineMatches(spec, input, ops::Filter(input, predicate));
}

TEST(BatchPipelineTest, ZeroRowInputFlowsThroughEveryOperator) {
  Relation input{Schema::Of({"a", "b"})};
  PipelineSpec spec;
  spec.input_schema = input.schema();
  spec.ops.push_back(PipelineOp::Filter(
      FilterPredicate::ColumnVsLiteral(0, CompareOp::kGt, 0)));
  spec.ops.push_back(PipelineOp::Project({1, 0}));
  spec.ops.push_back(PipelineOp::Limit(5));
  for (int64_t batch_rows : kBatchGrid) {
    const Relation got = RunPipeline(spec, input, batch_rows);
    EXPECT_EQ(got.NumRows(), 0) << "batch_rows=" << batch_rows;
    EXPECT_EQ(got.schema().ToString(), Schema::Of({"b", "a"}).ToString());
  }
}

TEST(BatchPipelineTest, ProjectReordersAndPreservesColumnDefs) {
  const Relation input = data::UniformInts(64, {"x", "y", "z"}, 100, /*seed=*/3);
  PipelineSpec spec;
  spec.input_schema = input.schema();
  const std::vector<int> columns = {2, 0};
  spec.ops.push_back(PipelineOp::Project(columns));
  ExpectPipelineMatches(spec, input, ops::Project(input, columns));
}

TEST(BatchPipelineTest, ArithmeticMatchesIncludingDivisionByZero) {
  // kDiv's fixed-point scale and divide-by-zero-yields-0 semantics must
  // replicate ops.h bit for bit, wherever the batch boundary falls relative to
  // the zero denominators.
  const Relation input = MakeRelation({"num", "den"}, {{10, 3},
                                                       {7, 0},
                                                       {0, 0},
                                                       {-9, 2},
                                                       {1, 1},
                                                       {100, 7}});
  ArithSpec arith;
  arith.kind = ArithKind::kDiv;
  arith.lhs_column = 0;
  arith.rhs_is_column = true;
  arith.rhs_column = 1;
  arith.result_name = "ratio";
  arith.scale = 10000;
  PipelineSpec spec;
  spec.input_schema = input.schema();
  spec.ops.push_back(PipelineOp::Arithmetic(arith));
  ExpectPipelineMatches(spec, input, ops::Arithmetic(input, arith));
}

TEST(BatchPipelineTest, LimitCutsMidBatchAndOnBatchBoundaries) {
  const Relation input = data::UniformInts(23, {"a"}, 1000, /*seed=*/7);
  // Limits below, on, and above batch boundaries, plus 0 and beyond-input.
  for (int64_t count : {0, 1, 3, 4, 8, 22, 23, 500}) {
    PipelineSpec spec;
    spec.input_schema = input.schema();
    spec.ops.push_back(PipelineOp::Limit(count));
    ExpectPipelineMatches(spec, input, ops::Limit(input, count));
  }
}

TEST(BatchPipelineTest, StreamingLimitDoesNotEarlyExit) {
  // The no-early-exit contract: operators upstream of a satisfied limit still
  // consume the whole input, so per-operator row counts (and with them the
  // dispatcher's cost charges) match the unfused execution at every batch size.
  const Relation input = data::UniformInts(100, {"a", "b"}, 50, /*seed=*/5);
  const FilterPredicate predicate =
      FilterPredicate::ColumnVsLiteral(0, CompareOp::kLt, 25);
  const int64_t filtered_rows = ops::Filter(input, predicate).NumRows();
  PipelineSpec spec;
  spec.input_schema = input.schema();
  spec.ops.push_back(PipelineOp::Filter(predicate));
  spec.ops.push_back(PipelineOp::Limit(2));
  BatchPipeline pipeline(spec);
  const Relation got = pipeline.Run(input, /*batch_rows=*/10);
  EXPECT_EQ(got.NumRows(), 2);
  EXPECT_EQ(pipeline.stats().rows_pushed, input.NumRows());
  ASSERT_EQ(pipeline.stats().op_input_rows.size(), 2u);
  EXPECT_EQ(pipeline.stats().op_input_rows[0], input.NumRows());
  EXPECT_EQ(pipeline.stats().op_input_rows[1], filtered_rows);
}

TEST(BatchPipelineTest, DistinctOnSortedMatchesDistinctKernel) {
  // Duplicate runs deliberately span batch boundaries (batch sizes 1..4 all cut
  // inside some run); the operator's O(1) last-row state must bridge them.
  Relation input = MakeRelation({"k", "v"}, {{1, 1},
                                             {1, 1},
                                             {1, 1},
                                             {2, 5},
                                             {2, 5},
                                             {3, 0},
                                             {4, 9},
                                             {4, 9},
                                             {4, 9},
                                             {4, 9},
                                             {5, 2}});
  const std::vector<int> columns = {0, 1};
  PipelineSpec spec;
  spec.input_schema = input.schema();
  spec.ops.push_back(PipelineOp::DistinctOnSorted(columns));
  ExpectPipelineMatches(spec, input, ops::Distinct(input, columns));
}

TEST(BatchPipelineTest, DistinctOnSortedPrefixOfSortColumns) {
  // Distinct on a strict prefix of the sort order (the fusion predicate's
  // condition): equal-prefix rows are adjacent even when their suffixes differ.
  Relation input = data::UniformInts(300, {"a", "b"}, 9, /*seed=*/17);
  const std::vector<int> sort_columns = {0, 1};
  input = ops::SortBy(input, sort_columns, /*ascending=*/true);
  const std::vector<int> columns = {0};
  PipelineSpec spec;
  spec.input_schema = input.schema();
  spec.ops.push_back(PipelineOp::DistinctOnSorted(columns));
  ExpectPipelineMatches(spec, input, ops::Distinct(input, columns));
}

TEST(BatchPipelineTest, ChainedOperatorsComposeAtEveryBatchSize) {
  const Relation input = data::UniformInts(1000, {"a", "b", "c"}, 200, /*seed=*/23);
  const FilterPredicate predicate =
      FilterPredicate::ColumnVsLiteral(2, CompareOp::kGe, 50);
  ArithSpec arith;
  arith.kind = ArithKind::kMul;
  arith.lhs_column = 0;
  arith.rhs_is_column = true;
  arith.rhs_column = 1;
  arith.result_name = "ab";
  PipelineSpec spec;
  spec.input_schema = input.schema();
  spec.ops.push_back(PipelineOp::Filter(predicate));
  spec.ops.push_back(PipelineOp::Project({0, 1}));
  spec.ops.push_back(PipelineOp::Arithmetic(arith));
  spec.ops.push_back(PipelineOp::Limit(117));

  Relation expected = ops::Filter(input, predicate);
  expected = ops::Project(expected, std::vector<int>{0, 1});
  expected = ops::Arithmetic(expected, arith);
  expected = ops::Limit(expected, 117);
  ExpectPipelineMatches(spec, input, expected);
}

// A hash aggregate ending a chain consumes the prefix's output: for
// every AggKind over 0, 1 and 2 group columns, behind each kind of streaming
// prefix, its output is ops::Aggregate's over the materialized prefix bit for
// bit, and its op_input_rows entry is the prefix's output rows. The inputs
// include a 0-row one and one whose every row the filters drop.
TEST(BatchPipelineTest, AggregateTailMatchesKernelOverMaterializedPrefix) {
  // Sorted by (a, b), so distinct-on-sorted applies; c in [0, 9).
  const Relation input =
      ops::SortBy(data::UniformInts(300, {"a", "b", "c"}, 9, /*seed=*/61),
                  std::vector<int>{0, 1}, /*ascending=*/true);
  const Relation empty{input.schema()};
  Relation all_filtered = input;
  for (int64_t r = 0; r < all_filtered.NumRows(); ++r) {
    all_filtered.Set(r, 2, 100 + r);  // Every filter below keeps c < 7.
  }
  ArithSpec mul;
  mul.kind = ArithKind::kMul;
  mul.lhs_column = 0;
  mul.rhs_is_column = true;
  mul.rhs_column = 1;
  mul.result_name = "ab";
  const std::vector<std::pair<std::string, std::vector<PipelineOp>>> prefixes = {
      {"filter",
       {PipelineOp::Filter(FilterPredicate::ColumnVsLiteral(2, CompareOp::kLt, 5))}},
      {"filter-arith-project",
       {PipelineOp::Filter(FilterPredicate::ColumnVsLiteral(2, CompareOp::kLt, 7)),
        PipelineOp::Arithmetic(mul), PipelineOp::Project({3, 0, 2})}},
      {"limit", {PipelineOp::Limit(123)}},
      {"distinct-on-sorted", {PipelineOp::DistinctOnSorted({0, 1})}},
  };
  const std::vector<std::pair<std::string, const Relation*>> inputs = {
      {"input", &input}, {"empty", &empty}, {"all-filtered", &all_filtered}};
  for (const auto& [input_name, in] : inputs) {
    for (const auto& [prefix_name, prefix] : prefixes) {
      PipelineSpec prefix_spec;
      prefix_spec.input_schema = in->schema();
      prefix_spec.ops = prefix;
      const Relation materialized = RunPipeline(prefix_spec, *in, /*batch_rows=*/0);
      const int agg_column = materialized.NumColumns() - 1;
      for (const std::vector<int>& groups :
           {std::vector<int>{}, std::vector<int>{0}, std::vector<int>{0, 1}}) {
        for (AggKind kind : {AggKind::kSum, AggKind::kCount, AggKind::kMin,
                             AggKind::kMax, AggKind::kMean}) {
          SCOPED_TRACE(testing::Message()
                       << input_name << " " << prefix_name << " groups="
                       << groups.size() << " " << AggKindName(kind));
          PipelineSpec spec = prefix_spec;
          spec.ops.push_back(PipelineOp::Aggregate(groups, kind, agg_column, "agg"));
          ExpectPipelineMatches(
              spec, *in, ops::Aggregate(materialized, groups, kind, agg_column, "agg"),
              materialized.NumRows());
        }
      }
    }
  }
}

// A filter -> aggregate chain over three full morsels plus a partial one, with
// one key per morsel (k = row / kDefaultGrainRows). The filter drops every row
// of key 1 and every fifth row of the others. At batch_rows 0 the tail takes
// the whole input as one range, so each of its morsels holds one key, and key
// 1's morsel holds no surviving row: that key must not become a group. The
// values include INT64_MIN, INT64_MAX, -1 and 0, so sums wrap. Every kind,
// over one group column and over none, must equal ops::Aggregate of the
// materialized prefix and the row-major reference.
TEST(BatchPipelineTest, AggregateTailOverOneKeyMorsels) {
  const int64_t rows = 3 * kDefaultGrainRows + 257;
  Relation input{Schema::Of({"k", "v", "f"})};
  input.Resize(rows);
  Rng rng(29);
  constexpr int64_t kExtremes[] = {std::numeric_limits<int64_t>::min(),
                                   std::numeric_limits<int64_t>::max(), -1, 0};
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t key = r / kDefaultGrainRows;
    input.Set(r, 0, key);
    input.Set(r, 1, r % 3 == 0 ? kExtremes[(r / 3) % 4] : rng.NextInRange(-1000, 1000));
    input.Set(r, 2, key == 1 || r % 5 == 0 ? 0 : 1);
  }
  const FilterPredicate keep = FilterPredicate::ColumnVsLiteral(2, CompareOp::kGt, 0);
  const Relation materialized = ops::Filter(input, keep);
  const rowmajor::RowMajorRelation reference_input =
      rowmajor::RowMajorRelation::FromColumnar(materialized);
  for (const std::vector<int>& groups : {std::vector<int>{0}, std::vector<int>{}}) {
    for (AggKind kind : {AggKind::kSum, AggKind::kCount, AggKind::kMin, AggKind::kMax,
                         AggKind::kMean}) {
      PipelineSpec spec;
      spec.input_schema = input.schema();
      spec.ops = {PipelineOp::Filter(keep),
                  PipelineOp::Aggregate(groups, kind, /*agg_column=*/1, "agg")};
      const Relation expected = ops::Aggregate(materialized, groups, kind, 1, "agg");
      const Relation reference =
          rowmajor::ref::Aggregate(reference_input, groups, kind, 1, "agg").ToColumnar();
      ASSERT_TRUE(expected.RowsEqual(reference)) << AggKindName(kind);
      ASSERT_EQ(expected.NumRows(), groups.empty() ? 1 : 3);  // Keys 0, 2 and 3.
      for (int64_t batch_rows : {int64_t{0}, int64_t{7}, kDefaultBatchRows}) {
        SCOPED_TRACE(testing::Message() << "groups=" << groups.size() << " "
                                        << AggKindName(kind)
                                        << " batch_rows=" << batch_rows);
        BatchPipeline pipeline(spec);
        const Relation got = pipeline.Run(input, batch_rows);
        EXPECT_TRUE(got.RowsEqual(expected)) << got.ToString();
        EXPECT_TRUE(got.RowsEqual(reference));
        EXPECT_EQ(pipeline.stats().op_input_rows.back(), materialized.NumRows());
      }
    }
  }
}

// Each op's ops.h kernel over the whole relation, in order: the output of
// one-op-at-a-time execution. Appends to `op_rows` the rows entering each op.
Relation RunKernelsOneAtATime(const Relation& input, std::span<const PipelineOp> chain,
                              std::vector<int64_t>* op_rows) {
  Relation out = input;
  for (const PipelineOp& op : chain) {
    op_rows->push_back(out.NumRows());
    switch (op.kind) {
      case PipelineOp::Kind::kFilter:
        out = ops::Filter(out, op.filter);
        break;
      case PipelineOp::Kind::kProject:
        out = ops::Project(out, op.columns);
        break;
      case PipelineOp::Kind::kArithmetic:
        out = ops::Arithmetic(out, op.arith);
        break;
      case PipelineOp::Kind::kLimit:
        out = ops::Limit(out, op.limit_count);
        break;
      case PipelineOp::Kind::kDistinctOnSorted:
        out = ops::Distinct(out, op.columns);
        break;
      case PipelineOp::Kind::kAggregate:
        out = ops::Aggregate(out, op.columns, op.agg_kind, op.agg_column,
                             op.output_name);
        break;
    }
  }
  return out;
}

// Limits and a distinct between filters and arithmetic in one run, two limits
// in one chain: filter -> limit -> arithmetic -> distinct-on-sorted({k}) ->
// filter -> limit over input sorted by (k, v) whose equal-key runs (about 15
// rows) cross batch boundaries. Both limits are satisfied before the input
// ends, so the ops before each keep consuming rows after it. Alone, the chain's
// output, schema and per-op input rows equal the kernels'. Ending in an
// aggregate tail of every kind over 0 and 1 group columns, it equals the
// row-major reference over the materialized prefix; under a budget the tail
// writes the runs, bytes and merge passes of the unfused spill::Aggregate.
TEST(BatchPipelineTest, StatefulOpsInsideOneRun) {
  const std::string spill_dir =
      (std::filesystem::temp_directory_path() / "conclave-stateful-run").string();
  std::filesystem::remove_all(spill_dir);
  std::filesystem::create_directories(spill_dir);
  const test::ScopedEnvVar dir("CONCLAVE_SPILL_DIR", spill_dir.c_str());

  const Relation input =
      ops::SortBy(data::UniformInts(3000, {"k", "v", "w"}, 200, /*seed=*/37),
                  std::vector<int>{0, 1}, /*ascending=*/true);
  ArithSpec add;  // x = v + w.
  add.kind = ArithKind::kAdd;
  add.lhs_column = 1;
  add.rhs_is_column = true;
  add.rhs_column = 2;
  add.result_name = "x";
  const std::vector<PipelineOp> chain = {
      PipelineOp::Filter(FilterPredicate::ColumnVsLiteral(2, CompareOp::kLt, 160)),
      PipelineOp::Limit(2000),
      PipelineOp::Arithmetic(add),
      PipelineOp::DistinctOnSorted({0}),
      PipelineOp::Filter(FilterPredicate::ColumnVsLiteral(0, CompareOp::kNe, 3)),
      PipelineOp::Limit(150),
  };
  std::vector<int64_t> chain_rows;
  const Relation prefix = RunKernelsOneAtATime(input, chain, &chain_rows);
  // Both limits cut: each sees more rows than it keeps.
  ASSERT_GT(chain_rows[2], 0);
  ASSERT_LT(chain_rows[2], chain_rows[1]);
  ASSERT_EQ(prefix.NumRows(), 150);
  ASSERT_LT(prefix.NumRows(), chain_rows[5]);
  const rowmajor::RowMajorRelation reference_prefix =
      rowmajor::RowMajorRelation::FromColumnar(prefix);

  const int64_t kBatches[] = {0, 1, 7, 13, kDefaultBatchRows};
  const auto expect_run = [&](const PipelineSpec& spec, const Relation& want,
                              const std::vector<int64_t>& want_rows) {
    for (int64_t batch_rows : kBatches) {
      SCOPED_TRACE(testing::Message() << "batch_rows=" << batch_rows);
      BatchPipeline pipeline(spec);
      const Relation got = pipeline.Run(input, batch_rows);
      EXPECT_TRUE(got.RowsEqual(want)) << got.NumRows() << " rows, want "
                                       << want.NumRows();
      EXPECT_EQ(got.schema().ToString(), want.schema().ToString());
      EXPECT_EQ(pipeline.stats().op_input_rows, want_rows);
    }
  };

  {
    SCOPED_TRACE("chain alone");
    PipelineSpec spec;
    spec.input_schema = input.schema();
    spec.ops = chain;
    expect_run(spec, prefix, chain_rows);
  }

  for (const std::vector<int>& groups : {std::vector<int>{}, std::vector<int>{0}}) {
    for (AggKind kind : {AggKind::kSum, AggKind::kCount, AggKind::kMin, AggKind::kMax,
                         AggKind::kMean}) {
      SCOPED_TRACE(testing::Message() << "groups=" << groups.size() << " "
                                      << AggKindName(kind));
      PipelineSpec spec;
      spec.input_schema = input.schema();
      spec.ops = chain;
      spec.ops.push_back(PipelineOp::Aggregate(groups, kind, /*agg_column=*/0, "agg"));
      std::vector<int64_t> want_rows;
      const Relation want = RunKernelsOneAtATime(input, spec.ops, &want_rows);
      const Relation reference =
          rowmajor::ref::Aggregate(reference_prefix, groups, kind, 0, "agg").ToColumnar();
      ASSERT_TRUE(want.RowsEqual(reference));
      expect_run(spec, reference, want_rows);

      for (int64_t budget : {int64_t{16}, int64_t{64}}) {
        SCOPED_TRACE(testing::Message() << "budget=" << budget);
        spill::SpillStats unfused;
        const Relation unfused_out =
            spill::Aggregate(prefix, groups, kind, 0, "agg", budget, &unfused);
        ASSERT_TRUE(unfused_out.RowsEqual(reference));
        ASSERT_GT(unfused.runs_written, 0);
        spec.mem_budget_rows = budget;
        for (int64_t batch_rows : kBatches) {
          SCOPED_TRACE(testing::Message() << "batch_rows=" << batch_rows);
          BatchPipeline pipeline(spec);
          const Relation got = pipeline.Run(input, batch_rows);
          EXPECT_TRUE(got.RowsEqual(reference));
          EXPECT_EQ(pipeline.stats().op_input_rows, want_rows);
          const spill::SpillStats& spilled = pipeline.stats().spill;
          EXPECT_EQ(spilled.runs_written, unfused.runs_written);
          EXPECT_EQ(spilled.spilled_bytes, unfused.spilled_bytes);
          EXPECT_EQ(spilled.merge_passes, unfused.merge_passes);
        }
      }
    }
  }
  EXPECT_TRUE(std::filesystem::is_empty(spill_dir));
  std::filesystem::remove_all(spill_dir);
}

// Every Run reads a fresh stream: it restarts the limit's count and forgets
// the distinct's last key, whether it borrows a relation or pulls a RowSource.
// All rows share one key, so a distinct that kept its key across runs, or a
// limit that kept its count, would return nothing the second time.
TEST(BatchPipelineTest, StatefulOpsRestartEveryRun) {
  Relation input = data::UniformInts(200, {"k", "v"}, 50, /*seed=*/43);
  for (int64_t r = 0; r < input.NumRows(); ++r) {
    input.Set(r, 0, 7);
  }
  input = ops::SortBy(input, std::vector<int>{0, 1}, /*ascending=*/true);
  Rng rng(/*seed=*/44);
  const mpc::RevealSource source(ShareRelation(input, rng));
  PipelineSpec spec;
  spec.input_schema = input.schema();
  spec.ops = {PipelineOp::Limit(150), PipelineOp::DistinctOnSorted({0})};
  std::vector<int64_t> want_rows;
  const Relation want = RunKernelsOneAtATime(input, spec.ops, &want_rows);
  ASSERT_EQ(want.NumRows(), 1);
  BatchPipeline pipeline(spec);
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE(testing::Message() << "run " << run);
    EXPECT_TRUE(pipeline.Run(input, /*batch_rows=*/7).RowsEqual(want));
    EXPECT_EQ(pipeline.stats().op_input_rows, want_rows);
    EXPECT_TRUE(pipeline.Run(source, /*batch_rows=*/7).value().RowsEqual(want));
    EXPECT_EQ(pipeline.stats().op_input_rows, want_rows);
  }
}

TEST(BatchPipelineTest, ResidencyStaysWithinTwoBatches) {
  // The bounded-memory claim, asserted (DESIGN.md §10): a chain owns at most
  // the batch it pulled and the batch it emits, never O(input rows). Over a
  // borrowed relation only the emitted batch forms; a RowSource adds the
  // pulled one.
  constexpr int64_t kRows = 100000;
  constexpr int64_t kBatch = 512;
  const Relation input = data::UniformInts(kRows, {"a", "b"}, 1000, /*seed=*/31);
  Rng rng(/*seed=*/32);
  const mpc::RevealSource source(ShareRelation(input, rng));
  ArithSpec arith;
  arith.kind = ArithKind::kAdd;
  arith.lhs_column = 0;
  arith.rhs_is_column = false;
  arith.rhs_literal = 7;
  arith.result_name = "a7";
  PipelineSpec spec;
  spec.input_schema = input.schema();
  spec.ops.push_back(PipelineOp::Filter(
      FilterPredicate::ColumnVsLiteral(0, CompareOp::kLt, 500)));  // ~50%.
  spec.ops.push_back(PipelineOp::Project({0}));
  spec.ops.push_back(PipelineOp::Arithmetic(arith));

  // The same chain behind a limit, which is one more instruction of the same
  // program: the depth of a chain adds no batch.
  PipelineSpec limited = spec;
  limited.ops.insert(limited.ops.begin(), PipelineOp::Limit(kRows - 1));

  for (const PipelineSpec& chain : {spec, limited}) {
    BatchPipeline pipeline(chain);
    const Relation got = pipeline.Run(input, kBatch);
    const PipelineStats& stats = pipeline.stats();
    EXPECT_GT(got.NumRows(), 0);
    EXPECT_EQ(stats.rows_pushed, kRows);
    EXPECT_EQ(stats.batches_pushed, (kRows + kBatch - 1) / kBatch);
    EXPECT_EQ(stats.peak_batches_resident, 1);
    EXPECT_GT(stats.peak_rows_resident, 0);
    EXPECT_LE(stats.peak_rows_resident, kBatch);

    EXPECT_TRUE(pipeline.Run(source, kBatch).value().RowsEqual(got));
    EXPECT_GT(stats.peak_batches_resident, 0);
    EXPECT_LE(stats.peak_batches_resident, 2);
    EXPECT_GT(stats.peak_rows_resident, 0);
    EXPECT_LE(stats.peak_rows_resident, 2 * kBatch);
  }
}

TEST(BatchPipelineTest, SingleBatchRunMaterializesWholeInput) {
  const Relation input = data::UniformInts(1000, {"a"}, 50, /*seed=*/41);
  PipelineSpec spec;
  spec.input_schema = input.schema();
  spec.ops.push_back(PipelineOp::Filter(
      FilterPredicate::ColumnVsLiteral(0, CompareOp::kLt, 25)));
  BatchPipeline pipeline(spec);
  const Relation got = pipeline.Run(input, /*batch_rows=*/0);
  EXPECT_EQ(pipeline.stats().batches_pushed, 1);
  EXPECT_EQ(pipeline.stats().rows_pushed, input.NumRows());
  EXPECT_TRUE(got.RowsEqual(ops::Filter(
      input, FilterPredicate::ColumnVsLiteral(0, CompareOp::kLt, 25))));
}

TEST(DefaultBatchRowsTest, EnvKnobParsing) {
  {
    test::ScopedEnvVar unset("CONCLAVE_BATCH_ROWS", nullptr);
    EXPECT_EQ(DefaultBatchRows(), kDefaultBatchRows);
  }
  {
    test::ScopedEnvVar env("CONCLAVE_BATCH_ROWS", "100");
    EXPECT_EQ(DefaultBatchRows(), 100);
  }
  // Malformed values ("-8", "not-a-number") abort loudly via env::Int64Knob;
  // that contract is covered by the death tests in common_test.cc.
}

// Fused chains always run: the retired spellings that once switched fusion
// off ("0", "materialize") are now malformed values that abort naming the knob.
TEST(DefaultBatchRowsDeathTest, RetiredFusionOffSpellingsAbort) {
  for (const char* spelling : {"0", "materialize"}) {
    test::ScopedEnvVar env("CONCLAVE_BATCH_ROWS", spelling);
    EXPECT_DEATH(DefaultBatchRows(), "CONCLAVE_BATCH_ROWS") << spelling;
  }
}

// The fused evaluator's core contract: a gnarly run — computed columns feeding
// later filters and divisions, projects reordering computed and source columns,
// division by zero — produces bit-identical outputs AND per-op input rows to
// running the ops.h kernels one at a time, at every batch size.
TEST(FusedExprTest, FusedRunMatchesKernelsOutputsAndAccounting) {
  const Relation input = data::UniformInts(1500, {"a", "b", "c"}, 40, /*seed=*/77);
  ArithSpec sub;  // d = a - b (negatives appear).
  sub.kind = ArithKind::kSub;
  sub.lhs_column = 0;
  sub.rhs_is_column = true;
  sub.rhs_column = 1;
  sub.result_name = "d";
  ArithSpec div;  // e = trunc(100 * d / c); c hits 0 regularly.
  div.kind = ArithKind::kDiv;
  div.lhs_column = 0;
  div.rhs_is_column = true;
  div.rhs_column = 1;
  div.scale = 100;
  div.result_name = "e";
  ArithSpec mul;  // f = 3 * e.
  mul.kind = ArithKind::kMul;
  mul.lhs_column = 2;
  mul.rhs_is_column = false;
  mul.rhs_literal = 3;
  mul.result_name = "f";
  PipelineSpec spec;
  spec.input_schema = input.schema();
  spec.ops.push_back(PipelineOp::Arithmetic(sub));  // [a b c d]
  spec.ops.push_back(PipelineOp::Filter(           // Filter on the computed d.
      FilterPredicate::ColumnVsLiteral(3, CompareOp::kGt, -20)));
  spec.ops.push_back(PipelineOp::Project({3, 2, 0}));  // [d c a]
  spec.ops.push_back(PipelineOp::Arithmetic(div));     // [d c a e]
  spec.ops.push_back(PipelineOp::Filter(
      FilterPredicate::ColumnVsLiteral(3, CompareOp::kNe, 0)));
  spec.ops.push_back(PipelineOp::Arithmetic(mul));     // [d c a e f]

  // The reference: each op's kernel over the whole relation, in order.
  std::vector<int64_t> want_rows;
  Relation want = input;
  for (const PipelineOp& op : spec.ops) {
    want_rows.push_back(want.NumRows());
    switch (op.kind) {
      case PipelineOp::Kind::kFilter:
        want = ops::Filter(want, op.filter);
        break;
      case PipelineOp::Kind::kProject:
        want = ops::Project(want, op.columns);
        break;
      default:
        want = ops::Arithmetic(want, op.arith);
        break;
    }
  }

  for (int64_t batch_rows : kBatchGrid) {
    BatchPipeline fused(spec);
    const Relation got = fused.Run(input, batch_rows);
    ASSERT_TRUE(got.RowsEqual(want)) << "batch_rows=" << batch_rows;
    EXPECT_EQ(got.schema().ToString(), want.schema().ToString());
    EXPECT_EQ(fused.stats().op_input_rows, want_rows)
        << "batch_rows=" << batch_rows;
    // The run holds no inter-op batches: only the emitted batch is resident.
    EXPECT_LE(fused.stats().peak_rows_resident,
              batch_rows > 0 ? batch_rows : input.NumRows())
        << "batch_rows=" << batch_rows;
  }
}

// A limit ahead of filter / arithmetic / project ops in one program: the cut
// it makes mid-stream shortens the rows the later ops scan, and the batches
// after it reach them with no counted row.
TEST(FusedExprTest, LimitAheadOfExpressionsInOneProgram) {
  const Relation input = data::UniformInts(800, {"a", "b"}, 64, /*seed=*/91);
  ArithSpec add;
  add.kind = ArithKind::kAdd;
  add.lhs_column = 0;
  add.rhs_is_column = true;
  add.rhs_column = 1;
  add.result_name = "s";
  PipelineSpec spec;
  spec.input_schema = input.schema();
  spec.ops.push_back(PipelineOp::Limit(555));
  spec.ops.push_back(PipelineOp::Filter(
      FilterPredicate::ColumnVsLiteral(1, CompareOp::kLe, 40)));
  spec.ops.push_back(PipelineOp::Arithmetic(add));
  spec.ops.push_back(PipelineOp::Project({2, 0}));

  Relation expected = ops::Limit(input, 555);
  expected = ops::Filter(
      expected, FilterPredicate::ColumnVsLiteral(1, CompareOp::kLe, 40));
  expected = ops::Arithmetic(expected, add);
  expected = ops::Project(expected, std::vector<int>{2, 0});
  ExpectPipelineMatches(spec, input, expected);
}

// A fused local chain feeding a blocking operator (sort, then an MPC-side
// aggregate): outputs, virtual clock, and counters must be bit-identical
// between one-batch execution and every batch size, at pool sizes 1 and 4.
TEST(PipelineQueryTest, FusedChainFeedingBlockingOpIsBatchInvariant) {
  auto run = [](int pool, int64_t batch_rows) {
    api::Query query;
    api::Party alice = query.AddParty("alice");
    api::Party bob = query.AddParty("bob");
    api::Table left = query.NewTable("left", {{"k"}, {"v"}}, alice);
    api::Table right = query.NewTable("right", {{"k"}, {"w"}}, bob);
    left.Filter("v", CompareOp::kLt, 600)
        .MultiplyConst("v2", "v", 3)
        .Project({"k", "v2"})
        .Join(right, {"k"}, {"k"})
        .Aggregate("total", AggKind::kSum, {"k"}, "v2")
        .SortBy({"k"})
        .WriteToCsv("out", {alice, bob});
    std::map<std::string, Relation> inputs;
    inputs["left"] = data::UniformInts(700, {"k", "v"}, 900, /*seed=*/51);
    inputs["right"] = data::UniformInts(400, {"k", "w"}, 900, /*seed=*/52);
    auto result = query.Run(
        inputs, {}, CostModel{}, /*seed=*/42,
        {.pool_parallelism = pool, .batch_rows = batch_rows});
    CONCLAVE_CHECK(result.ok());
    return std::move(*result);
  };

  const backends::ExecutionResult baseline = run(1, kOneBatch);
  ASSERT_GT(baseline.outputs.at("out").NumRows(), 0);
  for (int pool : {1, 4}) {
    for (int64_t batch_rows :
         {int64_t{1}, int64_t{7}, int64_t{13}, kDefaultBatchRows}) {
      const backends::ExecutionResult got = run(pool, batch_rows);
      EXPECT_TRUE(got.outputs.at("out").RowsEqual(baseline.outputs.at("out")))
          << "pool=" << pool << " batch_rows=" << batch_rows;
      EXPECT_EQ(got.virtual_seconds, baseline.virtual_seconds)
          << "pool=" << pool << " batch_rows=" << batch_rows;
      EXPECT_EQ(got.local_seconds, baseline.local_seconds)
          << "pool=" << pool << " batch_rows=" << batch_rows;
      EXPECT_EQ(got.counters.cleartext_records,
                baseline.counters.cleartext_records)
          << "pool=" << pool << " batch_rows=" << batch_rows;
      EXPECT_EQ(got.counters.network_bytes, baseline.counters.network_bytes)
          << "pool=" << pool << " batch_rows=" << batch_rows;
    }
  }
}

// Fused members are priced exactly as if each ran alone: every member's
// node_seconds is the cost model's scan price of the rows entering it, with
// those rows computed independently by running the ops.h kernels one at a time.
TEST(PipelineQueryTest, FusedMembersPricedFromKernelRowCounts) {
  const Relation input = data::UniformInts(5000, {"a", "b"}, 1000, /*seed=*/71);
  api::Query query;
  api::Party alice = query.AddParty("alice");
  api::Table t = query.NewTable("t", {{"a"}, {"b"}}, alice);
  const api::Table filtered = t.Filter("a", CompareOp::kLt, 500);
  const api::Table added = filtered.AddConst("c", "b", 7);
  const api::Table projected = added.Project({"c", "a"});
  const api::Table refiltered = projected.Filter("c", CompareOp::kGt, 300);
  refiltered.WriteToCsv("out", {alice});
  const auto result = query.Run({{"t", input}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // The four nodes run as one fused chain.
  const std::vector<ir::OpNode*> order = query.dag().TopoOrder();
  const std::vector<const ir::OpNode*> topo(order.begin(), order.end());
  const auto chains =
      compiler::PipelineChains(topo, compiler::MpcBackendKind::kSharemind);
  ASSERT_EQ(chains.size(), 1u);
  ASSERT_EQ(chains[0].nodes.size(), 4u);

  ArithSpec add;
  add.kind = ArithKind::kAdd;
  add.lhs_column = 1;
  add.rhs_is_column = false;
  add.rhs_literal = 7;
  add.result_name = "c";
  const Relation r1 = ops::Filter(
      input, FilterPredicate::ColumnVsLiteral(0, CompareOp::kLt, 500));
  const Relation r2 = ops::Arithmetic(r1, add);
  const Relation r3 = ops::Project(r2, std::vector<int>{2, 0});
  const std::pair<const api::Table*, int64_t> members[] = {
      {&filtered, input.NumRows()},
      {&added, r1.NumRows()},
      {&projected, r2.NumRows()},
      {&refiltered, r3.NumRows()}};
  const CostModel model;
  const bool use_spark = compiler::CompilerOptions{}.use_spark;
  for (const auto& [table, rows] : members) {
    const int id = table->node()->id;
    ASSERT_EQ(result->node_seconds.count(id), 1u) << "node #" << id;
    EXPECT_EQ(result->node_seconds.at(id),
              model.CleartextScanSeconds(static_cast<uint64_t>(rows), use_spark))
        << "node #" << id << " rows=" << rows;
  }
}

// A chain's aggregate tail under a memory budget cuts the sorted partial runs
// spill::Aggregate cuts over the materialized prefix, at the same consumed-row
// boundaries. For every kind, the same aggregate runs fused (filter ->
// aggregate) and unfused (a free same-party Collect of the filter's output
// keeps it materialized):
// rows, clocks, per-node meters, the priced spill report and the physical
// run/byte/pass counters agree, and the fused run holds no more rows.
TEST(PipelineQueryTest, AggregateTailSpillsLikeTheUnfusedAggregate) {
  const std::string spill_dir =
      (std::filesystem::temp_directory_path() / "conclave-agg-tail-spill").string();
  std::filesystem::remove_all(spill_dir);
  std::filesystem::create_directories(spill_dir);
  const test::ScopedEnvVar dir("CONCLAVE_SPILL_DIR", spill_dir.c_str());
  const Relation input = data::UniformInts(3000, {"k", "v"}, 40, /*seed=*/63);

  auto run = [&](bool fused, AggKind kind, int64_t budget, int64_t batch_rows) {
    api::Query query;
    const api::Party alice = query.AddParty("alice");
    const api::Table filtered = query.NewTable("t", {{"k"}, {"v"}}, alice)
                                    .Filter("v", CompareOp::kLt, 30);
    filtered.Aggregate("agg", kind, {"k"}, "v").WriteToCsv("out", {alice});
    if (!fused) {
      filtered.WriteToCsv("extra", {alice});
    }
    auto result = query.Run({{"t", input}}, {}, CostModel{}, /*seed=*/42,
                            {.batch_rows = batch_rows, .mem_budget_rows = budget});
    CONCLAVE_CHECK(result.ok());
    const std::vector<ir::OpNode*> order = query.dag().TopoOrder();
    const auto chains =
        compiler::PipelineChains(std::vector<const ir::OpNode*>(order.begin(), order.end()),
                                 compiler::MpcBackendKind::kSharemind);
    EXPECT_EQ(chains.size(), fused ? 1u : 0u);
    if (!fused) {
      // The extra Collect stays at alice: it charges nothing.
      const int extra = query.dag().Collects().back()->id;
      EXPECT_EQ(result->node_seconds.at(extra), 0.0);
      result->node_seconds.erase(extra);
    }
    return std::move(*result);
  };

  for (AggKind kind : {AggKind::kSum, AggKind::kCount, AggKind::kMin, AggKind::kMax,
                       AggKind::kMean}) {
    for (int64_t budget : {int64_t{16}, int64_t{64}}) {
      const backends::ExecutionResult unfused =
          run(/*fused=*/false, kind, budget, kDefaultBatchRows);
      ASSERT_GT(unfused.spill_report.stats.runs_written, 0);
      for (int64_t batch_rows : {int64_t{7}, kDefaultBatchRows}) {
        SCOPED_TRACE(testing::Message() << AggKindName(kind) << " budget=" << budget
                                        << " batch=" << batch_rows);
        const backends::ExecutionResult got = run(/*fused=*/true, kind, budget, batch_rows);
        EXPECT_TRUE(got.outputs.at("out").RowsEqual(unfused.outputs.at("out")));
        EXPECT_EQ(got.virtual_seconds, unfused.virtual_seconds);
        EXPECT_EQ(got.local_seconds, unfused.local_seconds);
        EXPECT_EQ(got.node_seconds, unfused.node_seconds);
        const backends::SpillReport& want = unfused.spill_report;
        EXPECT_EQ(got.spill_report.mem_budget_rows, want.mem_budget_rows);
        EXPECT_EQ(got.spill_report.spilling_nodes, want.spilling_nodes);
        EXPECT_EQ(got.spill_report.spill_passes, want.spill_passes);
        EXPECT_EQ(got.spill_report.spill_seconds, want.spill_seconds);
        EXPECT_EQ(got.spill_report.stats.runs_written, want.stats.runs_written);
        EXPECT_EQ(got.spill_report.stats.spilled_rows, want.stats.spilled_rows);
        EXPECT_EQ(got.spill_report.stats.spilled_bytes, want.stats.spilled_bytes);
        EXPECT_EQ(got.spill_report.stats.merge_passes, want.stats.merge_passes);
        EXPECT_GT(got.spill_report.stats.peak_resident_rows, 0);
        EXPECT_LE(got.spill_report.stats.peak_resident_rows,
                  want.stats.peak_resident_rows);
      }
    }
  }
  EXPECT_TRUE(std::filesystem::is_empty(spill_dir));
  std::filesystem::remove_all(spill_dir);
}

// --- Single-party plans: limit, distinct and window on the cleartext path -----

// The plan fuzzer's queries start from a cross-party concat, which keeps
// limit, distinct and window under MPC. With one party nothing crosses the
// frontier, so these operators run on the cleartext executor: limit and
// distinct inside fused chains, window as a standalone local job.
using SinglePartyBuild =
    std::function<void(const api::Table& t, const api::Party& owner)>;

// 600 rows: k in [0, 7) (repeated partition and distinct keys), v a
// permutation of [0, 600) (no ties in window order), w uniform in [0, 100).
Relation SinglePartyInput() {
  Relation rel{Schema::Of({"k", "v", "w"})};
  Rng rng(/*seed=*/91);
  for (int64_t i = 0; i < 600; ++i) {
    rel.AppendRow({i % 7, (i * 37) % 600, static_cast<int64_t>(rng.NextBelow(100))});
  }
  return rel;
}

void BuildSinglePartyPlan(api::Query& query, const SinglePartyBuild& build) {
  const api::Party alice = query.AddParty("alice");
  build(query.NewTable("t", {{"k"}, {"v"}, {"w"}}, alice), alice);
}

// Evaluates a freshly built (uncompiled) instance of the plan node by node
// with the row-major reference, which shares no kernels with the engine.
Relation RowMajorReference(const SinglePartyBuild& build, const Relation& input) {
  api::Query query;
  BuildSinglePartyPlan(query, build);
  std::unordered_map<int, rowmajor::RowMajorRelation> values;
  rowmajor::RowMajorRelation output;
  for (const ir::OpNode* node : query.dag().TopoOrder()) {
    if (node->kind == ir::OpKind::kCreate) {
      values[node->id] = rowmajor::RowMajorRelation::FromColumnar(input);
      continue;
    }
    std::vector<const rowmajor::RowMajorRelation*> rels;
    for (const ir::OpNode* in : node->inputs) {
      rels.push_back(&values.at(in->id));
    }
    auto result = rowmajor::ref::ExecuteLocal(*node, rels);
    CONCLAVE_CHECK(result.ok());
    values[node->id] = *std::move(result);
    if (node->kind == ir::OpKind::kCollect) {
      output = values[node->id];
    }
  }
  return output.ToColumnar();
}

// Runs the plan at every {pool 1, 4} x {batch 1, 7, default, one batch} point:
// each output must equal the row-major reference, and the virtual clock and
// per-node meters must equal the first point's. `chains` receives the op kinds
// of the compiled plan's fused chains (compiler::PipelineChains).
void ExpectSinglePartyGridMatchesReference(
    const SinglePartyBuild& build, const std::string& label,
    std::vector<std::vector<ir::OpKind>>* chains) {
  const Relation input = SinglePartyInput();
  const Relation expected = RowMajorReference(build, input);
  ASSERT_GT(expected.NumRows(), 0) << label;
  std::optional<backends::ExecutionResult> first;
  for (int pool : {1, 4}) {
    for (int64_t batch_rows :
         {int64_t{1}, int64_t{7}, kDefaultBatchRows, kOneBatch}) {
      api::Query query;
      BuildSinglePartyPlan(query, build);
      auto result = query.Run({{"t", input}}, {}, CostModel{}, /*seed=*/42,
                              {.pool_parallelism = pool, .batch_rows = batch_rows});
      ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
      const std::string where = label + " pool=" + std::to_string(pool) +
                                " batch_rows=" + std::to_string(batch_rows);
      const Relation& got = result->outputs.at("out");
      EXPECT_TRUE(got.RowsEqual(expected))
          << where << "\nwant\n" << expected.ToString() << "\ngot\n"
          << got.ToString();
      EXPECT_EQ(got.schema().ToString(), expected.schema().ToString()) << where;
      if (!first.has_value()) {
        first = std::move(*result);
      } else {
        EXPECT_EQ(result->virtual_seconds, first->virtual_seconds) << where;
        EXPECT_EQ(result->node_seconds, first->node_seconds) << where;
        EXPECT_EQ(result->counters.cleartext_records,
                  first->counters.cleartext_records)
            << where;
      }
      const std::vector<ir::OpNode*> order = query.dag().TopoOrder();
      for (const ir::OpNode* node : order) {
        EXPECT_EQ(node->exec_mode, ir::ExecMode::kLocal)
            << where << " node #" << node->id;
      }
      chains->clear();
      for (const auto& chain : compiler::PipelineChains(
               std::vector<const ir::OpNode*>(order.begin(), order.end()),
               compiler::MpcBackendKind::kSharemind)) {
        std::vector<ir::OpKind>& kinds = chains->emplace_back();
        for (const ir::OpNode* member : chain.nodes) {
          kinds.push_back(member->kind);
        }
      }
    }
  }
}

TEST(SinglePartyQueryTest, LimitInsideAFusedChain) {
  const SinglePartyBuild build = [](const api::Table& t, const api::Party& owner) {
    t.Filter("v", CompareOp::kGt, 50)
        .Limit(250)
        .AddConst("x", "w", 3)
        .Filter("x", CompareOp::kLt, 60)
        .WriteToCsv("out", {owner});
  };
  std::vector<std::vector<ir::OpKind>> chains;
  ExpectSinglePartyGridMatchesReference(build, "limit", &chains);
  // One chain of all four operators, the limit second.
  const std::vector<std::vector<ir::OpKind>> want = {
      {ir::OpKind::kFilter, ir::OpKind::kLimit, ir::OpKind::kArithmetic,
       ir::OpKind::kFilter}};
  EXPECT_EQ(chains, want);
}

TEST(SinglePartyQueryTest, DistinctHeadsAChainAfterASort) {
  const SinglePartyBuild build = [](const api::Table& t, const api::Party& owner) {
    t.SortBy({"k", "w"})
        .Distinct({"k", "w"})
        .AddConst("x", "w", 1)
        .Filter("x", CompareOp::kGt, 20)
        .WriteToCsv("out", {owner});
  };
  std::vector<std::vector<ir::OpKind>> chains;
  ExpectSinglePartyGridMatchesReference(build, "distinct", &chains);
  // The sort materializes; the streaming dedup heads the chain after it.
  const std::vector<std::vector<ir::OpKind>> want = {
      {ir::OpKind::kDistinct, ir::OpKind::kArithmetic, ir::OpKind::kFilter}};
  EXPECT_EQ(chains, want);
}

TEST(SinglePartyQueryTest, EveryWindowFunctionRunsLocally) {
  for (WindowFn fn :
       {WindowFn::kRowNumber, WindowFn::kLag, WindowFn::kRunningSum}) {
    const SinglePartyBuild build = [fn](const api::Table& t,
                                        const api::Party& owner) {
      t.Window("r", fn, {"k"}, "v", fn == WindowFn::kRowNumber ? "" : "w")
          .WriteToCsv("out", {owner});
    };
    std::vector<std::vector<ir::OpKind>> chains;
    ExpectSinglePartyGridMatchesReference(build, WindowFnName(fn), &chains);
    EXPECT_TRUE(chains.empty()) << WindowFnName(fn);  // Window never fuses.
  }
}

// --- Streaming across the reveal frontier (DESIGN.md §14) --------------------

// Streaming a reveal through Run must be bit-identical to revealing everything
// and running the chain on the materialized relation, at every batch size —
// including 0-row and 1-row reveals.
TEST(RevealStreamTest, MatchesMaterializingAcrossBatchGrid) {
  for (int64_t rows : {int64_t{0}, int64_t{1}, int64_t{533}}) {
    const Relation input = data::UniformInts(rows, {"a", "b"}, 200, /*seed=*/77);
    Rng rng(/*seed=*/9);
    const mpc::RevealSource source(ShareRelation(input, rng));
    ASSERT_EQ(source.NumRows(), rows);

    ArithSpec add;
    add.kind = ArithKind::kAdd;
    add.lhs_column = 0;
    add.rhs_is_column = true;
    add.rhs_column = 1;
    add.result_name = "s";
    PipelineSpec spec;
    spec.input_schema = input.schema();
    spec.ops.push_back(PipelineOp::Filter(
        FilterPredicate::ColumnVsLiteral(1, CompareOp::kGe, 40)));
    spec.ops.push_back(PipelineOp::Arithmetic(add));
    spec.ops.push_back(PipelineOp::Project({2, 0}));

    BatchPipeline materializing(spec);
    const Relation expected =
        materializing.Run(source.Rows(0, rows).value(), kDefaultBatchRows);
    for (int64_t batch_rows : kBatchGrid) {
      BatchPipeline streaming(spec);
      const Relation got = streaming.Run(source, batch_rows).value();
      EXPECT_TRUE(got.RowsEqual(expected))
          << "rows=" << rows << " batch_rows=" << batch_rows;
      EXPECT_EQ(got.schema().ToString(), expected.schema().ToString());
    }
  }
}

// Reveal as the head of a chain with limit, sorted-distinct and aggregate
// tails: the operators that cut a stream short, dedup across batch boundaries
// or accumulate groups must see revealed batches exactly as they would see
// materialized head slices.
TEST(RevealStreamTest, LimitAndDistinctTails) {
  Relation input = data::UniformInts(400, {"k", "v"}, 50, /*seed=*/31);
  const std::vector<int> sort_columns = {0, 1};
  input = ops::SortBy(input, sort_columns, /*ascending=*/true);
  Rng rng(/*seed=*/10);
  const mpc::RevealSource source(ShareRelation(input, rng));

  {
    PipelineSpec spec;
    spec.input_schema = input.schema();
    spec.ops.push_back(PipelineOp::Filter(
        FilterPredicate::ColumnVsLiteral(1, CompareOp::kGt, 5)));
    spec.ops.push_back(PipelineOp::Limit(37));
    BatchPipeline materializing(spec);
    const Relation expected =
        materializing.Run(source.Rows(0, input.NumRows()).value(), 0);
    for (int64_t batch_rows : kBatchGrid) {
      BatchPipeline streaming(spec);
      const Relation got = streaming.Run(source, batch_rows).value();
      EXPECT_TRUE(got.RowsEqual(expected)) << "limit batch=" << batch_rows;
    }
  }
  {
    // Sorted input, so the streaming adjacent-run dedup applies.
    PipelineSpec spec;
    spec.input_schema = input.schema();
    spec.ops.push_back(PipelineOp::Project({0}));
    spec.ops.push_back(PipelineOp::DistinctOnSorted({0}));
    BatchPipeline materializing(spec);
    const Relation expected =
        materializing.Run(source.Rows(0, input.NumRows()).value(), 0);
    for (int64_t batch_rows : kBatchGrid) {
      BatchPipeline streaming(spec);
      const Relation got = streaming.Run(source, batch_rows).value();
      EXPECT_TRUE(got.RowsEqual(expected)) << "distinct batch=" << batch_rows;
    }
  }
  {
    // An aggregate tail consumes the revealed batches in place.
    PipelineSpec spec;
    spec.input_schema = input.schema();
    spec.ops.push_back(PipelineOp::Filter(
        FilterPredicate::ColumnVsLiteral(1, CompareOp::kGt, 5)));
    spec.ops.push_back(PipelineOp::Aggregate({0}, AggKind::kMean, 1, "mean"));
    BatchPipeline materializing(spec);
    const Relation expected =
        materializing.Run(source.Rows(0, input.NumRows()).value(), 0);
    for (int64_t batch_rows : kBatchGrid) {
      BatchPipeline streaming(spec);
      const Relation got = streaming.Run(source, batch_rows).value();
      EXPECT_TRUE(got.RowsEqual(expected)) << "aggregate batch=" << batch_rows;
    }
  }
}

// Row ranges reveal independently: cutting a reveal into disjoint contiguous
// ranges and concatenating them must equal one whole-relation reveal.
TEST(RevealStreamTest, DisjointRangesConcatenateToWholeReveal) {
  const Relation input = data::UniformInts(101, {"a", "b"}, 300, /*seed=*/12);
  Rng rng(/*seed=*/13);
  const mpc::RevealSource source(ShareRelation(input, rng));
  const Relation whole = source.Rows(0, input.NumRows()).value();
  EXPECT_TRUE(whole.RowsEqual(input));

  const int64_t rows = input.NumRows();
  for (int ranges : {1, 3, 8}) {
    std::vector<Relation> parts;
    parts.reserve(static_cast<size_t>(ranges));
    for (int r = 0; r < ranges; ++r) {
      const int64_t begin = rows * r / ranges;
      const int64_t end = rows * (r + 1) / ranges;
      parts.push_back(source.Rows(begin, end).value());
    }
    std::vector<const Relation*> part_ptrs;
    for (const Relation& part : parts) {
      part_ptrs.push_back(&part);
    }
    const Relation assembled = ops::Concat(part_ptrs);
    EXPECT_TRUE(assembled.RowsEqual(whole)) << "ranges=" << ranges;
  }
}

// The residency witness: streaming a 100k-row reveal in 256-row batches never
// reconstructs more than one batch at a time.
TEST(RevealStreamTest, ResidencyStaysAtBatchSize) {
  const Relation input = data::UniformInts(100'000, {"a", "b"}, 1 << 20,
                                           /*seed=*/14);
  Rng rng(/*seed=*/15);
  const mpc::RevealSource source(ShareRelation(input, rng));

  ArithSpec add;
  add.kind = ArithKind::kAdd;
  add.lhs_column = 0;
  add.rhs_is_column = false;
  add.rhs_literal = 1;
  add.result_name = "s";
  PipelineSpec spec;
  spec.input_schema = input.schema();
  spec.ops.push_back(PipelineOp::Filter(
      FilterPredicate::ColumnVsLiteral(1, CompareOp::kLt, 1 << 10)));
  spec.ops.push_back(PipelineOp::Arithmetic(add));

  BatchPipeline pipeline(spec);
  const Relation got = pipeline.Run(source, 256).value();
  EXPECT_GT(got.NumRows(), 0);
  EXPECT_EQ(source.MaxMaterializedRows(), 256);
}

// The residency witness counts only batches that form. A fused run hands the
// aggregate tail its columns and mask in place, so a filter -> aggregate chain
// over a borrowed relation owns no batch at any point, and one fed by a
// RowSource owns only the batch it pulled.
TEST(RevealStreamTest, MaskedTailHandoffFormsNoBatch) {
  constexpr int64_t kRows = 10000;
  constexpr int64_t kBatch = 512;
  const Relation input = data::UniformInts(kRows, {"k", "v"}, 100, /*seed=*/33);
  Rng rng(/*seed=*/34);
  const mpc::RevealSource source(ShareRelation(input, rng));
  PipelineSpec spec;
  spec.input_schema = input.schema();
  spec.ops.push_back(PipelineOp::Filter(
      FilterPredicate::ColumnVsLiteral(1, CompareOp::kLt, 50)));
  spec.ops.push_back(PipelineOp::Aggregate({0}, AggKind::kSum, 1, "agg"));

  BatchPipeline pipeline(spec);
  const Relation borrowed = pipeline.Run(input, kBatch);
  EXPECT_EQ(pipeline.stats().batches_pushed, (kRows + kBatch - 1) / kBatch);
  EXPECT_EQ(pipeline.stats().peak_batches_resident, 0);
  EXPECT_EQ(pipeline.stats().peak_rows_resident, 0);

  const Relation pulled = pipeline.Run(source, kBatch).value();
  EXPECT_TRUE(pulled.RowsEqual(borrowed));
  EXPECT_GT(pulled.NumRows(), 0);
  EXPECT_EQ(pipeline.stats().peak_batches_resident, 1);
  EXPECT_EQ(pipeline.stats().peak_rows_resident, kBatch);
}

// End-to-end through the public API: an MPC aggregate whose arithmetic tail the
// compiler pushes up into a local fused chain. The reveal feeds the chain
// batch-at-a-time (source_peak_rows stays at the batch size). Outputs, virtual
// clock, and counters must be bit-identical across the {pool, batch} grid.
TEST(RevealStreamTest, QueryGridBitIdentical) {
  auto run = [](int pool, int64_t batch_rows) {
    api::Query query;
    api::Party alice = query.AddParty("alice");
    api::Party bob = query.AddParty("bob");
    api::Table left = query.NewTable("left", {{"k"}, {"v"}}, alice);
    api::Table right = query.NewTable("right", {{"k"}, {"w"}}, bob);
    left.Join(right, {"k"}, {"k"})
        .Aggregate("total", AggKind::kSum, {"k"}, "v")
        .MultiplyConst("scaled", "total", 3)
        .AddConst("biased", "scaled", 7)
        .WriteToCsv("out", {alice});
    std::map<std::string, Relation> inputs;
    inputs["left"] = data::UniformInts(600, {"k", "v"}, 500, /*seed=*/21);
    inputs["right"] = data::UniformInts(450, {"k", "w"}, 500, /*seed=*/22);
    auto result = query.Run(
        inputs, {}, CostModel{}, /*seed=*/42,
        {.pool_parallelism = pool, .batch_rows = batch_rows});
    CONCLAVE_CHECK(result.ok());
    return std::move(*result);
  };

  const backends::ExecutionResult baseline = run(/*pool=*/1, kOneBatch);
  ASSERT_GT(baseline.outputs.at("out").NumRows(), 0);

  for (int pool : {1, 4}) {
    for (int64_t batch_rows : {int64_t{16}, kDefaultBatchRows}) {
      const backends::ExecutionResult got = run(pool, batch_rows);
      EXPECT_TRUE(got.outputs.at("out").RowsEqual(baseline.outputs.at("out")))
          << "pool=" << pool << " batch=" << batch_rows;
      EXPECT_EQ(got.virtual_seconds, baseline.virtual_seconds)
          << "pool=" << pool << " batch=" << batch_rows;
      EXPECT_EQ(got.counters.network_bytes, baseline.counters.network_bytes)
          << "pool=" << pool << " batch=" << batch_rows;
      EXPECT_EQ(got.node_seconds, baseline.node_seconds)
          << "pool=" << pool << " batch=" << batch_rows;
      EXPECT_GT(got.source_peak_rows, 0)
          << "pool=" << pool << " batch=" << batch_rows;
      EXPECT_LE(got.source_peak_rows, batch_rows)
          << "pool=" << pool << " batch=" << batch_rows;
    }
  }
}

}  // namespace
}  // namespace conclave
