// Differential tests for the spill subsystem (DESIGN.md §12): every spill::
// kernel must be bit-identical to its in-memory ops:: counterpart at every
// budget, including budgets that force multi-level merges and Grace recursion,
// and must leave no temp files behind (RAII leak assertions).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "conclave/common/rng.h"
#include "conclave/common/strings.h"
#include "conclave/common/tempfile.h"
#include "conclave/relational/ops.h"
#include "conclave/relational/relation.h"
#include "conclave/relational/spill.h"
#include "test_util.h"

namespace conclave {
namespace {

Relation RandomRelation(uint64_t seed, int64_t rows, int cols, int64_t key_range) {
  std::vector<ColumnDef> defs;
  for (int c = 0; c < cols; ++c) {
    defs.emplace_back("c" + std::to_string(c));
  }
  Relation rel{Schema(std::move(defs))};
  rel.Resize(rows);
  for (int c = 0; c < cols; ++c) {
    CounterRng rng(seed, static_cast<uint64_t>(c));
    int64_t* data = rel.ColumnData(c);
    for (int64_t r = 0; r < rows; ++r) {
      data[r] = static_cast<int64_t>(rng.At(static_cast<uint64_t>(r)) %
                                     static_cast<uint64_t>(key_range));
    }
  }
  return rel;
}

// Budgets covering: unbounded, spill threshold edges, single merge level,
// multi-level merges (runs >> fan-in), and budget-of-one pathologies.
std::vector<int64_t> BudgetGrid(int64_t rows) {
  return {0, 1, 2, 7, rows - 1, rows, rows + 1, rows / 3, rows / 17};
}

TEST(SpillMathTest, MergePassesClosedForm) {
  EXPECT_EQ(spill::SpillMergePasses(1000, 0), 0);     // Unbounded.
  EXPECT_EQ(spill::SpillMergePasses(100, 100), 0);    // Fits exactly.
  EXPECT_EQ(spill::SpillMergePasses(101, 100), 1);    // 2 runs, one merge.
  EXPECT_EQ(spill::SpillMergePasses(800, 100), 1);    // 8 runs == fan-in.
  EXPECT_EQ(spill::SpillMergePasses(900, 100), 2);    // 9 runs, two levels.
  EXPECT_EQ(spill::SpillMergePasses(6500, 100), 3);   // 65 runs, three levels.
  EXPECT_EQ(spill::SpillMergePasses(0, 100), 0);
}

TEST(SpillSortTest, MatchesInMemorySortAcrossBudgets) {
  const Relation input = RandomRelation(/*seed=*/1, /*rows=*/611, /*cols=*/3,
                                        /*key_range=*/37);
  const std::vector<int> columns = {1, 0};
  for (bool ascending : {true, false}) {
    const Relation expected = ops::SortBy(input, columns, ascending);
    for (int64_t budget : BudgetGrid(input.NumRows())) {
      spill::SpillStats stats;
      const Relation got = spill::SortBy(input, columns, ascending, budget, &stats);
      ASSERT_TRUE(got.RowsEqual(expected))
          << "budget=" << budget << " ascending=" << ascending;
      if (budget > 0 && budget < input.NumRows()) {
        EXPECT_GT(stats.spilled_rows, 0) << "budget=" << budget;
        EXPECT_EQ(stats.merge_passes,
                  spill::SpillMergePasses(input.NumRows(), budget));
      }
    }
  }
  EXPECT_EQ(TempDir::LiveCount(), 0);
  EXPECT_EQ(SpillFile::LiveCount(), 0);
}

TEST(SpillSortTest, StableOnHeavilyDuplicatedKeys) {
  // A payload column distinguishes equal-key rows, so any stability violation
  // in run formation or merge tie-breaks shows up as a row mismatch.
  Relation input = RandomRelation(/*seed=*/2, /*rows=*/400, /*cols=*/1,
                                  /*key_range=*/3);
  std::vector<ColumnDef> defs = input.schema().columns();
  defs.emplace_back("payload");
  Relation tagged{Schema(std::move(defs))};
  tagged.Resize(input.NumRows());
  std::copy(input.ColumnSpan(0).begin(), input.ColumnSpan(0).end(),
            tagged.ColumnData(0));
  for (int64_t r = 0; r < input.NumRows(); ++r) {
    tagged.ColumnData(1)[r] = r;
  }
  const std::vector<int> columns = {0};
  const Relation expected = ops::SortBy(tagged, columns, /*ascending=*/true);
  for (int64_t budget : {1, 5, 49, 399}) {
    const Relation got =
        spill::SortBy(tagged, columns, /*ascending=*/true, budget, nullptr);
    ASSERT_TRUE(got.RowsEqual(expected)) << "budget=" << budget;
  }
}

TEST(SpillDistinctTest, MatchesInMemoryDistinctAcrossBudgets) {
  const Relation input = RandomRelation(/*seed=*/3, /*rows=*/523, /*cols=*/4,
                                        /*key_range=*/9);
  const std::vector<int> columns = {2, 0};
  const Relation expected = ops::Distinct(input, columns);
  for (int64_t budget : BudgetGrid(input.NumRows())) {
    spill::SpillStats stats;
    const Relation got = spill::Distinct(input, columns, budget, &stats);
    ASSERT_TRUE(got.RowsEqual(expected)) << "budget=" << budget;
  }
  EXPECT_EQ(TempDir::LiveCount(), 0);
  EXPECT_EQ(SpillFile::LiveCount(), 0);
}

TEST(SpillAggregateTest, MatchesInMemoryAggregateAcrossBudgetsAndKinds) {
  const Relation input = RandomRelation(/*seed=*/4, /*rows=*/487, /*cols=*/3,
                                        /*key_range=*/23);
  const std::vector<int> group = {0};
  for (AggKind kind : {AggKind::kSum, AggKind::kCount, AggKind::kMin, AggKind::kMax,
                       AggKind::kMean}) {
    const Relation expected = ops::Aggregate(input, group, kind, 2, "agg");
    for (int64_t budget : BudgetGrid(input.NumRows())) {
      spill::SpillStats stats;
      const Relation got = spill::Aggregate(input, group, kind, 2, "agg", budget,
                                            &stats);
      ASSERT_TRUE(got.RowsEqual(expected))
          << "kind=" << AggKindName(kind) << " budget=" << budget;
      ASSERT_EQ(got.schema().columns(), expected.schema().columns());
    }
  }
  EXPECT_EQ(TempDir::LiveCount(), 0);
  EXPECT_EQ(SpillFile::LiveCount(), 0);
}

TEST(SpillAggregateTest, GlobalAggregateSpills) {
  // Zero group columns: every chunk partial is one row; the merge combines them
  // into the single global row.
  const Relation input = RandomRelation(/*seed=*/5, /*rows=*/300, /*cols=*/2,
                                        /*key_range=*/1000);
  const std::vector<int> group = {};
  for (AggKind kind : {AggKind::kSum, AggKind::kCount, AggKind::kMean}) {
    const Relation expected = ops::Aggregate(input, group, kind, 1, "agg");
    for (int64_t budget : {1, 13, 299}) {
      const Relation got =
          spill::Aggregate(input, group, kind, 1, "agg", budget, nullptr);
      ASSERT_TRUE(got.RowsEqual(expected))
          << "kind=" << AggKindName(kind) << " budget=" << budget;
    }
  }
}

TEST(SpillJoinTest, MatchesInMemoryJoinAcrossBudgets) {
  const Relation left = RandomRelation(/*seed=*/6, /*rows=*/347, /*cols=*/3,
                                       /*key_range=*/29);
  const Relation right = RandomRelation(/*seed=*/7, /*rows=*/259, /*cols=*/2,
                                        /*key_range=*/29);
  const std::vector<int> lk = {0};
  const std::vector<int> rk = {0};
  const Relation expected = ops::Join(left, right, lk, rk);
  for (int64_t budget : BudgetGrid(right.NumRows())) {
    spill::SpillStats stats;
    const Relation got = spill::Join(left, right, lk, rk, budget, &stats);
    ASSERT_TRUE(got.RowsEqual(expected)) << "budget=" << budget;
    ASSERT_EQ(got.schema().columns(), expected.schema().columns());
  }
  EXPECT_EQ(TempDir::LiveCount(), 0);
  EXPECT_EQ(SpillFile::LiveCount(), 0);
}

TEST(SpillJoinTest, MultiKeyAndDuplicateHeavyKeys) {
  // key_range 2 over two key columns: ~4 distinct keys across hundreds of rows
  // drives Grace recursion into the depth cap's build-anyway path.
  const Relation left = RandomRelation(/*seed=*/8, /*rows=*/220, /*cols=*/3,
                                       /*key_range=*/2);
  const Relation right = RandomRelation(/*seed=*/9, /*rows=*/180, /*cols=*/3,
                                        /*key_range=*/2);
  const std::vector<int> lk = {0, 1};
  const std::vector<int> rk = {1, 0};
  const Relation expected = ops::Join(left, right, lk, rk);
  for (int64_t budget : {1, 7, 64}) {
    const Relation got = spill::Join(left, right, lk, rk, budget, nullptr);
    ASSERT_TRUE(got.RowsEqual(expected)) << "budget=" << budget;
  }
  EXPECT_EQ(TempDir::LiveCount(), 0);
  EXPECT_EQ(SpillFile::LiveCount(), 0);
}

// The pin grid's budgets for an input that spills above `rows` rows: one and
// two rows, a small odd budget, one that cuts more than kSpillMergeFanIn runs,
// and the spill threshold's edges.
std::vector<int64_t> PinBudgets(int64_t rows) {
  return {1, 2, 7, rows / (2 * spill::kSpillMergeFanIn), rows - 1, rows, rows + 1};
}

// One case of the pin grid: a kernel at one budget, and the stats it reported.
struct PinCase {
  std::string label;
  int64_t budget = 0;
  spill::SpillStats stats;
  // Joins only: the most right rows that share one key. A Grace bucket that the
  // depth cap stops from splitting is built whole, whatever the budget.
  int64_t max_rows_per_key = 0;
};

// Runs every kernel of the pin grid and expects each output to equal its ops::
// kernel's: SortBy both ways, Distinct, Aggregate for every kind over zero, one
// and two group columns, and Join on one key and on two duplicate-heavy keys
// whose buckets reach the Grace depth cap.
std::vector<PinCase> RunPinGrid() {
  std::vector<PinCase> cases;
  const auto run = [&cases](const std::string& label, int64_t rows,
                            int64_t max_rows_per_key, const Relation& expected,
                            const auto& kernel) {
    for (int64_t budget : PinBudgets(rows)) {
      PinCase c{label, budget, {}, max_rows_per_key};
      const Relation got = kernel(budget, &c.stats);
      EXPECT_TRUE(got.RowsEqual(expected)) << label << " budget=" << budget;
      EXPECT_EQ(got.schema(), expected.schema()) << label << " budget=" << budget;
      cases.push_back(std::move(c));
    }
  };

  const Relation input = RandomRelation(/*seed=*/21, /*rows=*/300, /*cols=*/3,
                                        /*key_range=*/11);
  const int64_t rows = input.NumRows();
  const std::vector<int> sort_columns = {1, 0};
  for (bool ascending : {true, false}) {
    run(ascending ? "sort asc" : "sort desc", rows, 0,
        ops::SortBy(input, sort_columns, ascending),
        [&](int64_t budget, spill::SpillStats* stats) {
          return spill::SortBy(input, sort_columns, ascending, budget, stats);
        });
  }
  const std::vector<int> distinct_columns = {2, 0};
  run("distinct", rows, 0, ops::Distinct(input, distinct_columns),
      [&](int64_t budget, spill::SpillStats* stats) {
        return spill::Distinct(input, distinct_columns, budget, stats);
      });
  for (const std::vector<int>& group : std::vector<std::vector<int>>{{}, {0}, {0, 1}}) {
    for (AggKind kind : {AggKind::kSum, AggKind::kCount, AggKind::kMin, AggKind::kMax,
                         AggKind::kMean}) {
      run(StrFormat("aggregate %s over %zu", AggKindName(kind), group.size()), rows, 0,
          ops::Aggregate(input, group, kind, 2, "agg"),
          [&](int64_t budget, spill::SpillStats* stats) {
            return spill::Aggregate(input, group, kind, 2, "agg", budget, stats);
          });
    }
  }

  struct JoinShape {
    const char* label;
    uint64_t seed;
    int64_t left_rows;
    int64_t right_rows;
    int64_t key_range;
    std::vector<int> left_keys;
    std::vector<int> right_keys;
  };
  for (const JoinShape& shape :
       {JoinShape{"join 1 key", 22, 200, 160, 40, {0}, {0}},
        JoinShape{"join 2 keys", 24, 120, 100, 2, {0, 1}, {1, 0}}}) {
    const Relation left = RandomRelation(shape.seed, shape.left_rows, /*cols=*/3,
                                         shape.key_range);
    const Relation right = RandomRelation(shape.seed + 1, shape.right_rows,
                                          /*cols=*/3, shape.key_range);
    std::map<std::vector<int64_t>, int64_t> rows_per_key;
    int64_t max_rows_per_key = 0;
    for (int64_t r = 0; r < right.NumRows(); ++r) {
      std::vector<int64_t> key;
      for (int c : shape.right_keys) {
        key.push_back(right.ColumnSpan(c)[r]);
      }
      max_rows_per_key = std::max(max_rows_per_key, ++rows_per_key[key]);
    }
    run(shape.label, right.NumRows(), max_rows_per_key,
        ops::Join(left, right, shape.left_keys, shape.right_keys),
        [&](int64_t budget, spill::SpillStats* stats) {
          return spill::Join(left, right, shape.left_keys, shape.right_keys, budget,
                             stats);
        });
  }
  return cases;
}

TEST(SpillPinTest, EveryKernelMatchesOpsAndKeepsItsStats) {
  // FNV-1a over the five SpillStats counters of every case, in grid order: it
  // pins every run, byte, merge pass and residency peak across code changes.
  uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](int64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (static_cast<uint64_t>(value) >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  const std::vector<PinCase> cases = RunPinGrid();
  EXPECT_EQ(cases.size(), 7u * (3 + 15 + 2));
  for (const PinCase& c : cases) {
    mix(c.stats.spilled_rows);
    mix(c.stats.spilled_bytes);
    mix(c.stats.runs_written);
    mix(c.stats.merge_passes);
    mix(c.stats.peak_resident_rows);
  }
  EXPECT_EQ(hash, 0x5260646a55e232e5ULL);
  EXPECT_EQ(TempDir::LiveCount(), 0);
  EXPECT_EQ(SpillFile::LiveCount(), 0);
}

TEST(SpillResidencyTest, PeakStaysWithinTheDocumentedBounds) {
  // DESIGN.md §12's residency bounds at every budget of the pin grid. A kernel
  // keeps at most twice its budget, except that a merge holds a batch of at
  // least one row per run, so small budgets peak at kSpillMergeFanIn rows. A
  // Grace bucket stopped by the depth cap is built whole, so a join keeps the
  // bound only when every key's right rows fit the budget.
  for (const PinCase& c : RunPinGrid()) {
    if (c.max_rows_per_key == 0) {
      EXPECT_LE(c.stats.peak_resident_rows,
                std::max(2 * c.budget, spill::kSpillMergeFanIn))
          << c.label << " budget=" << c.budget;
    } else if (c.max_rows_per_key <= c.budget) {
      EXPECT_LE(c.stats.peak_resident_rows, 2 * c.budget)
          << c.label << " budget=" << c.budget;
    }
  }
}

TEST(SpillEdgeCaseTest, EmptyAndSingleRowInputs) {
  const Relation empty = RandomRelation(/*seed=*/10, /*rows=*/0, /*cols=*/2, 5);
  const Relation one = RandomRelation(/*seed=*/11, /*rows=*/1, /*cols=*/2, 5);
  const std::vector<int> cols = {0};
  for (int64_t budget : {0, 1, 100}) {
    EXPECT_TRUE(spill::SortBy(empty, cols, true, budget, nullptr)
                    .RowsEqual(ops::SortBy(empty, cols, true)));
    EXPECT_TRUE(spill::SortBy(one, cols, true, budget, nullptr)
                    .RowsEqual(ops::SortBy(one, cols, true)));
    EXPECT_TRUE(spill::Distinct(empty, cols, budget, nullptr)
                    .RowsEqual(ops::Distinct(empty, cols)));
    EXPECT_TRUE(spill::Distinct(one, cols, budget, nullptr)
                    .RowsEqual(ops::Distinct(one, cols)));
    EXPECT_TRUE(spill::Aggregate(one, cols, AggKind::kSum, 1, "s", budget, nullptr)
                    .RowsEqual(ops::Aggregate(one, cols, AggKind::kSum, 1, "s")));
    EXPECT_TRUE(spill::Join(one, empty, cols, cols, budget, nullptr)
                    .RowsEqual(ops::Join(one, empty, cols, cols)));
  }
  EXPECT_EQ(TempDir::LiveCount(), 0);
  EXPECT_EQ(SpillFile::LiveCount(), 0);
}

TEST(SpillResidencyTest, PeakResidentStaysNearBudget) {
  // 16x the budget: run formation peaks at 2x budget (chunk + sorted copy);
  // the merge stays below it (fan-in read heads of budget/9 rows each).
  const int64_t budget = 128;
  const Relation input = RandomRelation(/*seed=*/12, /*rows=*/16 * budget,
                                        /*cols=*/2, /*key_range=*/1000);
  spill::SpillStats stats;
  const Relation got =
      spill::SortBy(input, std::vector<int>{0}, true, budget, &stats);
  EXPECT_TRUE(got.RowsEqual(ops::SortBy(input, std::vector<int>{0}, true)));
  EXPECT_GT(stats.peak_resident_rows, 0);
  EXPECT_LE(stats.peak_resident_rows, 2 * budget);
}

TEST(SpillTempFileTest, SpillDirHonoredAndEmptiedOnExit) {
  const std::string base =
      (std::filesystem::temp_directory_path() / "conclave-spill-test-base").string();
  std::filesystem::remove_all(base);
  {
    test::ScopedEnvVar dir("CONCLAVE_SPILL_DIR", base.c_str());
    const Relation input = RandomRelation(/*seed=*/13, /*rows=*/200, /*cols=*/2, 50);
    spill::SpillStats stats;
    (void)spill::SortBy(input, std::vector<int>{0}, true, /*budget=*/16, &stats);
    EXPECT_GT(stats.runs_written, 0);
    // All run files and their TempDir are gone the moment the kernel returns.
    EXPECT_TRUE(std::filesystem::exists(base));
    EXPECT_TRUE(std::filesystem::is_empty(base));
    EXPECT_EQ(TempDir::LiveCount(), 0);
    EXPECT_EQ(SpillFile::LiveCount(), 0);
  }
  std::filesystem::remove_all(base);
}

TEST(SpillTempFileTest, GuardsUnlinkOnEarlyDestruction) {
  // Simulates an abort path: guards destroyed before any reader consumed them.
  std::string dir_path;
  std::string file_path;
  {
    TempDir dir;
    dir_path = dir.path();
    EXPECT_TRUE(std::filesystem::exists(dir_path));
    SpillFile file(dir.path() + "/orphan");
    file_path = file.path();
    { std::FILE* f = std::fopen(file_path.c_str(), "wb"); std::fclose(f); }
    EXPECT_EQ(SpillFile::LiveCount(), 1);
    EXPECT_EQ(TempDir::LiveCount(), 1);
  }
  EXPECT_FALSE(std::filesystem::exists(file_path));
  EXPECT_FALSE(std::filesystem::exists(dir_path));
  EXPECT_EQ(TempDir::LiveCount(), 0);
  EXPECT_EQ(SpillFile::LiveCount(), 0);
}

TEST(SpillEnvTest, DefaultMemBudgetRowsResolvesEnv) {
  {
    test::ScopedEnvVar unset("CONCLAVE_MEM_BUDGET", nullptr);
    EXPECT_EQ(DefaultMemBudgetRows(), 0);
  }
  {
    test::ScopedEnvVar set("CONCLAVE_MEM_BUDGET", "4096");
    EXPECT_EQ(DefaultMemBudgetRows(), 4096);
  }
  {
    test::ScopedEnvVar zero("CONCLAVE_MEM_BUDGET", "0");
    EXPECT_EQ(DefaultMemBudgetRows(), 0);
  }
  // Malformed values (negative, non-numeric) abort loudly via env::Int64Knob;
  // that contract is covered by the death tests in common_test.cc.
}

}  // namespace
}  // namespace conclave
