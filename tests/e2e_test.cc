// End-to-end tests: queries written against the public API, compiled with all passes,
// executed by the dispatcher across simulated parties — and checked cell-for-cell
// against a single-trusted-party cleartext evaluation of the same query.
#include <gtest/gtest.h>

#include <fstream>

#include "conclave/api/conclave.h"
#include "conclave/common/tempfile.h"
#include "conclave/data/generators.h"
#include "conclave/relational/pipeline.h"
#include "test_util.h"

namespace conclave {
namespace {

using api::Party;
using api::Query;
using api::Table;

Relation TwoColumnRelation(const std::string& c0, const std::string& c1,
                           std::initializer_list<std::pair<int64_t, int64_t>> rows) {
  Relation rel{Schema::Of({c0, c1})};
  for (const auto& [a, b] : rows) {
    rel.AppendRow({a, b});
  }
  return rel;
}

TEST(EndToEndTest, SingleIntersectionSum) {
  Query query;
  Party alice = query.AddParty("alice");
  Party bob = query.AddParty("bob");
  Table a = query.NewTable("a", {{"k"}, {"v"}}, alice);
  Table b = query.NewTable("b", {{"k"}, {"w"}}, bob);
  a.Join(b, {"k"}, {"k"})
      .Aggregate("total", AggKind::kSum, {"k"}, "v")
      .WriteToCsv("out", {alice});

  std::map<std::string, Relation> inputs;
  inputs["a"] = TwoColumnRelation("k", "v", {{1, 10}, {2, 20}, {3, 30}});
  inputs["b"] = TwoColumnRelation("k", "w", {{2, 1}, {3, 1}, {4, 1}});
  const auto result = query.Run(inputs);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Relation expected =
      TwoColumnRelation("k", "total", {{2, 20}, {3, 30}});
  EXPECT_TRUE(UnorderedEqual(result->outputs.at("out"), expected));
  EXPECT_GT(result->virtual_seconds, 0.0);
}

// A declared party takes part even when it holds no input and receives no output:
// join keys trusted only by the fifth of five declared parties make it the STP of a
// hybrid join.
TEST(EndToEndTest, DeclaredIdlePartyCanBeTheStp) {
  Query query;
  Party alice = query.AddParty("alice");
  Party bob = query.AddParty("bob");
  query.AddParty("carol");
  query.AddParty("dave");
  Party auditor = query.AddParty("auditor");
  Table a = query.NewTable("a", {{"k", {auditor}}, {"v"}}, alice);
  Table b = query.NewTable("b", {{"k", {auditor}}, {"w"}}, bob);
  a.Join(b, {"k"}, {"k"}).WriteToCsv("out", {alice});

  std::map<std::string, Relation> inputs;
  inputs["a"] = TwoColumnRelation("k", "v", {{1, 10}, {2, 20}, {3, 30}, {3, 31}});
  inputs["b"] = TwoColumnRelation("k", "w", {{2, 200}, {3, 300}, {4, 400}});
  const auto result = query.Run(inputs);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const ir::OpNode* join = nullptr;
  for (const ir::OpNode* node : query.dag().TopoOrder()) {
    if (node->kind == ir::OpKind::kJoin) {
      join = node;
    }
  }
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->hybrid, ir::HybridKind::kHybridJoin);
  EXPECT_EQ(join->stp, auditor.id);

  Relation expected{Schema::Of({"k", "v", "w"})};
  expected.AppendRow({2, 20, 200});
  expected.AppendRow({3, 30, 300});
  expected.AppendRow({3, 31, 300});
  EXPECT_TRUE(UnorderedEqual(result->outputs.at("out"), expected));
}

TEST(EndToEndTest, MissingInputIsError) {
  Query query;
  Party alice = query.AddParty("alice");
  Table a = query.NewTable("a", {{"k"}, {"v"}}, alice);
  a.Project({"k"}).WriteToCsv("out", {alice});
  const auto result = query.Run({});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EndToEndTest, SchemaMismatchIsError) {
  Query query;
  Party alice = query.AddParty("alice");
  Table a = query.NewTable("a", {{"k"}, {"v"}}, alice);
  a.Project({"k"}).WriteToCsv("out", {alice});
  std::map<std::string, Relation> inputs;
  inputs["a"] = Relation{Schema::Of({"wrong", "names"})};
  EXPECT_EQ(query.Run(inputs).status().code(), StatusCode::kInvalidArgument);
}

// The market-concentration query (Listing 2) over three parties, checked against a
// cleartext evaluation on the union of the inputs.
class MarketQueryTest : public ::testing::TestWithParam<bool> {};

TEST_P(MarketQueryTest, HhiMatchesCleartextReference) {
  const bool enable_passes = GetParam();
  Query query;
  Party pa = query.AddParty("a");
  Party pb = query.AddParty("b");
  Party pc = query.AddParty("c");
  std::vector<api::ColumnSpec> columns{{"companyID"}, {"price"}};
  Table ta = query.NewTable("inputA", columns, pa);
  Table tb = query.NewTable("inputB", columns, pb);
  Table tc = query.NewTable("inputC", columns, pc);
  Table taxi = query.Concat({ta, tb, tc});
  Table rev = taxi.Filter("price", CompareOp::kGt, 0)
                  .Aggregate("local_rev", AggKind::kSum, {"companyID"}, "price");
  // Keyed total: constant key 1 on both sides replaces the paper's scalar join.
  Table keyed = rev.MultiplyConst("zero", "local_rev", 0).AddConst("one", "zero", 1);
  Table market_size =
      keyed.Aggregate("total_rev", AggKind::kSum, {"one"}, "local_rev");
  Table share = keyed.Join(market_size, {"one"}, {"one"})
                    .Divide("m_share", "local_rev", "total_rev", 10000);
  Table hhi = share.Multiply("ms_sq", "m_share", "m_share")
                  .Aggregate("hhi", AggKind::kSum, {}, "ms_sq");
  hhi.WriteToCsv("hhi", {pa});

  std::map<std::string, Relation> inputs;
  data::TaxiConfig config;
  config.rows = 500;
  for (int party = 0; party < 3; ++party) {
    config.company_id = party % 2;  // Two companies across three books.
    config.seed = static_cast<uint64_t>(party) + 1;
    inputs[party == 0 ? "inputA" : party == 1 ? "inputB" : "inputC"] =
        data::TaxiTrips(config);
  }

  // Cleartext reference on the combined data.
  Relation combined = ops::Concat(std::vector<Relation>{
      inputs.at("inputA"), inputs.at("inputB"), inputs.at("inputC")});
  Relation filtered =
      ops::Filter(combined, FilterPredicate::ColumnVsLiteral(1, CompareOp::kGt, 0));
  const int group[] = {0};
  Relation rev_ref = ops::Aggregate(filtered, group, AggKind::kSum, 1, "local_rev");
  int64_t total = 0;
  for (int64_t r = 0; r < rev_ref.NumRows(); ++r) {
    total += rev_ref.At(r, 1);
  }
  int64_t hhi_ref = 0;
  for (int64_t r = 0; r < rev_ref.NumRows(); ++r) {
    const int64_t share_ref = total == 0 ? 0 : rev_ref.At(r, 1) * 10000 / total;
    hhi_ref += share_ref * share_ref;
  }

  compiler::CompilerOptions options;
  options.push_down = enable_passes;
  options.push_up = enable_passes;
  options.use_hybrid = enable_passes;
  options.sort_elimination = enable_passes;
  const auto result = query.Run(inputs, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Relation& out = result->outputs.at("hhi");
  ASSERT_EQ(out.NumRows(), 1);
  EXPECT_EQ(out.At(0, out.NumColumns() - 1), hhi_ref);
}

INSTANTIATE_TEST_SUITE_P(PassToggle, MarketQueryTest, ::testing::Bool());

// The credit-card regulation query (Listing 1), with and without trust annotations.
class CreditQueryTest : public ::testing::TestWithParam<bool> {};

TEST_P(CreditQueryTest, AverageScoresMatchReference) {
  const bool annotate_ssn = GetParam();
  Query query;
  Party regulator = query.AddParty("regulator");
  Party bank1 = query.AddParty("bank1");
  Party bank2 = query.AddParty("bank2");

  std::vector<api::ColumnSpec> demo_cols{{"ssn"}, {"zip"}};
  std::vector<api::ColumnSpec> bank_cols;
  if (annotate_ssn) {
    bank_cols = {{"ssn", {regulator}}, {"score"}};
  } else {
    bank_cols = {{"ssn"}, {"score"}};
  }
  Table demo = query.NewTable("demographics", demo_cols, regulator);
  Table s1 = query.NewTable("scores1", bank_cols, bank1);
  Table s2 = query.NewTable("scores2", bank_cols, bank2);
  Table scores = query.Concat({s1, s2});
  Table joined = demo.Join(scores, {"ssn"}, {"ssn"});
  Table by_zip = joined.Count("count", {"zip"});
  Table total = joined.Aggregate("total", AggKind::kSum, {"zip"}, "score");
  total.Join(by_zip, {"zip"}, {"zip"})
      .Divide("avg_score", "total", "count")
      .WriteToCsv("avg_scores", {regulator});

  std::map<std::string, Relation> inputs;
  inputs["demographics"] = data::Demographics(200, 1000, 10, 7);
  inputs["scores1"] = data::CreditScores(150, 1000, 8);
  inputs["scores2"] = data::CreditScores(150, 1000, 9);

  // Cleartext reference.
  Relation scores_ref = ops::Concat(
      std::vector<Relation>{inputs.at("scores1"), inputs.at("scores2")});
  const int ssn_key[] = {0};
  Relation joined_ref =
      ops::Join(inputs.at("demographics"), scores_ref, ssn_key, ssn_key);
  const int zip_col[] = {1};
  Relation count_ref = ops::Aggregate(joined_ref, zip_col, AggKind::kCount, 0, "count");
  Relation total_ref = ops::Aggregate(joined_ref, zip_col, AggKind::kSum, 2, "total");
  const int zip_key[] = {0};
  Relation avg_ref = ops::Join(total_ref, count_ref, zip_key, zip_key);
  ArithSpec div;
  div.kind = ArithKind::kDiv;
  div.lhs_column = 1;
  div.rhs_is_column = true;
  div.rhs_column = 2;
  div.result_name = "avg_score";
  avg_ref = ops::Arithmetic(avg_ref, div);

  const auto result = query.Run(inputs);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(UnorderedEqual(result->outputs.at("avg_scores"), avg_ref));
}

INSTANTIATE_TEST_SUITE_P(TrustToggle, CreditQueryTest, ::testing::Bool());

TEST(CreditQueryTest, AnnotationsEnableHybridAndSpeedup) {
  auto build = [](Query& query, bool annotate) {
    Party regulator = query.AddParty("regulator");
    Party bank1 = query.AddParty("bank1");
    Party bank2 = query.AddParty("bank2");
    std::vector<api::ColumnSpec> bank_cols =
        annotate ? std::vector<api::ColumnSpec>{{"ssn", {regulator}}, {"score"}}
                 : std::vector<api::ColumnSpec>{{"ssn"}, {"score"}};
    Table demo = query.NewTable("demographics", {{"ssn"}, {"zip"}}, regulator);
    Table s1 = query.NewTable("scores1", bank_cols, bank1);
    Table s2 = query.NewTable("scores2", bank_cols, bank2);
    Table joined = demo.Join(query.Concat({s1, s2}), {"ssn"}, {"ssn"});
    joined.Aggregate("total", AggKind::kSum, {"zip"}, "score")
        .WriteToCsv("out", {regulator});
  };

  // Sizes sit above the hybrid crossover: below ~1k rows the hybrid protocol's fixed
  // round-trips dominate and pure MPC is competitive (visible in fig6_credit).
  std::map<std::string, Relation> inputs;
  inputs["demographics"] = data::Demographics(1500, 8000, 10, 1);
  inputs["scores1"] = data::CreditScores(1000, 8000, 2);
  inputs["scores2"] = data::CreditScores(1000, 8000, 3);

  Query annotated;
  build(annotated, true);
  const auto fast = annotated.Run(inputs);
  ASSERT_TRUE(fast.ok());
  EXPECT_GT(fast->hybrid_seconds, 0.0);

  Query plain;
  build(plain, false);
  const auto slow = plain.Run(inputs);
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(slow->hybrid_seconds, 0.0);

  EXPECT_TRUE(
      UnorderedEqual(fast->outputs.at("out"), slow->outputs.at("out")));
  // Fig. 6's point: hybrid operators make the query far cheaper.
  EXPECT_LT(fast->virtual_seconds, slow->virtual_seconds / 2);
}

TEST(EndToEndTest, ComorbidityTopK) {
  Query query;
  Party h0 = query.AddParty("hospital0");
  Party h1 = query.AddParty("hospital1");
  Table d0 = query.NewTable("diag0", {{"pid"}, {"diag"}}, h0);
  Table d1 = query.NewTable("diag1", {{"pid"}, {"diag"}}, h1);
  query.Concat({d0, d1})
      .Count("cnt", {"diag"})
      .SortBy({"cnt"}, /*ascending=*/false)
      .Limit(5)
      .WriteToCsv("top", {h0});

  data::HealthConfig config;
  config.rows_per_party = 200;
  config.seed = 11;
  std::map<std::string, Relation> inputs;
  inputs["diag0"] = data::ComorbidityDiagnoses(config, 0);
  inputs["diag1"] = data::ComorbidityDiagnoses(config, 1);

  const auto result = query.Run(inputs);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Relation& top = result->outputs.at("top");
  ASSERT_EQ(top.NumRows(), 5);
  // Counts descend.
  for (int64_t r = 1; r < top.NumRows(); ++r) {
    EXPECT_GE(top.At(r - 1, 1), top.At(r, 1));
  }
  // Top count matches the cleartext reference.
  Relation combined = ops::Concat(
      std::vector<Relation>{inputs.at("diag0"), inputs.at("diag1")});
  const int diag_col[] = {1};
  Relation counts = ops::Aggregate(combined, diag_col, AggKind::kCount, 0, "cnt");
  int64_t max_count = 0;
  for (int64_t r = 0; r < counts.NumRows(); ++r) {
    max_count = std::max(max_count, counts.At(r, 1));
  }
  EXPECT_EQ(top.At(0, 1), max_count);
}

TEST(EndToEndTest, GarbledBackendMatchesSharemindBackend) {
  auto run = [](compiler::MpcBackendKind backend) {
    Query query;
    Party alice = query.AddParty("alice");
    Party bob = query.AddParty("bob");
    Table a = query.NewTable("a", {{"k"}, {"v"}}, alice);
    Table b = query.NewTable("b", {{"k"}, {"v"}}, bob);
    query.Concat({a, b})
        .Aggregate("s", AggKind::kSum, {"k"}, "v")
        .WriteToCsv("out", {alice});
    std::map<std::string, Relation> inputs;
    inputs["a"] = TwoColumnRelation("k", "v", {{1, 5}, {2, 6}, {1, 7}});
    inputs["b"] = TwoColumnRelation("k", "v", {{2, 8}, {3, 9}});
    compiler::CompilerOptions options;
    options.mpc_backend = backend;
    options.use_hybrid = false;
    return query.Run(inputs, options);
  };
  const auto sharemind = run(compiler::MpcBackendKind::kSharemind);
  const auto oblivc = run(compiler::MpcBackendKind::kOblivC);
  ASSERT_TRUE(sharemind.ok()) << sharemind.status().ToString();
  ASSERT_TRUE(oblivc.ok()) << oblivc.status().ToString();
  EXPECT_TRUE(UnorderedEqual(sharemind->outputs.at("out"),
                             oblivc->outputs.at("out")));
  EXPECT_GT(oblivc->counters.gc_and_gates, 0u);
  EXPECT_EQ(sharemind->counters.gc_and_gates, 0u);
}

TEST(EndToEndTest, SimulatedOomSurfacesAsResourceExhausted) {
  Query query;
  Party alice = query.AddParty("alice");
  Party bob = query.AddParty("bob");
  Table a = query.NewTable("a", {{"k"}, {"v"}}, alice);
  Table b = query.NewTable("b", {{"k"}, {"v"}}, bob);
  a.Join(b, {"k"}, {"k"}).WriteToCsv("out", {alice});
  std::map<std::string, Relation> inputs;
  inputs["a"] = data::UniformInts(500, {"k", "v"}, 100, 1);
  inputs["b"] = data::UniformInts(500, {"k", "v"}, 100, 2);
  CostModel tiny;
  tiny.ss_memory_limit_bytes = 10000;
  const auto result = query.Run(inputs, compiler::CompilerOptions{}, tiny);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(EndToEndTest, ParallelLocalJobsOverlapInVirtualTime) {
  // Three parties each pre-aggregate the same amount of data; the schedule should
  // charge roughly one party's local time, not three.
  Query query;
  Party pa = query.AddParty("a");
  Party pb = query.AddParty("b");
  Party pc = query.AddParty("c");
  Table ta = query.NewTable("ta", {{"k"}, {"v"}}, pa);
  Table tb = query.NewTable("tb", {{"k"}, {"v"}}, pb);
  Table tc = query.NewTable("tc", {{"k"}, {"v"}}, pc);
  query.Concat({ta, tb, tc})
      .Aggregate("s", AggKind::kSum, {"k"}, "v")
      .WriteToCsv("out", {pa});
  std::map<std::string, Relation> inputs;
  inputs["ta"] = data::UniformInts(3000, {"k", "v"}, 5, 1);
  inputs["tb"] = data::UniformInts(3000, {"k", "v"}, 5, 2);
  inputs["tc"] = data::UniformInts(3000, {"k", "v"}, 5, 3);
  const auto result = query.Run(inputs);
  ASSERT_TRUE(result.ok());
  // local_seconds sums all parties' work; the critical path must be well below it
  // plus the MPC tail (otherwise locals were serialized).
  EXPECT_LT(result->virtual_seconds,
            result->local_seconds * 0.67 + result->mpc_seconds +
                result->hybrid_seconds);
}

TEST(EndToEndTest, CompileReportsTransformations) {
  Query query;
  Party pa = query.AddParty("a");
  Party pb = query.AddParty("b");
  Table ta = query.NewTable("ta", {{"k"}, {"v"}}, pa);
  Table tb = query.NewTable("tb", {{"k"}, {"v"}}, pb);
  query.Concat({ta, tb})
      .Filter("v", CompareOp::kGt, 0)
      .Aggregate("s", AggKind::kSum, {"k"}, "v")
      .WriteToCsv("out", {pa});
  const auto compilation = query.Compile(compiler::CompilerOptions{});
  ASSERT_TRUE(compilation.ok());
  bool found_pushdown = false;
  for (const auto& line : compilation->transformations) {
    if (line.find("push-down") != std::string::npos) {
      found_pushdown = true;
    }
  }
  EXPECT_TRUE(found_pushdown);
}

// Recurrent c.diff (SMCQL's third query) written against the public API: filter to
// c.diff events, lag over each patient's timeline, qualify gaps inside the
// recurrence window, and output the distinct recurrent patients. Runs with and
// without trust annotations (hybrid window vs. pure MPC window).
class RecurrentCdiffQueryTest : public ::testing::TestWithParam<bool> {};

TEST_P(RecurrentCdiffQueryTest, DistinctRecurrentPatientsMatchReference) {
  const bool annotate = GetParam();
  Query query;
  Party h0 = query.AddParty("hospital0");
  Party h1 = query.AddParty("hospital1");
  // With annotation, both hospitals trust hospital0 with the full event schema,
  // enabling the hybrid window (hospital0 as STP). The diag column must be included:
  // the preceding filter on diag taints every downstream column (§5.1), so an
  // unannotated diag would (correctly) block the hybrid rewrite.
  std::vector<api::ColumnSpec> columns =
      annotate ? std::vector<api::ColumnSpec>{{"pid", {h0}},
                                              {"time", {h0}},
                                              {"diag", {h0}}}
               : std::vector<api::ColumnSpec>{{"pid"}, {"time"}, {"diag"}};
  Table d0 = query.NewTable("d0", columns, h0);
  Table d1 = query.NewTable("d1", columns, h1);
  query.Concat({d0, d1})
      .Filter("diag", CompareOp::kEq, data::kCdiffCode)
      .Window("prev_t", WindowFn::kLag, {"pid"}, "time", "time")
      .Subtract("gap", "time", "prev_t")
      .Filter("prev_t", CompareOp::kGt, 0)
      .Filter("gap", CompareOp::kGe, data::kRecurrenceGapMinDays)
      .Filter("gap", CompareOp::kLe, data::kRecurrenceGapMaxDays)
      .Distinct({"pid"})
      .WriteToCsv("recurrent", {h0});

  data::HealthConfig config;
  config.rows_per_party = 150;
  config.overlap_fraction = 0.1;
  config.seed = 31;
  std::map<std::string, Relation> inputs;
  inputs["d0"] = data::CdiffDiagnoses(config, 0);
  inputs["d1"] = data::CdiffDiagnoses(config, 1);

  // Cleartext reference on the combined event log.
  Relation all =
      ops::Concat(std::vector<Relation>{inputs.at("d0"), inputs.at("d1")});
  Relation cdiff = ops::Filter(
      all, FilterPredicate::ColumnVsLiteral(2, CompareOp::kEq, data::kCdiffCode));
  WindowSpec spec;
  spec.partition_columns = {0};
  spec.order_column = 1;
  spec.fn = WindowFn::kLag;
  spec.value_column = 1;
  spec.output_name = "prev_t";
  Relation lagged = ops::Window(cdiff, spec);
  ArithSpec gap;
  gap.kind = ArithKind::kSub;
  gap.lhs_column = 1;
  gap.rhs_is_column = true;
  gap.rhs_column = 3;
  gap.result_name = "gap";
  Relation with_gap = ops::Arithmetic(lagged, gap);
  Relation qualified = ops::Filter(
      ops::Filter(ops::Filter(with_gap, FilterPredicate::ColumnVsLiteral(
                                            3, CompareOp::kGt, 0)),
                  FilterPredicate::ColumnVsLiteral(4, CompareOp::kGe,
                                                   data::kRecurrenceGapMinDays)),
      FilterPredicate::ColumnVsLiteral(4, CompareOp::kLe,
                                       data::kRecurrenceGapMaxDays));
  const int pid_col[] = {0};
  Relation expected = ops::Distinct(qualified, pid_col);
  ASSERT_GT(expected.NumRows(), 0);  // The generator guarantees recurrences.

  const auto result = query.Run(inputs);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(UnorderedEqual(result->outputs.at("recurrent"), expected));
  if (annotate) {
    EXPECT_GT(result->hybrid_seconds, 0.0);  // The hybrid window fired.
  } else {
    EXPECT_EQ(result->hybrid_seconds, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(TrustToggle, RecurrentCdiffQueryTest, ::testing::Bool());

// --- Beyond-RAM execution (DESIGN.md §12) -----------------------------------

// A sort/join/group-by query whose input is 8x the per-operator budget must
// complete with the spill kernels' resident working set capped at ~2x the
// budget, bit-identical to the unbounded run, with the virtual-clock delta
// equal to exactly the priced spill I/O.
TEST(BeyondRamTest, SortJoinGroupBySpillsWithinBudgetBitIdentically) {
  constexpr int64_t kBudget = 200;
  constexpr int64_t kFactRows = 8 * kBudget;
  const auto build = [](Query& query, std::map<std::string, Relation>& inputs) {
    Party alice = query.AddParty("alice");
    Table fact = query.NewTable("fact", {{"k"}, {"v"}}, alice, kFactRows);
    Table dim = query.NewTable("dim", {{"k"}, {"w"}}, alice, 400);
    fact.Join(dim, {"k"}, {"k"})
        .Aggregate("total", AggKind::kSum, {"k"}, "v")
        .SortBy({"total"})
        .WriteToCsv("out", {alice});
    Relation fact_rel{Schema::Of({"k", "v"})};
    for (int64_t i = 0; i < kFactRows; ++i) {
      fact_rel.AppendRow({i % 400, (i * 37) % 1000});
    }
    Relation dim_rel{Schema::Of({"k", "w"})};
    for (int64_t j = 0; j < 400; ++j) {
      dim_rel.AppendRow({j, j * 2});
    }
    inputs["fact"] = std::move(fact_rel);
    inputs["dim"] = std::move(dim_rel);
  };

  Query unbounded_query;
  std::map<std::string, Relation> inputs;
  build(unbounded_query, inputs);
  const auto unbounded =
      unbounded_query.Run(inputs, {}, CostModel{}, /*seed=*/42,
                          {.mem_budget_rows = -1});
  ASSERT_TRUE(unbounded.ok()) << unbounded.status().ToString();
  EXPECT_EQ(unbounded->spill_report.mem_budget_rows, 0);
  EXPECT_EQ(unbounded->spill_report.spill_seconds, 0.0);
  EXPECT_EQ(unbounded->spill_report.stats.spilled_rows, 0);

  Query budgeted_query;
  std::map<std::string, Relation> budgeted_inputs;
  build(budgeted_query, budgeted_inputs);
  const auto budgeted =
      budgeted_query.Run(budgeted_inputs, {}, CostModel{}, /*seed=*/42,
                         {.mem_budget_rows = kBudget});
  ASSERT_TRUE(budgeted.ok()) << budgeted.status().ToString();
  EXPECT_TRUE(budgeted->outputs.at("out").RowsEqual(unbounded->outputs.at("out")));
  EXPECT_GT(budgeted->spill_report.spilling_nodes, 0);
  EXPECT_GT(budgeted->spill_report.stats.spilled_rows, 0);
  // Residency witness: the blocking kernels held at most ~2x the budget.
  EXPECT_GT(budgeted->spill_report.stats.peak_resident_rows, 0);
  EXPECT_LE(budgeted->spill_report.stats.peak_resident_rows, 2 * kBudget);
  // Exact spill identity: budgeted clock == unbounded clock + priced spill.
  EXPECT_EQ(budgeted->virtual_seconds,
            unbounded->virtual_seconds + budgeted->spill_report.spill_seconds);
  EXPECT_GT(budgeted->spill_report.spill_seconds, 0.0);
}

// A CSV-backed table whose sole consumer is a fused chain must stream: the
// pipelines parse row ranges batch-at-a-time and the source relation never
// materializes — the residency witness caps at one batch.
TEST(BeyondRamTest, CsvSourceStreamsThroughFusedChainWithoutMaterializing) {
  constexpr int64_t kRows = 3000;
  constexpr int64_t kBatch = 128;
  TempDir dir;
  const std::string path = dir.path() + "/t.csv";
  {
    std::ofstream file(path);
    file << "k,v\n";
    for (int64_t i = 0; i < kRows; ++i) {
      file << i << "," << (i % 100) << "\n";
    }
  }
  const auto build = [&path](Query& query, bool from_csv) {
    Party alice = query.AddParty("alice");
    Table t = from_csv
                  ? query.NewCsvTable("t", {{"k"}, {"v"}}, alice, path, kRows)
                  : query.NewTable("t", {{"k"}, {"v"}}, alice, kRows);
    t.Filter("v", CompareOp::kGt, 50).Project({"k"}).WriteToCsv("out", {alice});
  };

  Query streamed_query;
  build(streamed_query, /*from_csv=*/true);
  const auto streamed = streamed_query.Run({}, {}, CostModel{}, /*seed=*/42,
                                           {.batch_rows = kBatch});
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  // The non-materialization witness: no parse ever produced more than one
  // batch of source rows.
  EXPECT_GT(streamed->source_peak_rows, 0);
  EXPECT_LE(streamed->source_peak_rows, kBatch);

  // Baseline: the same rows handed over in memory, with no CSV source.
  Relation rows{Schema::Of({"k", "v"})};
  for (int64_t i = 0; i < kRows; ++i) {
    rows.AppendRow({i, i % 100});
  }
  Query materialized_query;
  build(materialized_query, /*from_csv=*/false);
  const auto materialized = materialized_query.Run(
      {{"t", rows}}, {}, CostModel{}, /*seed=*/42);
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  EXPECT_EQ(materialized->source_peak_rows, 0);  // No CSV source.
  EXPECT_TRUE(
      streamed->outputs.at("out").RowsEqual(materialized->outputs.at("out")));
  // Streamed ingest never moves the clock.
  EXPECT_EQ(streamed->virtual_seconds, materialized->virtual_seconds);

  const int64_t expected_rows = kRows - (kRows / 100) * 51;  // v in [51, 99].
  EXPECT_EQ(streamed->outputs.at("out").NumRows(), expected_rows);
}

// ExplainPlan's spill-advice must quote the formula the meter charges: with the
// budget resolved from the environment, the planner's priced spill seconds
// equal the executed run's, bit for bit.
TEST(BeyondRamTest, ExplainSpillAdviceMatchesMeterExactly) {
  test::ScopedEnvVar budget_env("CONCLAVE_MEM_BUDGET", "50");
  const auto build = [](Query& query, std::map<std::string, Relation>& inputs) {
    Party alice = query.AddParty("alice");
    Table t = query.NewTable("t", {{"k"}, {"v"}}, alice, /*num_rows_hint=*/800);
    t.SortBy({"v"}).WriteToCsv("out", {alice});
    Relation rel{Schema::Of({"k", "v"})};
    for (int64_t i = 0; i < 800; ++i) {
      rel.AppendRow({i, (i * 37) % 801});
    }
    inputs["t"] = std::move(rel);
  };

  Query explain_query;
  std::map<std::string, Relation> explain_inputs;
  build(explain_query, explain_inputs);
  const auto report = explain_query.ExplainPlan();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->ToString().find("spill-advice: budget 50"),
            std::string::npos)
      << report->ToString();
  EXPECT_GT(report->spilling_nodes, 0);
  EXPECT_GT(report->spill_seconds, 0.0);

  Query run_query;
  std::map<std::string, Relation> run_inputs;
  build(run_query, run_inputs);
  const auto result = run_query.Run(run_inputs);  // Budget from the env.
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->spill_report.mem_budget_rows, 50);
  // Estimate == meter, exactly: same closed form, same cardinalities.
  EXPECT_EQ(result->spill_report.spill_seconds, report->spill_seconds);
  EXPECT_EQ(result->spill_report.spilling_nodes, report->spilling_nodes);
  EXPECT_EQ(result->spill_report.spill_passes, report->spill_total_passes);
}

}  // namespace
}  // namespace conclave
