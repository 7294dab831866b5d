// Tests for the shared plan-cost subsystem (compiler/plan_cost.h): the closed-form
// Batcher network shapes match the materialized networks, per-node estimates match
// the dispatcher's metered virtual seconds when cardinalities are exact, and — the
// chooser's contract — for every figure-bench query shape, the explain output picks
// the backend whose *measured* virtual seconds are minimal.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "conclave/api/conclave.h"
#include "conclave/compiler/compiler.h"
#include "conclave/compiler/ownership.h"
#include "conclave/compiler/plan_cost.h"
#include "conclave/data/generators.h"
#include "conclave/mpc/garbled/gc_cost.h"
#include "conclave/mpc/oblivious.h"

namespace conclave {
namespace compiler {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// --- Batcher network shapes -----------------------------------------------------------

TEST(BatcherShapeTest, SortShapeMatchesMaterializedLayers) {
  for (int64_t n : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100,
                    127, 128, 129, 1000, 1023}) {
    const auto layers = BatcherSortLayers(n);
    uint64_t exchanges = 0;
    for (const auto& layer : layers) {
      exchanges += layer.size();
    }
    const gc::BatcherNetworkShape shape =
        gc::BatcherSortShape(static_cast<uint64_t>(n));
    EXPECT_EQ(shape.exchanges, exchanges) << "n=" << n;
    EXPECT_EQ(shape.layers, layers.size()) << "n=" << n;
  }
}

TEST(BatcherShapeTest, MergeShapeMatchesMaterializedLayers) {
  const std::pair<int64_t, int64_t> cases[] = {{1, 2},  {2, 3},   {2, 4},
                                               {4, 6},  {4, 8},   {8, 13},
                                               {16, 32}, {64, 100}};
  for (const auto& [run, total] : cases) {
    const auto layers = BatcherMergeLayers(run, total);
    uint64_t exchanges = 0;
    for (const auto& layer : layers) {
      exchanges += layer.size();
    }
    const gc::BatcherNetworkShape shape = gc::BatcherMergeShape(
        static_cast<uint64_t>(run), static_cast<uint64_t>(total));
    EXPECT_EQ(shape.exchanges, exchanges) << run << "/" << total;
    EXPECT_EQ(shape.layers, layers.size()) << run << "/" << total;
  }
}

// --- Estimate vs. metered execution ---------------------------------------------------

// Relation with k = 0..rows-1 (unique keys: join output cardinality is exactly
// max(n, m) * fanout 1, matching the estimator's default).
Relation SequentialKeys(int64_t rows, std::initializer_list<std::string> columns) {
  Relation rel{Schema::Of(columns)};
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<int64_t> row(columns.size(), r % 97);
    row[0] = r;
    rel.AppendRow(row);
  }
  return rel;
}

CompilerOptions NoPassOptions(MpcBackendKind backend) {
  CompilerOptions options;
  options.push_down = false;
  options.push_up = false;
  options.use_hybrid = false;
  options.sort_elimination = false;
  options.sort_push_up = false;
  options.mpc_backend = backend;
  options.explain_plan = true;
  return options;
}

// Runs `build`'s query compiled with `options` (explain on) and asserts that
// every explain node's estimate equals the dispatcher's meter for that node.
template <typename BuildFn>
void ExpectEstimatesMatchMeters(BuildFn build,
                                const std::map<std::string, Relation>& inputs,
                                const CompilerOptions& options) {
  const MpcBackendKind backend = options.mpc_backend;
  api::Query query;
  build(query);
  const auto compilation = query.Compile(options);
  ASSERT_TRUE(compilation.ok()) << compilation.status().ToString();
  ASSERT_TRUE(compilation->has_cost_report);
  ASSERT_FALSE(compilation->cost_report.nodes.empty());

  backends::Dispatcher dispatcher(CostModel{}, /*seed=*/13);
  const auto result = dispatcher.Run(query.dag(), *compilation, inputs);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  for (const NodeCost& node : compilation->cost_report.nodes) {
    const double estimated = backend == MpcBackendKind::kSharemind
                                 ? node.sharemind.seconds
                                 : node.oblivc.seconds;
    const double measured = result->node_seconds.at(node.node_id);
    EXPECT_NEAR(estimated, measured, 1e-9 + 1e-9 * measured)
        << node.label << " #" << node.node_id << "\n"
        << compilation->cost_report.ToString();
  }
}

TEST(PlanCostTest, ConcatSortEstimateMatchesMeteredRun) {
  const auto build = [](api::Query& query) {
    auto alice = query.AddParty("alice");
    auto bob = query.AddParty("bob");
    auto a = query.NewTable("a", {{"k"}, {"v"}}, alice, 100);
    auto b = query.NewTable("b", {{"k"}, {"v"}}, bob, 60);
    query.Concat({a, b}).SortBy({"k"}).WriteToCsv("out", {alice});
  };
  std::map<std::string, Relation> inputs;
  inputs["a"] = SequentialKeys(100, {"k", "v"});
  inputs["b"] = SequentialKeys(60, {"k", "v"});
  ExpectEstimatesMatchMeters(build, inputs, NoPassOptions(MpcBackendKind::kSharemind));
  ExpectEstimatesMatchMeters(build, inputs, NoPassOptions(MpcBackendKind::kOblivC));
}

TEST(PlanCostTest, JoinAggregateEstimateMatchesMeteredRun) {
  const auto build = [](api::Query& query) {
    auto alice = query.AddParty("alice");
    auto bob = query.AddParty("bob");
    auto a = query.NewTable("a", {{"k"}, {"v"}}, alice, 80);
    auto b = query.NewTable("b", {{"k"}, {"w"}}, bob, 80);
    a.Join(b, {"k"}, {"k"})
        .Aggregate("total", AggKind::kSum, {"k"}, "v")
        .WriteToCsv("out", {alice});
  };
  std::map<std::string, Relation> inputs;
  inputs["a"] = SequentialKeys(80, {"k", "v"});
  inputs["b"] = SequentialKeys(80, {"k", "w"});
  ExpectEstimatesMatchMeters(build, inputs, NoPassOptions(MpcBackendKind::kSharemind));
  ExpectEstimatesMatchMeters(build, inputs, NoPassOptions(MpcBackendKind::kOblivC));
}

TEST(PlanCostTest, FilterArithmeticEstimateMatchesMeteredRun) {
  const auto build = [](api::Query& query) {
    auto alice = query.AddParty("alice");
    auto bob = query.AddParty("bob");
    auto a = query.NewTable("a", {{"k"}, {"v"}}, alice, 64);
    auto b = query.NewTable("b", {{"k"}, {"v"}}, bob, 64);
    // kGe keeps every row (k in [0, 64)): the 0.5-selectivity estimate would
    // diverge, so compare only ops whose cardinalities stay exact downstream.
    query.Concat({a, b})
        .Filter("k", CompareOp::kGe, 0)
        .Multiply("vv", "v", "v")
        .WriteToCsv("out", {alice});
  };
  std::map<std::string, Relation> inputs;
  inputs["a"] = SequentialKeys(64, {"k", "v"});
  inputs["b"] = SequentialKeys(64, {"k", "v"});

  // The filter's own estimate is exact (cost depends on input rows only); the
  // arithmetic node downstream sees the 0.5-selectivity estimate, so assert the
  // filter node alone, under both backends.
  for (MpcBackendKind backend :
       {MpcBackendKind::kSharemind, MpcBackendKind::kOblivC}) {
    api::Query query;
    build(query);
    const auto compilation = query.Compile(NoPassOptions(backend));
    ASSERT_TRUE(compilation.ok()) << compilation.status().ToString();
    backends::Dispatcher dispatcher(CostModel{}, 13);
    const auto result = dispatcher.Run(query.dag(), *compilation, inputs);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    bool saw_filter = false;
    for (const NodeCost& node : compilation->cost_report.nodes) {
      if (node.label.find("filter") == std::string::npos) {
        continue;
      }
      saw_filter = true;
      const double estimated = backend == MpcBackendKind::kSharemind
                                   ? node.sharemind.seconds
                                   : node.oblivc.seconds;
      const double measured = result->node_seconds.at(node.node_id);
      EXPECT_NEAR(estimated, measured, 1e-9 + 1e-9 * measured) << node.label;
    }
    EXPECT_TRUE(saw_filter);
  }
}

// One cleartext value feeding two MPC consumers is ingested once (the dispatcher
// shares the materialized value); the estimate must not double-charge it.
TEST(PlanCostTest, SharedInputIngestedOnce) {
  const auto build = [](api::Query& query) {
    auto alice = query.AddParty("alice");
    auto bob = query.AddParty("bob");
    auto a = query.NewTable("a", {{"k"}, {"v"}}, alice, 50);
    auto b = query.NewTable("b", {{"k"}, {"w"}}, bob, 50);
    a.Join(b, {"k"}, {"k"}).WriteToCsv("j1", {alice});
    a.Join(b, {"k"}, {"k"}).WriteToCsv("j2", {alice});
  };
  std::map<std::string, Relation> inputs;
  inputs["a"] = SequentialKeys(50, {"k", "v"});
  inputs["b"] = SequentialKeys(50, {"k", "w"});
  ExpectEstimatesMatchMeters(build, inputs, NoPassOptions(MpcBackendKind::kSharemind));

  api::Query query;
  build(query);
  const auto report = query.ExplainPlan(NoPassOptions(MpcBackendKind::kSharemind));
  ASSERT_TRUE(report.ok());
  double total_ingest = 0;
  for (const NodeCost& node : report->nodes) {
    total_ingest += node.ingest_rows;
  }
  EXPECT_DOUBLE_EQ(total_ingest, 100);  // 50 + 50, not 200.
}

// --- Figure-bench query shapes: the chooser picks the measured-cheapest backend ------

// Builds a fresh query via `build`, compiles with a forced backend (explain off,
// default passes), runs it, and returns the measured virtual seconds (+inf if the
// backend refuses the plan, e.g. a simulated OOM).
template <typename BuildFn>
double MeasuredSeconds(BuildFn build, const std::map<std::string, Relation>& inputs,
                       MpcBackendKind backend) {
  api::Query query;
  build(query);
  CompilerOptions options;
  options.mpc_backend = backend;
  auto compilation = query.Compile(options);
  if (!compilation.ok()) {
    return kInf;
  }
  backends::Dispatcher dispatcher(CostModel{}, 29);
  const auto result = dispatcher.Run(query.dag(), *compilation, inputs);
  return result.ok() ? result->virtual_seconds : kInf;
}

// Compiles with auto_backend and asserts the chooser picked the backend whose
// measured virtual seconds are minimal; returns the report for extra assertions.
template <typename BuildFn>
PlanCostReport ExpectChoosesMeasuredCheapest(
    BuildFn build, const std::map<std::string, Relation>& inputs) {
  const double sharemind =
      MeasuredSeconds(build, inputs, MpcBackendKind::kSharemind);
  const double oblivc = MeasuredSeconds(build, inputs, MpcBackendKind::kOblivC);

  api::Query query;
  build(query);
  CompilerOptions options;
  options.auto_backend = true;
  auto compilation = query.Compile(options);
  EXPECT_TRUE(compilation.ok());
  const PlanCostReport report = compilation->cost_report;
  const MpcBackendKind chosen = compilation->options.mpc_backend;
  EXPECT_EQ(chosen, report.cheapest);

  const double chosen_measured =
      chosen == MpcBackendKind::kSharemind ? sharemind : oblivc;
  const double other_measured =
      chosen == MpcBackendKind::kSharemind ? oblivc : sharemind;
  EXPECT_LE(chosen_measured, other_measured)
      << "chooser picked " << MpcBackendName(chosen)
      << " but measured sharemind=" << sharemind << "s, obliv-c=" << oblivc
      << "s\n"
      << report.ToString();

  // The auto-compiled plan must execute and reproduce the forced run's schedule.
  backends::Dispatcher dispatcher(CostModel{}, 29);
  const auto result = dispatcher.Run(query.dag(), *compilation, inputs);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok() && std::isfinite(chosen_measured)) {
    EXPECT_DOUBLE_EQ(result->virtual_seconds, chosen_measured);
  }
  return report;
}

// Figure 4: the market-concentration (HHI) query, three parties.
void BuildHhi(api::Query& query, int64_t rows_per_party) {
  auto pa = query.AddParty("a");
  auto pb = query.AddParty("b");
  auto pc = query.AddParty("c");
  std::vector<api::ColumnSpec> columns{{"companyID"}, {"price"}};
  auto ta = query.NewTable("inputA", columns, pa, rows_per_party);
  auto tb = query.NewTable("inputB", columns, pb, rows_per_party);
  auto tc = query.NewTable("inputC", columns, pc, rows_per_party);
  auto rev = query.Concat({ta, tb, tc})
                 .Filter("price", CompareOp::kGt, 0)
                 .Aggregate("local_rev", AggKind::kSum, {"companyID"}, "price");
  auto keyed = rev.MultiplyConst("zero", "local_rev", 0).AddConst("one", "zero", 1);
  auto market_size =
      keyed.Aggregate("total_rev", AggKind::kSum, {"one"}, "local_rev");
  keyed.Join(market_size, {"one"}, {"one"})
      .Divide("m_share", "local_rev", "total_rev", 10000)
      .Multiply("ms_squared", "m_share", "m_share")
      .Aggregate("hhi", AggKind::kSum, {}, "ms_squared")
      .WriteToCsv("hhi", {pa});
}

// Each party's taxi trips under company `party`. `exact_cardinalities` puts
// every party in company 0 and drops the zero fares instead, so a filter keeps
// every row and each aggregation has one group.
std::map<std::string, Relation> HhiInputs(int64_t rows_per_party,
                                          bool exact_cardinalities = false) {
  std::map<std::string, Relation> inputs;
  const char* names[] = {"inputA", "inputB", "inputC"};
  for (int party = 0; party < 3; ++party) {
    data::TaxiConfig config;
    config.rows = rows_per_party;
    if (exact_cardinalities) {
      config.zero_fare_fraction = 0;
    } else {
      config.company_id = party;
    }
    config.seed = static_cast<uint64_t>(party) + 17;
    inputs[names[party]] = data::TaxiTrips(config);
  }
  return inputs;
}

// Obliv-C is a two-party protocol, so the chooser must keep the query on secret
// sharing.
TEST(FigureShapeTest, Fig4MarketConcentration) {
  const int64_t rows_per_party = 100;
  const auto build = [&](api::Query& query) { BuildHhi(query, rows_per_party); };
  const PlanCostReport report =
      ExpectChoosesMeasuredCheapest(build, HhiInputs(rows_per_party));
  EXPECT_EQ(report.cheapest, MpcBackendKind::kSharemind);
  EXPECT_TRUE(std::isinf(report.oblivc_seconds));
  EXPECT_FALSE(report.nodes.empty());
  EXPECT_NE(report.ToString().find("plan-cost:"), std::string::npos);
}

// The push-down plan of Fig. 4: a per-party filter and partial aggregation, then
// the MPC combine. With exact cardinalities each node's estimate must equal its
// meter — including the ingest of the per-party partials, the only values that
// enter the MPC.
TEST(FigureShapeTest, Fig4PushDownEstimateMatchesMeteredRun) {
  const int64_t rows_per_party = 100;
  const auto build = [&](api::Query& query) { BuildHhi(query, rows_per_party); };
  CompilerOptions options = NoPassOptions(MpcBackendKind::kSharemind);
  options.push_down = true;
  options.planning_cardinality.filter_selectivity = 1.0;
  options.planning_cardinality.distinct_fraction = 1.0 / rows_per_party;
  ExpectEstimatesMatchMeters(
      build, HhiInputs(rows_per_party, /*exact_cardinalities=*/true), options);
}

// Figure 5a/6: the credit-card regulation query with trust-annotated keys, three
// parties — the compiler inserts hybrid operators, which only the secret-sharing
// backend can run; the explain output must price them and keep the plan there.
TEST(FigureShapeTest, Fig5Fig6HybridJoinAggregation) {
  const uint64_t total = 400;
  const auto build = [&](api::Query& query) {
    auto regulator = query.AddParty("regulator");
    auto bank1 = query.AddParty("bank1");
    auto bank2 = query.AddParty("bank2");
    std::vector<api::ColumnSpec> bank_cols{{"ssn", {regulator}}, {"score"}};
    auto demo = query.NewTable("demographics", {{"ssn"}, {"zip"}}, regulator,
                               static_cast<int64_t>(total / 2));
    auto s1 = query.NewTable("scores1", bank_cols, bank1,
                             static_cast<int64_t>(total / 4));
    auto s2 = query.NewTable("scores2", bank_cols, bank2,
                             static_cast<int64_t>(total / 4));
    auto joined = demo.Join(query.Concat({s1, s2}), {"ssn"}, {"ssn"});
    auto by_zip = joined.Count("count", {"zip"});
    auto sum = joined.Aggregate("total", AggKind::kSum, {"zip"}, "score");
    sum.Join(by_zip, {"zip"}, {"zip"})
        .Divide("avg_score", "total", "count")
        .WriteToCsv("avg_scores", {regulator});
  };
  std::map<std::string, Relation> inputs;
  const int64_t ssn_space = static_cast<int64_t>(total) * 2;
  inputs["demographics"] =
      data::Demographics(static_cast<int64_t>(total / 2), ssn_space, 100, 31);
  inputs["scores1"] =
      data::CreditScores(static_cast<int64_t>(total / 4), ssn_space, 32);
  inputs["scores2"] =
      data::CreditScores(static_cast<int64_t>(total / 4), ssn_space, 33);

  const PlanCostReport report = ExpectChoosesMeasuredCheapest(build, inputs);
  EXPECT_EQ(report.cheapest, MpcBackendKind::kSharemind);
  bool saw_hybrid = false;
  for (const NodeCost& node : report.nodes) {
    if (node.label.find("hybrid") != std::string::npos) {
      saw_hybrid = true;
      EXPECT_FALSE(node.oblivc.feasible) << node.label;
      EXPECT_TRUE(std::isfinite(node.sharemind.seconds)) << node.label;
    }
  }
  EXPECT_TRUE(saw_hybrid) << report.ToString();
}

// Figure 5a's MPC join shape as a two-party compiled query: comparison-heavy, so
// secret sharing's batched equality tests must win over GC's per-pair circuits —
// asserted against the measured runs, not assumed.
TEST(FigureShapeTest, Fig5JoinShapePicksMeasuredCheapest) {
  const int64_t rows = 300;
  const auto build = [&](api::Query& query) {
    auto alice = query.AddParty("alice");
    auto bob = query.AddParty("bob");
    auto a = query.NewTable("a", {{"k"}, {"v"}}, alice, rows);
    auto b = query.NewTable("b", {{"k"}, {"w"}}, bob, rows);
    a.Join(b, {"k"}, {"k"})
        .Aggregate("total", AggKind::kSum, {"k"}, "v")
        .WriteToCsv("out", {alice});
  };
  std::map<std::string, Relation> inputs;
  inputs["a"] = SequentialKeys(rows, {"k", "v"});
  inputs["b"] = SequentialKeys(rows, {"k", "w"});

  const PlanCostReport report = ExpectChoosesMeasuredCheapest(build, inputs);
  EXPECT_EQ(report.cheapest, MpcBackendKind::kSharemind);
}

// Figure 7b: the comorbidity query (two hospitals): concat, grouped count,
// order-by, limit. Both backends are feasible; the chooser must track whichever
// the simulator measures as cheaper.
TEST(FigureShapeTest, Fig7ComorbidityPicksMeasuredCheapest) {
  const uint64_t total = 500;
  const auto build = [&](api::Query& query) {
    auto h0 = query.AddParty("hospital0");
    auto h1 = query.AddParty("hospital1");
    auto d0 = query.NewTable("diag0", {{"pid"}, {"diag"}}, h0,
                             static_cast<int64_t>(total / 2));
    auto d1 = query.NewTable("diag1", {{"pid"}, {"diag"}}, h1,
                             static_cast<int64_t>(total / 2));
    query.Concat({d0, d1})
        .Count("cnt", {"diag"})
        .SortBy({"cnt"}, /*ascending=*/false)
        .Limit(10)
        .WriteToCsv("top", {h0, h1});
  };
  data::HealthConfig health;
  health.rows_per_party = static_cast<int64_t>(total / 2);
  health.distinct_key_fraction = 0.1;
  health.seed = total;
  std::map<std::string, Relation> inputs;
  inputs["diag0"] = data::ComorbidityDiagnoses(health, 0);
  inputs["diag1"] = data::ComorbidityDiagnoses(health, 1);

  ExpectChoosesMeasuredCheapest(build, inputs);
}

// Figure 1c's projection shape (also bench/backend_choice): a linear pass, which
// garbled circuits evaluate nearly for free while secret sharing pays its storage
// layer per record.
TEST(FigureShapeTest, ProjectionShapePicksMeasuredCheapest) {
  const int64_t rows = 20000;
  const auto build = [&](api::Query& query) {
    auto alice = query.AddParty("alice");
    auto bob = query.AddParty("bob");
    auto a = query.NewTable("a", {{"k"}, {"v"}}, alice, rows);
    auto b = query.NewTable("b", {{"k"}, {"v"}}, bob, rows);
    query.Concat({a, b}).Project({"v"}).WriteToCsv("out", {alice});
  };
  std::map<std::string, Relation> inputs;
  inputs["a"] = data::UniformInts(rows, {"k", "v"}, 1000, 1);
  inputs["b"] = data::UniformInts(rows, {"k", "v"}, 1000, 2);

  const PlanCostReport report = ExpectChoosesMeasuredCheapest(build, inputs);
  EXPECT_EQ(report.cheapest, MpcBackendKind::kOblivC);
}

// --- Edge cases through the costed operators ------------------------------------------

TEST(PlanCostTest, EmptyRelationsRunAndPriceFinite) {
  const auto build = [](api::Query& query) {
    auto alice = query.AddParty("alice");
    auto bob = query.AddParty("bob");
    auto a = query.NewTable("a", {{"k"}, {"v"}}, alice, 1);
    auto b = query.NewTable("b", {{"k"}, {"w"}}, bob, 1);
    a.Join(b, {"k"}, {"k"})
        .Aggregate("total", AggKind::kSum, {"k"}, "v")
        .SortBy({"k"})
        .WriteToCsv("out", {alice});
  };
  std::map<std::string, Relation> inputs;
  inputs["a"] = Relation{Schema::Of({"k", "v"})};
  inputs["b"] = Relation{Schema::Of({"k", "w"})};

  for (MpcBackendKind backend :
       {MpcBackendKind::kSharemind, MpcBackendKind::kOblivC}) {
    api::Query query;
    build(query);
    const auto compilation = query.Compile(NoPassOptions(backend));
    ASSERT_TRUE(compilation.ok());
    for (const NodeCost& node : compilation->cost_report.nodes) {
      EXPECT_TRUE(std::isfinite(node.sharemind.seconds)) << node.label;
      EXPECT_TRUE(std::isfinite(node.oblivc.seconds)) << node.label;
      EXPECT_GE(node.sharemind.seconds, 0) << node.label;
      EXPECT_GE(node.oblivc.seconds, 0) << node.label;
    }
    backends::Dispatcher dispatcher(CostModel{}, 7);
    const auto result = dispatcher.Run(query.dag(), *compilation, inputs);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->outputs.at("out").NumRows(), 0);
  }
}

TEST(PlanCostTest, ZeroCardinalityEstimatesAreFinite) {
  // Price a plan whose estimates are all zero rows: no NaNs, no negatives.
  ir::Dag dag;
  ir::OpNode* a = *dag.AddCreate("a", Schema::Of({"k", "v"}), 0);
  ir::OpNode* b = *dag.AddCreate("b", Schema::Of({"k", "w"}), 1);
  ir::OpNode* join = *dag.AddJoin(a, b, {"k"}, {"k"});
  ir::AggregateParams agg;
  agg.group_columns = {"k"};
  agg.kind = AggKind::kSum;
  agg.agg_column = "v";
  agg.output_name = "total";
  ir::OpNode* grouped = *dag.AddAggregate(join, agg);
  *dag.AddCollect(grouped, "out", PartySet::Of({0}));
  PropagateOwnership(dag);

  CardinalityOptions zero;
  zero.default_rows = 0;
  const PlanCostReport report = EstimatePlanCost(dag, CostModel{}, 2, zero);
  ASSERT_EQ(report.nodes.size(), 2u);
  for (const NodeCost& node : report.nodes) {
    EXPECT_TRUE(std::isfinite(node.sharemind.seconds)) << node.label;
    EXPECT_TRUE(std::isfinite(node.oblivc.seconds)) << node.label;
    EXPECT_GE(node.sharemind.seconds, 0) << node.label;
  }
}

// Absurd cardinality hints must not hang or overflow the planner: the pad policy
// guards against int64 wrap, llround inputs are clamped, and network shapes above
// the exact-walk cap use the bounded continuous form.
TEST(PlanCostTest, AstronomicalCardinalitiesStayBounded) {
  const int64_t huge = int64_t{1} << 62;
  EXPECT_EQ(ops::PaddedRowCount(huge), huge);
  EXPECT_EQ(ops::PaddedRowCount(huge + 1), huge + 1);  // No power of two fits.

  ir::Dag dag;
  ir::OpNode* a = *dag.AddCreate("a", Schema::Of({"k", "v"}), 0, huge);
  ir::OpNode* b = *dag.AddCreate("b", Schema::Of({"k", "w"}), 1, huge);
  ir::OpNode* join = *dag.AddJoin(a, b, {"k"}, {"k"});
  ir::OpNode* pad = *dag.AddPad(join, ir::PadParams{});
  ir::AggregateParams agg;
  agg.group_columns = {"k"};
  agg.kind = AggKind::kSum;
  agg.agg_column = "v";
  agg.output_name = "total";
  ir::OpNode* grouped = *dag.AddAggregate(pad, agg);
  ir::OpNode* sorted = *dag.AddSortBy(grouped, {"k"}, true);
  *dag.AddCollect(sorted, "out", PartySet::Of({0}));
  PropagateOwnership(dag);
  pad->exec_mode = ir::ExecMode::kMpc;  // Keep the pad in the costed region.

  const auto rows = EstimateCardinalities(dag);
  EXPECT_GT(rows.at(pad->id), 0);  // Terminates; no int64 wrap to 0.

  const PlanCostReport report = EstimatePlanCost(dag, CostModel{}, 2);
  EXPECT_GT(report.sharemind_seconds, 0);
  EXPECT_FALSE(std::isnan(report.sharemind_seconds));
  EXPECT_TRUE(std::isinf(report.oblivc_seconds));  // GC OOMs long before this.

  // The hybrid/public-join paths sum several clamped cardinalities (oblivious
  // selects, STP python phases); they must stay bounded too.
  for (ir::HybridKind kind :
       {ir::HybridKind::kHybridJoin, ir::HybridKind::kPublicJoin}) {
    join->exec_mode = ir::ExecMode::kHybrid;
    join->hybrid = kind;
    join->stp = 0;
    const PlanCostReport hybrid_report = EstimatePlanCost(dag, CostModel{}, 3);
    EXPECT_FALSE(std::isnan(hybrid_report.sharemind_seconds));
    EXPECT_GT(hybrid_report.sharemind_seconds, 0);
  }
}

TEST(PlanCostTest, SingleRowRelationsMatchMeters) {
  const auto build = [](api::Query& query) {
    auto alice = query.AddParty("alice");
    auto bob = query.AddParty("bob");
    auto a = query.NewTable("a", {{"k"}, {"v"}}, alice, 1);
    auto b = query.NewTable("b", {{"k"}, {"w"}}, bob, 1);
    a.Join(b, {"k"}, {"k"}).SortBy({"k"}).WriteToCsv("out", {alice});
  };
  std::map<std::string, Relation> inputs;
  inputs["a"] = SequentialKeys(1, {"k", "v"});
  inputs["b"] = SequentialKeys(1, {"k", "w"});
  ExpectEstimatesMatchMeters(build, inputs, NoPassOptions(MpcBackendKind::kSharemind));
  ExpectEstimatesMatchMeters(build, inputs, NoPassOptions(MpcBackendKind::kOblivC));
}

// --- The explain surface --------------------------------------------------------------

TEST(PlanCostTest, ExplainListsNodesAndDecision) {
  api::Query query;
  auto alice = query.AddParty("alice");
  auto bob = query.AddParty("bob");
  auto a = query.NewTable("a", {{"k"}, {"v"}}, alice, 500);
  auto b = query.NewTable("b", {{"k"}, {"w"}}, bob, 500);
  a.Join(b, {"k"}, {"k"}).WriteToCsv("out", {alice});

  const auto report = query.ExplainPlan();
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->nodes.empty());
  const std::string listing = report->ToString();
  EXPECT_NE(listing.find("plan-cost:"), std::string::npos);
  EXPECT_NE(listing.find("join"), std::string::npos);
  EXPECT_NE(listing.find("sharemind"), std::string::npos);
  EXPECT_NE(listing.find("obliv-c"), std::string::npos);
}

TEST(PlanCostTest, ExplainNotComputedWithoutFlag) {
  api::Query query;
  auto alice = query.AddParty("alice");
  auto bob = query.AddParty("bob");
  auto a = query.NewTable("a", {{"k"}}, alice, 10);
  auto b = query.NewTable("b", {{"k"}}, bob, 10);
  query.Concat({a, b}).WriteToCsv("out", {alice});
  const auto compilation = query.Compile(CompilerOptions{});
  ASSERT_TRUE(compilation.ok());
  EXPECT_FALSE(compilation->has_cost_report);
  EXPECT_NE(compilation->ExplainPlan().find("not computed"), std::string::npos);
}

}  // namespace
}  // namespace compiler
}  // namespace conclave
