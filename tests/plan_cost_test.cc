// Tests for the shared plan-cost subsystem (compiler/plan_cost.h): the closed-form
// Batcher layer counts match the expanded layers, per-node estimates match
// the dispatcher's metered virtual seconds when cardinalities are exact, and — the
// chooser's contract — for every figure-bench query shape, the explain output picks
// the backend whose *measured* virtual seconds are minimal.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "conclave/api/conclave.h"
#include "conclave/common/tempfile.h"
#include "conclave/compiler/compiler.h"
#include "conclave/compiler/ownership.h"
#include "conclave/compiler/plan_cost.h"
#include "conclave/data/generators.h"
#include "conclave/mpc/batcher.h"

namespace conclave {
namespace compiler {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// --- Batcher network layers ----------------------------------------------------------

// Each layer's closed-form count equals its expanded comparator count, and the
// network lists no empty layer (the planner prices one round group per layer).
void ExpectLayerCountsMatchExpansion(const std::vector<BatcherLayer>& network,
                                     const std::string& what) {
  std::vector<int64_t> lo;
  std::vector<int64_t> hi;
  for (const BatcherLayer& layer : network) {
    layer.Comparators(&lo, &hi);
    EXPECT_EQ(layer.Exchanges(), lo.size())
        << what << " p=" << layer.p << " k=" << layer.k;
    EXPECT_FALSE(lo.empty()) << what << " p=" << layer.p << " k=" << layer.k;
  }
}

TEST(BatcherShapeTest, SortLayerCountsMatchExpansion) {
  for (int64_t n : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100,
                    127, 128, 129, 1000, 1023, 4097, 100003}) {
    ExpectLayerCountsMatchExpansion(BatcherSortNetwork(n), "n=" + std::to_string(n));
  }
}

TEST(BatcherShapeTest, MergeLayerCountsMatchExpansion) {
  const std::pair<int64_t, int64_t> cases[] = {
      {1, 2},   {2, 3},    {2, 4},     {4, 6},   {4, 8},
      {8, 13},  {16, 32},  {64, 100},  {1024, 1500}};
  for (const auto& [run, total] : cases) {
    ExpectLayerCountsMatchExpansion(
        BatcherMergeNetwork(run, total),
        std::to_string(run) + "/" + std::to_string(total));
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

// The shape a node exercises: its kind and hybrid protocol, marked "merge" for a
// sorted-merge concat and "global" for an aggregate without group columns.
std::string ShapeKey(const ir::OpNode& node) {
  std::string key =
      std::string(ir::OpKindName(node.kind)) + "/" + ir::HybridKindName(node.hybrid);
  if (node.kind == ir::OpKind::kConcat &&
      !node.Params<ir::ConcatParams>().merge_columns.empty()) {
    key += "/merge";
  }
  if (node.kind == ir::OpKind::kAggregate &&
      node.Params<ir::AggregateParams>().group_columns.empty()) {
    key += "/global";
  }
  return key;
}

// Runs `build`'s query compiled with `options` (explain on) and asserts that every
// explain node's estimate equals the dispatcher's meter for that node bit for bit.
// Adds the shapes of the priced nodes to `shapes`.
template <typename BuildFn>
void ExpectEstimatesEqualMeters(BuildFn build,
                                const std::map<std::string, Relation>& inputs,
                                const CompilerOptions& options,
                                std::set<std::string>& shapes) {
  api::Query query;
  build(query);
  const auto compilation = query.Compile(options);
  ASSERT_TRUE(compilation.ok()) << compilation.status().ToString();
  ASSERT_TRUE(compilation->has_cost_report);
  backends::Dispatcher dispatcher(CostModel{}, /*seed=*/13);
  const auto result = dispatcher.Run(query.dag(), *compilation, inputs);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::map<int, const ir::OpNode*> by_id;
  for (const ir::OpNode* node : query.dag().TopoOrder()) {
    by_id[node->id] = node;
  }
  for (const NodeCost& node : compilation->cost_report.nodes) {
    const BackendOpCost& estimate = options.mpc_backend == MpcBackendKind::kSharemind
                                        ? node.sharemind
                                        : node.oblivc;
    EXPECT_TRUE(estimate.feasible) << node.label << ": " << estimate.infeasible_reason;
    EXPECT_EQ(estimate.seconds, result->node_seconds.at(node.node_id))
        << node.label << " #" << node.node_id << "\n"
        << compilation->cost_report.ToString();
    shapes.insert(ShapeKey(*by_id.at(node.node_id)));
  }
}

// With exact cardinalities, every secret-sharing node kind — and every Obliv-C one
// on the two-party plans — is priced at exactly its metered virtual seconds.
TEST(PlanCostTest, EstimatesEqualMetersOnEverySecretSharingNodeKind) {
  constexpr int64_t kRows = 40;
  CompilerOptions exact = NoPassOptions(MpcBackendKind::kSharemind);
  exact.planning_cardinality.filter_selectivity = 1.0;
  exact.planning_cardinality.distinct_fraction = 1.0;
  std::set<std::string> shapes;

  // Two parties, every plain MPC operator. Keys are unique per input, so the join
  // keeps every row and every aggregate or distinct output feeds only a collect.
  const auto operators = [](api::Query& query) {
    auto alice = query.AddParty("alice");
    auto bob = query.AddParty("bob");
    auto a = query.NewTable("a", {{"k"}, {"v"}}, alice, kRows);
    auto b = query.NewTable("b", {{"k"}, {"w"}}, bob, kRows);
    auto c = query.NewTable("c", {{"k"}, {"v"}}, bob, kRows);
    auto joined = a.Join(b, {"k"}, {"k"})
                      .Filter("k", CompareOp::kGe, 0)
                      .Multiply("vw", "v", "w")
                      .Divide("q", "vw", "w", 100);
    joined.Window("rs", WindowFn::kRunningSum, {"k"}, "v", "v")
        .SortBy({"q"}, /*ascending=*/false)
        .Limit(10)
        .WriteToCsv("top", {alice});
    joined.Window("lag", WindowFn::kLag, {"q"}, "k", "w").Project({"k", "lag"})
        .WriteToCsv("lag", {alice});
    joined.Aggregate("total", AggKind::kSum, {"k"}, "v").WriteToCsv("total", {alice});
    joined.Aggregate("low", AggKind::kMin, {}, "w").WriteToCsv("low", {alice});
    query.Concat({a, c}).Distinct({"k"}).WriteToCsv("keys", {alice});
  };
  std::map<std::string, Relation> inputs;
  inputs["a"] = SequentialKeys(kRows, {"k", "v"});
  inputs["b"] = SequentialKeys(kRows, {"k", "w"});
  inputs["c"] = SequentialKeys(kRows, {"k", "v"});
  for (MpcBackendKind backend : {MpcBackendKind::kSharemind, MpcBackendKind::kOblivC}) {
    CompilerOptions options = exact;
    options.mpc_backend = backend;
    ExpectEstimatesEqualMeters(operators, inputs, options, shapes);
  }

  // Sort push-up turns each concat-then-sort into per-party sorts and a sorted
  // merge: 32 + 20 rows fit the merge network, 24 + 20 fall back to a sort.
  const auto merges = [](api::Query& query) {
    auto alice = query.AddParty("alice");
    auto bob = query.AddParty("bob");
    auto a = query.NewTable("a", {{"k"}, {"v"}}, alice, 32);
    auto b = query.NewTable("b", {{"k"}, {"v"}}, bob, 20);
    auto c = query.NewTable("c", {{"k"}, {"v"}}, alice, 24);
    query.Concat({a, b}).SortBy({"k"}).WriteToCsv("merged", {alice});
    query.Concat({c, b}).SortBy({"k"}).WriteToCsv("fallback", {alice});
  };
  inputs["a"] = SequentialKeys(32, {"k", "v"});
  inputs["b"] = SequentialKeys(20, {"k", "v"});
  inputs["c"] = SequentialKeys(24, {"k", "v"});
  for (MpcBackendKind backend : {MpcBackendKind::kSharemind, MpcBackendKind::kOblivC}) {
    CompilerOptions options = exact;
    options.mpc_backend = backend;
    options.sort_push_up = true;
    ExpectEstimatesEqualMeters(merges, inputs, options, shapes);
  }

  // Three parties: keys trusted by party 2 make the join, the aggregate and the
  // window hybrid with party 2 as the STP; public keys make the other join public.
  const auto hybrids = [](api::Query& query) {
    auto p0 = query.AddParty("p0");
    auto p1 = query.AddParty("p1");
    auto p2 = query.AddParty("p2");
    auto a = query.NewTable("a", {{"k", {p2}}, {"v", {p2}}}, p0, kRows);
    auto b = query.NewTable("b", {{"k", {p2}}, {"w"}}, p1, kRows);
    auto joined = a.Join(b, {"k"}, {"k"});
    joined.Aggregate("total", AggKind::kMean, {"k"}, "w").WriteToCsv("mean", {p0});
    joined.Window("rn", WindowFn::kRowNumber, {"k"}, "v").WriteToCsv("rn", {p0});
    auto x = query.NewTable("x", {query.PublicColumn("k"), {"v"}}, p0, kRows);
    auto y = query.NewTable("y", {query.PublicColumn("k"), {"w"}}, p1, kRows);
    x.Join(y, {"k"}, {"k"}).WriteToCsv("public", {p0});
  };
  inputs["a"] = SequentialKeys(kRows, {"k", "v"});
  inputs["b"] = SequentialKeys(kRows, {"k", "w"});
  inputs["x"] = SequentialKeys(kRows, {"k", "v"});
  inputs["y"] = SequentialKeys(kRows, {"k", "w"});
  CompilerOptions hybrid = exact;
  hybrid.use_hybrid = true;
  ExpectEstimatesEqualMeters(hybrids, inputs, hybrid, shapes);

  const std::set<std::string> expected = {
      "arithmetic/none",   "concat/none",         "concat/none/merge",
      "distinct/none",     "filter/none",         "join/none",
      "join/hybrid-join",  "join/public-join",    "aggregate/none",
      "aggregate/none/global", "aggregate/hybrid-agg", "window/none",
      "window/hybrid-window",  "sort_by/none",    "limit/none",
      "project/none"};
  for (const std::string& shape : expected) {
    EXPECT_TRUE(shapes.count(shape) != 0) << "no plan priced a " << shape << " node";
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

// The public join, hybrid join and hybrid aggregation at 2–5 parties: every node's
// estimate equals its meter, and each party beyond the second adds exactly the
// bytes its protocol sends per party (one copy of the revealed keys or of every
// broadcast and shared column), so no byte is lost to a split between senders.
TEST(PlanCostTest, HybridProtocolsMatchMetersAtEveryPartyCount) {
  constexpr int64_t kRows = 100;
  enum class Protocol { kPublicJoin, kHybridJoin, kHybridAggregate };
  for (Protocol protocol :
       {Protocol::kPublicJoin, Protocol::kHybridJoin, Protocol::kHybridAggregate}) {
    uint64_t two_party_bytes = 0;
    for (int parties = 2; parties <= 5; ++parties) {
      const auto build = [&](api::Query& query) {
        std::vector<api::Party> all;
        for (int p = 0; p < parties; ++p) {
          all.push_back(query.AddParty("p" + std::to_string(p)));
        }
        // Public keys are trusted by everyone; hybrid keys by party 0, the STP.
        const std::vector<api::Party> trust =
            protocol == Protocol::kPublicJoin ? all
                                              : std::vector<api::Party>{all[0]};
        // The last party holds the second input, so every party takes part.
        auto a = query.NewTable("a", {{"k", trust}, {"v"}}, all[0], kRows);
        auto b = query.NewTable("b", {{"k", trust}, {"w"}}, all.back(), kRows);
        if (protocol == Protocol::kHybridAggregate) {
          auto c = query.NewTable("c", {{"k", trust}, {"v"}}, all.back(), kRows);
          query.Concat({a, c})
              .Aggregate("total", AggKind::kSum, {"k"}, "v")
              .WriteToCsv("out", {all[0]});
        } else {
          a.Join(b, {"k"}, {"k"}).WriteToCsv("out", {all[0]});
        }
      };
      std::map<std::string, Relation> inputs;
      inputs["a"] = SequentialKeys(kRows, {"k", "v"});
      inputs["b"] = SequentialKeys(kRows, {"k", "w"});
      inputs["c"] = SequentialKeys(kRows, {"k", "v"});
      CompilerOptions options = NoPassOptions(MpcBackendKind::kSharemind);
      options.use_hybrid = true;
      options.planning_cardinality.distinct_fraction = 0.5;

      api::Query query;
      build(query);
      const auto compilation = query.Compile(options);
      ASSERT_TRUE(compilation.ok()) << compilation.status().ToString();
      backends::Dispatcher dispatcher(CostModel{}, /*seed=*/13);
      const auto result = dispatcher.Run(query.dag(), *compilation, inputs);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const char* tag = protocol == Protocol::kPublicJoin ? "public-join" : "hybrid";
      bool saw_hybrid = false;
      for (const NodeCost& node : compilation->cost_report.nodes) {
        saw_hybrid = saw_hybrid || node.label.find(tag) != std::string::npos;
        const double measured = result->node_seconds.at(node.node_id);
        EXPECT_NEAR(node.sharemind.seconds, measured, 1e-9 * measured)
            << parties << " parties: " << node.label << "\n"
            << compilation->cost_report.ToString();
      }
      EXPECT_TRUE(saw_hybrid) << compilation->cost_report.ToString();

      // Bytes each party beyond the first sends to or receives from the STP.
      uint64_t per_party = 0;
      switch (protocol) {
        case Protocol::kPublicJoin:  // The pair broadcast; the keys split.
          per_party = kRows * 16;
          break;
        case Protocol::kHybridJoin:  // Both key columns, two index columns.
          per_party = 2 * kRows * 8 + 2 * kRows * 8;
          break;
        case Protocol::kHybridAggregate:  // Keys, the order and the flags.
          per_party = 3 * (2 * kRows) * 8;
          break;
      }
      const uint64_t bytes = result->counters.network_bytes;
      if (parties == 2) {
        two_party_bytes = bytes;
      } else {
        EXPECT_EQ(bytes, two_party_bytes + static_cast<uint64_t>(parties - 2) *
                                               per_party)
            << parties << " parties";
      }
    }
  }
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

// A sorted-merge concat of astronomically large branches: the running row total
// must not overflow (the planner folds the branches one merge at a time).
TEST(PlanCostTest, AstronomicalMergeConcatStaysBounded) {
  const int64_t huge = int64_t{1} << 62;
  ir::Dag dag;
  ir::OpNode* a = *dag.AddCreate("a", Schema::Of({"k", "v"}), 0, huge);
  ir::OpNode* b = *dag.AddCreate("b", Schema::Of({"k", "v"}), 1, huge);
  ir::OpNode* c = *dag.AddCreate("c", Schema::Of({"k", "v"}), 1, huge);
  ir::OpNode* concat = *dag.AddConcat({a, b, c});
  concat->MutableParams<ir::ConcatParams>().merge_columns = {"k"};
  *dag.AddCollect(concat, "out", PartySet::Of({0}));
  PropagateOwnership(dag);
  const PlanCostReport report = EstimatePlanCost(dag, CostModel{}, 2);
  EXPECT_GT(report.sharemind_seconds, 0);
  EXPECT_FALSE(std::isnan(report.sharemind_seconds));
}

// The astronomical plans above keep their secret-sharing verdicts: every join,
// aggregate, sort and concat node fails a working-set check (none passes by a
// wrapped cell count), so the plan total is +infinity.
TEST(PlanCostTest, AstronomicalPlansStayInfeasibleOnSecretSharing) {
  const int64_t huge = int64_t{1} << 62;
  const auto expect_infeasible = [](const PlanCostReport& report, const char* what) {
    EXPECT_TRUE(std::isinf(report.sharemind_seconds)) << what;
    for (const NodeCost& node : report.nodes) {
      for (const char* kind : {"join", "aggregate", "sort_by", "concat"}) {
        if (node.label.rfind(kind, 0) == 0) {
          EXPECT_FALSE(node.sharemind.feasible) << what << ": " << node.label;
          EXPECT_TRUE(std::isinf(node.sharemind.seconds)) << what << ": " << node.label;
        }
      }
    }
  };

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
  *dag.AddCollect(*dag.AddSortBy(grouped, {"k"}, true), "out", PartySet::Of({0}));
  PropagateOwnership(dag);
  pad->exec_mode = ir::ExecMode::kMpc;
  expect_infeasible(EstimatePlanCost(dag, CostModel{}, 2), "mpc join");
  for (ir::HybridKind kind :
       {ir::HybridKind::kHybridJoin, ir::HybridKind::kPublicJoin}) {
    join->exec_mode = ir::ExecMode::kHybrid;
    join->hybrid = kind;
    join->stp = 0;
    expect_infeasible(EstimatePlanCost(dag, CostModel{}, 3), ir::HybridKindName(kind));
  }

  ir::Dag merge_dag;
  std::vector<ir::OpNode*> branches;
  for (PartyId party : {0, 1, 1}) {
    branches.push_back(
        *merge_dag.AddCreate("t" + std::to_string(branches.size()),
                             Schema::Of({"k", "v"}), party, huge));
  }
  ir::OpNode* concat = *merge_dag.AddConcat(branches);
  concat->MutableParams<ir::ConcatParams>().merge_columns = {"k"};
  *merge_dag.AddCollect(concat, "out", PartySet::Of({0}));
  PropagateOwnership(merge_dag);
  expect_infeasible(EstimatePlanCost(merge_dag, CostModel{}, 2), "merge concat");
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

// The pipeline advice lists exactly the chains a run fuses, however large the
// row hints: a sorted distinct heads a chain and a limit fuses mid-chain.
TEST(PlanCostTest, ExplainListsTheChainsARunFuses) {
  api::Query query;
  auto alice = query.AddParty("alice");
  auto t = query.NewTable("t", {{"k"}, {"v"}}, alice, 100'000'000);
  t.SortBy({"k"})
      .Distinct({"k"})
      .AddConst("x", "k", 1)
      .Limit(10)
      .Filter("x", CompareOp::kGt, 3)
      .WriteToCsv("out", {alice});
  CompilerOptions options;
  options.explain_plan = true;
  const auto compilation = query.Compile(options);
  ASSERT_TRUE(compilation.ok()) << compilation.status().ToString();
  const PlanCostReport& report = compilation->cost_report;
  const std::vector<ir::OpNode*> order = query.dag().TopoOrder();
  const auto chains =
      PipelineChains(std::vector<const ir::OpNode*>(order.begin(), order.end()),
                     MpcBackendKind::kSharemind);
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0].nodes.size(), 4u);
  EXPECT_EQ(report.fused_pipeline_chains, 1);
  EXPECT_EQ(report.fused_pipeline_nodes, 4);
  EXPECT_EQ(report.longest_pipeline_chain, 4);
  // A chain holds a pulled batch and the batch it emits, whatever its depth.
  EXPECT_NE(report.ToString().find("resident rows per chain <= 2 x batch"),
            std::string::npos)
      << report.ToString();
}

// Explain and run agree on streaming by construction. For each query and MPC
// backend, compiler::PipelineChains marks a chain as streaming exactly when
// the run streams a source (source_peak_rows > 0, at most one batch), and the
// explain's reveal-advice counts the marked chains fed by an MPC node. Under
// Obliv-C a revealed value decodes whole, so nothing streams and explain says
// so; a CSV table with a second consumer parses eagerly on both backends.
TEST(PlanCostTest, ExplainStreamingMatchesTheRun) {
  constexpr int64_t kBatch = 16;
  TempDir dir;
  const std::string path = dir.path() + "/t.csv";
  {
    std::ofstream file(path);
    file << "k,v\n";
    for (int64_t i = 0; i < 300; ++i) {
      file << i << "," << (i % 40) << "\n";
    }
  }
  struct Case {
    const char* label;
    std::function<void(api::Query&)> build;
    bool streams_under_sharemind;
    bool streams_under_oblivc;
  };
  const Case cases[] = {
      {"join-aggregate-arithmetic reveal",
       [](api::Query& query) {
         auto alice = query.AddParty("alice");
         auto bob = query.AddParty("bob");
         auto left = query.NewTable("left", {{"k"}, {"v"}}, alice);
         auto right = query.NewTable("right", {{"k"}, {"w"}}, bob);
         left.Join(right, {"k"}, {"k"})
             .Aggregate("total", AggKind::kSum, {"k"}, "v")
             .MultiplyConst("scaled", "total", 3)
             .AddConst("biased", "scaled", 7)
             .WriteToCsv("out", {alice});
       },
       true, false},
      {"csv filter-project",
       [&path](api::Query& query) {
         auto alice = query.AddParty("alice");
         auto t = query.NewCsvTable("t", {{"k"}, {"v"}}, alice, path);
         t.Filter("v", CompareOp::kGt, 10).Project({"k"}).WriteToCsv("out", {alice});
       },
       true, true},
      {"csv with a second consumer",
       [&path](api::Query& query) {
         auto alice = query.AddParty("alice");
         auto t = query.NewCsvTable("t", {{"k"}, {"v"}}, alice, path);
         t.Filter("v", CompareOp::kGt, 10).Project({"k"}).WriteToCsv("out", {alice});
         t.Aggregate("n", AggKind::kCount, {"v"}, "").WriteToCsv("counts", {alice});
       },
       false, false},
  };
  const std::map<std::string, Relation> inputs = {
      {"left", data::UniformInts(200, {"k", "v"}, 150, /*seed=*/41)},
      {"right", data::UniformInts(150, {"k", "w"}, 150, /*seed=*/42)}};
  for (MpcBackendKind backend :
       {MpcBackendKind::kSharemind, MpcBackendKind::kOblivC}) {
    for (const Case& c : cases) {
      const std::string where =
          std::string(c.label) + " on " + MpcBackendName(backend);
      CompilerOptions options;
      options.mpc_backend = backend;
      api::Query explained;
      c.build(explained);
      const auto report = explained.ExplainPlan(options);
      ASSERT_TRUE(report.ok()) << where << ": " << report.status().ToString();

      api::Query run;
      c.build(run);
      const auto result =
          run.Run(inputs, options, CostModel{}, /*seed=*/42, {.batch_rows = kBatch});
      ASSERT_TRUE(result.ok()) << where << ": " << result.status().ToString();
      const std::vector<ir::OpNode*> order = run.dag().TopoOrder();
      int streaming = 0;
      int streamed_reveals = 0;
      for (const PipelineChain& chain : PipelineChains(
               std::vector<const ir::OpNode*>(order.begin(), order.end()),
               backend)) {
        if (chain.streams_input) {
          ++streaming;
          if (chain.nodes.front()->inputs[0]->exec_mode != ir::ExecMode::kLocal) {
            ++streamed_reveals;
          }
        }
      }
      EXPECT_EQ(streaming > 0, result->source_peak_rows > 0) << where;
      EXPECT_LE(result->source_peak_rows, kBatch) << where;
      EXPECT_EQ(report->streamed_reveal_chains, streamed_reveals) << where;
      EXPECT_EQ(streaming > 0, backend == MpcBackendKind::kSharemind
                                   ? c.streams_under_sharemind
                                   : c.streams_under_oblivc)
          << where;
    }
  }
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
