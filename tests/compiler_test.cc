// Tests for the compiler passes (§5): ownership propagation, trust propagation,
// push-down rewrites, push-up, hybrid transforms, sort elimination, partitioning,
// and code generation — including the paper's two running queries as fixtures.
#include <gtest/gtest.h>

#include "conclave/compiler/compiler.h"
#include "conclave/compiler/hybrid_transform.h"
#include "conclave/compiler/ownership.h"
#include "conclave/compiler/pushdown.h"
#include "conclave/compiler/pushup.h"
#include "conclave/compiler/sort_elimination.h"
#include "conclave/compiler/sort_pushup.h"
#include "conclave/compiler/trust.h"

namespace conclave {
namespace compiler {
namespace {

using ir::Dag;
using ir::ExecMode;
using ir::HybridKind;
using ir::OpKind;
using ir::OpNode;

PartySet Trust(const OpNode* node, const std::string& column) {
  return node->schema.Column(*node->schema.IndexOf(column)).trust_set;
}

// The credit-card regulation query of Listing 1: demographics at the regulator
// (party 0), two banks' score tables annotated trust={regulator} on ssn.
struct CreditQuery {
  Dag dag;
  OpNode* demographics;
  OpNode* scores;      // concat of the banks' tables
  OpNode* join;
  OpNode* by_zip;      // count by zip
  OpNode* total;       // sum by zip
  OpNode* avg_join;
  OpNode* divide;
  OpNode* collect;

  CreditQuery() {
    Schema demo_schema = Schema::Of({"ssn", "zip"});
    Schema bank_schema({ColumnDef("ssn", PartySet::Of({0})), ColumnDef("score")});
    demographics = *dag.AddCreate("demographics", demo_schema, 0);
    OpNode* bank1 = *dag.AddCreate("scores1", bank_schema, 1);
    OpNode* bank2 = *dag.AddCreate("scores2", bank_schema, 2);
    scores = *dag.AddConcat({bank1, bank2});
    join = *dag.AddJoin(demographics, scores, {"ssn"}, {"ssn"});
    ir::AggregateParams count_params;
    count_params.group_columns = {"zip"};
    count_params.kind = AggKind::kCount;
    count_params.output_name = "count";
    by_zip = *dag.AddAggregate(join, count_params);
    ir::AggregateParams sum_params;
    sum_params.group_columns = {"zip"};
    sum_params.kind = AggKind::kSum;
    sum_params.agg_column = "score";
    sum_params.output_name = "total";
    total = *dag.AddAggregate(join, sum_params);
    avg_join = *dag.AddJoin(total, by_zip, {"zip"}, {"zip"});
    ir::ArithmeticParams div_params;
    div_params.kind = ArithKind::kDiv;
    div_params.lhs_column = "total";
    div_params.rhs_is_column = true;
    div_params.rhs_column = "count";
    div_params.output_name = "avg_score";
    divide = *dag.AddArithmetic(avg_join, div_params);
    collect = *dag.AddCollect(divide, "avg_scores", PartySet::Of({0}));
  }
};

// The market-concentration query of Listing 2 (HHI over three parties' trip books),
// with an explicit constant join key replacing the paper's implicit scalar join.
struct MarketQuery {
  Dag dag;
  OpNode* concat;
  OpNode* rev;
  OpNode* collect;

  MarketQuery() {
    Schema schema = Schema::Of({"companyID", "price"});
    OpNode* a = *dag.AddCreate("inputA", schema, 0);
    OpNode* b = *dag.AddCreate("inputB", schema, 1);
    OpNode* c = *dag.AddCreate("inputC", schema, 2);
    concat = *dag.AddConcat({a, b, c});
    OpNode* filtered = *dag.AddFilter(concat, [] {
      ir::FilterParams params;
      params.column = "price";
      params.op = CompareOp::kGt;
      params.literal = 0;
      return params;
    }());
    ir::AggregateParams agg;
    agg.group_columns = {"companyID"};
    agg.kind = AggKind::kSum;
    agg.agg_column = "price";
    agg.output_name = "local_rev";
    rev = *dag.AddAggregate(filtered, agg);
    collect = *dag.AddCollect(rev, "rev", PartySet::Of({0}));
  }
};

TEST(OwnershipTest, CreateOwnedByItsParty) {
  CreditQuery q;
  PropagateOwnership(q.dag);
  EXPECT_EQ(q.demographics->owner, 0);
  EXPECT_EQ(q.demographics->stored_with, PartySet::Of({0}));
  EXPECT_EQ(q.demographics->exec_mode, ExecMode::kLocal);
}

TEST(OwnershipTest, ConcatAcrossPartiesLosesOwner) {
  CreditQuery q;
  PropagateOwnership(q.dag);
  EXPECT_EQ(q.scores->owner, kNoParty);
  EXPECT_EQ(q.scores->stored_with, PartySet::Of({1, 2}));
  EXPECT_EQ(q.scores->exec_mode, ExecMode::kMpc);
}

TEST(OwnershipTest, OwnerlessnessPropagatesDownstream) {
  CreditQuery q;
  PropagateOwnership(q.dag);
  EXPECT_EQ(q.join->exec_mode, ExecMode::kMpc);
  EXPECT_EQ(q.divide->exec_mode, ExecMode::kMpc);
}

TEST(OwnershipTest, SamePartyChainStaysLocal) {
  Dag dag;
  OpNode* a = *dag.AddCreate("a", Schema::Of({"k", "v"}), 1);
  OpNode* p = *dag.AddProject(a, {"k"});
  *dag.AddCollect(p, "out", PartySet::Of({1}));
  PropagateOwnership(dag);
  EXPECT_EQ(p->exec_mode, ExecMode::kLocal);
  EXPECT_EQ(p->exec_party, 1);
}

TEST(TrustTest, InputColumnsGainImplicitOwner) {
  CreditQuery q;
  PropagateOwnership(q.dag);
  PropagateTrust(q.dag, 3);
  // demographics.ssn: no annotation, but the storing party (0) is implicit.
  EXPECT_EQ(Trust(q.demographics, "ssn"), PartySet::Of({0}));
  // bank ssn columns: annotated {0} plus the storing bank.
  EXPECT_EQ(Trust(q.scores, "ssn"), PartySet::Of({0}));  // {0,1} inter {0,2} = {0}.
}

TEST(TrustTest, ConcatIntersectsBranches) {
  CreditQuery q;
  PropagateOwnership(q.dag);
  PropagateTrust(q.dag, 3);
  // score columns: {1} at bank1, {2} at bank2 -> empty after concat.
  EXPECT_TRUE(Trust(q.scores, "score").Empty());
}

TEST(TrustTest, JoinKeysTaintAllOutputColumns) {
  CreditQuery q;
  PropagateOwnership(q.dag);
  PropagateTrust(q.dag, 3);
  // zip is derivable by party 0 (owns demographics AND is trusted with both ssn
  // sides); score requires the banks' columns too, so nobody holds it all.
  EXPECT_EQ(Trust(q.join, "zip"), PartySet::Of({0}));
  EXPECT_TRUE(Trust(q.join, "score").Empty());
}

TEST(TrustTest, AggregationGroupColumnsTaintOutput) {
  CreditQuery q;
  PropagateOwnership(q.dag);
  PropagateTrust(q.dag, 3);
  EXPECT_EQ(Trust(q.by_zip, "zip"), PartySet::Of({0}));
  EXPECT_EQ(Trust(q.by_zip, "count"), PartySet::Of({0}));  // Count depends on keys.
  EXPECT_TRUE(Trust(q.total, "total").Empty());            // Sum depends on scores.
}

TEST(TrustTest, PublicColumnsStayPublic) {
  Dag dag;
  Schema schema({ColumnDef("pid", PartySet::All(2)), ColumnDef("diag")});
  OpNode* a = *dag.AddCreate("a", schema, 0);
  OpNode* b = *dag.AddCreate("b", schema, 1);
  OpNode* concat = *dag.AddConcat({a, b});
  *dag.AddCollect(concat, "out", PartySet::Of({0}));
  PropagateOwnership(dag);
  PropagateTrust(dag, 2);
  EXPECT_TRUE(Trust(concat, "pid").ContainsAll(PartySet::All(2)));
}

TEST(PushDownTest, DistributesFilterAndSplitsAggregation) {
  MarketQuery q;
  PropagateOwnership(q.dag);
  const auto log = PushDown(q.dag, /*allow_cardinality_leak=*/true);
  EXPECT_GE(log.size(), 2u);  // Filter push-down + aggregation split.

  // After the rewrite, every party pre-filters and pre-aggregates locally; only the
  // small secondary aggregation stays under MPC.
  int local_filters = 0;
  int local_aggs = 0;
  int mpc_aggs = 0;
  for (const OpNode* node : q.dag.TopoOrder()) {
    if (node->kind == OpKind::kFilter && node->exec_mode == ExecMode::kLocal) {
      ++local_filters;
    }
    if (node->kind == OpKind::kAggregate) {
      (node->exec_mode == ExecMode::kLocal ? local_aggs : mpc_aggs) += 1;
    }
  }
  EXPECT_EQ(local_filters, 3);
  EXPECT_EQ(local_aggs, 3);
  EXPECT_EQ(mpc_aggs, 1);
}

TEST(PushDownTest, CardinalityLeakGateBlocksGroupedSplit) {
  MarketQuery q;
  PropagateOwnership(q.dag);
  PushDown(q.dag, /*allow_cardinality_leak=*/false);
  // The grouped aggregation split leaks per-party key counts; without consent the
  // aggregation stays monolithic under MPC.
  int local_aggs = 0;
  for (const OpNode* node : q.dag.TopoOrder()) {
    if (node->kind == OpKind::kAggregate && node->exec_mode == ExecMode::kLocal) {
      ++local_aggs;
    }
  }
  EXPECT_EQ(local_aggs, 0);
}

TEST(PushDownTest, JoinDoesNotDistribute) {
  CreditQuery q;
  PropagateOwnership(q.dag);
  PushDown(q.dag, true);
  EXPECT_EQ(q.join->exec_mode, ExecMode::kMpc);  // Join over concat must stay.
}

TEST(PushUpTest, ReversibleDivisionRunsAtRecipient) {
  CreditQuery q;
  PropagateOwnership(q.dag);
  PropagateTrust(q.dag, 3);
  const auto log = PushUp(q.dag);
  EXPECT_FALSE(log.empty());
  EXPECT_EQ(q.divide->exec_mode, ExecMode::kLocal);
  EXPECT_EQ(q.divide->exec_party, 0);  // The regulator receives the output.
}

TEST(PushUpTest, LeafCountBecomesProjection) {
  Dag dag;
  OpNode* a = *dag.AddCreate("a", Schema::Of({"zip", "v"}), 0);
  OpNode* b = *dag.AddCreate("b", Schema::Of({"zip", "v"}), 1);
  OpNode* concat = *dag.AddConcat({a, b});
  ir::AggregateParams count_params;
  count_params.group_columns = {"zip"};
  count_params.kind = AggKind::kCount;
  count_params.output_name = "cnt";
  OpNode* count = *dag.AddAggregate(concat, count_params);
  *dag.AddCollect(count, "out", PartySet::Of({0}));
  PropagateOwnership(dag);
  PropagateTrust(dag, 2);
  const auto log = PushUp(dag);
  ASSERT_FALSE(log.empty());
  // The count now runs in the clear at the recipient, fed by an MPC projection.
  EXPECT_EQ(count->exec_mode, ExecMode::kLocal);
  ASSERT_EQ(count->inputs[0]->kind, OpKind::kProject);
  EXPECT_EQ(count->inputs[0]->exec_mode, ExecMode::kMpc);
}

TEST(HybridTransformTest, CreditQueryGetsHybridJoinAndAggregation) {
  CreditQuery q;
  PropagateOwnership(q.dag);
  PropagateTrust(q.dag, 3);
  const auto log = ApplyHybridTransforms(q.dag, 3);
  EXPECT_GE(log.size(), 2u);
  // The regulator (party 0) is trusted with both ssn columns -> hybrid join with
  // STP 0; zip's trust set {0} -> hybrid aggregations.
  EXPECT_EQ(q.join->hybrid, HybridKind::kHybridJoin);
  EXPECT_EQ(q.join->stp, 0);
  EXPECT_EQ(q.total->hybrid, HybridKind::kHybridAggregate);
  EXPECT_EQ(q.total->stp, 0);
}

TEST(HybridTransformTest, PublicKeysGivePublicJoin) {
  Dag dag;
  Schema left_schema({ColumnDef("pid", PartySet::All(2)), ColumnDef("diag")});
  Schema right_schema({ColumnDef("pid", PartySet::All(2)), ColumnDef("med")});
  OpNode* d0 = *dag.AddCreate("d0", left_schema, 0);
  OpNode* d1 = *dag.AddCreate("d1", left_schema, 1);
  OpNode* m0 = *dag.AddCreate("m0", right_schema, 0);
  OpNode* m1 = *dag.AddCreate("m1", right_schema, 1);
  OpNode* diag = *dag.AddConcat({d0, d1});
  OpNode* med = *dag.AddConcat({m0, m1});
  OpNode* join = *dag.AddJoin(diag, med, {"pid"}, {"pid"});
  *dag.AddCollect(join, "out", PartySet::Of({0}));
  PropagateOwnership(dag);
  PropagateTrust(dag, 2);
  ApplyHybridTransforms(dag, 2);
  EXPECT_EQ(join->hybrid, HybridKind::kPublicJoin);
  EXPECT_EQ(join->exec_mode, ExecMode::kHybrid);
}

TEST(HybridTransformTest, NoTrustMeansNoHybrid) {
  Dag dag;
  OpNode* a = *dag.AddCreate("a", Schema::Of({"k", "x"}), 0);
  OpNode* b = *dag.AddCreate("b", Schema::Of({"k", "y"}), 1);
  OpNode* join = *dag.AddJoin(a, b, {"k"}, {"k"});
  *dag.AddCollect(join, "out", PartySet::Of({0}));
  PropagateOwnership(dag);
  PropagateTrust(dag, 2);
  ApplyHybridTransforms(dag, 2);
  EXPECT_EQ(join->hybrid, HybridKind::kNone);
  EXPECT_EQ(join->exec_mode, ExecMode::kMpc);
}

TEST(HybridTransformTest, SingleStpRule) {
  // Two joins with disjoint trusted parties: only the first becomes hybrid.
  Dag dag;
  Schema s1({ColumnDef("k", PartySet::Of({2})), ColumnDef("x")});
  Schema s2({ColumnDef("k", PartySet::Of({2})), ColumnDef("y")});
  Schema s3({ColumnDef("j", PartySet::Of({1})), ColumnDef("z")});
  Schema s4({ColumnDef("j", PartySet::Of({1})), ColumnDef("w")});
  OpNode* a = *dag.AddCreate("a", s1, 0);
  OpNode* b = *dag.AddCreate("b", s2, 1);
  OpNode* c = *dag.AddCreate("c", s3, 0);
  OpNode* d = *dag.AddCreate("d", s4, 2);
  OpNode* join1 = *dag.AddJoin(a, b, {"k"}, {"k"});
  OpNode* join2 = *dag.AddJoin(c, d, {"j"}, {"j"});
  OpNode* cross = *dag.AddJoin(join1, join2, {"x"}, {"z"});
  *dag.AddCollect(cross, "out", PartySet::Of({0}));
  PropagateOwnership(dag);
  PropagateTrust(dag, 3);
  ApplyHybridTransforms(dag, 3);
  EXPECT_EQ(join1->hybrid, HybridKind::kHybridJoin);
  EXPECT_EQ(join1->stp, 2);
  EXPECT_EQ(join2->hybrid, HybridKind::kNone);  // Its trust set excludes party 2.
}

TEST(SortEliminationTest, RedundantSortMarked) {
  Dag dag;
  OpNode* a = *dag.AddCreate("a", Schema::Of({"k", "v"}), 0);
  OpNode* b = *dag.AddCreate("b", Schema::Of({"k", "v"}), 1);
  OpNode* concat = *dag.AddConcat({a, b});
  OpNode* sort1 = *dag.AddSortBy(concat, {"k"});
  OpNode* sort2 = *dag.AddSortBy(sort1, {"k"});
  *dag.AddCollect(sort2, "out", PartySet::Of({0}));
  PropagateOwnership(dag);
  const auto log = EliminateSorts(dag);
  EXPECT_FALSE(sort1->assume_sorted);
  EXPECT_TRUE(sort2->assume_sorted);
  EXPECT_FALSE(log.empty());
}

TEST(SortEliminationTest, AggregationAfterSortSkipsItsSort) {
  Dag dag;
  OpNode* a = *dag.AddCreate("a", Schema::Of({"k", "v"}), 0);
  OpNode* b = *dag.AddCreate("b", Schema::Of({"k", "v"}), 1);
  OpNode* concat = *dag.AddConcat({a, b});
  OpNode* sort = *dag.AddSortBy(concat, {"k"});
  ir::AggregateParams params;
  params.group_columns = {"k"};
  params.kind = AggKind::kSum;
  params.agg_column = "v";
  params.output_name = "s";
  OpNode* agg = *dag.AddAggregate(sort, params);
  *dag.AddCollect(agg, "out", PartySet::Of({0}));
  PropagateOwnership(dag);
  EliminateSorts(dag);
  EXPECT_TRUE(agg->assume_sorted);
}

TEST(SortEliminationTest, ShufflingOpsClearOrder) {
  Dag dag;
  OpNode* a = *dag.AddCreate("a", Schema::Of({"k", "v"}), 0);
  OpNode* b = *dag.AddCreate("b", Schema::Of({"k", "v"}), 1);
  OpNode* concat = *dag.AddConcat({a, b});
  OpNode* sort = *dag.AddSortBy(concat, {"k"});
  ir::AggregateParams params;
  params.group_columns = {"k"};
  params.kind = AggKind::kSum;
  params.agg_column = "v";
  params.output_name = "s";
  OpNode* agg = *dag.AddAggregate(sort, params);  // MPC agg shuffles its output.
  OpNode* sort2 = *dag.AddSortBy(agg, {"k"});
  *dag.AddCollect(sort2, "out", PartySet::Of({0}));
  PropagateOwnership(dag);
  EliminateSorts(dag);
  EXPECT_FALSE(sort2->assume_sorted);  // Aggregation output is shuffled.
}

TEST(SortEliminationTest, DescendingSortNotTreatedAsAscendingOrder) {
  Dag dag;
  OpNode* a = *dag.AddCreate("a", Schema::Of({"k", "v"}), 0);
  OpNode* b = *dag.AddCreate("b", Schema::Of({"k", "v"}), 1);
  OpNode* concat = *dag.AddConcat({a, b});
  OpNode* desc = *dag.AddSortBy(concat, {"k"}, /*ascending=*/false);
  OpNode* asc = *dag.AddSortBy(desc, {"k"});
  *dag.AddCollect(asc, "out", PartySet::Of({0}));
  PropagateOwnership(dag);
  EliminateSorts(dag);
  EXPECT_FALSE(asc->assume_sorted);
}

TEST(SortPushUpTest, SortMovesBelowConcatAsLocalSortsPlusMerge) {
  Dag dag;
  OpNode* a = *dag.AddCreate("a", Schema::Of({"k", "v"}), 0);
  OpNode* b = *dag.AddCreate("b", Schema::Of({"k", "v"}), 1);
  OpNode* concat = *dag.AddConcat({a, b});
  OpNode* filter = *dag.AddFilter(concat, [] {
    ir::FilterParams params;
    params.column = "v";
    params.op = CompareOp::kGt;
    params.literal = 2;
    return params;
  }());
  OpNode* sort = *dag.AddSortBy(filter, {"k"});
  OpNode* collect = *dag.AddCollect(sort, "out", PartySet::Of({0}));
  PropagateOwnership(dag);
  const auto log = PushSortsUp(dag);
  ASSERT_EQ(log.size(), 1u);
  // The sort node is gone; the collect consumes the filter directly.
  EXPECT_EQ(collect->inputs[0], filter);
  // The concat became a sorted merge fed by per-branch local sorts.
  EXPECT_EQ(concat->Params<ir::ConcatParams>().merge_columns,
            (std::vector<std::string>{"k"}));
  for (const OpNode* branch : concat->inputs) {
    EXPECT_EQ(branch->kind, OpKind::kSortBy);
    EXPECT_EQ(branch->exec_mode, ExecMode::kLocal);
  }
}

TEST(SortPushUpTest, DescendingAndSharedConsumersStay) {
  Dag dag;
  OpNode* a = *dag.AddCreate("a", Schema::Of({"k", "v"}), 0);
  OpNode* b = *dag.AddCreate("b", Schema::Of({"k", "v"}), 1);
  OpNode* concat = *dag.AddConcat({a, b});
  OpNode* desc_sort = *dag.AddSortBy(concat, {"k"}, /*ascending=*/false);
  *dag.AddCollect(desc_sort, "out", PartySet::Of({0}));
  PropagateOwnership(dag);
  EXPECT_TRUE(PushSortsUp(dag).empty());  // Descending sorts are not pushed.
  EXPECT_TRUE(concat->Params<ir::ConcatParams>().merge_columns.empty());
}

TEST(SortPushUpTest, ProjectionDroppingSortColumnBlocksPush) {
  Dag dag;
  OpNode* a = *dag.AddCreate("a", Schema::Of({"k", "v"}), 0);
  OpNode* b = *dag.AddCreate("b", Schema::Of({"k", "v"}), 1);
  OpNode* concat = *dag.AddConcat({a, b});
  OpNode* project = *dag.AddProject(concat, {"v"});
  OpNode* sort = *dag.AddSortBy(project, {"v"});
  *dag.AddCollect(sort, "out", PartySet::Of({0}));
  PropagateOwnership(dag);
  // "v" survives, so the push fires through the projection; re-run with a column
  // that the projection drops to check the guard.
  Dag dag2;
  OpNode* a2 = *dag2.AddCreate("a", Schema::Of({"k", "v"}), 0);
  OpNode* b2 = *dag2.AddCreate("b", Schema::Of({"k", "v"}), 1);
  OpNode* concat2 = *dag2.AddConcat({a2, b2});
  OpNode* sort2 = *dag2.AddSortBy(concat2, {"k"});
  OpNode* project2 = *dag2.AddProject(sort2, {"v"});  // Drops k after the sort.
  *dag2.AddCollect(project2, "out", PartySet::Of({0}));
  PropagateOwnership(dag2);
  const auto log2 = PushSortsUp(dag2);
  // The sort is directly above the concat, so it pushes; the dropped column only
  // matters for walking *through* the projection.
  EXPECT_EQ(log2.size(), 1u);
  (void)sort;
  (void)project;
}

TEST(SortPushUpTest, EnablesDownstreamSortElimination) {
  Dag dag;
  OpNode* a = *dag.AddCreate("a", Schema::Of({"k", "v"}), 0);
  OpNode* b = *dag.AddCreate("b", Schema::Of({"k", "v"}), 1);
  OpNode* concat = *dag.AddConcat({a, b});
  OpNode* sort = *dag.AddSortBy(concat, {"k"});
  ir::AggregateParams params;
  params.group_columns = {"k"};
  params.kind = AggKind::kSum;
  params.agg_column = "v";
  params.output_name = "s";
  OpNode* agg = *dag.AddAggregate(sort, params);
  *dag.AddCollect(agg, "out", PartySet::Of({0}));
  PropagateOwnership(dag);
  PushSortsUp(dag);
  EliminateSorts(dag);
  // The merge-concat establishes the order, so the MPC aggregation skips its sort.
  EXPECT_TRUE(agg->assume_sorted);
  EXPECT_EQ(concat->Params<ir::ConcatParams>().merge_columns,
            (std::vector<std::string>{"k"}));
}

TEST(PartitionTest, CreditQueryJobShapes) {
  CreditQuery q;
  CompilerOptions options;
  const auto compilation = Compile(q.dag, options);
  ASSERT_TRUE(compilation.ok());
  const ExecutionPlan& plan = compilation->plan;
  EXPECT_GE(plan.CountJobs(JobKind::kLocal), 3);   // Per-party inputs + recipient.
  EXPECT_GE(plan.CountJobs(JobKind::kHybrid), 2);  // Hybrid join + aggregation(s).
  // Every node lands in exactly one job.
  size_t total = 0;
  for (const Job& job : plan.jobs) {
    total += job.nodes.size();
  }
  EXPECT_EQ(total, q.dag.TopoOrder().size());
}

TEST(PartitionTest, SummaryMentionsJobs) {
  MarketQuery q;
  const auto compilation = Compile(q.dag, CompilerOptions{});
  ASSERT_TRUE(compilation.ok());
  const std::string summary = compilation->plan.Summary();
  EXPECT_NE(summary.find("local"), std::string::npos);
  EXPECT_NE(summary.find("mpc"), std::string::npos);
}

TEST(CodegenTest, LocalAndMpcListings) {
  MarketQuery q;
  const auto compilation = Compile(q.dag, CompilerOptions{});
  ASSERT_TRUE(compilation.ok());
  const std::string& code = compilation->generated_code;
  // Pushed-down filters appear in party-local spark scripts...
  EXPECT_NE(code.find("local spark"), std::string::npos);
  EXPECT_NE(code.find("price > 0"), std::string::npos);
  // ...and the secondary aggregation appears in the Sharemind program.
  EXPECT_NE(code.find("sharemind MPC"), std::string::npos);
  EXPECT_NE(code.find("pd_shared3p"), std::string::npos);
  EXPECT_NE(code.find("oblivious_agg_sum"), std::string::npos);
}

TEST(CodegenTest, HybridProtocolListing) {
  CreditQuery q;
  const auto compilation = Compile(q.dag, CompilerOptions{});
  ASSERT_TRUE(compilation.ok());
  EXPECT_NE(compilation->generated_code.find("hybrid_join"), std::string::npos);
  EXPECT_NE(compilation->generated_code.find("hybrid_agg_sum"), std::string::npos);
}

TEST(CodegenTest, OblivcBackendUsesOblivDomain) {
  MarketQuery q;
  CompilerOptions options;
  options.mpc_backend = MpcBackendKind::kOblivC;
  options.use_hybrid = false;
  const auto compilation = Compile(q.dag, options);
  ASSERT_TRUE(compilation.ok());
  EXPECT_NE(compilation->generated_code.find("obliv table"), std::string::npos);
}

TEST(CompileTest, RequiresInputsAndOutputs) {
  Dag empty;
  EXPECT_FALSE(Compile(empty, CompilerOptions{}).ok());
  Dag no_output;
  *no_output.AddCreate("t", Schema::Of({"a"}), 0);
  EXPECT_FALSE(Compile(no_output, CompilerOptions{}).ok());
}

TEST(CompileTest, DisablingPassesShrinksTransformations) {
  MarketQuery q1;
  const auto with = Compile(q1.dag, CompilerOptions{});
  ASSERT_TRUE(with.ok());
  MarketQuery q2;
  CompilerOptions off;
  off.push_down = false;
  off.push_up = false;
  off.use_hybrid = false;
  off.sort_elimination = false;
  const auto without = Compile(q2.dag, off);
  ASSERT_TRUE(without.ok());
  EXPECT_GT(with->transformations.size(), without->transformations.size());
  EXPECT_TRUE(without->transformations.empty());
}

TEST(CompileTest, ReportsNumParties) {
  CreditQuery q;
  const auto compilation = Compile(q.dag, CompilerOptions{});
  ASSERT_TRUE(compilation.ok());
  EXPECT_EQ(compilation->num_parties, 3);
}

// Push-down detaches the concats it hollows out, so the compiled plan holds no
// dead node: everything but a Collect feeds some consumer.
TEST(CompileTest, EveryRewriteLeavesNoConsumerlessNode) {
  MarketQuery q;
  const auto compilation = Compile(q.dag, CompilerOptions{});
  ASSERT_TRUE(compilation.ok());
  EXPECT_TRUE(q.concat->inputs.empty());  // The original concat is detached.
  for (const OpNode* node : q.dag.TopoOrder()) {
    EXPECT_NE(node, q.concat);
    if (node->kind != OpKind::kCollect) {
      EXPECT_FALSE(node->outputs.empty()) << node->ToString();
    }
  }
}

// --- Window operator through the compiler passes -------------------------------------

// Two hospitals' diagnosis logs; patient id + timestamp annotated trust={0} so the
// hybrid window can fire when requested.
struct WindowQuery {
  Dag dag;
  OpNode* concat;
  OpNode* window;
  OpNode* collect;

  explicit WindowQuery(bool annotate) {
    const PartySet stp = annotate ? PartySet::Of({0}) : PartySet();
    Schema schema({ColumnDef("pid", stp), ColumnDef("t", stp), ColumnDef("v")});
    OpNode* h0 = *dag.AddCreate("d0", schema, 0);
    OpNode* h1 = *dag.AddCreate("d1", schema, 1);
    concat = *dag.AddConcat({h0, h1});
    ir::WindowParams params;
    params.partition_columns = {"pid"};
    params.order_column = "t";
    params.fn = WindowFn::kLag;
    params.value_column = "t";
    params.output_name = "prev_t";
    window = *dag.AddWindow(concat, params);
    collect = *dag.AddCollect(window, "out", PartySet::Of({0}));
  }
};

TEST(WindowCompilerTest, SchemaAppendsOutputColumn) {
  WindowQuery q(false);
  EXPECT_EQ(q.window->schema.NumColumns(), 4);
  EXPECT_TRUE(q.window->schema.HasColumn("prev_t"));
}

TEST(WindowCompilerTest, RejectsUnknownAndDuplicateColumns) {
  WindowQuery q(false);
  ir::WindowParams bad;
  bad.partition_columns = {"nope"};
  bad.order_column = "t";
  bad.output_name = "w";
  EXPECT_FALSE(q.dag.AddWindow(q.concat, bad).ok());

  ir::WindowParams dup;
  dup.partition_columns = {"pid"};
  dup.order_column = "t";
  dup.output_name = "v";  // Already a column.
  EXPECT_FALSE(q.dag.AddWindow(q.concat, dup).ok());

  ir::WindowParams no_partition;
  no_partition.order_column = "t";
  no_partition.output_name = "w";
  EXPECT_FALSE(q.dag.AddWindow(q.concat, no_partition).ok());
}

TEST(WindowCompilerTest, CrossPartyWindowStaysUnderMpc) {
  WindowQuery q(false);
  PropagateOwnership(q.dag);
  EXPECT_EQ(q.window->exec_mode, ExecMode::kMpc);
  PushDown(q.dag, true);
  // A window over a cross-party concat does not distribute; it must stay under MPC.
  EXPECT_EQ(q.window->exec_mode, ExecMode::kMpc);
}

TEST(WindowCompilerTest, TrustTaintsAllColumnsWithPartitionAndOrder) {
  WindowQuery q(true);
  PropagateOwnership(q.dag);
  PropagateTrust(q.dag, 2);
  // pid/t are trusted to party 0 on both inputs; v is not annotated, so the computed
  // lag over t keeps the partition+order trust while v's own trust is empty.
  EXPECT_TRUE(Trust(q.window, "prev_t").Contains(0));
  EXPECT_FALSE(Trust(q.window, "v").Contains(0));

  WindowQuery plain(false);
  PropagateOwnership(plain.dag);
  PropagateTrust(plain.dag, 2);
  EXPECT_FALSE(Trust(plain.window, "prev_t").Contains(0));
}

TEST(WindowCompilerTest, HybridTransformFiresOnlyWithAnnotation) {
  WindowQuery annotated(true);
  PropagateOwnership(annotated.dag);
  PropagateTrust(annotated.dag, 2);
  const auto log = ApplyHybridTransforms(annotated.dag, 2);
  EXPECT_EQ(annotated.window->exec_mode, ExecMode::kHybrid);
  EXPECT_EQ(annotated.window->hybrid, HybridKind::kHybridWindow);
  EXPECT_EQ(annotated.window->stp, 0);
  EXPECT_FALSE(log.empty());

  WindowQuery plain(false);
  PropagateOwnership(plain.dag);
  PropagateTrust(plain.dag, 2);
  ApplyHybridTransforms(plain.dag, 2);
  EXPECT_EQ(plain.window->exec_mode, ExecMode::kMpc);
  EXPECT_EQ(plain.window->hybrid, HybridKind::kNone);
}

TEST(WindowCompilerTest, SortEliminationSkipsPreSortedWindow) {
  WindowQuery q(false);
  // Insert an explicit sort by (pid, t) between concat and window.
  OpNode* sort = *q.dag.AddSortBy(q.concat, {"pid", "t"});
  q.dag.ReplaceInput(q.window, q.concat, sort);
  PropagateOwnership(q.dag);
  const auto log = EliminateSorts(q.dag);
  EXPECT_TRUE(q.window->assume_sorted);
  // And the window's own output order feeds downstream consumers.
  EXPECT_EQ(q.window->sorted_by, (std::vector<std::string>{"pid", "t"}));
}

TEST(WindowCompilerTest, WindowOutputOrderElidesDownstreamSort) {
  WindowQuery q(false);
  OpNode* sort = *q.dag.AddSortBy(q.window, {"pid", "t"});
  q.dag.ReplaceInput(q.collect, q.window, sort);
  PropagateOwnership(q.dag);
  EliminateSorts(q.dag);
  EXPECT_TRUE(sort->assume_sorted);  // Window already emits (pid, t) order.
}

TEST(WindowCompilerTest, CodegenMentionsWindow) {
  WindowQuery q(true);
  const auto compilation = Compile(q.dag, CompilerOptions{});
  ASSERT_TRUE(compilation.ok());
  EXPECT_NE(compilation->generated_code.find("window"), std::string::npos);
}

}  // namespace
}  // namespace compiler
}  // namespace conclave
