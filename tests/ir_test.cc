// Tests for the query IR: DAG construction, schema-name inference with eager
// validation, traversal, and the rewrite primitives compiler passes rely on.
#include <gtest/gtest.h>

#include "conclave/ir/dag.h"

namespace conclave {
namespace ir {
namespace {

Schema TwoColumns() { return Schema::Of({"k", "v"}); }

TEST(DagTest, CreateRequiresParty) {
  Dag dag;
  EXPECT_FALSE(dag.AddCreate("t", TwoColumns(), kNoParty).ok());
  EXPECT_TRUE(dag.AddCreate("t", TwoColumns(), 0).ok());
}

TEST(DagTest, CreateKeepsAnnotationsAndInfersNames) {
  Dag dag;
  Schema annotated({ColumnDef("ssn", PartySet::Of({0})), ColumnDef("score")});
  OpNode* node = *dag.AddCreate("scores", annotated, 1);
  // Node schema is names-only (trust filled by the trust pass); the annotation
  // survives in the params.
  EXPECT_EQ(node->schema.ToString(), "(ssn{}, score{})");
  EXPECT_EQ(node->Params<CreateParams>().schema.Column(0).trust_set,
            PartySet::Of({0}));
}

TEST(DagTest, ProjectValidatesColumns) {
  Dag dag;
  OpNode* create = *dag.AddCreate("t", TwoColumns(), 0);
  EXPECT_TRUE(dag.AddProject(create, {"v"}).ok());
  const auto bad = dag.AddProject(create, {"nope"});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("nope"), std::string::npos);
}

TEST(DagTest, ConcatRequiresMatchingNames) {
  Dag dag;
  OpNode* a = *dag.AddCreate("a", TwoColumns(), 0);
  OpNode* b = *dag.AddCreate("b", TwoColumns(), 1);
  OpNode* c = *dag.AddCreate("c", Schema::Of({"x"}), 2);
  EXPECT_TRUE(dag.AddConcat({a, b}).ok());
  EXPECT_FALSE(dag.AddConcat({a, c}).ok());
}

TEST(DagTest, JoinInfersOutputSchema) {
  Dag dag;
  OpNode* left = *dag.AddCreate("l", Schema::Of({"k", "x"}), 0);
  OpNode* right = *dag.AddCreate("r", Schema::Of({"k", "y", "z"}), 1);
  OpNode* join = *dag.AddJoin(left, right, {"k"}, {"k"});
  EXPECT_EQ(join->schema.ToString(), "(k{}, x{}, y{}, z{})");
}

TEST(DagTest, JoinRejectsBadKeys) {
  Dag dag;
  OpNode* left = *dag.AddCreate("l", TwoColumns(), 0);
  OpNode* right = *dag.AddCreate("r", TwoColumns(), 1);
  EXPECT_FALSE(dag.AddJoin(left, right, {}, {}).ok());
  EXPECT_FALSE(dag.AddJoin(left, right, {"k"}, {"k", "v"}).ok());
  EXPECT_FALSE(dag.AddJoin(left, right, {"missing"}, {"k"}).ok());
}

TEST(DagTest, AggregateSchemaAndValidation) {
  Dag dag;
  OpNode* create = *dag.AddCreate("t", TwoColumns(), 0);
  AggregateParams params;
  params.group_columns = {"k"};
  params.kind = AggKind::kSum;
  params.agg_column = "v";
  params.output_name = "total";
  OpNode* agg = *dag.AddAggregate(create, params);
  EXPECT_EQ(agg->schema.ToString(), "(k{}, total{})");

  params.agg_column = "missing";
  EXPECT_FALSE(dag.AddAggregate(create, params).ok());
  params.kind = AggKind::kCount;  // Count ignores the aggregate column.
  EXPECT_TRUE(dag.AddAggregate(create, params).ok());
}

TEST(DagTest, ArithmeticRejectsDuplicateOutputName) {
  Dag dag;
  OpNode* create = *dag.AddCreate("t", TwoColumns(), 0);
  ArithmeticParams params;
  params.lhs_column = "v";
  params.output_name = "v";  // Already exists.
  EXPECT_FALSE(dag.AddArithmetic(create, params).ok());
  params.output_name = "v2";
  OpNode* arith = *dag.AddArithmetic(create, params);
  EXPECT_EQ(arith->schema.ToString(), "(k{}, v{}, v2{})");
}

TEST(DagTest, CollectRequiresRecipients) {
  Dag dag;
  OpNode* create = *dag.AddCreate("t", TwoColumns(), 0);
  EXPECT_FALSE(dag.AddCollect(create, "out", PartySet()).ok());
  EXPECT_TRUE(dag.AddCollect(create, "out", PartySet::Of({0})).ok());
}

TEST(DagTest, LimitRejectsNegative) {
  Dag dag;
  OpNode* create = *dag.AddCreate("t", TwoColumns(), 0);
  EXPECT_FALSE(dag.AddLimit(create, -1).ok());
}

TEST(DagTest, TopoOrderRespectsDependencies) {
  Dag dag;
  OpNode* a = *dag.AddCreate("a", TwoColumns(), 0);
  OpNode* b = *dag.AddCreate("b", TwoColumns(), 1);
  OpNode* concat = *dag.AddConcat({a, b});
  OpNode* project = *dag.AddProject(concat, {"k"});
  OpNode* collect = *dag.AddCollect(project, "out", PartySet::Of({0}));

  const auto order = dag.TopoOrder();
  auto position = [&](const OpNode* node) {
    return std::find(order.begin(), order.end(), node) - order.begin();
  };
  EXPECT_LT(position(a), position(concat));
  EXPECT_LT(position(b), position(concat));
  EXPECT_LT(position(concat), position(project));
  EXPECT_LT(position(project), position(collect));
}

TEST(DagTest, TopoOrderSkipsDetachedNodes) {
  Dag dag;
  OpNode* a = *dag.AddCreate("a", TwoColumns(), 0);
  OpNode* p1 = *dag.AddProject(a, {"k"});
  OpNode* p2 = *dag.AddProject(a, {"v"});
  OpNode* collect = *dag.AddCollect(p2, "out", PartySet::Of({0}));
  (void)collect;
  dag.Detach(p1);
  const auto order = dag.TopoOrder();
  EXPECT_EQ(std::find(order.begin(), order.end(), p1), order.end());
  EXPECT_EQ(order.size(), 3u);
}

TEST(DagTest, ReplaceInputRewires) {
  Dag dag;
  OpNode* a = *dag.AddCreate("a", TwoColumns(), 0);
  OpNode* b = *dag.AddCreate("b", TwoColumns(), 1);
  OpNode* project = *dag.AddProject(a, {"k"});
  dag.ReplaceInput(project, a, b);
  EXPECT_EQ(project->inputs[0], b);
  EXPECT_TRUE(a->outputs.empty());
  ASSERT_EQ(b->outputs.size(), 1u);
  EXPECT_EQ(b->outputs[0], project);
}

TEST(DagTest, CreatesAndCollects) {
  Dag dag;
  OpNode* a = *dag.AddCreate("a", TwoColumns(), 0);
  OpNode* b = *dag.AddCreate("b", TwoColumns(), 2);
  OpNode* concat = *dag.AddConcat({a, b});
  *dag.AddCollect(concat, "out", PartySet::Of({1}));
  EXPECT_EQ(dag.Creates().size(), 2u);
  EXPECT_EQ(dag.Collects().size(), 1u);
  EXPECT_EQ(dag.NumParties(), 3);  // Parties 0, 2 and recipient 1 -> max id 2.
}

TEST(DagTest, ToStringListsNodes) {
  Dag dag;
  OpNode* a = *dag.AddCreate("taxi", TwoColumns(), 0);
  *dag.AddCollect(a, "out", PartySet::Of({0}));
  const std::string rendered = dag.ToString();
  EXPECT_NE(rendered.find("create"), std::string::npos);
  EXPECT_NE(rendered.find("taxi"), std::string::npos);
  EXPECT_NE(rendered.find("collect"), std::string::npos);
}

TEST(DagTest, ToDotEmitsGraph) {
  Dag dag;
  OpNode* a = *dag.AddCreate("t", TwoColumns(), 0);
  *dag.AddCollect(a, "out", PartySet::Of({0}));
  const std::string dot = dag.ToDot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(OpNodeTest, ToStringShowsPlacementAndHybrid) {
  Dag dag;
  OpNode* left = *dag.AddCreate("l", Schema::Of({"k", "x"}), 0);
  OpNode* right = *dag.AddCreate("r", Schema::Of({"k", "y"}), 1);
  OpNode* join = *dag.AddJoin(left, right, {"k"}, {"k"});
  join->exec_mode = ExecMode::kHybrid;
  join->hybrid = HybridKind::kHybridJoin;
  join->stp = 2;
  const std::string rendered = join->ToString();
  EXPECT_NE(rendered.find("hybrid-join"), std::string::npos);
  EXPECT_NE(rendered.find("stp=2"), std::string::npos);
}

TEST(OpNodeTest, KindNames) {
  EXPECT_STREQ(OpKindName(OpKind::kAggregate), "aggregate");
  EXPECT_STREQ(ExecModeName(ExecMode::kMpc), "mpc");
  EXPECT_STREQ(HybridKindName(HybridKind::kPublicJoin), "public-join");
}

TEST(DagTest, SortByDescendingStored) {
  Dag dag;
  OpNode* create = *dag.AddCreate("t", TwoColumns(), 0);
  OpNode* sort = *dag.AddSortBy(create, {"v"}, /*ascending=*/false);
  EXPECT_FALSE(sort->Params<SortByParams>().ascending);
}

// One row of the ResolveOp table: a node of `kind` with `params` over the
// inputs (a, b, c) and (x, y). `missing` empty = resolution succeeds with
// `expected`; otherwise it fails with the lookup Status of `missing` in the
// input schema that lists it (the right input's for a join's right keys).
struct ResolveCase {
  OpKind kind;
  OpParams params;
  ResolvedOp expected;
  std::string missing;
  bool missing_on_right = false;
};

void ExpectResolvedEq(const ResolvedOp& got, const ResolvedOp& want) {
  EXPECT_EQ(got.columns, want.columns);
  EXPECT_EQ(got.right_keys, want.right_keys);
  EXPECT_EQ(got.agg_column, want.agg_column);
  EXPECT_EQ(got.filter.column, want.filter.column);
  EXPECT_EQ(got.filter.op, want.filter.op);
  EXPECT_EQ(got.filter.rhs_is_column, want.filter.rhs_is_column);
  EXPECT_EQ(got.filter.rhs_column, want.filter.rhs_column);
  EXPECT_EQ(got.filter.rhs_literal, want.filter.rhs_literal);
  EXPECT_EQ(got.arith.kind, want.arith.kind);
  EXPECT_EQ(got.arith.lhs_column, want.arith.lhs_column);
  EXPECT_EQ(got.arith.rhs_is_column, want.arith.rhs_is_column);
  EXPECT_EQ(got.arith.rhs_column, want.arith.rhs_column);
  EXPECT_EQ(got.arith.rhs_literal, want.arith.rhs_literal);
  EXPECT_EQ(got.arith.result_name, want.arith.result_name);
  EXPECT_EQ(got.arith.scale, want.arith.scale);
  EXPECT_EQ(got.window.partition_columns, want.window.partition_columns);
  EXPECT_EQ(got.window.order_column, want.window.order_column);
  EXPECT_EQ(got.window.fn, want.window.fn);
  EXPECT_EQ(got.window.value_column, want.window.value_column);
  EXPECT_EQ(got.window.output_name, want.window.output_name);
}

TEST(ResolveOpTest, ResolvesEveryKindAgainstItsInputSchemas) {
  const Schema left = Schema::Of({"a", "b", "c"});
  const Schema right = Schema::Of({"x", "y"});
  const auto columns = [](std::vector<int> indices) {
    ResolvedOp op;
    op.columns = std::move(indices);
    return op;
  };
  ResolvedOp join;
  join.columns = {2, 0};
  join.right_keys = {1, 0};
  ResolvedOp sum;
  sum.columns = {1};
  sum.agg_column = 2;
  ResolvedOp count;
  count.columns = {0};  // kCount never looks its (bogus) column up.
  ResolvedOp filter;
  filter.filter = FilterPredicate::ColumnVsColumn(1, CompareOp::kLt, 2);
  ResolvedOp filter_literal;
  filter_literal.filter = FilterPredicate::ColumnVsLiteral(0, CompareOp::kGe, 9);
  ResolvedOp arith;
  arith.arith = {ArithKind::kDiv, 2, true, 0, 0, "ratio", 100};
  ResolvedOp arith_literal;
  arith_literal.arith = {ArithKind::kAdd, 1, false, 0, 5, "plus", 1};
  ResolvedOp lag;
  lag.window = {{0}, 1, WindowFn::kLag, 2, "prev"};
  ResolvedOp row_number;
  row_number.window = {{2}, 0, WindowFn::kRowNumber, 0, "rank"};  // Skips the value.

  const std::vector<ResolveCase> cases = {
      {OpKind::kCreate, CreateParams{}, {}, ""},
      {OpKind::kConcat, ConcatParams{{"c", "a"}}, columns({2, 0}), ""},
      {OpKind::kConcat, ConcatParams{}, {}, ""},
      {OpKind::kConcat, ConcatParams{{"a", "zz"}}, {}, "zz"},
      {OpKind::kProject, ProjectParams{{"b", "a"}}, columns({1, 0}), ""},
      {OpKind::kProject, ProjectParams{{"a", "p", "q"}}, {}, "p"},
      {OpKind::kFilter, FilterParams{"b", CompareOp::kLt, true, "c", 0}, filter, ""},
      {OpKind::kFilter, FilterParams{"a", CompareOp::kGe, false, "zz", 9},
       filter_literal, ""},
      {OpKind::kFilter, FilterParams{"p", CompareOp::kEq, true, "q", 0}, {}, "p"},
      {OpKind::kFilter, FilterParams{"a", CompareOp::kEq, true, "q", 0}, {}, "q"},
      {OpKind::kJoin, JoinParams{{"c", "a"}, {"y", "x"}}, join, ""},
      {OpKind::kJoin, JoinParams{{"p"}, {"q"}}, {}, "p"},
      {OpKind::kJoin, JoinParams{{"a"}, {"a"}}, {}, "a", /*missing_on_right=*/true},
      {OpKind::kAggregate, AggregateParams{{"b"}, AggKind::kSum, "c", "s"}, sum, ""},
      {OpKind::kAggregate, AggregateParams{{"a"}, AggKind::kCount, "zz", "n"}, count,
       ""},
      {OpKind::kAggregate, AggregateParams{{"p"}, AggKind::kSum, "q", "s"}, {}, "p"},
      {OpKind::kAggregate, AggregateParams{{"a"}, AggKind::kMean, "q", "m"}, {}, "q"},
      {OpKind::kArithmetic,
       ArithmeticParams{ArithKind::kDiv, "c", true, "a", 0, "ratio", 100}, arith, ""},
      {OpKind::kArithmetic,
       ArithmeticParams{ArithKind::kAdd, "b", false, "zz", 5, "plus", 1},
       arith_literal, ""},
      {OpKind::kArithmetic,
       ArithmeticParams{ArithKind::kMul, "p", true, "q", 0, "m", 1}, {}, "p"},
      {OpKind::kWindow, WindowParams{{"a"}, "b", WindowFn::kLag, "c", "prev"}, lag, ""},
      {OpKind::kWindow, WindowParams{{"c"}, "a", WindowFn::kRowNumber, "zz", "rank"},
       row_number, ""},
      {OpKind::kWindow, WindowParams{{"a"}, "p", WindowFn::kRunningSum, "q", "r"}, {},
       "p"},
      {OpKind::kWindow, WindowParams{{"a"}, "b", WindowFn::kRunningSum, "q", "r"}, {},
       "q"},
      {OpKind::kPad, PadParams{}, {}, ""},
      {OpKind::kSortBy, SortByParams{{"c", "b"}, false}, columns({2, 1}), ""},
      {OpKind::kSortBy, SortByParams{{"p"}, true}, {}, "p"},
      {OpKind::kDistinct, DistinctParams{{"b"}}, columns({1}), ""},
      {OpKind::kDistinct, DistinctParams{{"b", "q"}}, {}, "q"},
      {OpKind::kLimit, LimitParams{3}, {}, ""},
      {OpKind::kCollect, CollectParams{}, {}, ""},
  };
  for (const ResolveCase& c : cases) {
    OpNode node;
    node.kind = c.kind;
    node.params = c.params;
    SCOPED_TRACE(testing::Message() << OpKindName(c.kind) << " missing='"
                                    << c.missing << "'");
    const StatusOr<ResolvedOp> got = ResolveOp(node, {&left, &right});
    if (c.missing.empty()) {
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectResolvedEq(*got, c.expected);
      continue;
    }
    const Status want = (c.missing_on_right ? right : left).IndexOf(c.missing).status();
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
    EXPECT_EQ(got.status().message(), want.message());
  }
}

TEST(DagTest, ReinferSchemaAfterRewire) {
  Dag dag;
  OpNode* a = *dag.AddCreate("a", Schema::Of({"k", "v", "w"}), 0);
  OpNode* b = *dag.AddCreate("b", TwoColumns(), 1);
  OpNode* project = *dag.AddProject(b, {"k"});
  dag.ReplaceInput(project, b, a);
  EXPECT_TRUE(dag.ReinferSchema(project).ok());
  EXPECT_EQ(project->schema.ToString(), "(k{})");
}

}  // namespace
}  // namespace ir
}  // namespace conclave
