// Randomized end-to-end property tests: generate random relational pipelines over
// random multi-party data, compile them with every pass enabled, execute them across
// the simulated deployment, and require the revealed output to match a single-
// trusted-party cleartext evaluation of the same DAG. This is the strongest whole-
// system invariant: no combination of push-down, push-up, hybrid transform, and sort
// elimination may change query semantics.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <limits>
#include <optional>

#include "conclave/api/conclave.h"
#include "conclave/backends/local_backend.h"
#include "conclave/common/cpu.h"
#include "conclave/common/strings.h"
#include "conclave/data/generators.h"
#include "conclave/net/fault.h"
#include "conclave/relational/pipeline.h"
#include "row_major_reference.h"

namespace conclave {
namespace {

// Cleartext reference: evaluate the *uncompiled* DAG on the combined inputs by
// running every node through the row-major reference operators
// (row_major_reference.h). They share no kernel and no cpu:: loop with the
// engine, so a bug every engine configuration shares still shows here.
Relation EvalReference(const ir::Dag& dag,
                       const std::map<std::string, Relation>& inputs,
                       const std::string& collect_name) {
  std::unordered_map<int, rowmajor::RowMajorRelation> values;
  Relation output;
  for (const ir::OpNode* node : dag.TopoOrder()) {
    if (node->kind == ir::OpKind::kCreate) {
      values[node->id] = rowmajor::RowMajorRelation::FromColumnar(
          inputs.at(node->Params<ir::CreateParams>().name));
      continue;
    }
    std::vector<const rowmajor::RowMajorRelation*> rels;
    rels.reserve(node->inputs.size());
    for (const ir::OpNode* input : node->inputs) {
      rels.push_back(&values.at(input->id));
    }
    auto result = rowmajor::ref::ExecuteLocal(*node, rels);
    CONCLAVE_CHECK(result.ok());
    if (node->kind == ir::OpKind::kCollect &&
        node->Params<ir::CollectParams>().name == collect_name) {
      output = result->ToColumnar();
    }
    values[node->id] = *std::move(result);
  }
  return output;
}

// Builds a random query; must be deterministic in `seed` so the compiled and
// reference instances are identical.
struct RandomQuery {
  api::Query query;
  std::map<std::string, Relation> inputs;

  explicit RandomQuery(uint64_t seed, bool annotate_trust) {
    Rng rng(seed);
    const int num_parties = 2 + static_cast<int>(rng.NextBelow(2));
    std::vector<api::Party> parties;
    for (int p = 0; p < num_parties; ++p) {
      parties.push_back(query.AddParty("party" + std::to_string(p)));
    }

    // Each party contributes a (k, v) table; k optionally trust-annotated to party 0
    // so hybrid transforms fire on some seeds.
    std::vector<api::Table> tables;
    for (int p = 0; p < num_parties; ++p) {
      std::vector<api::ColumnSpec> columns;
      if (annotate_trust) {
        columns = {{"k", {parties[0]}}, {"v"}};
      } else {
        columns = {{"k"}, {"v"}};
      }
      const std::string name = "t" + std::to_string(p);
      tables.push_back(query.NewTable(name, columns, parties[static_cast<size_t>(p)]));
      inputs[name] = data::UniformInts(20 + static_cast<int64_t>(rng.NextBelow(60)),
                                       {"k", "v"}, 12, seed * 31 + p);
    }
    api::Table current = query.Concat(tables);

    // A random chain of 1-5 operators over the evolving schema.
    int arith_counter = 0;
    const int chain_length = 1 + static_cast<int>(rng.NextBelow(5));
    for (int step = 0; step < chain_length; ++step) {
      const Schema& schema = current.node()->schema;
      std::vector<std::string> names;
      for (const auto& column : schema.columns()) {
        names.push_back(column.name);
      }
      const std::string any = names[rng.NextBelow(names.size())];
      switch (rng.NextBelow(6)) {
        case 0:
          current = current.Filter(
              any,
              static_cast<CompareOp>(rng.NextBelow(6)),
              static_cast<int64_t>(rng.NextBelow(12)));
          break;
        case 1: {
          // Reordering projection (keeps push-up viable on some seeds).
          std::vector<std::string> shuffled = names;
          std::shuffle(shuffled.begin(), shuffled.end(), rng);
          current = current.Project(shuffled);
          break;
        }
        case 2: {
          const auto kind = static_cast<ArithKind>(rng.NextBelow(4));
          const std::string out = "c" + std::to_string(arith_counter++);
          if (kind == ArithKind::kDiv) {
            current = current.Divide(out, any, names[rng.NextBelow(names.size())],
                                     100);
          } else if (kind == ArithKind::kMul) {
            current = current.Multiply(out, any, names[rng.NextBelow(names.size())]);
          } else if (kind == ArithKind::kAdd) {
            current = current.AddConst(out, any, 7);
          } else {
            current = current.MultiplyConst(out, any, -3);
          }
          break;
        }
        case 3: {
          const auto kind = static_cast<AggKind>(rng.NextBelow(5));
          const std::string group = any;
          std::string over = names[rng.NextBelow(names.size())];
          current = current.Aggregate("agg" + std::to_string(arith_counter++), kind,
                                      {group}, over);
          break;
        }
        case 4:
          current = current.Distinct({any});
          break;
        default: {
          // Total-order sort + limit keeps the prefix deterministic across engines.
          current = current.SortBy(names, rng.NextBool());
          current = current.Limit(1 + static_cast<int64_t>(rng.NextBelow(20)));
          break;
        }
      }
    }
    current.WriteToCsv("out", {parties[0]});
  }
};

class RandomQueryTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomQueryTest, CompiledExecutionMatchesReference) {
  const uint64_t seed = GetParam();
  // Reference instance: same construction, never compiled.
  RandomQuery reference(seed, /*annotate_trust=*/false);
  const Relation expected =
      EvalReference(reference.query.dag(), reference.inputs, "out");

  for (const bool annotate : {false, true}) {
    RandomQuery secure(seed, annotate);
    const auto result = secure.query.Run(secure.inputs);
    ASSERT_TRUE(result.ok()) << "seed " << seed << " annotate " << annotate << ": "
                             << result.status().ToString();
    EXPECT_TRUE(UnorderedEqual(result->outputs.at("out"), expected))
        << "seed " << seed << " annotate " << annotate << "\nexpected\n"
        << expected.ToString() << "\ngot\n"
        << result->outputs.at("out").ToString();
  }
}

TEST_P(RandomQueryTest, GarbledBackendMatchesReference) {
  const uint64_t seed = GetParam();
  RandomQuery reference(seed, false);
  const Relation expected =
      EvalReference(reference.query.dag(), reference.inputs, "out");

  RandomQuery secure(seed, false);
  compiler::CompilerOptions options;
  options.mpc_backend = compiler::MpcBackendKind::kOblivC;
  options.use_hybrid = false;
  const auto result = secure.query.Run(secure.inputs, options);
  ASSERT_TRUE(result.ok()) << "seed " << seed << ": " << result.status().ToString();
  EXPECT_TRUE(UnorderedEqual(result->outputs.at("out"), expected)) << "seed " << seed;
}

// Padding must be invisible to query semantics on every random pipeline.
TEST_P(RandomQueryTest, PaddedExecutionMatchesReference) {
  const uint64_t seed = GetParam();
  RandomQuery reference(seed, /*annotate_trust=*/false);
  const Relation expected =
      EvalReference(reference.query.dag(), reference.inputs, "out");

  RandomQuery secure(seed, false);
  compiler::CompilerOptions options;
  options.pad_mpc_inputs = true;
  const auto result = secure.query.Run(secure.inputs, options);
  ASSERT_TRUE(result.ok()) << "seed " << seed << ": " << result.status().ToString();
  EXPECT_TRUE(UnorderedEqual(result->outputs.at("out"), expected))
      << "seed " << seed << "\nexpected\n" << expected.ToString() << "\ngot\n"
      << result->outputs.at("out").ToString();
}

// Malicious mode must change costs, never answers.
TEST_P(RandomQueryTest, MaliciousExecutionMatchesReference) {
  const uint64_t seed = GetParam();
  RandomQuery reference(seed, /*annotate_trust=*/false);
  const Relation expected =
      EvalReference(reference.query.dag(), reference.inputs, "out");

  RandomQuery secure(seed, false);
  compiler::CompilerOptions options;
  options.malicious_security = true;
  const auto result = secure.query.Run(secure.inputs, options);
  ASSERT_TRUE(result.ok()) << "seed " << seed;
  EXPECT_TRUE(UnorderedEqual(result->outputs.at("out"), expected)) << "seed " << seed;
}

// Layout equivalence over the whole query corpus: evaluate the uncompiled DAG
// node-by-node through BOTH data layouts — the columnar operator library
// (backends::ExecuteLocal) and the retained row-major reference
// (rowmajor::ref::ExecuteLocal) — and require every intermediate relation to be
// cell-for-cell identical, not merely the final output. This pins the columnar
// kernels to the historical row-major semantics on arbitrary operator chains.
TEST_P(RandomQueryTest, ColumnarAndRowMajorLayoutsAgreeNodeByNode) {
  const uint64_t seed = GetParam();
  RandomQuery instance(seed, /*annotate_trust=*/false);
  const ir::Dag& dag = instance.query.dag();

  std::unordered_map<int, Relation> columnar;
  std::unordered_map<int, rowmajor::RowMajorRelation> row_major;
  for (const ir::OpNode* node : dag.TopoOrder()) {
    if (node->kind == ir::OpKind::kCreate) {
      const Relation& input =
          instance.inputs.at(node->Params<ir::CreateParams>().name);
      columnar[node->id] = input;
      row_major[node->id] = rowmajor::RowMajorRelation::FromColumnar(input);
      continue;
    }
    std::vector<const Relation*> rels;
    std::vector<const rowmajor::RowMajorRelation*> ref_rels;
    for (const ir::OpNode* input : node->inputs) {
      rels.push_back(&columnar.at(input->id));
      ref_rels.push_back(&row_major.at(input->id));
    }
    auto result = backends::ExecuteLocal(*node, rels);
    auto ref_result = rowmajor::ref::ExecuteLocal(*node, ref_rels);
    ASSERT_TRUE(result.ok()) << "seed " << seed << ": " << node->ToString();
    ASSERT_TRUE(ref_result.ok()) << "seed " << seed << ": " << node->ToString();
    EXPECT_TRUE(result->RowsEqual(ref_result->ToColumnar()))
        << "seed " << seed << " layouts diverge at node " << node->ToString()
        << "\nrow-major reference\n"
        << ref_result->ToColumnar().ToString() << "\ncolumnar\n"
        << result->ToString();
    columnar[node->id] = *std::move(result);
    row_major[node->id] = *std::move(ref_result);
  }
}

// Structural invariants of the compiled DAG (DESIGN.md #5):
//  * trust monotonicity — a surviving column's trust set never grows along an edge
//    (except at Collect, which unions the recipients by design);
//  * sortedness conservatism — a relation marked sorted-by-c is actually consistent
//    metadata: the marked columns exist in the node's schema.
TEST_P(RandomQueryTest, CompiledDagInvariantsHold) {
  const uint64_t seed = GetParam();
  for (const bool annotate : {false, true}) {
    RandomQuery secure(seed, annotate);
    const auto compilation = secure.query.Compile({});
    ASSERT_TRUE(compilation.ok()) << "seed " << seed;

    for (const ir::OpNode* node : secure.query.dag().TopoOrder()) {
      // Sortedness metadata references existing columns.
      for (const auto& column : node->sorted_by) {
        EXPECT_TRUE(node->schema.HasColumn(column))
            << "seed " << seed << " node " << node->ToString();
      }
      if (node->kind == ir::OpKind::kCreate ||
          node->kind == ir::OpKind::kCollect) {
        continue;
      }
      // Trust monotonicity for same-named surviving columns.
      for (const auto& column : node->schema.columns()) {
        for (const ir::OpNode* input : node->inputs) {
          const auto index = input->schema.IndexOf(column.name);
          if (!index.ok()) {
            continue;  // Appended column (arithmetic/window output).
          }
          const PartySet upstream = input->schema.Column(*index).trust_set;
          for (PartyId p = 0; p < kMaxParties; ++p) {
            if (column.trust_set.Contains(p)) {
              EXPECT_TRUE(upstream.Contains(p))
                  << "seed " << seed << " column " << column.name << " node "
                  << node->ToString();
            }
          }
        }
      }
      // Hybrid operators fire only with a valid STP drawn from the key trust.
      if (node->exec_mode == ir::ExecMode::kHybrid) {
        EXPECT_NE(node->stp, kNoParty) << node->ToString();
        EXPECT_NE(node->hybrid, ir::HybridKind::kNone) << node->ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQueryTest,
                         ::testing::Range<uint64_t>(1, 26));

// ===== Property-based differential pool/batch harness ===============================
//
// A seeded plan generator draws a random query (multi-party tables with uniform /
// skewed / duplicate-heavy key distributions, then a chain of joins, aggregates,
// filters, sorts, distincts, projections, and arithmetic) as a *shrinkable spec*:
// every op's parameters are raw draws interpreted modulo the schema at build time,
// so any subsequence of ops is still a valid plan. Each plan executes at pool in
// {1, 4} x batch_rows in {1, 7, default, INT_MAX}, with the SIMD kernels on and
// off, and must reproduce the serial one-batch baseline (pool=1, batch INT_MAX)
// bit for bit: RowsEqual on the revealed output (exact row order, not just set
// equality) and exact virtual-clock totals. The baseline itself is checked
// against EvalReference, which runs the uncompiled DAG node by node, so a bug
// every configuration shares still surfaces. On a failure, a greedy shrinker
// drops ops and halves tables while the failure reproduces, then prints the
// minimal failing (plan, seed, config) triple.
namespace diff {

struct TableSpec {
  int64_t rows = 0;
  int distribution = 0;  // 0 = uniform, 1 = skewed, 2 = duplicate-heavy.
  uint64_t seed = 0;
};

struct OpSpec {
  enum Kind : int {
    kFilter = 0,
    kProject,
    kArith,
    kAggregate,
    kDistinct,
    kSortLimit,
    kJoin,
    kNumKinds,
  };
  int kind = kFilter;
  uint64_t id = 0;  // Stable name suffix; survives shrinking.
  uint64_t a = 0, b = 0, c = 0, d = 0;  // Raw draws, interpreted at build time.
  TableSpec join_table;  // kJoin only: the right side's data.
};

struct PlanSpec {
  uint64_t seed = 0;
  int num_parties = 2;
  std::vector<TableSpec> tables;  // One per party, concatenated at the root.
  std::vector<OpSpec> ops;
};

int64_t DrawKey(Rng& rng, int distribution) {
  switch (distribution) {
    case 1:  // Skewed: quadratic concentration near zero.
      return static_cast<int64_t>(rng.NextBelow(1 + rng.NextBelow(12)));
    case 2:  // Duplicate-heavy: 80% of rows share one hot key.
      return rng.NextBelow(10) < 8 ? 3
                                   : static_cast<int64_t>(rng.NextBelow(6));
    default:
      return static_cast<int64_t>(rng.NextBelow(12));
  }
}

Relation MakeTable(const TableSpec& spec, const std::string& key_name,
                   const std::string& value_name) {
  Relation rel{Schema::Of({key_name, value_name})};
  rel.Resize(spec.rows);
  Rng rng(spec.seed);
  int64_t* const keys = spec.rows == 0 ? nullptr : rel.ColumnData(0);
  int64_t* const values = spec.rows == 0 ? nullptr : rel.ColumnData(1);
  for (int64_t r = 0; r < spec.rows; ++r) {
    keys[r] = DrawKey(rng, spec.distribution);
    values[r] = static_cast<int64_t>(rng.NextBelow(100));
  }
  return rel;
}

PlanSpec GeneratePlan(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  PlanSpec spec;
  spec.seed = seed;
  spec.num_parties = 2 + static_cast<int>(rng.NextBelow(2));
  for (int p = 0; p < spec.num_parties; ++p) {
    TableSpec table;
    // Includes 0-row and 1-row tables (NextBelow(80) can draw 0 and 1).
    table.rows = static_cast<int64_t>(rng.NextBelow(80));
    table.distribution = static_cast<int>(rng.NextBelow(3));
    table.seed = seed * 131 + static_cast<uint64_t>(p) + 7;
    spec.tables.push_back(table);
  }
  const int num_ops = 1 + static_cast<int>(rng.NextBelow(5));
  for (int i = 0; i < num_ops; ++i) {
    OpSpec op;
    op.kind = static_cast<int>(rng.NextBelow(OpSpec::kNumKinds));
    op.id = static_cast<uint64_t>(i);
    op.a = rng.Next();
    op.b = rng.Next();
    op.c = rng.Next();
    op.d = rng.Next();
    if (op.kind == OpSpec::kJoin) {
      op.join_table.rows = static_cast<int64_t>(rng.NextBelow(50));
      op.join_table.distribution = static_cast<int>(rng.NextBelow(3));
      op.join_table.seed = seed * 977 + op.id + 13;
    }
    spec.ops.push_back(op);
  }
  return spec;
}

struct BuiltPlan {
  api::Query query;
  std::map<std::string, Relation> inputs;
};

std::vector<std::string> SchemaNames(const api::Table& table) {
  std::vector<std::string> names;
  for (const auto& column : table.node()->schema.columns()) {
    names.push_back(column.name);
  }
  return names;
}

// Deterministic in `spec` alone (queries are single-use, so every run rebuilds).
void BuildPlan(const PlanSpec& spec, BuiltPlan* built) {
  std::vector<api::Party> parties;
  for (int p = 0; p < spec.num_parties; ++p) {
    parties.push_back(built->query.AddParty("party" + std::to_string(p)));
  }
  std::vector<api::Table> tables;
  for (int p = 0; p < spec.num_parties; ++p) {
    const std::string name = "t" + std::to_string(p);
    tables.push_back(built->query.NewTable(name, {{"k"}, {"v"}},
                                           parties[static_cast<size_t>(p)]));
    built->inputs[name] =
        MakeTable(spec.tables[static_cast<size_t>(p)], "k", "v");
  }
  api::Table current = built->query.Concat(tables);

  for (const OpSpec& op : spec.ops) {
    const std::vector<std::string> names = SchemaNames(current);
    const std::string any = names[op.a % names.size()];
    const std::string other = names[op.b % names.size()];
    const std::string tag = std::to_string(op.id);
    switch (op.kind) {
      case OpSpec::kFilter:
        current = current.Filter(any, static_cast<CompareOp>(op.c % 6),
                                 static_cast<int64_t>(op.d % 12));
        break;
      case OpSpec::kProject: {
        // Rotation: reorders without dropping (keeps later ops meaningful).
        std::vector<std::string> rotated = names;
        std::rotate(rotated.begin(),
                    rotated.begin() + static_cast<long>(op.c % rotated.size()),
                    rotated.end());
        current = current.Project(rotated);
        break;
      }
      case OpSpec::kArith:
        switch (op.c % 4) {
          case 0:
            current = current.Multiply("m" + tag, any, other);
            break;
          case 1:
            current = current.Subtract("s" + tag, any, other);
            break;
          case 2:
            current = current.Divide("d" + tag, any, other, 100);
            break;
          default:
            current = current.AddConst("a" + tag, any, 7);
            break;
        }
        break;
      case OpSpec::kAggregate:
        current = current.Aggregate("agg" + tag, static_cast<AggKind>(op.c % 5),
                                    {any}, other);
        break;
      case OpSpec::kDistinct:
        current = current.Distinct({any});
        break;
      case OpSpec::kSortLimit:
        // Total-order sort keeps the limited prefix engine-independent.
        current = current.SortBy(names, (op.c & 1) != 0);
        current = current.Limit(1 + static_cast<int64_t>(op.d % 20));
        break;
      case OpSpec::kJoin: {
        const std::string jk = "jk" + tag;
        const std::string jv = "jv" + tag;
        const std::string jname = "j" + tag;
        api::Table right = built->query.NewTable(
            jname, {{jk}, {jv}},
            parties[static_cast<size_t>(op.c % parties.size())]);
        built->inputs[jname] = MakeTable(op.join_table, jk, jv);
        current = current.Join(right, {any}, {jk});
        break;
      }
      default:
        break;
    }
  }
  current.WriteToCsv("out", {parties[0]});
}

std::string Describe(const PlanSpec& spec) {
  std::string out = StrFormat("plan seed=%llu parties=%d tables=[",
                              static_cast<unsigned long long>(spec.seed),
                              spec.num_parties);
  for (size_t t = 0; t < spec.tables.size(); ++t) {
    out += StrFormat("%s%lld rows(dist %d)", t == 0 ? "" : ", ",
                     static_cast<long long>(spec.tables[t].rows),
                     spec.tables[t].distribution);
  }
  out += "] ops=[";
  const char* kind_names[] = {"filter",   "project",    "arith", "aggregate",
                              "distinct", "sort+limit", "join"};
  for (size_t i = 0; i < spec.ops.size(); ++i) {
    const OpSpec& op = spec.ops[i];
    out += StrFormat("%s%s#%llu", i == 0 ? "" : ", ", kind_names[op.kind],
                     static_cast<unsigned long long>(op.id));
    if (op.kind == OpSpec::kJoin) {
      out += StrFormat("(right %lld rows)",
                       static_cast<long long>(op.join_table.rows));
    }
  }
  return out + "]";
}

struct RunOutcome {
  bool ok = false;
  std::string error;
  Relation output;
  double virtual_seconds = 0;
  CostCounters counters;
  bool aborted = false;
  FaultReport fault_report;
  backends::SpillReport spill_report;
};

// One point of the differential grid. Beyond the execution-shape axes ({pool,
// batch}), the SIMD/scalar kernel axis (DESIGN.md §13) rides along: it
// must be invisible in results, virtual clock, and counters at every point —
// the harness checks every candidate against a SIMD-on baseline.
struct Config {
  int pool;
  int64_t batch_rows;
  bool simd = true;

  std::string ToString() const {
    return StrFormat("{pool=%d, batch=%lld, simd=%s}", pool,
                     static_cast<long long>(batch_rows), simd ? "on" : "off");
  }
};

constexpr int64_t kBatch = kDefaultBatchRows;
constexpr int64_t kOneBatch = std::numeric_limits<int>::max();

RunOutcome RunPlan(const PlanSpec& spec, const Config& config,
                   const FaultPlan* fault_plan = nullptr,
                   int64_t mem_budget = 0) {
  const cpu::ScopedSimd simd(config.simd);
  BuiltPlan built;
  BuildPlan(spec, &built);
  RunOutcome outcome;
  const auto result = built.query.Run(
      built.inputs, {}, CostModel{}, /*seed=*/42,
      {.pool_parallelism = config.pool,
       .batch_rows = config.batch_rows,
       .fault_plan = fault_plan != nullptr ? std::optional<FaultPlan>(*fault_plan)
                                           : std::nullopt,
       .mem_budget_rows = mem_budget});
  if (!result.ok()) {
    outcome.error = result.status().ToString();
    return outcome;
  }
  outcome.aborted = result->aborted;
  outcome.fault_report = result->fault_report;
  outcome.spill_report = result->spill_report;
  outcome.counters = result->counters;
  if (result->aborted) {
    // Structured fault abort: ok stays false so status-divergence checks treat
    // it as a failure, but the report stays available for provenance checks.
    outcome.error = result->abort_status.ToString();
    return outcome;
  }
  outcome.ok = true;
  outcome.output = result->outputs.at("out");
  outcome.virtual_seconds = result->virtual_seconds;
  return outcome;
}

RunOutcome RunBaseline(const PlanSpec& spec) {
  // Serial, every fused chain in one batch.
  return RunPlan(spec, Config{/*pool=*/1, kOneBatch});
}

// True when the baseline's rows match the uncompiled DAG evaluated node by node
// (EvalReference) as a multiset — the compiled plan may order rows
// differently; otherwise records the failure. A failing baseline has nothing
// to compare.
bool BaselineMatchesReference(uint64_t seed, const PlanSpec& spec,
                              const RunOutcome& baseline) {
  if (!baseline.ok) {
    return true;
  }
  BuiltPlan reference;
  BuildPlan(spec, &reference);
  const Relation expected =
      EvalReference(reference.query.dag(), reference.inputs, "out");
  if (UnorderedEqual(baseline.output, expected)) {
    return true;
  }
  ADD_FAILURE() << "baseline diverges from the reference at seed " << seed
                << "\n" << Describe(spec) << "\nreference\n"
                << expected.ToString() << "\nbaseline\n"
                << baseline.output.ToString();
  return false;
}

// Empty string = the config reproduces the serial one-batch baseline exactly.
// The baseline depends only on the spec, so sweeps compute it once and reuse it.
std::string CheckConfigAgainst(const RunOutcome& baseline, const PlanSpec& spec,
                               const Config& config) {
  const RunOutcome candidate = RunPlan(spec, config);
  const std::string where = config.ToString();
  if (baseline.ok != candidate.ok) {
    return StrFormat("status diverges: baseline %s vs %s %s",
                     baseline.ok ? "ok" : baseline.error.c_str(), where.c_str(),
                     candidate.ok ? "ok" : candidate.error.c_str());
  }
  if (!baseline.ok) {
    // Both failed: the failure must be the canonical sequential one.
    return baseline.error == candidate.error
               ? ""
               : StrFormat("error diverges: '%s' vs '%s'",
                           baseline.error.c_str(), candidate.error.c_str());
  }
  if (!candidate.output.RowsEqual(baseline.output)) {
    return StrFormat("rows diverge at %s\nbaseline\n%s\ngot\n%s", where.c_str(),
                     baseline.output.ToString().c_str(),
                     candidate.output.ToString().c_str());
  }
  if (candidate.virtual_seconds != baseline.virtual_seconds) {
    return StrFormat("virtual clock diverges at %s: %.9f vs %.9f",
                     where.c_str(), baseline.virtual_seconds,
                     candidate.virtual_seconds);
  }
  return "";
}

std::string CheckConfig(const PlanSpec& spec, const Config& config) {
  return CheckConfigAgainst(RunBaseline(spec), spec, config);
}

// Greedy shrink: drop ops (end first), then halve tables, while the same
// config (including its simd axis point) still fails.
PlanSpec ShrinkPlan(PlanSpec spec, const Config& config) {
  const auto fails = [&](const PlanSpec& candidate) {
    return !CheckConfig(candidate, config).empty();
  };
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t i = spec.ops.size(); i-- > 0;) {
      PlanSpec candidate = spec;
      candidate.ops.erase(candidate.ops.begin() + static_cast<long>(i));
      if (fails(candidate)) {
        spec = std::move(candidate);
        progress = true;
      }
    }
    for (size_t t = 0; t < spec.tables.size(); ++t) {
      if (spec.tables[t].rows == 0) {
        continue;
      }
      PlanSpec candidate = spec;
      candidate.tables[t].rows /= 2;
      if (fails(candidate)) {
        spec = std::move(candidate);
        progress = true;
      }
      PlanSpec empty_join = spec;
      bool changed = false;
      for (OpSpec& op : empty_join.ops) {
        if (op.kind == OpSpec::kJoin && op.join_table.rows > 0) {
          op.join_table.rows /= 2;
          changed = true;
        }
      }
      if (changed && fails(empty_join)) {
        spec = std::move(empty_join);
        progress = true;
      }
    }
  }
  return spec;
}

// The sweep grid (DESIGN.md §10): pool {1, 4} x batch {one row per batch, a
// prime that straddles boundaries, the default, one batch}, each with SIMD on
// and off — minus the SIMD-on serial one-batch point, which is the baseline.
// Every simd-off entry is also a cross-kernel differential.
constexpr Config kConfigs[] = {
    {1, kBatch},    {1, kBatch, false}, {4, kBatch},    {4, kBatch, false},
    {1, 1},         {1, 1, false},      {4, 1},         {4, 1, false},
    {1, 7},         {1, 7, false},      {4, 7},         {4, 7, false},
    {1, kOneBatch, false},              {4, kOneBatch}, {4, kOneBatch, false},
};

// Runs one seeded plan through the full config sweep; on failure, shrinks and
// reports the minimal (plan, seed, config) reproduction with the full axis
// point so the failing knob combo is copy-pasteable.
void CheckSeed(uint64_t seed) {
  const PlanSpec spec = GeneratePlan(seed);
  const RunOutcome baseline = RunBaseline(spec);
  if (!BaselineMatchesReference(seed, spec, baseline)) {
    return;
  }
  for (const Config& config : kConfigs) {
    const std::string failure = CheckConfigAgainst(baseline, spec, config);
    if (failure.empty()) {
      continue;
    }
    const PlanSpec minimal = ShrinkPlan(spec, config);
    const std::string minimal_failure = CheckConfig(minimal, config);
    ADD_FAILURE() << "differential failure at seed " << seed << " "
                  << config.ToString() << "\n"
                  << failure << "\n\nminimal failing plan (seed " << seed
                  << ", config " << config.ToString() << "):\n"
                  << Describe(minimal) << "\n"
                  << minimal_failure;
    return;  // One minimal report per seed is enough.
  }
}

int FixedSeedCount() {
  if (const char* env = std::getenv("CONCLAVE_DIFF_SEEDS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) {
      return parsed;
    }
  }
  return 200;
}

// ---- Chaos axis (DESIGN.md §11): the same differential contract under a -------
// ---- seeded fault schedule. -------------------------------------------------

// Recoverable by construction: every repetition count stays within the recovery
// budgets (max_consecutive_drops <= CostModel::max_send_retries = 4, crash_times
// <= FaultPlan::job_retries, corrupt_times <= max_send_retries), so a correct
// executor must absorb the whole schedule and charge exactly its priced recovery
// time.
FaultPlan GenerateFaultPlan(uint64_t seed) {
  Rng rng(seed * 0xa24baed4963ee407ULL + 17);
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = rng.Next();
  plan.drop_rate = static_cast<double>(rng.NextBelow(41)) / 100.0;
  plan.corrupt_rate = static_cast<double>(rng.NextBelow(41)) / 100.0;
  plan.crash_rate = static_cast<double>(rng.NextBelow(41)) / 100.0;
  plan.latency_rate = static_cast<double>(rng.NextBelow(41)) / 100.0;
  plan.latency_seconds = 1e-4 * static_cast<double>(1 + rng.NextBelow(30));
  plan.max_consecutive_drops = 1 + static_cast<int>(rng.NextBelow(4));
  plan.crash_times = 1 + static_cast<int>(rng.NextBelow(2));
  plan.corrupt_times = 1 + static_cast<int>(rng.NextBelow(4));
  return plan;
}

std::string CountersDiff(const CostCounters& want, const CostCounters& got) {
  const struct {
    const char* name;
    uint64_t want;
    uint64_t got;
  } fields[] = {
      {"network_bytes", want.network_bytes, got.network_bytes},
      {"network_rounds", want.network_rounds, got.network_rounds},
      {"mpc_multiplications", want.mpc_multiplications, got.mpc_multiplications},
      {"mpc_comparisons", want.mpc_comparisons, got.mpc_comparisons},
      {"gc_and_gates", want.gc_and_gates, got.gc_and_gates},
      {"cleartext_records", want.cleartext_records, got.cleartext_records},
      {"zk_proofs", want.zk_proofs, got.zk_proofs},
  };
  for (const auto& field : fields) {
    if (field.want != field.got) {
      return StrFormat("counter %s diverges: %llu vs %llu", field.name,
                       static_cast<unsigned long long>(field.want),
                       static_cast<unsigned long long>(field.got));
    }
  }
  return "";
}

// Empty string = the faulted run recovers bit-identically: same rows and
// counters as the fault-free serial baseline, and the virtual-clock delta is
// EXACTLY the injector's priced recovery time (double equality, no tolerance —
// the accounting is separated by construction, DESIGN.md §11).
std::string CheckChaosConfigAgainst(const RunOutcome& baseline,
                                    const PlanSpec& spec,
                                    const FaultPlan& fault_plan,
                                    const Config& config) {
  const RunOutcome faulted = RunPlan(spec, config, &fault_plan);
  const std::string where = config.ToString();
  if (baseline.ok != faulted.ok) {
    return StrFormat(
        "status diverges under faults: fault-free baseline %s vs %s %s%s",
        baseline.ok ? "ok" : baseline.error.c_str(), where.c_str(),
        faulted.ok ? "ok" : faulted.error.c_str(),
        faulted.aborted ? " (recoverable plan aborted)" : "");
  }
  if (!baseline.ok) {
    // The plan fails fault-free (e.g. a simulated OOM): injection must surface
    // the identical canonical failure, never mask or reorder it.
    return baseline.error == faulted.error
               ? ""
               : StrFormat("error diverges under faults at %s: '%s' vs '%s'",
                           where.c_str(), baseline.error.c_str(),
                           faulted.error.c_str());
  }
  if (!faulted.fault_report.fault_mode) {
    return StrFormat("fault report missing at %s", where.c_str());
  }
  if (!faulted.output.RowsEqual(baseline.output)) {
    return StrFormat("rows diverge under faults at %s\nbaseline\n%s\ngot\n%s",
                     where.c_str(), baseline.output.ToString().c_str(),
                     faulted.output.ToString().c_str());
  }
  const std::string counters = CountersDiff(baseline.counters, faulted.counters);
  if (!counters.empty()) {
    return StrFormat("%s under faults at %s", counters.c_str(), where.c_str());
  }
  const double expected =
      baseline.virtual_seconds + faulted.fault_report.recovery_seconds;
  if (faulted.virtual_seconds != expected) {
    return StrFormat(
        "virtual clock breaks the recovery identity at %s: %.12f vs "
        "fault-free %.12f + priced recovery %.12f",
        where.c_str(), faulted.virtual_seconds, baseline.virtual_seconds,
        faulted.fault_report.recovery_seconds);
  }
  return "";
}

std::string CheckChaosConfig(const PlanSpec& spec, const FaultPlan& fault_plan,
                             const Config& config) {
  return CheckChaosConfigAgainst(RunBaseline(spec), spec, fault_plan, config);
}

// Fault-aware greedy shrink: first try to switch off whole fault axes (the
// biggest single simplification of a chaos repro), then minimize the query plan
// exactly like ShrinkPlan, while the same config still fails.
void ShrinkChaos(PlanSpec& spec, FaultPlan& fault_plan, const Config& config) {
  const auto fails = [&](const PlanSpec& s, const FaultPlan& f) {
    return !CheckChaosConfig(s, f, config).empty();
  };
  bool progress = true;
  while (progress) {
    progress = false;
    double* rates[] = {&fault_plan.drop_rate, &fault_plan.corrupt_rate,
                       &fault_plan.crash_rate, &fault_plan.latency_rate};
    for (double* rate : rates) {
      if (*rate == 0) {
        continue;
      }
      const double saved = *rate;
      *rate = 0;
      if (fails(spec, fault_plan)) {
        progress = true;
      } else {
        *rate = saved;
      }
    }
    if (!fault_plan.events.empty()) {
      FaultPlan no_events = fault_plan;
      no_events.events.clear();
      if (fails(spec, no_events)) {
        fault_plan = std::move(no_events);
        progress = true;
      }
    }
    for (size_t i = spec.ops.size(); i-- > 0;) {
      PlanSpec candidate = spec;
      candidate.ops.erase(candidate.ops.begin() + static_cast<long>(i));
      if (fails(candidate, fault_plan)) {
        spec = std::move(candidate);
        progress = true;
      }
    }
    for (size_t t = 0; t < spec.tables.size(); ++t) {
      if (spec.tables[t].rows == 0) {
        continue;
      }
      PlanSpec candidate = spec;
      candidate.tables[t].rows /= 2;
      if (fails(candidate, fault_plan)) {
        spec = std::move(candidate);
        progress = true;
      }
    }
  }
}

// The chaos grid: pool {1, 4} at the default batch, plus small-batch and
// one-batch points so corrupted-reveal schedules land mid-stream (DESIGN.md
// §14), and simd-off points so recovery identities also hold on the scalar
// kernels.
constexpr Config kChaosConfigs[] = {
    {1, kBatch}, {1, kBatch, false}, {4, kBatch},           {1, 7, false},
    {4, 1},      {4, 7},             {1, kOneBatch, false},
};

// Runs one seeded (plan, fault plan) pair through the chaos grid; on failure,
// shrinks both and reports the minimal reproduction alongside the realized
// fault schedule.
void CheckChaosSeed(uint64_t seed) {
  const PlanSpec spec = GeneratePlan(seed);
  const FaultPlan fault_plan = GenerateFaultPlan(seed);
  const RunOutcome baseline = RunBaseline(spec);
  if (!BaselineMatchesReference(seed, spec, baseline)) {
    return;
  }
  for (const Config& config : kChaosConfigs) {
    const std::string failure =
        CheckChaosConfigAgainst(baseline, spec, fault_plan, config);
    if (failure.empty()) {
      continue;
    }
    PlanSpec minimal_spec = spec;
    FaultPlan minimal_plan = fault_plan;
    ShrinkChaos(minimal_spec, minimal_plan, config);
    const RunOutcome repro = RunPlan(minimal_spec, config, &minimal_plan);
    ADD_FAILURE() << "chaos differential failure at seed " << seed << " "
                  << config.ToString() << "\n"
                  << failure << "\n\nminimal failing plan (seed " << seed
                  << ", config " << config.ToString() << "):\n"
                  << Describe(minimal_spec) << "\nminimal fault plan: "
                  << minimal_plan.ToString() << "\ninjected schedule: "
                  << FormatFaultEvents(repro.fault_report.injected_events)
                  << "\n"
                  << CheckChaosConfig(minimal_spec, minimal_plan, config);
    return;  // One minimal report per seed is enough.
  }
}

int ChaosSeedCount() {
  if (const char* env = std::getenv("CONCLAVE_CHAOS_SEEDS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) {
      return parsed;
    }
  }
  return 200;
}

// Unbounded-budget baseline for the spill harness (mem_budget = -1 forces
// unbounded even when CONCLAVE_MEM_BUDGET is set in the environment, so the
// identity below stays meaningful under the CI tight-budget re-runs).
RunOutcome RunUnboundedBaseline(const PlanSpec& spec) {
  return RunPlan(spec, Config{/*pool=*/1, kOneBatch}, /*fault_plan=*/nullptr,
                 /*mem_budget=*/-1);
}

// Empty string = the budgeted run reproduces the unbounded serial baseline bit
// for bit — same rows and counters — and the virtual-clock delta is EXACTLY
// the priced spill I/O (double equality, no tolerance: the charge is a closed
// form over node-total rows, folded into the clock once after everything else,
// so budgeted_clock == unbounded_clock + spill_seconds holds bit for bit at
// every {pool, batch} point; DESIGN.md §12).
std::string CheckSpillConfigAgainst(const RunOutcome& baseline,
                                    const PlanSpec& spec, const Config& config,
                                    int64_t mem_budget) {
  const RunOutcome budgeted =
      RunPlan(spec, config, /*fault_plan=*/nullptr, mem_budget);
  const std::string where =
      StrFormat("%s budget=%lld", config.ToString().c_str(),
                static_cast<long long>(mem_budget));
  if (baseline.ok != budgeted.ok) {
    return StrFormat("status diverges under budget: unbounded baseline %s vs "
                     "%s %s",
                     baseline.ok ? "ok" : baseline.error.c_str(), where.c_str(),
                     budgeted.ok ? "ok" : budgeted.error.c_str());
  }
  if (!baseline.ok) {
    // The plan fails unbounded (e.g. a simulated OOM): the budgeted run must
    // surface the identical canonical failure.
    return baseline.error == budgeted.error
               ? ""
               : StrFormat("error diverges under budget at %s: '%s' vs '%s'",
                           where.c_str(), baseline.error.c_str(),
                           budgeted.error.c_str());
  }
  if (budgeted.spill_report.mem_budget_rows != mem_budget) {
    return StrFormat("budget not threaded at %s: report says %lld",
                     where.c_str(),
                     static_cast<long long>(
                         budgeted.spill_report.mem_budget_rows));
  }
  if (!budgeted.output.RowsEqual(baseline.output)) {
    return StrFormat("rows diverge under budget at %s\nbaseline\n%s\ngot\n%s",
                     where.c_str(), baseline.output.ToString().c_str(),
                     budgeted.output.ToString().c_str());
  }
  const std::string counters = CountersDiff(baseline.counters, budgeted.counters);
  if (!counters.empty()) {
    return StrFormat("%s under budget at %s", counters.c_str(), where.c_str());
  }
  const double expected =
      baseline.virtual_seconds + budgeted.spill_report.spill_seconds;
  if (budgeted.virtual_seconds != expected) {
    return StrFormat(
        "virtual clock breaks the spill identity at %s: %.12f vs "
        "unbounded %.12f + priced spill %.12f",
        where.c_str(), budgeted.virtual_seconds, baseline.virtual_seconds,
        budgeted.spill_report.spill_seconds);
  }
  if ((budgeted.spill_report.spill_seconds > 0) !=
      (budgeted.spill_report.spilling_nodes > 0)) {
    return StrFormat("spill report inconsistent at %s: %.12f s over %d nodes",
                     where.c_str(), budgeted.spill_report.spill_seconds,
                     budgeted.spill_report.spilling_nodes);
  }
  // The physical witness: a node priced as spilling must have written a run.
  if (budgeted.spill_report.stats.runs_written <
      budgeted.spill_report.spilling_nodes) {
    return StrFormat("spill witness gap at %s: %d node(s) priced as spilling "
                     "but %lld run(s) written",
                     where.c_str(), budgeted.spill_report.spilling_nodes,
                     static_cast<long long>(
                         budgeted.spill_report.stats.runs_written));
  }
  return "";
}

std::string CheckSpillConfig(const PlanSpec& spec, const Config& config,
                             int64_t mem_budget) {
  return CheckSpillConfigAgainst(RunUnboundedBaseline(spec), spec, config,
                                 mem_budget);
}

// Greedy shrink against the spill identity, mirroring ShrinkPlan.
PlanSpec ShrinkSpill(PlanSpec spec, const Config& config, int64_t mem_budget) {
  const auto fails = [&](const PlanSpec& candidate) {
    return !CheckSpillConfig(candidate, config, mem_budget).empty();
  };
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t i = spec.ops.size(); i-- > 0;) {
      PlanSpec candidate = spec;
      candidate.ops.erase(candidate.ops.begin() + static_cast<long>(i));
      if (fails(candidate)) {
        spec = std::move(candidate);
        progress = true;
      }
    }
    for (size_t t = 0; t < spec.tables.size(); ++t) {
      if (spec.tables[t].rows == 0) {
        continue;
      }
      PlanSpec candidate = spec;
      candidate.tables[t].rows /= 2;
      if (fails(candidate)) {
        spec = std::move(candidate);
        progress = true;
      }
    }
  }
  return spec;
}

// The spill grid: the budget axis crossed with points of the {pool, batch}
// grid. Budget 3 forces multi-level merges and deep Grace recursion on
// the corpus's 0–80-row tables; 16 exercises the single-pass boundary region.
struct SpillConfig {
  Config config;
  int64_t mem_budget;
};

constexpr SpillConfig kSpillConfigs[] = {
    // Budget 3 with SIMD on, then budget 16 with the simd axis alternating so
    // spilling also composes with the scalar kernels.
    {{1, kBatch}, 3},
    {{4, kBatch}, 3},
    {{1, 7}, 3},
    {{4, 1}, 3},
    {{1, kBatch, false}, 16},
    {{4, kBatch}, 16},
    {{1, 7, false}, 16},
    {{4, kOneBatch}, 16},
};

// Runs one seeded plan through the spill grid; on failure, shrinks and reports
// the minimal reproduction.
void CheckSpillSeed(uint64_t seed) {
  const PlanSpec spec = GeneratePlan(seed);
  const RunOutcome baseline = RunUnboundedBaseline(spec);
  if (!BaselineMatchesReference(seed, spec, baseline)) {
    return;
  }
  for (const SpillConfig& sc : kSpillConfigs) {
    const std::string failure =
        CheckSpillConfigAgainst(baseline, spec, sc.config, sc.mem_budget);
    if (failure.empty()) {
      continue;
    }
    const PlanSpec minimal = ShrinkSpill(spec, sc.config, sc.mem_budget);
    ADD_FAILURE() << "spill differential failure at seed " << seed << " "
                  << sc.config.ToString() << " budget=" << sc.mem_budget << "\n"
                  << failure << "\n\nminimal failing plan (seed " << seed
                  << "):\n"
                  << Describe(minimal) << "\n"
                  << CheckSpillConfig(minimal, sc.config, sc.mem_budget);
    return;  // One minimal report per seed is enough.
  }
}

int SpillSeedCount() {
  if (const char* env = std::getenv("CONCLAVE_SPILL_SEEDS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) {
      return parsed;
    }
  }
  return 120;
}

}  // namespace diff

// Fixed seed list: every plan must be bit-identical (rows and virtual clock) to
// the serial one-batch baseline at every {pool, batch} configuration,
// and that baseline must match the node-by-node reference.
// CI runs the default 200 seeds; CONCLAVE_DIFF_SEEDS overrides.
TEST(DifferentialHarness, SeededPlansMatchBaselineAtEveryConfig) {
  const int seeds = diff::FixedSeedCount();
  for (uint64_t seed = 1; seed <= static_cast<uint64_t>(seeds); ++seed) {
    diff::CheckSeed(seed);
    if (::testing::Test::HasFailure()) {
      return;  // The minimal reproduction for this seed is already printed.
    }
  }
}

// Time-boxed random sweep for the nightly sanitizer jobs: draws fresh seeds until
// the CONCLAVE_DIFF_RANDOM_SECONDS budget expires (skipped when unset).
TEST(DifferentialHarness, RandomSweepWithinTimeBudget) {
  const char* env = std::getenv("CONCLAVE_DIFF_RANDOM_SECONDS");
  const double budget = env != nullptr ? std::atof(env) : 0;
  if (budget <= 0) {
    GTEST_SKIP() << "set CONCLAVE_DIFF_RANDOM_SECONDS to enable";
  }
  const uint64_t base = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  std::printf("random sweep base seed %llu (%.0f s budget)\n",
              static_cast<unsigned long long>(base), budget);
  const auto start = std::chrono::steady_clock::now();
  uint64_t checked = 0;
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
             .count() < budget) {
    diff::CheckSeed(base + checked);
    ++checked;
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "random sweep failed at seed " << (base + checked - 1)
                    << " (base " << base << ")";
      return;
    }
  }
  std::printf("random sweep: %llu plans checked\n",
              static_cast<unsigned long long>(checked));
}

// Chaos differential contract (DESIGN.md §11): every seeded recoverable fault
// schedule must recover bit-identically — same rows and counters as the
// fault-free serial baseline at every chaos-grid config, with the virtual-clock
// delta equal to exactly the priced recovery charges. CI runs the default 200
// seeds; CONCLAVE_CHAOS_SEEDS overrides.
TEST(ChaosDifferentialHarness, SeededFaultPlansRecoverBitIdentically) {
  const int seeds = diff::ChaosSeedCount();
  uint64_t injected = 0;
  for (uint64_t seed = 1; seed <= static_cast<uint64_t>(seeds); ++seed) {
    diff::CheckChaosSeed(seed);
    if (::testing::Test::HasFailure()) {
      return;  // The minimal reproduction for this seed is already printed.
    }
    // Non-vacuity tally: the corpus must actually inject faults, not pass by
    // never faulting.
    const FaultPlan sample_plan = diff::GenerateFaultPlan(seed);
    const diff::RunOutcome sample =
        diff::RunPlan(diff::GeneratePlan(seed),
                      diff::Config{/*pool=*/4, diff::kBatch},
                      &sample_plan);
    injected += sample.fault_report.injected_drops +
                sample.fault_report.injected_corruptions +
                sample.fault_report.injected_crashes +
                sample.fault_report.injected_latencies;
  }
  EXPECT_GT(injected, 0u) << "chaos corpus never injected a fault";
  std::printf("chaos corpus: %llu faults injected across %d seeds\n",
              static_cast<unsigned long long>(injected), seeds);
}

// Beyond-RAM differential contract (DESIGN.md §12): every seeded plan run
// under a tight memory budget must reproduce the unbounded serial baseline bit
// for bit — same rows and counters at every spill-grid config — with the
// virtual-clock delta equal to exactly the priced spill I/O. CI runs the
// default 120 seeds; CONCLAVE_SPILL_SEEDS overrides.
TEST(SpillDifferentialHarness, SeededPlansMatchUnboundedAtEveryBudget) {
  const int seeds = diff::SpillSeedCount();
  int spilling_nodes = 0;
  int64_t physical_spilled_rows = 0;
  for (uint64_t seed = 1; seed <= static_cast<uint64_t>(seeds); ++seed) {
    diff::CheckSpillSeed(seed);
    if (::testing::Test::HasFailure()) {
      return;  // The minimal reproduction for this seed is already printed.
    }
    // Non-vacuity tally: the corpus must actually spill, physically, not pass
    // by always fitting in budget.
    const diff::RunOutcome sample = diff::RunPlan(
        diff::GeneratePlan(seed),
        diff::Config{/*pool=*/4, diff::kBatch},
        /*fault_plan=*/nullptr, /*mem_budget=*/3);
    spilling_nodes += sample.spill_report.spilling_nodes;
    physical_spilled_rows += sample.spill_report.stats.spilled_rows;
  }
  EXPECT_GT(spilling_nodes, 0) << "spill corpus never priced a spill";
  EXPECT_GT(physical_spilled_rows, 0) << "spill corpus never wrote a run file";
  std::printf(
      "spill corpus: %d spilling nodes, %lld physically spilled rows across "
      "%d seeds\n",
      spilling_nodes, static_cast<long long>(physical_spilled_rows), seeds);
}

// A schedule past the recovery budgets must not recover — it must abort
// gracefully with the canonical structured report, never crash or return
// partial outputs.
TEST(ChaosDifferentialHarness, UnrecoverablePlansAbortGracefully) {
  const diff::PlanSpec spec = diff::GeneratePlan(3);
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = 7;
  plan.crash_rate = 1.0;
  plan.crash_times = plan.job_retries + 1;  // One rollback past the budget.
  const diff::RunOutcome outcome = diff::RunPlan(
      spec, diff::Config{/*pool=*/1, diff::kBatch}, &plan);
  EXPECT_FALSE(outcome.ok);
  EXPECT_TRUE(outcome.aborted);
  EXPECT_NE(outcome.error.find("fault recovery budget exhausted"),
            std::string::npos)
      << outcome.error;
  EXPECT_TRUE(outcome.fault_report.fault_mode);
  EXPECT_FALSE(outcome.fault_report.first_failure.empty());
  EXPECT_GE(outcome.fault_report.first_failure_node, 0);
  // The abort itself must be deterministic: same provenance at pool 4.
  const diff::RunOutcome parallel = diff::RunPlan(
      spec, diff::Config{/*pool=*/4, diff::kBatch}, &plan);
  EXPECT_TRUE(parallel.aborted);
  EXPECT_EQ(parallel.error, outcome.error);
  EXPECT_EQ(parallel.fault_report.first_failure_node,
            outcome.fault_report.first_failure_node);
  EXPECT_EQ(parallel.fault_report.first_failure,
            outcome.fault_report.first_failure);
}

// Time-boxed chaos sweep for the nightly sanitizer jobs: fresh (plan, fault
// plan) pairs until the CONCLAVE_CHAOS_RANDOM_SECONDS budget expires (skipped
// when unset).
TEST(ChaosDifferentialHarness, RandomSweepWithinTimeBudget) {
  const char* env = std::getenv("CONCLAVE_CHAOS_RANDOM_SECONDS");
  const double budget = env != nullptr ? std::atof(env) : 0;
  if (budget <= 0) {
    GTEST_SKIP() << "set CONCLAVE_CHAOS_RANDOM_SECONDS to enable";
  }
  const uint64_t base = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  std::printf("chaos sweep base seed %llu (%.0f s budget)\n",
              static_cast<unsigned long long>(base), budget);
  const auto start = std::chrono::steady_clock::now();
  uint64_t checked = 0;
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
             .count() < budget) {
    diff::CheckChaosSeed(base + checked);
    ++checked;
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "chaos sweep failed at seed " << (base + checked - 1)
                    << " (base " << base << ")";
      return;
    }
  }
  std::printf("chaos sweep: %llu (plan, fault plan) pairs checked\n",
              static_cast<unsigned long long>(checked));
}

}  // namespace
}  // namespace conclave
