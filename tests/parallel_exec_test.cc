// Determinism contract of the parallel job-graph executor (DESIGN.md §5): for any
// pool size, a run produces bit-identical output relations (values AND row order),
// bit-identical virtual-clock totals, and identical cost counters. Real wall-clock
// time is the only thing allowed to change.
#include <gtest/gtest.h>

#include "conclave/api/conclave.h"
#include "conclave/data/generators.h"
#include "conclave/relational/ops.h"

namespace conclave {
namespace {

using api::Party;
using api::Query;
using api::Table;

struct QuerySetup {
  Query query;
  std::map<std::string, Relation> inputs;
};

// Three-party grouped sum over a join: local pre-processing at every party (the
// parallel case the executor exists for), an MPC join, and an MPC aggregation.
void BuildCreditLike(QuerySetup& setup, int64_t rows) {
  Party regulator = setup.query.AddParty("regulator");
  Party bank1 = setup.query.AddParty("bank1");
  Party bank2 = setup.query.AddParty("bank2");
  Table demo = setup.query.NewTable("demo", {{"ssn"}, {"zip"}}, regulator);
  Table s1 = setup.query.NewTable("s1", {{"ssn"}, {"score"}}, bank1);
  Table s2 = setup.query.NewTable("s2", {{"ssn"}, {"score"}}, bank2);
  demo.Join(setup.query.Concat({s1, s2}), {"ssn"}, {"ssn"})
      .Aggregate("total", AggKind::kSum, {"zip"}, "score")
      .WriteToCsv("out", {regulator});
  setup.inputs["demo"] = data::Demographics(rows, rows * 4, 8, 1);
  setup.inputs["s1"] = data::CreditScores(rows / 2, rows * 4, 2);
  setup.inputs["s2"] = data::CreditScores(rows / 2, rows * 4, 3);
}

backends::ExecutionResult RunAtPoolSize(const compiler::CompilerOptions& options,
                                        int pool_parallelism, int64_t rows = 1200) {
  QuerySetup setup;
  BuildCreditLike(setup, rows);
  auto result = setup.query.Run(setup.inputs, options, CostModel{}, /*seed=*/42,
                                {.pool_parallelism = pool_parallelism});
  CONCLAVE_CHECK(result.ok());
  return std::move(*result);
}

void ExpectBitIdentical(const backends::ExecutionResult& serial,
                        const backends::ExecutionResult& parallel) {
  // Relations: exact cells in exact order, not just unordered equivalence.
  ASSERT_EQ(serial.outputs.size(), parallel.outputs.size());
  for (const auto& [name, rel] : serial.outputs) {
    ASSERT_TRUE(parallel.outputs.contains(name)) << name;
    EXPECT_TRUE(rel.RowsEqual(parallel.outputs.at(name))) << name;
  }
  // Virtual-clock totals: EXPECT_EQ on doubles is deliberate — the contract is
  // bit-identity, not approximate equality.
  EXPECT_EQ(serial.virtual_seconds, parallel.virtual_seconds);
  EXPECT_EQ(serial.local_seconds, parallel.local_seconds);
  EXPECT_EQ(serial.mpc_seconds, parallel.mpc_seconds);
  EXPECT_EQ(serial.hybrid_seconds, parallel.hybrid_seconds);
  EXPECT_EQ(serial.dp_epsilon_spent, parallel.dp_epsilon_spent);
  // Cost counters.
  EXPECT_EQ(serial.counters.network_bytes, parallel.counters.network_bytes);
  EXPECT_EQ(serial.counters.network_rounds, parallel.counters.network_rounds);
  EXPECT_EQ(serial.counters.mpc_multiplications,
            parallel.counters.mpc_multiplications);
  EXPECT_EQ(serial.counters.mpc_comparisons, parallel.counters.mpc_comparisons);
  EXPECT_EQ(serial.counters.gc_and_gates, parallel.counters.gc_and_gates);
  EXPECT_EQ(serial.counters.cleartext_records, parallel.counters.cleartext_records);
  EXPECT_EQ(serial.counters.zk_proofs, parallel.counters.zk_proofs);
}

TEST(ParallelExecTest, PoolSizesOneAndFourBitIdentical) {
  compiler::CompilerOptions options;
  const auto serial = RunAtPoolSize(options, 1);
  const auto parallel = RunAtPoolSize(options, 4);
  ExpectBitIdentical(serial, parallel);
  EXPECT_GT(serial.virtual_seconds, 0.0);
  ASSERT_TRUE(serial.outputs.contains("out"));
  EXPECT_GT(serial.outputs.at("out").NumRows(), 0);
}

TEST(ParallelExecTest, RepeatedParallelRunsAreStable) {
  // Nondeterminism usually shows as run-to-run flake before it shows against the
  // serial baseline; two parallel runs must match exactly too.
  compiler::CompilerOptions options;
  const auto first = RunAtPoolSize(options, 4);
  const auto second = RunAtPoolSize(options, 4);
  ExpectBitIdentical(first, second);
}

TEST(ParallelExecTest, DeterministicWithAllExtensionsOn) {
  // Malicious security (nonce-sequenced ZK proofs), adaptive padding, hybrid
  // operators, and the Python cleartext backend all ride the same lane ordering.
  compiler::CompilerOptions options;
  options.malicious_security = true;
  options.pad_mpc_inputs = true;
  options.use_spark = false;
  const auto serial = RunAtPoolSize(options, 1);
  const auto parallel = RunAtPoolSize(options, 4);
  ExpectBitIdentical(serial, parallel);
  EXPECT_GT(serial.counters.zk_proofs, 0u);
}

TEST(ParallelExecTest, DeterministicUnderGarbledCircuitBackend) {
  Query build[2];
  std::map<std::string, Relation> inputs;
  inputs["a"] = data::UniformInts(400, {"k", "v"}, 80, 6);
  inputs["b"] = data::UniformInts(400, {"k", "w"}, 80, 7);
  backends::ExecutionResult results[2];
  const int pool_sizes[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    Query& query = build[i];
    Party alice = query.AddParty("alice");
    Party bob = query.AddParty("bob");
    Table a = query.NewTable("a", {{"k"}, {"v"}}, alice);
    Table b = query.NewTable("b", {{"k"}, {"w"}}, bob);
    a.Join(b, {"k"}, {"k"})
        .Aggregate("sum_v", AggKind::kSum, {"k"}, "v")
        .WriteToCsv("out", {alice});
    compiler::CompilerOptions options;
    options.mpc_backend = compiler::MpcBackendKind::kOblivC;
    auto result = query.Run(inputs, options, CostModel{}, 42,
                            {.pool_parallelism = pool_sizes[i]});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    results[i] = std::move(*result);
  }
  ExpectBitIdentical(results[0], results[1]);
}

TEST(ParallelExecTest, ErrorsSurfaceIdenticallyAcrossPoolSizes) {
  // Simulated OOM must abort the run with the same status whether or not local
  // jobs were racing ahead of the failing MPC node.
  for (int pool : {1, 4}) {
    QuerySetup setup;
    BuildCreditLike(setup, 400);
    CostModel tight;
    tight.ss_memory_limit_bytes = 64 * 1024;
    const auto result = setup.query.Run(setup.inputs, {}, tight, 42,
                                        {.pool_parallelism = pool});
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
        << "pool size " << pool;
  }
}

TEST(ParallelExecTest, MissingInputFailsCleanlyInParallel) {
  QuerySetup setup;
  BuildCreditLike(setup, 200);
  setup.inputs.erase("s2");
  const auto result = setup.query.Run(setup.inputs, {}, CostModel{}, 42,
                                      {.pool_parallelism = 4});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParallelExecTest, EarliestOfSeveralFailuresWinsAtEveryPoolSize) {
  // Two independent failures (two missing inputs on sibling branches): the
  // reported error must be the one a sequential topo walk hits first — the
  // topo-earliest — no matter which branch a parallel run processed first.
  std::string messages[2];
  const int pool_sizes[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    QuerySetup setup;
    BuildCreditLike(setup, 200);
    setup.inputs.erase("demo");  // Topo-first Create.
    setup.inputs.erase("s2");    // A later, independent Create.
    const auto result =
        setup.query.Run(setup.inputs, {}, CostModel{}, 42,
                        {.pool_parallelism = pool_sizes[i]});
    ASSERT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    messages[i] = result.status().message();
  }
  EXPECT_NE(messages[0].find("demo"), std::string::npos) << messages[0];
  EXPECT_EQ(messages[0], messages[1]);
}

TEST(ParallelExecTest, SharedValueFeedsAPoolTaskAndTheLane) {
  // One party's filtered value has two consumers: a local sort, which runs as a
  // pool task, and an MPC join, whose inputToMPC moves the value into the
  // engine on the lane. The sort is topo-earlier, so it acquires the value
  // first; the join may then take the value while the sort task still reads
  // its rows. The task's own handle keeps the relation alive (the sanitizer
  // jobs check that), and every pool size gives the pool-1 run's bits.
  constexpr int64_t kFilteredRows = 200000;
  std::map<std::string, Relation> inputs;
  Relation a = data::UniformInts(2 * kFilteredRows, {"k", "v"}, 4096, 11);
  for (int64_t row = 0; row < a.NumRows(); ++row) {
    a.Set(row, 1, row);  // v < kFilteredRows keeps exactly the first rows.
  }
  inputs["a"] = std::move(a);
  inputs["b"] = data::UniformInts(64, {"k", "w"}, 4096, 12);
  Relation filtered(inputs.at("a").schema());
  for (int64_t row = 0; row < kFilteredRows; ++row) {
    filtered.AppendRow({inputs.at("a").At(row, 0), row});
  }
  const int sort_column[1] = {0};
  const Relation want_sorted = ops::SortBy(filtered, sort_column);

  backends::ExecutionResult results[4];
  const int pool_sizes[4] = {1, 2, 4, 8};
  for (int i = 0; i < 4; ++i) {
    Query query;
    Party alice = query.AddParty("alice");
    Party bob = query.AddParty("bob");
    Table kept = query.NewTable("a", {{"k"}, {"v"}}, alice)
                     .Filter("v", CompareOp::kLt, kFilteredRows);
    kept.SortBy({"k"}).WriteToCsv("sorted", {alice});
    kept.Join(query.NewTable("b", {{"k"}, {"w"}}, bob), {"k"}, {"k"})
        .WriteToCsv("joined", {alice});
    auto result = query.Run(inputs, {}, CostModel{}, 42,
                            {.pool_parallelism = pool_sizes[i]});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    results[i] = std::move(*result);
    ExpectBitIdentical(results[0], results[i]);
  }
  EXPECT_TRUE(results[0].outputs.at("sorted").RowsEqual(want_sorted));
  EXPECT_GT(results[0].outputs.at("joined").NumRows(), 0);
}

}  // namespace
}  // namespace conclave
