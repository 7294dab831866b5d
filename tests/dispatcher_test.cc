// Dispatcher-level tests: failure injection (simulated OOM on both MPC backends),
// cleartext-backend selection, critical-path scheduling of parallel local jobs,
// push-down keeping dropped rows out of both MPC backends, split caching,
// run-option resolution, the composition of all extension features in one run,
// and borrowed Create inputs that no run writes.
#include <gtest/gtest.h>

#include <functional>
#include <optional>

#include "conclave/api/conclave.h"
#include "conclave/compiler/exec_options.h"
#include "conclave/data/generators.h"
#include "conclave/relational/pipeline.h"
#include "test_util.h"

namespace conclave {
namespace {

using api::Party;
using api::Query;
using api::Table;

struct QuerySetup {
  Query query;
  std::map<std::string, Relation> inputs;
};

// Three-party grouped sum over a join: exercises local pre-processing, an MPC join,
// and an MPC aggregation.
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

TEST(DispatcherFailureTest, SharemindOomSurfacesAsResourceExhausted) {
  QuerySetup setup;
  BuildCreditLike(setup, 400);
  CostModel tight;
  tight.ss_memory_limit_bytes = 64 * 1024;  // Far below the join's working set.
  const auto result = setup.query.Run(setup.inputs, {}, tight);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// --- Negative-path coverage: failures must be canonical (identical status and
// --- message at every pool size) and must drain the pool cleanly — a fresh run
// --- right after a failed one succeeds. TSan validates there are no leaked or
// --- wedged tasks racing the dispatcher teardown.

// Queries are single-use, so every run rebuilds; `mutate` corrupts the inputs.
Status RunCreditLikeStatus(
    int pool, const CostModel& model,
    const std::function<void(std::map<std::string, Relation>&)>& mutate) {
  QuerySetup setup;
  BuildCreditLike(setup, 400);
  mutate(setup.inputs);
  return setup.query
      .Run(setup.inputs, {}, model, /*seed=*/42, {.pool_parallelism = pool})
      .status();
}

void ExpectPoolStillHealthy(int pool) {
  QuerySetup setup;
  BuildCreditLike(setup, 100);
  const auto result =
      setup.query.Run(setup.inputs, {}, CostModel{}, /*seed=*/42,
                      {.pool_parallelism = pool});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->outputs.at("out").NumRows(), 0);
}

TEST(DispatcherFailureTest, MissingCreateInputFailsCanonicallyAtEveryPoolSize) {
  const auto drop_s1 = [](std::map<std::string, Relation>& inputs) {
    inputs.erase("s1");
  };
  const Status serial = RunCreditLikeStatus(1, CostModel{}, drop_s1);
  const Status parallel = RunCreditLikeStatus(4, CostModel{}, drop_s1);
  EXPECT_EQ(serial.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(serial.message().find("no input relation provided for 's1'"),
            std::string::npos)
      << serial.ToString();
  EXPECT_EQ(serial.ToString(), parallel.ToString());
  ExpectPoolStillHealthy(4);
}

TEST(DispatcherFailureTest, SchemaMismatchFailsCanonicallyAtEveryPoolSize) {
  const auto wrong_schema = [](std::map<std::string, Relation>& inputs) {
    inputs["demo"] = data::UniformInts(50, {"ssn", "oops"}, 100, 9);
  };
  const Status serial = RunCreditLikeStatus(1, CostModel{}, wrong_schema);
  const Status parallel = RunCreditLikeStatus(4, CostModel{}, wrong_schema);
  EXPECT_EQ(serial.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(serial.message().find("does not match declared schema"),
            std::string::npos)
      << serial.ToString();
  EXPECT_EQ(serial.ToString(), parallel.ToString());
  ExpectPoolStillHealthy(4);
}

TEST(DispatcherFailureTest, MidGraphFailureDrainsCleanlyAtEveryPoolSize) {
  // The Create jobs succeed; the MPC join then trips the simulated OOM mid-graph.
  // The canonical failure (earliest topological failing node) must be pool-size
  // independent, and the pool must come out clean.
  CostModel tight;
  tight.ss_memory_limit_bytes = 64 * 1024;
  const auto keep = [](std::map<std::string, Relation>&) {};
  const Status serial = RunCreditLikeStatus(1, tight, keep);
  const Status parallel = RunCreditLikeStatus(4, tight, keep);
  EXPECT_EQ(serial.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(serial.ToString(), parallel.ToString());
  ExpectPoolStillHealthy(4);
}

TEST(DispatcherFailureTest, GcOomSurfacesAsResourceExhausted) {
  // A two-party Cartesian join past the Obliv-C per-pair bookkeeping limit
  // (~30k total records on the default 4 GB VM, Fig. 1b).
  Query query;
  Party alice = query.AddParty("alice");
  Party bob = query.AddParty("bob");
  Table a = query.NewTable("a", {{"k"}, {"v"}}, alice);
  Table b = query.NewTable("b", {{"k"}, {"w"}}, bob);
  a.Join(b, {"k"}, {"k"}).WriteToCsv("out", {alice});

  std::map<std::string, Relation> inputs;
  inputs["a"] = data::UniformInts(20000, {"k", "v"}, 100000, 4);
  inputs["b"] = data::UniformInts(20000, {"k", "w"}, 100000, 5);
  compiler::CompilerOptions options;
  options.mpc_backend = compiler::MpcBackendKind::kOblivC;
  const auto result = query.Run(inputs, options);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(DispatcherTest, PythonBackendSlowerThanSparkOnLocalWork) {
  auto run_with = [](bool use_spark) {
    QuerySetup setup;
    BuildCreditLike(setup, 2000);
    compiler::CompilerOptions options;
    options.use_spark = use_spark;
    auto result = setup.query.Run(setup.inputs, options);
    CONCLAVE_CHECK(result.ok());
    return result->local_seconds;
  };
  // Sequential Python processes records ~5x slower than a 3-worker Spark cluster but
  // skips the per-job startup; on small inputs the ordering flips, so measure with
  // enough rows that throughput dominates.
  const double spark = run_with(true);
  const double python = run_with(false);
  EXPECT_GT(spark, 0.0);
  EXPECT_GT(python, 0.0);
}

TEST(DispatcherTest, ParallelLocalJobsOverlapOnTheCriticalPath) {
  QuerySetup setup;
  BuildCreditLike(setup, 3000);
  const auto result = setup.query.Run(setup.inputs);
  ASSERT_TRUE(result.ok());
  // local_seconds sums every party's local job; the schedule overlaps independent
  // per-party jobs, so the critical path is shorter than local + MPC serialized.
  EXPECT_LT(result->virtual_seconds,
            result->local_seconds + result->mpc_seconds + result->hybrid_seconds);
}

TEST(DispatcherTest, AllExtensionsComposeInOneRun) {
  // Malicious security + adaptive padding + a DP output in one execution: results
  // stay correct on the exact columns, noise lands on the aggregate, proofs and
  // padding both happen.
  auto build = [](Query& query, bool noisy) {
    Party regulator = query.AddParty("regulator");
    Party bank1 = query.AddParty("bank1");
    Party bank2 = query.AddParty("bank2");
    Table demo = query.NewTable("demo", {{"ssn"}, {"zip"}}, regulator);
    Table s1 = query.NewTable("s1", {{"ssn"}, {"score"}}, bank1);
    Table s2 = query.NewTable("s2", {{"ssn"}, {"score"}}, bank2);
    Table by_zip = demo.Join(query.Concat({s1, s2}), {"ssn"}, {"ssn"})
                       .Count("cnt", {"zip"});
    if (noisy) {
      by_zip.WriteToCsvNoisy("out", {regulator}, 1.0, {{"cnt", 1.0}});
    } else {
      by_zip.WriteToCsv("out", {regulator});
    }
  };

  std::map<std::string, Relation> inputs;
  inputs["demo"] = data::Demographics(300, 1200, 6, 7);
  inputs["s1"] = data::CreditScores(150, 1200, 8);
  inputs["s2"] = data::CreditScores(150, 1200, 9);

  Query exact_query;
  build(exact_query, false);
  const auto exact = exact_query.Run(inputs);
  ASSERT_TRUE(exact.ok());

  Query full_query;
  build(full_query, true);
  compiler::CompilerOptions options;
  options.malicious_security = true;
  options.pad_mpc_inputs = true;
  const auto result = full_query.Run(inputs, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_GT(result->counters.zk_proofs, 0u);
  EXPECT_DOUBLE_EQ(result->dp_epsilon_spent, 1.0);
  // Zip keys survive exactly; counts are noisy but rows align one-to-one.
  Relation noisy = ops::SortBy(result->outputs.at("out"), std::vector<int>{0});
  Relation reference = ops::SortBy(exact->outputs.at("out"), std::vector<int>{0});
  ASSERT_EQ(noisy.NumRows(), reference.NumRows());
  for (int64_t r = 0; r < noisy.NumRows(); ++r) {
    EXPECT_EQ(noisy.At(r, 0), reference.At(r, 0));
    EXPECT_LT(std::abs(noisy.At(r, 1) - reference.At(r, 1)), 50);
  }
}

// Push-down runs a selective filter at each bank, below the cross-party concat,
// and detaches the concat it hollowed out. Rows the filter drops therefore never
// reach the MPC: padding both banks' inputs with such rows must leave every
// MPC-side meter unchanged, and a VM limit far below the raw creates' size must
// not abort the run. A concat left in the plan would ingest (under Obliv-C,
// garble) the full creates, and both checks would fail.

// `base` plus `rows` rows the filter `v < 5` drops.
Relation PadWithDroppedRows(Relation base, int64_t rows, uint64_t seed) {
  const Relation pad = data::UniformInts(rows, {"k", "v"}, 1000, seed);
  for (int64_t r = 0; r < pad.NumRows(); ++r) {
    base.AppendRow({pad.At(r, 0), 5 + pad.At(r, 1)});
  }
  return base;
}

// sum(v) by k over concat(bank1, bank2) filtered to v < 5, with `pad_rows`
// dropped rows added to each bank. Two-party queries have no regulator, so
// bank1 receives the output.
StatusOr<backends::ExecutionResult> RunPushedDownFilter(
    compiler::MpcBackendKind backend, const CostModel& model, int64_t pad_rows) {
  Query query;
  std::optional<Party> regulator;
  if (backend != compiler::MpcBackendKind::kOblivC) {
    regulator = query.AddParty("regulator");
  }
  Party bank1 = query.AddParty("bank1");
  Party bank2 = query.AddParty("bank2");
  Table s1 = query.NewTable("s1", {{"k"}, {"v"}}, bank1);
  Table s2 = query.NewTable("s2", {{"k"}, {"v"}}, bank2);
  query.Concat({s1, s2})
      .Filter("v", CompareOp::kLt, 5)
      .Aggregate("total", AggKind::kSum, {"k"}, "v")
      .WriteToCsv("out", {regulator.value_or(bank1)});
  std::map<std::string, Relation> inputs;
  inputs["s1"] = PadWithDroppedRows(data::UniformInts(400, {"k", "v"}, 50, 81),
                                    pad_rows, 84);
  inputs["s2"] = PadWithDroppedRows(data::UniformInts(400, {"k", "v"}, 50, 82),
                                    pad_rows, 85);
  compiler::CompilerOptions options;
  options.mpc_backend = backend;
  return query.Run(inputs, options, model);
}

void ExpectSameMpcMeters(const backends::ExecutionResult& a,
                         const backends::ExecutionResult& b) {
  EXPECT_TRUE(a.outputs.at("out").RowsEqual(b.outputs.at("out")));
  EXPECT_EQ(a.counters.network_bytes, b.counters.network_bytes);
  EXPECT_EQ(a.counters.network_rounds, b.counters.network_rounds);
  EXPECT_EQ(a.counters.mpc_multiplications, b.counters.mpc_multiplications);
  EXPECT_EQ(a.counters.mpc_comparisons, b.counters.mpc_comparisons);
  EXPECT_EQ(a.counters.gc_and_gates, b.counters.gc_and_gates);
  EXPECT_EQ(a.mpc_seconds, b.mpc_seconds);
}

void ExpectDroppedRowsNeverEnterTheMpc(compiler::MpcBackendKind backend,
                                       const CostModel& tight) {
  const auto plain = RunPushedDownFilter(backend, CostModel{}, 0);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_GT(plain->outputs.at("out").NumRows(), 0);
  const auto padded = RunPushedDownFilter(backend, CostModel{}, 3000);
  ASSERT_TRUE(padded.ok()) << padded.status().ToString();
  ExpectSameMpcMeters(*plain, *padded);

  // The limit admits the filtered rows but not one padded create.
  const auto bounded = RunPushedDownFilter(backend, tight, 3000);
  ASSERT_TRUE(bounded.ok()) << bounded.status().ToString();
  EXPECT_TRUE(bounded->outputs.at("out").RowsEqual(padded->outputs.at("out")));
  EXPECT_EQ(bounded->virtual_seconds, padded->virtual_seconds);
  EXPECT_EQ(bounded->node_seconds, padded->node_seconds);
}

TEST(DispatcherTest, PushedDownFilterKeepsDroppedRowsOutOfSharemind) {
  CostModel tight;
  // 3400 x 2 cells x 350 B = 2.3 MiB per padded create.
  tight.ss_memory_limit_bytes = 1 << 20;
  ExpectDroppedRowsNeverEnterTheMpc(compiler::MpcBackendKind::kSharemind, tight);
}

TEST(DispatcherTest, PushedDownFilterKeepsDroppedRowsOutOfOblivC) {
  CostModel tight;
  // 3400 x 2 x 64 bits x 200 B = 83 MiB of live labels per padded create.
  tight.gc_memory_limit_bytes = 32 << 20;
  ExpectDroppedRowsNeverEnterTheMpc(compiler::MpcBackendKind::kOblivC, tight);
}

// The one resolver behind Dispatcher::Run and the explain advice: unset fields
// take their environment defaults, explicit fields win, and the results are in
// the documented resolved ranges.
TEST(ExecOptionsTest, ResolverAppliesEnvDefaultsToUnsetFieldsOnly) {
  test::ScopedEnvVar batch("CONCLAVE_BATCH_ROWS", "96");
  test::ScopedEnvVar budget("CONCLAVE_MEM_BUDGET", "512");
  test::ScopedEnvVar faults("CONCLAVE_FAULT_PLAN", "seed=3,drop=0.5");

  const auto from_env = compiler::ResolveExecOptions({});
  ASSERT_TRUE(from_env.ok()) << from_env.status().ToString();
  EXPECT_EQ(from_env->pool_parallelism, 0);
  EXPECT_EQ(from_env->batch_rows, 96);
  EXPECT_EQ(from_env->mem_budget_rows, 512);
  ASSERT_TRUE(from_env->fault_plan.has_value());
  EXPECT_TRUE(from_env->fault_plan->enabled);

  const auto explicit_options = compiler::ResolveExecOptions(
      {.pool_parallelism = 3, .batch_rows = 7, .fault_plan = FaultPlan{},
       .mem_budget_rows = -1});
  ASSERT_TRUE(explicit_options.ok());
  EXPECT_EQ(explicit_options->pool_parallelism, 3);
  EXPECT_EQ(explicit_options->batch_rows, 7);
  EXPECT_FALSE(explicit_options->fault_plan->enabled);
  EXPECT_EQ(explicit_options->mem_budget_rows, 0);  // Negative = unbounded.
}

TEST(ExecOptionsTest, ResolverDefaultsAndRejections) {
  {
    test::ScopedEnvVar batch("CONCLAVE_BATCH_ROWS", nullptr);
    test::ScopedEnvVar budget("CONCLAVE_MEM_BUDGET", nullptr);
    test::ScopedEnvVar faults("CONCLAVE_FAULT_PLAN", nullptr);
    const auto defaults = compiler::ResolveExecOptions({});
    ASSERT_TRUE(defaults.ok());
    EXPECT_EQ(defaults->batch_rows, kDefaultBatchRows);
    EXPECT_EQ(defaults->mem_budget_rows, 0);
    EXPECT_FALSE(defaults->fault_plan->enabled);
  }
  EXPECT_EQ(compiler::ResolveExecOptions({.batch_rows = -1}).status().code(),
            StatusCode::kInvalidArgument);
  // A negative pool must not quietly fall back to the shared pool, and a run
  // given one fails instead of executing.
  EXPECT_EQ(
      compiler::ResolveExecOptions({.pool_parallelism = -1}).status().code(),
      StatusCode::kInvalidArgument);
  {
    Query query;
    Party alice = query.AddParty("alice");
    query.NewTable("t", {{"a"}}, alice).WriteToCsv("out", {alice});
    const auto result =
        query.Run({{"t", data::UniformInts(4, {"a"}, 10, /*seed=*/1)}}, {},
                  CostModel{}, /*seed=*/42, {.pool_parallelism = -2});
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  {
    test::ScopedEnvVar faults("CONCLAVE_FAULT_PLAN", "nope=1");
    EXPECT_EQ(compiler::ResolveExecOptions({}).status().code(),
              StatusCode::kInvalidArgument);
    // An explicit plan never consults the environment.
    EXPECT_TRUE(compiler::ResolveExecOptions({.fault_plan = FaultPlan{}}).ok());
  }
}

TEST(DispatcherTest, MultipleOutputsDeliverIndependently) {
  Query query;
  Party alice = query.AddParty("alice");
  Party bob = query.AddParty("bob");
  Table a = query.NewTable("a", {{"k"}, {"v"}}, alice);
  Table b = query.NewTable("b", {{"k"}, {"w"}}, bob);
  Table joined = a.Join(b, {"k"}, {"k"});
  joined.Aggregate("sum_v", AggKind::kSum, {"k"}, "v").WriteToCsv("sums", {alice});
  joined.Count("cnt", {"k"}).WriteToCsv("counts", {bob});

  std::map<std::string, Relation> inputs;
  inputs["a"] = data::UniformInts(200, {"k", "v"}, 40, 6);
  inputs["b"] = data::UniformInts(200, {"k", "w"}, 40, 7);
  const auto result = query.Run(inputs);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->outputs.contains("sums"));
  ASSERT_TRUE(result->outputs.contains("counts"));

  const int keys[] = {0};
  Relation joined_ref = ops::Join(inputs.at("a"), inputs.at("b"), keys, keys);
  const int group[] = {0};
  EXPECT_TRUE(UnorderedEqual(result->outputs.at("sums"),
                             ops::Aggregate(joined_ref, group, AggKind::kSum, 1,
                                            "sum_v")));
  EXPECT_TRUE(UnorderedEqual(result->outputs.at("counts"),
                             ops::Aggregate(joined_ref, group, AggKind::kCount, 0,
                                            "cnt")));
}

// --- Borrowed inputs ------------------------------------------------------------

// sum(v) by k over concat(bank1, bank2) filtered to v < 30, collected by the
// regulator (or bank1 when there is none). `second_consumer` gives bank1's
// table a local aggregate of its own as well. Returns the concat's node id.
int BuildBorrowingQuery(Query& query, bool with_regulator, bool second_consumer) {
  std::optional<Party> regulator;
  if (with_regulator) {
    regulator = query.AddParty("regulator");
  }
  Party bank1 = query.AddParty("bank1");
  Party bank2 = query.AddParty("bank2");
  Table s1 = query.NewTable("s1", {{"k"}, {"v"}}, bank1);
  Table s2 = query.NewTable("s2", {{"k"}, {"v"}}, bank2);
  Table merged = query.Concat({s1, s2});
  merged.Filter("v", CompareOp::kLt, 30)
      .Aggregate("total", AggKind::kSum, {"k"}, "v")
      .WriteToCsv("out", {regulator.value_or(bank1)});
  if (second_consumer) {
    s1.Count("cnt", {"k"}).WriteToCsv("mine", {bank1});
  }
  return merged.node()->id;
}

// A Create borrows the caller's relation instead of copying it, so nothing in
// a run may write it. Runs the query twice on the same inputs: after each run
// every input equals the copy taken before the first, and the second run's
// outputs equal the first's.
void ExpectInputsNeverWritten(bool with_regulator, bool second_consumer,
                              const compiler::CompilerOptions& options,
                              bool crash_concat = false) {
  std::map<std::string, Relation> inputs;
  inputs["s1"] = data::UniformInts(500, {"k", "v"}, 50, /*seed=*/91);
  inputs["s2"] = data::UniformInts(400, {"k", "v"}, 50, /*seed=*/92);
  const std::map<std::string, Relation> copies = inputs;
  std::optional<backends::ExecutionResult> first;
  for (int run = 0; run < 2; ++run) {
    Query query;
    const int concat = BuildBorrowingQuery(query, with_regulator, second_consumer);
    compiler::ExecOptions exec;
    if (crash_concat) {
      FaultEvent crash;
      crash.kind = FaultEvent::Kind::kCrashJob;
      crash.node_id = concat;
      exec.fault_plan.emplace();
      exec.fault_plan->enabled = true;
      exec.fault_plan->events.push_back(crash);
    }
    auto result = query.Run(inputs, options, CostModel{}, /*seed=*/42, exec);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_FALSE(result->aborted) << result->abort_status.ToString();
    if (crash_concat) {
      EXPECT_EQ(result->fault_report.injected_crashes, 1u);
    }
    ASSERT_GT(result->outputs.at("out").NumRows(), 0);
    for (const auto& [name, copy] : copies) {
      EXPECT_TRUE(inputs.at(name).RowsEqual(copy)) << name << " after run " << run;
    }
    if (!first.has_value()) {
      first = std::move(*result);
      continue;
    }
    ASSERT_EQ(result->outputs.size(), first->outputs.size());
    for (const auto& [name, output] : first->outputs) {
      EXPECT_TRUE(result->outputs.at(name).RowsEqual(output)) << name;
    }
  }
}

TEST(BorrowedInputsTest, SharemindRunLeavesInputsUnwritten) {
  ExpectInputsNeverWritten(/*with_regulator=*/true, /*second_consumer=*/false, {});
}

// Without push-down the MPC concat consumes both Creates directly: the
// garbled value keeps the borrowed handle as its payload, and the malicious
// input-consistency phase reads it.
TEST(BorrowedInputsTest, OblivCRunLeavesInputsUnwritten) {
  compiler::CompilerOptions options;
  options.mpc_backend = compiler::MpcBackendKind::kOblivC;
  options.push_down = false;
  ExpectInputsNeverWritten(/*with_regulator=*/false, /*second_consumer=*/false,
                           options);
}

TEST(BorrowedInputsTest, MaliciousRunLeavesInputsUnwritten) {
  compiler::CompilerOptions options;
  options.malicious_security = true;
  options.push_down = false;
  ExpectInputsNeverWritten(/*with_regulator=*/true, /*second_consumer=*/false,
                           options);
}

// The MPC concat's crash replays from a frontier checkpoint holding the
// borrowed handles of both Creates.
TEST(BorrowedInputsTest, LaneCheckpointReplayLeavesInputsUnwritten) {
  compiler::CompilerOptions options;
  options.push_down = false;
  ExpectInputsNeverWritten(/*with_regulator=*/true, /*second_consumer=*/false,
                           options, /*crash_concat=*/true);
}

TEST(BorrowedInputsTest, CreateWithTwoConsumersLeavesInputsUnwritten) {
  ExpectInputsNeverWritten(/*with_regulator=*/true, /*second_consumer=*/true, {});
}

}  // namespace
}  // namespace conclave
