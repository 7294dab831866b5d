// Fault-injection tests (net/fault.h, DESIGN.md §11): per-event-type unit
// coverage — drop -> retry -> success, crash -> frontier rollback, corruption ->
// commitment mismatch -> structured abort — plus the retry/backoff pricing
// identities against CostModel and the FaultPlan knob parser.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "conclave/api/conclave.h"
#include "conclave/common/strings.h"
#include "conclave/compiler/plan_cost.h"
#include "conclave/data/generators.h"
#include "conclave/net/fault.h"
#include "conclave/net/network.h"
#include "conclave/relational/pipeline.h"

namespace conclave {
namespace {

using api::Party;
using api::Query;
using api::Table;

struct QuerySetup {
  Query query;
  std::map<std::string, Relation> inputs;
};

// Three-party grouped sum over an MPC join: local pre-processing on every party,
// frontier ingest, lane execution, and a revealing Collect — every faultable
// step class in one plan. `fan_out` delivers the output to two parties, adding
// the point-to-point sends that drop/latency injection targets (pure-MPC
// traffic is charged in aggregate, not as individual sends).
void BuildCreditLike(QuerySetup& setup, int64_t rows, bool fan_out = false) {
  Party regulator = setup.query.AddParty("regulator");
  Party bank1 = setup.query.AddParty("bank1");
  Party bank2 = setup.query.AddParty("bank2");
  Table demo = setup.query.NewTable("demo", {{"ssn"}, {"zip"}}, regulator);
  Table s1 = setup.query.NewTable("s1", {{"ssn"}, {"score"}}, bank1);
  Table s2 = setup.query.NewTable("s2", {{"ssn"}, {"score"}}, bank2);
  Table total = demo.Join(setup.query.Concat({s1, s2}), {"ssn"}, {"ssn"})
                    .Aggregate("total", AggKind::kSum, {"zip"}, "score");
  if (fan_out) {
    total.WriteToCsv("out", {regulator, bank1});
  } else {
    total.WriteToCsv("out", {regulator});
  }
  setup.inputs["demo"] = data::Demographics(rows, rows * 4, 8, 1);
  setup.inputs["s1"] = data::CreditScores(rows / 2, rows * 4, 2);
  setup.inputs["s2"] = data::CreditScores(rows / 2, rows * 4, 3);
}

backends::ExecutionResult RunCreditLike(std::optional<FaultPlan> plan,
                                        int pool = 1, bool fan_out = false) {
  QuerySetup setup;
  BuildCreditLike(setup, 200, fan_out);
  auto result = setup.query.Run(
      setup.inputs, {}, CostModel{}, 42,
      {.pool_parallelism = pool, .fault_plan = std::move(plan)});
  CONCLAVE_CHECK(result.ok());
  return std::move(*result);
}

void ExpectCountersEqual(const CostCounters& a, const CostCounters& b) {
  EXPECT_EQ(a.network_bytes, b.network_bytes);
  EXPECT_EQ(a.network_rounds, b.network_rounds);
  EXPECT_EQ(a.mpc_multiplications, b.mpc_multiplications);
  EXPECT_EQ(a.mpc_comparisons, b.mpc_comparisons);
  EXPECT_EQ(a.gc_and_gates, b.gc_and_gates);
  EXPECT_EQ(a.cleartext_records, b.cleartext_records);
  EXPECT_EQ(a.zk_proofs, b.zk_proofs);
}

// The faulted run must be bit-identical to the fault-free run in everything but
// the virtual clock, which carries exactly the priced recovery time.
void ExpectRecoveredBitIdentical(const backends::ExecutionResult& base,
                                 const backends::ExecutionResult& faulty) {
  ASSERT_FALSE(faulty.aborted) << faulty.abort_status.ToString();
  ASSERT_EQ(base.outputs.size(), faulty.outputs.size());
  for (const auto& [name, relation] : base.outputs) {
    ASSERT_TRUE(faulty.outputs.count(name));
    EXPECT_TRUE(relation.RowsEqual(faulty.outputs.at(name))) << name;
  }
  ExpectCountersEqual(base.counters, faulty.counters);
  EXPECT_EQ(base.node_seconds, faulty.node_seconds);
  EXPECT_EQ(faulty.virtual_seconds,
            base.virtual_seconds + faulty.fault_report.recovery_seconds);
  EXPECT_GT(faulty.fault_report.recovery_seconds, 0.0);
}

// --- Pricing identities -------------------------------------------------------------

TEST(FaultPricingTest, RetrySecondsIsBackedOffTimeoutPlusRetransmission) {
  CostModel model;
  double timeout = model.retry_timeout_seconds;
  for (int k = 0; k < model.max_send_retries; ++k) {
    EXPECT_EQ(model.RetrySeconds(k, 4096),
              timeout + model.SecondsForBytes(4096));
    EXPECT_EQ(model.RetrySeconds(k, 0), timeout);
    timeout *= model.retry_backoff_factor;
  }
}

TEST(FaultPricingTest, DropChargesRecoveryAccumulatorsNotTheNetwork) {
  const CostModel model;
  FaultPlan plan;
  plan.enabled = true;
  FaultEvent drop;
  drop.kind = FaultEvent::Kind::kDropSend;
  drop.node_id = 7;
  drop.ordinal = 0;
  drop.times = 2;
  plan.events.push_back(drop);

  SimNetwork fault_free{model};
  fault_free.Send(0, 1, 100);

  SimNetwork net{model};
  FaultInjector injector(plan, model);
  net.set_fault_injector(&injector);
  injector.EnterScope(7);
  net.Send(0, 1, 100);

  // The network's meter, clock, and counters never see fault charges.
  EXPECT_EQ(net.TakeMeterSeconds(), fault_free.TakeMeterSeconds());
  EXPECT_EQ(net.ElapsedSeconds(), fault_free.ElapsedSeconds());
  EXPECT_EQ(net.counters().network_bytes, fault_free.counters().network_bytes);

  // Two lost copies -> two priced retransmissions with exponential backoff.
  EXPECT_EQ(injector.NodeRecoverySeconds(7),
            model.RetrySeconds(0, 100) + model.RetrySeconds(1, 100));
  EXPECT_FALSE(injector.has_pending_failure());
  const FaultReport report = injector.Report({7});
  EXPECT_EQ(report.injected_drops, 2u);
  EXPECT_EQ(report.retried_sends, 2u);
  EXPECT_EQ(report.recovered_faults, 2u);
  EXPECT_EQ(report.recovery_bytes, 200u);
  EXPECT_EQ(report.recovery_seconds, injector.NodeRecoverySeconds(7));
  ASSERT_EQ(report.injected_events.size(), 1u);
  EXPECT_EQ(report.injected_events[0].kind, FaultEvent::Kind::kDropSend);
}

TEST(FaultPricingTest, DropBeyondRetryCapRaisesPendingFailure) {
  const CostModel model;
  FaultPlan plan;
  plan.enabled = true;
  FaultEvent drop;
  drop.kind = FaultEvent::Kind::kDropSend;
  drop.times = model.max_send_retries + 1;
  plan.events.push_back(drop);

  SimNetwork net{model};
  FaultInjector injector(plan, model);
  net.set_fault_injector(&injector);
  injector.EnterScope(3);
  net.Send(0, 1, 64);

  ASSERT_TRUE(injector.has_pending_failure());
  int node_id = -1;
  const std::string provenance = injector.TakePendingFailure(&node_id);
  EXPECT_EQ(node_id, 3);
  EXPECT_NE(provenance.find("max_send_retries"), std::string::npos);
  EXPECT_FALSE(injector.has_pending_failure());
  // The bounded retries were still priced before escalating.
  EXPECT_EQ(injector.Report({3}).retried_sends,
            static_cast<uint64_t>(model.max_send_retries));
}

TEST(FaultPricingTest, LatencyEventIsRecoveredAndPricedOnce) {
  const CostModel model;
  FaultPlan plan;
  plan.enabled = true;
  FaultEvent lat;
  lat.kind = FaultEvent::Kind::kAddLatency;
  lat.extra_seconds = 0.25;
  plan.events.push_back(lat);

  SimNetwork net{model};
  FaultInjector injector(plan, model);
  net.set_fault_injector(&injector);
  injector.EnterScope(1);
  net.Send(0, 1, 8);

  EXPECT_EQ(injector.NodeRecoverySeconds(1), 0.25);
  const FaultReport report = injector.Report({1});
  EXPECT_EQ(report.injected_latencies, 1u);
  EXPECT_EQ(report.recovered_faults, 1u);
  EXPECT_FALSE(injector.has_pending_failure());
}

// --- End-to-end recovery ------------------------------------------------------------

TEST(FaultRecoveryTest, DroppedSendsRetryToBitIdenticalResults) {
  const backends::ExecutionResult base =
      RunCreditLike(std::nullopt, /*pool=*/1, /*fan_out=*/true);
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = 11;
  plan.drop_rate = 1.0;  // Every send loses at least one copy.
  plan.max_consecutive_drops = 1;
  const backends::ExecutionResult faulty =
      RunCreditLike(plan, /*pool=*/1, /*fan_out=*/true);
  ASSERT_TRUE(faulty.fault_report.fault_mode);
  EXPECT_GT(faulty.fault_report.injected_drops, 0u);
  EXPECT_GE(faulty.fault_report.retried_sends,
            faulty.fault_report.injected_drops);
  ExpectRecoveredBitIdentical(base, faulty);
}

TEST(FaultRecoveryTest, CrashesRollBackToFrontierCheckpointsBitIdentically) {
  const backends::ExecutionResult base = RunCreditLike(std::nullopt);
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = 13;
  FaultEvent crash;
  crash.kind = FaultEvent::Kind::kCrashJob;  // Every job crashes once.
  plan.events.push_back(crash);
  for (int pool : {1, 4}) {
    const backends::ExecutionResult faulty = RunCreditLike(plan, pool);
    EXPECT_GT(faulty.fault_report.injected_crashes, 0u);
    EXPECT_EQ(faulty.fault_report.job_restarts,
              faulty.fault_report.injected_crashes);
    ExpectRecoveredBitIdentical(base, faulty);
  }
}

TEST(FaultRecoveryTest, CorruptedRevealsAreDetectedAndRetransmitted) {
  const backends::ExecutionResult base = RunCreditLike(std::nullopt);
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = 17;
  plan.corrupt_rate = 1.0;  // Every reveal delivery corrupted once.
  plan.corrupt_times = 1;
  const backends::ExecutionResult faulty = RunCreditLike(plan);
  EXPECT_GT(faulty.fault_report.injected_corruptions, 0u);
  ExpectRecoveredBitIdentical(base, faulty);
}

TEST(FaultRecoveryTest, MixedFaultLoadRecoversAtEveryPoolSize) {
  const backends::ExecutionResult base = RunCreditLike(std::nullopt);
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = 23;
  plan.drop_rate = 0.5;
  plan.corrupt_rate = 0.5;
  plan.crash_rate = 0.5;
  plan.latency_rate = 0.5;
  plan.max_consecutive_drops = 3;
  const backends::ExecutionResult serial = RunCreditLike(plan, /*pool=*/1);
  const backends::ExecutionResult parallel = RunCreditLike(plan, /*pool=*/4);
  ExpectRecoveredBitIdentical(base, serial);
  ExpectRecoveredBitIdentical(base, parallel);
  // The fault schedule itself is pool-size-independent.
  EXPECT_EQ(serial.fault_report.injected_drops,
            parallel.fault_report.injected_drops);
  EXPECT_EQ(serial.fault_report.injected_crashes,
            parallel.fault_report.injected_crashes);
  EXPECT_EQ(serial.fault_report.recovery_seconds,
            parallel.fault_report.recovery_seconds);
}

// A query whose crash targets are pool tasks reading same-party inputs, so each
// one's boundary charge is 0 and its node_seconds is exactly its cleartext
// compute: alice's Create, the fused filter -> arithmetic -> project chain on
// it, and the lone (blocking) aggregate after the chain. A sort sits between
// the chain and the aggregate, which would otherwise end the chain and run
// inside its task. The MPC aggregate across alice and bob ends in one
// revealing Collect, topo-last.
struct CrashPricingQuery {
  Query query;
  std::map<std::string, Relation> inputs;
  int create = -1;
  std::vector<int> chain;  // Head first.
  int lone = -1;
  int collect = -1;
};

void BuildCrashPricingQuery(CrashPricingQuery& q) {
  Party alice = q.query.AddParty("alice");
  Party bob = q.query.AddParty("bob");
  Table a = q.query.NewTable("a", {{"k"}, {"v"}}, alice);
  Table filtered = a.Filter("v", CompareOp::kGt, 10);
  Table scaled = filtered.MultiplyConst("w", "v", 3);
  Table projected = scaled.Project({"k", "w"});
  Table lone = projected.SortBy({"w"}).Aggregate("total", AggKind::kSum, {"k"}, "w");
  Table b = q.query.NewTable("b", {{"k"}, {"total"}}, bob);
  q.query.Concat({lone, b})
      .Aggregate("sum", AggKind::kSum, {"k"}, "total")
      .WriteToCsv("out", {alice});
  q.inputs["a"] = data::UniformInts(300, {"k", "v"}, 40, /*seed=*/51);
  q.inputs["b"] = data::UniformInts(200, {"k", "total"}, 40, /*seed=*/52);
  q.create = a.node()->id;
  q.chain = {filtered.node()->id, scaled.node()->id, projected.node()->id};
  q.lone = lone.node()->id;
  q.collect = q.query.dag().Collects().at(0)->id;
}

backends::ExecutionResult RunCrashPricing(bool crash, bool corrupt, int pool,
                                          int64_t batch_rows) {
  CrashPricingQuery q;
  BuildCrashPricingQuery(q);
  std::optional<FaultPlan> plan;
  if (crash || corrupt) {
    plan.emplace();
    plan->enabled = true;
  }
  if (crash) {
    for (int node_id : {q.create, q.lone, q.chain.front()}) {
      FaultEvent event;
      event.kind = FaultEvent::Kind::kCrashJob;
      event.node_id = node_id;
      event.times = 1;
      plan->events.push_back(event);
    }
  }
  if (corrupt) {
    FaultEvent event;
    event.kind = FaultEvent::Kind::kCorruptReveal;
    event.node_id = q.collect;
    event.ordinal = 0;
    event.times = CostModel{}.max_send_retries + 1;  // Unrecoverable.
    plan->events.push_back(event);
  }
  auto result = q.query.Run(q.inputs, {}, CostModel{}, 42,
                            {.pool_parallelism = pool,
                             .batch_rows = batch_rows,
                             .fault_plan = std::move(plan)});
  CONCLAVE_CHECK(result.ok());
  return std::move(*result);
}

// A crashed pool task re-runs to the same bits, so its restarts are priced,
// not re-executed: each crash charges the restart penalty plus the job's
// wasted compute (none for a Create's ingest; every member's for a fused
// chain). The chaos identity (clock = fault-free clock + recovery) holds
// whatever the recovery is, so this pins the charge's value, at every {pool,
// batch} point and in a structured abort's report.
TEST(FaultRecoveryTest, PoolTaskCrashesPriceComputeAndRestart) {
  const CostModel model;
  CrashPricingQuery ids;
  BuildCrashPricingQuery(ids);
  // The chain fuses alone: the lone aggregate is a job of its own.
  ASSERT_TRUE(ids.query.Compile({}).ok());
  const std::vector<ir::OpNode*> order = ids.query.dag().TopoOrder();
  const auto chains = compiler::PipelineChains(
      std::vector<const ir::OpNode*>(order.begin(), order.end()),
      compiler::MpcBackendKind::kSharemind);
  ASSERT_EQ(chains.size(), 1u);
  std::vector<int> chain_ids;
  for (const ir::OpNode* member : chains[0].nodes) {
    chain_ids.push_back(member->id);
  }
  EXPECT_EQ(chain_ids, ids.chain);
  for (int pool : {1, 4}) {
    for (int64_t batch_rows : {int64_t{16}, kDefaultBatchRows}) {
      SCOPED_TRACE(testing::Message() << "pool=" << pool << " batch=" << batch_rows);
      const backends::ExecutionResult base =
          RunCrashPricing(/*crash=*/false, /*corrupt=*/false, pool, batch_rows);
      double expected = 3 * model.crash_restart_seconds +
                        base.node_seconds.at(ids.lone);
      for (int member : ids.chain) {
        ASSERT_GT(base.node_seconds.at(member), 0.0);
        expected += base.node_seconds.at(member);
      }
      EXPECT_EQ(base.node_seconds.at(ids.create), 0.0);

      const backends::ExecutionResult crashed =
          RunCrashPricing(/*crash=*/true, /*corrupt=*/false, pool, batch_rows);
      ExpectRecoveredBitIdentical(base, crashed);
      EXPECT_EQ(crashed.fault_report.injected_crashes, 3u);
      EXPECT_EQ(crashed.fault_report.job_restarts, 3u);
      EXPECT_DOUBLE_EQ(crashed.fault_report.recovery_seconds, expected);

      // An unrecoverable corruption of the topo-last reveal aborts the run
      // after every crashed job ran: the abort's report carries the same
      // restart charges on top of the corruption's own retries.
      const backends::ExecutionResult corrupt_only =
          RunCrashPricing(/*crash=*/false, /*corrupt=*/true, pool, batch_rows);
      ASSERT_TRUE(corrupt_only.aborted);
      const backends::ExecutionResult aborted =
          RunCrashPricing(/*crash=*/true, /*corrupt=*/true, pool, batch_rows);
      ASSERT_TRUE(aborted.aborted);
      EXPECT_EQ(aborted.fault_report.first_failure_node, ids.collect);
      EXPECT_EQ(aborted.fault_report.job_restarts, 3u);
      EXPECT_DOUBLE_EQ(aborted.fault_report.recovery_seconds,
                       expected + corrupt_only.fault_report.recovery_seconds);
    }
  }
}

// --- Streaming across the reveal frontier (DESIGN.md §14) ---------------------------

// A query whose MPC aggregate feeds a pushed-up local arithmetic chain: the
// reveal is consumed batch-at-a-time, and the scheduled corruptions are
// detected at the batch covering each corrupted row.
backends::ExecutionResult RunRevealChain(std::optional<FaultPlan> plan,
                                         int64_t batch_rows) {
  Query query;
  Party alice = query.AddParty("alice");
  Party bob = query.AddParty("bob");
  Table left = query.NewTable("left", {{"k"}, {"v"}}, alice);
  Table right = query.NewTable("right", {{"k"}, {"w"}}, bob);
  left.Join(right, {"k"}, {"k"})
      .Aggregate("total", AggKind::kSum, {"k"}, "v")
      .MultiplyConst("scaled", "total", 3)
      .AddConst("biased", "scaled", 7)
      .WriteToCsv("out", {alice});
  std::map<std::string, Relation> inputs;
  inputs["left"] = data::UniformInts(500, {"k", "v"}, 300, /*seed=*/41);
  inputs["right"] = data::UniformInts(350, {"k", "w"}, 300, /*seed=*/42);
  auto result = query.Run(inputs, {}, CostModel{}, 42,
                          {.pool_parallelism = 2,
                           .batch_rows = batch_rows,
                           .fault_plan = std::move(plan)});
  CONCLAVE_CHECK(result.ok());
  return std::move(*result);
}

TEST(FaultRecoveryTest, StreamedRevealCorruptionRetriesBitIdentically) {
  const backends::ExecutionResult base =
      RunRevealChain(std::nullopt, /*batch_rows=*/16);
  ASSERT_GT(base.source_peak_rows, 0);
  ASSERT_LE(base.source_peak_rows, 16);

  FaultPlan plan;
  plan.enabled = true;
  plan.seed = 37;
  plan.corrupt_rate = 1.0;
  plan.corrupt_times = 1;
  const backends::ExecutionResult streamed =
      RunRevealChain(plan, /*batch_rows=*/16);
  EXPECT_GT(streamed.fault_report.injected_corruptions, 0u);
  ExpectRecoveredBitIdentical(base, streamed);
  // Detection moved to the covering batch, but the residency bound held even
  // while corrupted batches were re-reconstructed.
  EXPECT_LE(streamed.source_peak_rows, 16);
}

TEST(FaultAbortTest, StreamedRevealCorruptionBeyondRetryCapAborts) {
  const CostModel model;
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = 43;
  FaultEvent corrupt;
  corrupt.kind = FaultEvent::Kind::kCorruptReveal;
  corrupt.times = model.max_send_retries + 1;  // Unrecoverable by construction.
  plan.events.push_back(corrupt);
  const backends::ExecutionResult result =
      RunRevealChain(plan, /*batch_rows=*/16);
  EXPECT_TRUE(result.aborted);
  EXPECT_EQ(result.abort_status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.abort_status.message().find("commitment mismatch"),
            std::string::npos);
  EXPECT_TRUE(result.outputs.empty());
  EXPECT_GT(result.fault_report.injected_corruptions, 0u);
}

// --- Graceful degradation -----------------------------------------------------------

TEST(FaultAbortTest, CorruptionBeyondRetryCapAbortsWithFaultReport) {
  const CostModel model;
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = 29;
  FaultEvent corrupt;
  corrupt.kind = FaultEvent::Kind::kCorruptReveal;
  corrupt.times = model.max_send_retries + 1;  // Unrecoverable by construction.
  plan.events.push_back(corrupt);
  const backends::ExecutionResult result = RunCreditLike(plan);

  // Structured abort: Run returns ok() with aborted set, a canonical
  // provenance-carrying status, and no outputs.
  EXPECT_TRUE(result.aborted);
  EXPECT_EQ(result.abort_status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.abort_status.message().find("commitment mismatch"),
            std::string::npos);
  EXPECT_TRUE(result.outputs.empty());
  EXPECT_TRUE(result.fault_report.fault_mode);
  EXPECT_FALSE(result.fault_report.first_failure.empty());
  EXPECT_GE(result.fault_report.first_failure_node, 0);
  EXPECT_GT(result.fault_report.injected_corruptions, 0u);
  EXPECT_NE(result.fault_report.ToString().find("first failure"),
            std::string::npos);
}

TEST(FaultAbortTest, CrashBudgetExhaustionAbortsGracefullyAtEveryPoolSize) {
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = 31;
  plan.crash_rate = 1.0;
  plan.crash_times = plan.job_retries + 1;  // Exhausts the per-job budget.
  const backends::ExecutionResult serial = RunCreditLike(plan, /*pool=*/1);
  const backends::ExecutionResult parallel = RunCreditLike(plan, /*pool=*/4);
  for (const backends::ExecutionResult* result : {&serial, &parallel}) {
    EXPECT_TRUE(result->aborted);
    EXPECT_EQ(result->abort_status.code(), StatusCode::kResourceExhausted);
    EXPECT_NE(result->abort_status.message().find("job_retries"),
              std::string::npos);
    EXPECT_TRUE(result->outputs.empty());
  }
  // The canonical first failure is the same node at every pool size.
  EXPECT_EQ(serial.fault_report.first_failure_node,
            parallel.fault_report.first_failure_node);
  EXPECT_EQ(serial.fault_report.first_failure,
            parallel.fault_report.first_failure);
}

// --- The knob -----------------------------------------------------------------------

TEST(FaultPlanTest, ParseRoundTripsThroughToString) {
  const auto plan = FaultPlan::Parse(
      "seed=7,drop=0.05,corrupt=0.02,crash=0.1,latency=0.2,latency_s=0.002,"
      "drops=2,crash_times=1,corrupt_times=1,retries=3");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->enabled);
  EXPECT_EQ(plan->seed, 7u);
  EXPECT_EQ(plan->drop_rate, 0.05);
  EXPECT_EQ(plan->job_retries, 3);
  const auto reparsed = FaultPlan::Parse(plan->ToString());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->ToString(), plan->ToString());

  // Rates print with every digit they need: the reparsed plan is the same plan.
  const auto precise = FaultPlan::Parse("drop=0.1234567,latency_s=0.00123456789");
  ASSERT_TRUE(precise.ok());
  const auto precise_again = FaultPlan::Parse(precise->ToString());
  ASSERT_TRUE(precise_again.ok()) << precise->ToString();
  EXPECT_EQ(precise_again->drop_rate, 0.1234567);
  EXPECT_EQ(precise_again->latency_seconds, 0.00123456789);

  // Seeds are integers: every uint64 reads back exactly, past double precision too.
  for (uint64_t seed : {(uint64_t{1} << 53) + 1, std::numeric_limits<uint64_t>::max()}) {
    const auto seeded = FaultPlan::Parse(StrFormat(
        "seed=%llu,drop=0.5", static_cast<unsigned long long>(seed)));
    ASSERT_TRUE(seeded.ok()) << seed;
    EXPECT_EQ(seeded->seed, seed);
    const auto again = FaultPlan::Parse(seeded->ToString());
    ASSERT_TRUE(again.ok()) << seeded->ToString();
    EXPECT_EQ(again->seed, seed);
    EXPECT_EQ(again->ToString(), seeded->ToString());
  }
}

TEST(FaultPlanTest, ParseRejectsMalformedSpecs) {
  EXPECT_EQ(FaultPlan::Parse("bogus_key=1").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultPlan::Parse("drop=banana").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultPlan::Parse("drop").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultPlan::Parse("drop=1.5").status().code(),
            StatusCode::kInvalidArgument);
  // Non-finite doubles, and integer keys given a value no integer field can hold
  // (negative, fractional, exponent or out of range), are rejected, never cast.
  for (const char* spec :
       {"drop=nan", "corrupt=-nan", "crash=inf", "latency_s=inf", "latency_s=nan",
        "seed=-1", "seed=1e300", "seed=18446744073709551616", "seed=7.5", "drops=1e10",
        "drops=2.5", "retries=99999999999", "crash_times=-2147483649",
        "corrupt_times=", "seed="}) {
    EXPECT_EQ(FaultPlan::Parse(spec).status().code(), StatusCode::kInvalidArgument)
        << spec;
  }
  const auto off = FaultPlan::Parse("off");
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(off->enabled);
  EXPECT_EQ(off->ToString(), "off");
}

// Seeded one-byte mutations (insert, replace or delete) of valid specs, with
// bytes drawn from the spec alphabet plus a few that never belong. A mutated
// spec either fails to parse or is a plan that reads back, field for field,
// from its own ToString.
TEST(FaultPlanTest, MutatedSpecsRejectOrRoundTrip) {
  const std::vector<std::string> seeds = {
      "seed=7,drop=0.05,corrupt=0.02,crash=0.1,latency=0.2,latency_s=0.002,"
      "drops=2,crash_times=1,corrupt_times=1,retries=3",
      "drop=0.1234567 latency_s=0.00123456789",
      "seed=18446744073709551615,drop=0.5,retries=2147483647",
      "off",
      "",
  };
  std::string bytes = "0123456789.,= -+eExnaif_\t/";
  bytes.push_back('\0');
  std::mt19937_64 rng(/*seed=*/20261021);
  const auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  int parsed = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string spec = seeds[pick(seeds.size())];
    const char byte = bytes[pick(bytes.size())];
    const size_t kind = spec.empty() ? 0 : pick(3);
    if (kind == 0) {
      spec.insert(spec.begin() + static_cast<std::ptrdiff_t>(pick(spec.size() + 1)), byte);
    } else if (kind == 1) {
      spec[pick(spec.size())] = byte;
    } else {
      spec.erase(spec.begin() + static_cast<std::ptrdiff_t>(pick(spec.size())));
    }
    const auto plan = FaultPlan::Parse(spec);
    if (!plan.ok()) {
      EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument) << spec;
      continue;
    }
    ++parsed;
    const auto again = FaultPlan::Parse(plan->ToString());
    ASSERT_TRUE(again.ok()) << spec << " -> " << plan->ToString();
    EXPECT_EQ(again->ToString(), plan->ToString()) << spec;
    EXPECT_EQ(again->enabled, plan->enabled) << spec;
    EXPECT_EQ(again->seed, plan->seed) << spec;
    EXPECT_EQ(again->drop_rate, plan->drop_rate) << spec;
    EXPECT_EQ(again->corrupt_rate, plan->corrupt_rate) << spec;
    EXPECT_EQ(again->crash_rate, plan->crash_rate) << spec;
    EXPECT_EQ(again->latency_rate, plan->latency_rate) << spec;
    EXPECT_EQ(again->latency_seconds, plan->latency_seconds) << spec;
    EXPECT_EQ(again->max_consecutive_drops, plan->max_consecutive_drops) << spec;
    EXPECT_EQ(again->crash_times, plan->crash_times) << spec;
    EXPECT_EQ(again->corrupt_times, plan->corrupt_times) << spec;
    EXPECT_EQ(again->job_retries, plan->job_retries) << spec;
  }
  EXPECT_GT(parsed, 0);
}

TEST(FaultPlanTest, FromEnvResolvesTheKnob) {
  ASSERT_EQ(setenv("CONCLAVE_FAULT_PLAN", "seed=9,drop=0.5", 1), 0);
  auto plan = FaultPlan::FromEnv();
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->enabled);
  EXPECT_EQ(plan->seed, 9u);
  EXPECT_EQ(plan->drop_rate, 0.5);

  ASSERT_EQ(setenv("CONCLAVE_FAULT_PLAN", "nope=1", 1), 0);
  EXPECT_EQ(FaultPlan::FromEnv().status().code(), StatusCode::kInvalidArgument);

  ASSERT_EQ(unsetenv("CONCLAVE_FAULT_PLAN"), 0);
  plan = FaultPlan::FromEnv();
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->enabled);
}

TEST(FaultPlanTest, ExplainCarriesTheFaultAdviceLine) {
  QuerySetup setup;
  BuildCreditLike(setup, 100);
  const auto report = setup.query.ExplainPlan();
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->ToString().find("fault-advice:"), std::string::npos);
}

}  // namespace
}  // namespace conclave
