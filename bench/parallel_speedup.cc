// Real wall-clock scaling of the job-graph executor on a local-heavy multi-party
// workload (the Fig. 4 market-concentration query shape: per-party filter +
// aggregate chains feeding a small MPC core).
//
// The sweep varies the dispatcher pool size; morsel-level ParallelFor inside the
// operators rides the same pool (the run binds it to every participating thread),
// so each row measures the executor's full thread budget. Virtual seconds are
// asserted bit-identical across the sweep — the executor's determinism contract
// (DESIGN.md §5) — while wall-clock shrinks with the pool on multi-core hosts
// (per-party local jobs and morsels really overlap). On a single-core host, gains
// are limited to coordinator/worker interleaving.
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"
#include "conclave/api/conclave.h"
#include "conclave/common/check.h"
#include "conclave/common/thread_pool.h"
#include "conclave/data/generators.h"

namespace conclave {
namespace {

std::map<std::string, Relation> MakeInputs(uint64_t total) {
  std::map<std::string, Relation> inputs;
  const char* names[] = {"inputA", "inputB", "inputC"};
  for (int party = 0; party < 3; ++party) {
    data::TaxiConfig config;
    config.rows = static_cast<int64_t>(total / 3);
    config.company_id = party;
    config.seed = static_cast<uint64_t>(party) + 17;
    inputs[names[party]] = data::TaxiTrips(config);
  }
  return inputs;
}

void BuildQuery(api::Query& query, uint64_t rows_hint) {
  auto pa = query.AddParty("a");
  auto pb = query.AddParty("b");
  auto pc = query.AddParty("c");
  std::vector<api::ColumnSpec> columns{{"companyID"}, {"price"}};
  auto ta = query.NewTable("inputA", columns, pa, static_cast<int64_t>(rows_hint / 3));
  auto tb = query.NewTable("inputB", columns, pb, static_cast<int64_t>(rows_hint / 3));
  auto tc = query.NewTable("inputC", columns, pc, static_cast<int64_t>(rows_hint / 3));
  query.Concat({ta, tb, tc})
      .Filter("price", CompareOp::kGt, 0)
      .Aggregate("local_rev", AggKind::kSum, {"companyID"}, "price")
      .WriteToCsv("rev", {pa});
}

struct Measurement {
  double wall_ms = 0;
  double virtual_seconds = 0;
};

Measurement RunOnce(uint64_t total, const std::map<std::string, Relation>& inputs,
                    int pool_parallelism) {
  api::Query query;
  BuildQuery(query, total);
  const auto start = std::chrono::steady_clock::now();
  const auto result =
      query.Run(inputs, {}, CostModel{}, /*seed=*/42,
                {.pool_parallelism = pool_parallelism});
  const auto stop = std::chrono::steady_clock::now();
  CONCLAVE_CHECK(result.ok());
  Measurement m;
  m.wall_ms = std::chrono::duration<double, std::milli>(stop - start).count();
  m.virtual_seconds = result->virtual_seconds;
  return m;
}

}  // namespace
}  // namespace conclave

int main() {
  using namespace conclave;
  bench::TuneAllocatorForBench();

  const uint64_t total = bench::SmallScale() ? 300000 : 3000000;
  const auto inputs = MakeInputs(total);
  const int hw = static_cast<int>(std::thread::hardware_concurrency());

  std::printf("Parallel executor wall-clock sweep (%llu records, 3 parties, "
              "hardware threads: %d)\n",
              static_cast<unsigned long long>(total), hw);
  std::printf("%-10s %12s %12s %16s\n", "pool", "wall [ms]", "speedup",
              "virtual [s]");

  double baseline_ms = 0;
  double baseline_virtual = 0;
  for (int pool : {1, 2, 4, 8}) {
    // Warm-up run to take allocator noise out, then the measured run.
    RunOnce(total, inputs, pool);
    const Measurement m = RunOnce(total, inputs, pool);
    if (pool == 1) {
      baseline_ms = m.wall_ms;
      baseline_virtual = m.virtual_seconds;
    }
    // Determinism contract: virtual time never moves with the pool size.
    CONCLAVE_CHECK(m.virtual_seconds == baseline_virtual);
    std::printf("%-10d %12.1f %11.2fx %16.6f\n", pool, m.wall_ms,
                baseline_ms / m.wall_ms, m.virtual_seconds);
  }
  std::printf("\nvirtual seconds identical across the sweep (asserted), as per "
              "the determinism contract.\n");
  return 0;
}
