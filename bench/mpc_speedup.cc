// Intra-op scaling of the MPC data plane: oblivious sort and Beaver-multiplication
// throughput as the pool grows, with the determinism contract asserted at every
// point.
//
// Unlike bench/parallel_speedup (which overlaps independent *jobs*), this bench
// drives the secret-sharing engine directly, the way the dispatcher's MPC lane does:
// one serialized operation stream whose kernels fan morsels out over the pool bound
// to the calling thread. Counter-based randomness (common/rng.h CounterRng) makes
// every sharing a pure function of its operation stream, so the bench asserts the
// strong form of DESIGN.md §5: not just equal reconstructed outputs but bit-identical
// *shares*, plus identical virtual seconds and cost counters, at every pool size.
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "conclave/common/check.h"
#include "conclave/common/thread_pool.h"
#include "conclave/data/generators.h"
#include "conclave/mpc/oblivious.h"
#include "conclave/mpc/protocols.h"

namespace conclave {
namespace {

struct Measurement {
  double sort_ms = 0;
  double mul_ms = 0;
  double virtual_seconds = 0;
  uint64_t network_bytes = 0;
  // Fingerprint of every share produced, for bit-identity across pool sizes.
  uint64_t share_digest = 0;
};

uint64_t DigestColumn(const SharedColumn& column, uint64_t digest) {
  for (int p = 0; p < kNumShareParties; ++p) {
    for (Ring v : column.shares[p]) {
      digest = (digest ^ v) * 0x100000001b3ULL;
    }
  }
  return digest;
}

uint64_t DigestRelation(const SharedRelation& rel, uint64_t digest) {
  for (int c = 0; c < rel.NumColumns(); ++c) {
    digest = DigestColumn(rel.Column(c), digest);
  }
  return digest;
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

Measurement RunOnce(int pool_parallelism, int64_t sort_rows, int64_t mul_rows) {
  ThreadPool pool(pool_parallelism);
  ThreadPool::Scope scope(&pool);

  SimNetwork net{CostModel{}};
  SecretShareEngine engine(&net, /*seed=*/2024);
  Measurement m;

  // Oblivious sort: the dominant MPC aggregation cost (§5.3-5.4).
  Relation rel = data::UniformInts(sort_rows, {"k", "v"}, 1 << 20, /*seed=*/7);
  const auto sorted_input = mpc::InputRelation(engine, rel);
  CONCLAVE_CHECK(sorted_input.ok());
  const int keys[] = {0};
  const auto sort_start = std::chrono::steady_clock::now();
  SharedRelation sorted = ObliviousSort(engine, *sorted_input, keys);
  m.sort_ms = MsSince(sort_start);
  m.share_digest = DigestRelation(sorted, 0xcbf29ce484222325ULL);

  // Beaver multiplication throughput on one big batch.
  Relation mul_rel = data::UniformInts(mul_rows, {"a", "b"}, 1 << 20, /*seed=*/8);
  SharedColumn a = engine.ShareColumn(mul_rel, 0);
  SharedColumn b = engine.ShareColumn(mul_rel, 1);
  const auto mul_start = std::chrono::steady_clock::now();
  SharedColumn product = engine.Mul(a, b);
  m.mul_ms = MsSince(mul_start);
  m.share_digest = DigestColumn(product, m.share_digest);

  m.virtual_seconds = net.ElapsedSeconds();
  m.network_bytes = net.counters().network_bytes;
  return m;
}

}  // namespace
}  // namespace conclave

int main() {
  using namespace conclave;
  bench::TuneAllocatorForBench();
  bench::WallTimer timer;

  const int64_t sort_rows = bench::SmallScale() ? 2000 : 20000;
  const int64_t mul_rows = bench::SmallScale() ? 1 << 18 : 1 << 22;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());

  std::printf("MPC data-plane intra-op scaling (sort %lld rows, mul batch %lld, "
              "hardware threads: %d)\n",
              static_cast<long long>(sort_rows), static_cast<long long>(mul_rows),
              hw);
  std::printf("%-10s %12s %12s %12s %12s %16s\n", "pool", "sort [ms]", "speedup",
              "mul [ms]", "speedup", "virtual [s]");

  Measurement baseline;
  std::vector<std::pair<int, Measurement>> results;
  for (int pool : {1, 2, 4, 8}) {
    RunOnce(pool, sort_rows / 2, mul_rows / 4);  // Warm-up at reduced size.
    const Measurement m = RunOnce(pool, sort_rows, mul_rows);
    if (pool == 1) {
      baseline = m;
    }
    // The determinism contract, strong form: identical virtual clock, counters, and
    // share bits at every pool size.
    CONCLAVE_CHECK(m.virtual_seconds == baseline.virtual_seconds);
    CONCLAVE_CHECK_EQ(m.network_bytes, baseline.network_bytes);
    CONCLAVE_CHECK_EQ(m.share_digest, baseline.share_digest);
    std::printf("%-10d %12.1f %11.2fx %12.1f %11.2fx %16.6f\n", pool, m.sort_ms,
                baseline.sort_ms / m.sort_ms, m.mul_ms, baseline.mul_ms / m.mul_ms,
                m.virtual_seconds);
    results.emplace_back(pool, m);
  }
  std::printf("\nvirtual seconds, byte counters, and share bits identical across "
              "the sweep (asserted).\n");

  // Machine-readable dump alongside the figure benches' JSONs.
  {
    std::string dir = ".";
    if (const char* env = std::getenv("CONCLAVE_BENCH_JSON_DIR")) {
      dir = env;
    }
    const std::string path = dir + "/BENCH_mpc_speedup.json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f,
                   "{\n  \"bench\": \"mpc_speedup\",\n  \"sort_rows\": %lld,\n"
                   "  \"mul_rows\": %lld,\n  \"wall_clock_seconds\": %.6f,\n"
                   "  \"virtual_seconds\": %.6f,\n  \"pools\": [\n",
                   static_cast<long long>(sort_rows),
                   static_cast<long long>(mul_rows), timer.Seconds(),
                   baseline.virtual_seconds);
      for (size_t i = 0; i < results.size(); ++i) {
        std::fprintf(f,
                     "    {\"pool\": %d, \"sort_ms\": %.3f, \"mul_ms\": %.3f}%s\n",
                     results[i].first, results[i].second.sort_ms,
                     results[i].second.mul_ms,
                     i + 1 == results.size() ? "" : ",");
      }
      std::fprintf(f, "  ]\n}\n");
      std::fclose(f);
      std::printf("wrote %s\n", path.c_str());
    }
  }
  return 0;
}
