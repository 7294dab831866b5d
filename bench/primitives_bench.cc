// google-benchmark microbenchmarks of the substrate primitives' *real* wall-clock
// cost (the simulator's own overhead), complementing the virtual-time figure benches:
// sharing, Beaver multiplication, comparisons, oblivious shuffle/sort, the gate-level
// garbled-circuit builders, and the cleartext operator library.
//
// A custom main runs the google-benchmark suite, then a fixed sweep of columnar-
// kernel microbenches (column scan, filter selectivity, zero-copy share ingest)
// whose measured seconds land in BENCH_primitives.json via bench_util.h — the
// kernel-level record of the columnar data plane's throughput per commit.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>

#include "bench/bench_util.h"
#include "conclave/common/cpu.h"
#include "conclave/data/generators.h"
#include "conclave/mpc/garbled/circuit.h"
#include "conclave/mpc/oblivious.h"
#include "conclave/mpc/protocols.h"
#include "conclave/mpc/reveal_source.h"
#include "conclave/relational/pipeline.h"
#include "conclave/relational/spill.h"

namespace conclave {
namespace {

std::vector<int64_t> RandomValues(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> values(static_cast<size_t>(n));
  for (auto& v : values) {
    v = rng.NextInRange(-1000000, 1000000);
  }
  return values;
}

void BM_ShareColumn(benchmark::State& state) {
  const auto values = RandomValues(state.range(0), 1);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ShareValues(values, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ShareColumn)->Range(1 << 10, 1 << 18);

void BM_BeaverMul(benchmark::State& state) {
  SimNetwork net{CostModel{}};
  SecretShareEngine engine(&net, 3);
  SharedColumn a = engine.Share(RandomValues(state.range(0), 4));
  SharedColumn b = engine.Share(RandomValues(state.range(0), 5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Mul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BeaverMul)->Range(1 << 10, 1 << 18);

void BM_Compare(benchmark::State& state) {
  SimNetwork net{CostModel{}};
  SecretShareEngine engine(&net, 6);
  SharedColumn a = engine.Share(RandomValues(state.range(0), 7));
  SharedColumn b = engine.Share(RandomValues(state.range(0), 8));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Compare(CompareOp::kLt, a, b));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Compare)->Range(1 << 10, 1 << 16);

void BM_ObliviousShuffle(benchmark::State& state) {
  SimNetwork net{CostModel{}};
  SecretShareEngine engine(&net, 9);
  Rng rng(10);
  SharedRelation rel =
      ShareRelation(data::UniformInts(state.range(0), {"a", "b"}, 1000, 11), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ObliviousShuffle(engine, rel));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ObliviousShuffle)->Range(1 << 10, 1 << 17);

void BM_ObliviousSort(benchmark::State& state) {
  SimNetwork net{CostModel{}};
  SecretShareEngine engine(&net, 12);
  Rng rng(13);
  SharedRelation rel =
      ShareRelation(data::UniformInts(state.range(0), {"k", "v"}, 1000, 14), rng);
  const int keys[] = {0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ObliviousSort(engine, rel, keys));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ObliviousSort)->Range(1 << 8, 1 << 13);

void BM_GcComparatorCircuit(benchmark::State& state) {
  for (auto _ : state) {
    gc::Circuit circuit;
    auto a = circuit.AddInputWord();
    auto b = circuit.AddInputWord();
    circuit.MarkOutput(circuit.LessThanSigned(a, b));
    auto inputs = gc::Circuit::PackWord(123456);
    const auto more = gc::Circuit::PackWord(654321);
    inputs.insert(inputs.end(), more.begin(), more.end());
    benchmark::DoNotOptimize(circuit.Evaluate(inputs));
  }
}
BENCHMARK(BM_GcComparatorCircuit);

void BM_GcMultiplierCircuit(benchmark::State& state) {
  for (auto _ : state) {
    gc::Circuit circuit;
    auto a = circuit.AddInputWord();
    auto b = circuit.AddInputWord();
    circuit.MarkOutputWord(circuit.Mul(a, b));
    auto inputs = gc::Circuit::PackWord(123456);
    const auto more = gc::Circuit::PackWord(654321);
    inputs.insert(inputs.end(), more.begin(), more.end());
    benchmark::DoNotOptimize(circuit.Evaluate(inputs));
  }
}
BENCHMARK(BM_GcMultiplierCircuit);

void BM_CleartextJoin(benchmark::State& state) {
  Relation left = data::UniformInts(state.range(0), {"k", "x"}, state.range(0), 15);
  Relation right = data::UniformInts(state.range(0), {"k", "y"}, state.range(0), 16);
  const int keys[] = {0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::Join(left, right, keys, keys));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CleartextJoin)->Range(1 << 10, 1 << 20);

void BM_CleartextAggregate(benchmark::State& state) {
  Relation rel = data::UniformInts(state.range(0), {"g", "v"}, 1000, 17);
  const int group[] = {0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::Aggregate(rel, group, AggKind::kSum, 1, "s"));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CleartextAggregate)->Range(1 << 10, 1 << 20);

void BM_ColumnScan(benchmark::State& state) {
  Relation rel = data::UniformInts(state.range(0), {"a", "b", "c", "d"}, 1000, 18);
  for (auto _ : state) {
    int64_t sum = 0;
    for (int64_t v : rel.ColumnSpan(2)) {
      sum += v;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ColumnScan)->Range(1 << 12, 1 << 22);

// The pre-columnar access pattern, kept as the baseline for the scan numbers in
// the README: the same 4-column relation flattened row-major, one column read as
// a stride-4 walk (what every kernel and the share ingest used to do).
void BM_ColumnScanRowMajorLayout(benchmark::State& state) {
  Relation rel = data::UniformInts(state.range(0), {"a", "b", "c", "d"}, 1000, 18);
  const std::vector<int64_t> cells = rel.RowMajorCells();
  const int64_t rows = rel.NumRows();
  for (auto _ : state) {
    int64_t sum = 0;
    const int64_t* const base = cells.data() + 2;
    for (int64_t r = 0; r < rows; ++r) {
      sum += base[static_cast<size_t>(r) * 4];
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ColumnScanRowMajorLayout)->Range(1 << 12, 1 << 22);

// --- Columnar-kernel sweep with a JSON record ---------------------------------------
// Each timed cell is the median wall seconds of N kernel passes, with their
// first and third quartiles, so a ledger diff can tell a kernel's change from
// the host's run-to-run spread. The passes run at the given row count over a
// 4-column relation: a contiguous column-scan reduction,
// ops::Filter at three literal selectivities, the zero-copy counter-based share
// ingest of one column, and the pipeline, reveal and spill A/Bs below. The
// *_peak_rows and spill_bytes cells are counts, typed as such in the JSON.

bench::Cell TimeRuns(int reps, const std::function<void()>& body) {
  std::vector<double> runs;
  for (int i = 0; i < reps; ++i) {
    bench::WallTimer timer;
    body();
    runs.push_back(timer.Seconds());
  }
  std::sort(runs.begin(), runs.end());
  // Linear interpolation between the two nearest ranks.
  const auto quantile = [&runs](double q) {
    const double rank = q * static_cast<double>(runs.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, runs.size() - 1);
    return runs[lo] + (rank - static_cast<double>(lo)) * (runs[hi] - runs[lo]);
  };
  return bench::Cell::WallSeconds(quantile(0.5), quantile(0.25), quantile(0.75));
}

void RunKernelSweep(const bench::BenchFilter& filter,
                    double wall_seconds_so_far) {
  const bool small = bench::SmallScale();
  const std::vector<int64_t> sizes =
      small ? std::vector<int64_t>{1 << 14, 1 << 16}
            : std::vector<int64_t>{1 << 18, 1 << 20, 1 << 22};
  const int reps = small ? 3 : 5;
  bench::Table table("primitives: columnar kernel sweep (median wall seconds per pass)",
                     {"column_scan", "filter_sel10", "filter_sel50", "filter_sel90",
                      "filter_scalar", "arith_simd", "arith_scalar",
                      "share_ingest", "rng_splitmix",
                      "chain_materialized", "chain_fused",
                      "chain_peak_rows", "agg_tail_fused",
                      "reveal_materialized", "reveal_streamed",
                      "reveal_peak_rows", "sort_in_mem", "sort_external",
                      "groupby_in_mem", "groupby_spill", "spill_peak_rows",
                      "spill_bytes"});
  bench::WallTimer timer;
  // Timed cell, or a '-' skip when --filter excludes the column.
  const auto timed = [&](const char* name, const std::function<void()>& body) {
    return filter.Enabled(name) ? TimeRuns(reps, body) : bench::Cell::Skip();
  };
  for (int64_t n : sizes) {
    // Uniform values in [0, 999]: literal thresholds 100/500/900 give ~10/50/90%
    // selectivity.
    Relation rel = data::UniformInts(n, {"a", "b", "c", "d"}, 1000, 21);
    std::vector<bench::Cell> cells;

    cells.push_back(timed("column_scan", [&] {
      int64_t sum = 0;
      for (int64_t v : rel.ColumnSpan(1)) {
        sum += v;
      }
      benchmark::DoNotOptimize(sum);
    }));

    const struct { const char* name; int64_t threshold; } selectivities[] = {
        {"filter_sel10", 100}, {"filter_sel50", 500}, {"filter_sel90", 900}};
    for (const auto& sel : selectivities) {
      cells.push_back(timed(sel.name, [&] {
        benchmark::DoNotOptimize(ops::Filter(
            rel,
            FilterPredicate::ColumnVsLiteral(0, CompareOp::kLt, sel.threshold)));
      }));
    }

    // A/B (DESIGN.md §13): the sel50 filter and a mul-by-literal arithmetic
    // pass with the SIMD dispatch knob forced off vs. on — the committed
    // record of what the AVX2 kernels buy over the scalar fallbacks (results
    // are bit-identical either way; the grid tests assert it).
    cells.push_back(timed("filter_scalar", [&] {
      const cpu::ScopedSimd scalar(false);
      benchmark::DoNotOptimize(ops::Filter(
          rel, FilterPredicate::ColumnVsLiteral(0, CompareOp::kLt, 500)));
    }));
    ArithSpec mul_arith;
    mul_arith.kind = ArithKind::kMul;
    mul_arith.lhs_column = 1;
    mul_arith.rhs_is_column = false;
    mul_arith.rhs_literal = 3;
    mul_arith.result_name = "b3";
    cells.push_back(timed("arith_simd", [&] {
      benchmark::DoNotOptimize(ops::Arithmetic(rel, mul_arith));
    }));
    cells.push_back(timed("arith_scalar", [&] {
      const cpu::ScopedSimd scalar(false);
      benchmark::DoNotOptimize(ops::Arithmetic(rel, mul_arith));
    }));

    const CounterRng rng(/*seed=*/7, /*stream=*/11);
    cells.push_back(timed("share_ingest", [&] {
      benchmark::DoNotOptimize(ShareValues(rel.ColumnSpan(0), rng));
    }));

    // n counter words of the share-randomness generator (DESIGN.md §13).
    std::vector<uint64_t> words(static_cast<size_t>(n));
    cells.push_back(timed("rng_splitmix", [&] {
      for (size_t i = 0; i < words.size(); ++i) {
        words[i] = rng.At(i);
      }
      benchmark::DoNotOptimize(words.data());
    }));

    // A/B: the same filter -> project -> arithmetic chain executed two ways —
    // materializing (one ops.h kernel per node, two full intermediates) and
    // streamed through a BatchPipeline, whose fused expression evaluator
    // compiles the whole chain into one register-resident pass per batch
    // (DESIGN.md §13). chain_peak_rows records the pipeline's peak resident
    // rows — the bounded-memory (peak-RSS) proxy: materializing peaks at O(n)
    // rows, the pipeline at two batches at most, independent of n.
    const FilterPredicate chain_predicate =
        FilterPredicate::ColumnVsLiteral(0, CompareOp::kLt, 500);
    const std::vector<int> chain_columns = {0, 1};
    ArithSpec chain_arith;
    chain_arith.kind = ArithKind::kAdd;
    chain_arith.lhs_column = 1;
    chain_arith.rhs_is_column = false;
    chain_arith.rhs_literal = 7;
    chain_arith.result_name = "b7";
    cells.push_back(timed("chain_materialized", [&] {
      const Relation filtered = ops::Filter(rel, chain_predicate);
      const Relation projected = ops::Project(filtered, chain_columns);
      benchmark::DoNotOptimize(ops::Arithmetic(projected, chain_arith));
    }));
    PipelineSpec chain_spec;
    chain_spec.input_schema = rel.schema();
    chain_spec.ops.push_back(PipelineOp::Filter(chain_predicate));
    chain_spec.ops.push_back(PipelineOp::Project(chain_columns));
    chain_spec.ops.push_back(PipelineOp::Arithmetic(chain_arith));
    BatchPipeline fused_pipeline(chain_spec);
    const bool fused_ran = filter.Enabled("chain_fused");
    cells.push_back(timed("chain_fused", [&] {
      benchmark::DoNotOptimize(fused_pipeline.Run(rel, kDefaultBatchRows));
    }));
    cells.push_back(fused_ran
                        ? bench::Cell::Count(fused_pipeline.stats().peak_rows_resident)
                        : bench::Cell::Skip());

    // The HHI pushdown's local step (Fig. 4): a filter keeping 95% of rows
    // feeding a sum over long key runs (64Ki rows per key). The fused run
    // hands the aggregate tail its columns and mask in place, so nothing is
    // gathered and each batch reduces with one masked sum.
    Relation runs = rel;
    for (int64_t r = 0; r < n; ++r) {
      runs.Set(r, 3, r >> 16);
    }
    PipelineSpec agg_tail_spec;
    agg_tail_spec.input_schema = runs.schema();
    agg_tail_spec.ops.push_back(
        PipelineOp::Filter(FilterPredicate::ColumnVsLiteral(0, CompareOp::kLt, 950)));
    agg_tail_spec.ops.push_back(
        PipelineOp::Aggregate({3}, AggKind::kSum, /*agg_column=*/1, "s"));
    BatchPipeline agg_tail_pipeline(agg_tail_spec);
    cells.push_back(timed("agg_tail_fused", [&] {
      benchmark::DoNotOptimize(agg_tail_pipeline.Run(runs, kDefaultBatchRows));
    }));

    // A/B (DESIGN.md §14): the same chain consuming an MPC reveal two ways —
    // reveal the whole shared relation in one shot and push the materialized
    // rows through the pipeline, vs. stream the reconstruction batch-at-a-time
    // straight into the chain via BatchPipeline::Run(source, batch_rows).
    // Results are bit-identical
    // (the grid tests assert it); reveal_peak_rows records the streamed
    // path's peak reconstructed-row residency — O(batch), not O(n), so a
    // reveal-heavy chain's cleartext footprint stops growing with the data.
    // Two sources over the same shares so MaxMaterializedRows witnesses each
    // path separately (the one-shot open necessarily peaks at n).
    Rng share_rng(23);
    const SharedRelation shared_rel = ShareRelation(rel, share_rng);
    const mpc::RevealSource one_shot_source(shared_rel);
    const mpc::RevealSource streamed_source(shared_rel);
    BatchPipeline reveal_materialized_pipeline(chain_spec);
    cells.push_back(timed("reveal_materialized", [&] {
      const Relation opened = one_shot_source.Rows(0, n).value();
      benchmark::DoNotOptimize(
          reveal_materialized_pipeline.Run(opened, kDefaultBatchRows));
    }));
    BatchPipeline reveal_streamed_pipeline(chain_spec);
    const bool reveal_ran = filter.Enabled("reveal_streamed");
    cells.push_back(timed("reveal_streamed", [&] {
      benchmark::DoNotOptimize(
          reveal_streamed_pipeline.Run(streamed_source, kDefaultBatchRows));
    }));
    cells.push_back(reveal_ran
                        ? bench::Cell::Count(streamed_source.MaxMaterializedRows())
                        : bench::Cell::Skip());

    // A/B (DESIGN.md §12): the blocking kernels in-memory vs. through the spill
    // subsystem with the working set capped at n/8 rows — external merge sort
    // against ops::SortBy, run-merge group-by against ops::Aggregate.
    // spill_peak_rows records the larger of the two kernels' high-water
    // operator-owned resident rows (the ≤ 2x-budget guarantee the tests
    // assert); spill_bytes the total run/partition bytes written to disk.
    const int64_t spill_budget = n / 8;
    const int sort_keys[] = {2, 0};
    const int group_keys[] = {0};
    cells.push_back(timed("sort_in_mem", [&] {
      benchmark::DoNotOptimize(ops::SortBy(rel, sort_keys, /*ascending=*/true));
    }));
    spill::SpillStats sort_stats;
    cells.push_back(timed("sort_external", [&] {
      sort_stats = {};
      benchmark::DoNotOptimize(spill::SortBy(rel, sort_keys, /*ascending=*/true,
                                             spill_budget, &sort_stats));
    }));
    cells.push_back(timed("groupby_in_mem", [&] {
      benchmark::DoNotOptimize(ops::Aggregate(rel, group_keys, AggKind::kSum,
                                              /*agg_column=*/1, "s"));
    }));
    spill::SpillStats groupby_stats;
    cells.push_back(timed("groupby_spill", [&] {
      groupby_stats = {};
      benchmark::DoNotOptimize(spill::Aggregate(rel, group_keys, AggKind::kSum,
                                                /*agg_column=*/1, "s",
                                                spill_budget, &groupby_stats));
    }));
    // The spill stat columns only mean something when their producers ran.
    const bool spill_ran =
        filter.Enabled("sort_external") && filter.Enabled("groupby_spill");
    cells.push_back(spill_ran
                        ? bench::Cell::Count(std::max(sort_stats.peak_resident_rows,
                                                      groupby_stats.peak_resident_rows))
                        : bench::Cell::Skip());
    cells.push_back(spill_ran
                        ? bench::Cell::Count(sort_stats.spilled_bytes +
                                             groupby_stats.spilled_bytes)
                        : bench::Cell::Skip());

    table.AddRow(static_cast<uint64_t>(n), std::move(cells));
  }
  table.Print();
  if (filter.Empty()) {
    table.WriteJson("primitives", wall_seconds_so_far + timer.Seconds());
  } else {
    std::printf("--filter=%s set: JSON not written (partial sweep)\n",
                filter.pattern().c_str());
  }
}

}  // namespace
}  // namespace conclave

int main(int argc, char** argv) {
  conclave::bench::TuneAllocatorForBench();
  conclave::bench::WallTimer timer;
  // Must run before benchmark::Initialize: consumes --filter from argv.
  const conclave::bench::BenchFilter filter(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  if (filter.Empty()) {
    // A filtered invocation is an A/B loop over sweep columns; skip the
    // google-benchmark suite (it has its own --benchmark_filter).
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  conclave::RunKernelSweep(filter, timer.Seconds());
  return 0;
}
