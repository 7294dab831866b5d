// One benchmark process: one workload, one seed, measured or traced.
//
//   conclave_e2e --workload NAME --work-dir DIR [--seed N] [--seconds S]
//                [--trace FILE] [--smoke]
//
// Both modes start with the set-up a deployment pays once: generate every
// party's input from the seed, write the CSV files the workload reads, and run
// one cold query. The reference answer is computed after that, outside every
// timed region, and every query is checked against it.
//
// Measured (no --trace): Query::Run back to back for S seconds, one client, each
// call timed with nothing else recorded.
// Traced (--trace FILE): repetitions of an untraced Query::Run, a Query::Run
// inside one span, and a node-by-node replay of the compiled plan (trace.h),
// for S seconds and at least three repetitions; prints the per-layer metrics
// and writes every span to FILE as Chrome trace-event JSON. A replay whose
// outputs differ from Query::Run's fails the process.
//
// The process pins the engine's knobs through the environment: a 4-thread
// shared pool, the workload's memory budget, and spill files under DIR/spill,
// which must be empty again at exit. The last line of stdout is one JSON object;
// bench/e2e/run.py runs these processes and pools their results.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/e2e/trace.h"
#include "bench/e2e/workloads.h"
#include "conclave/common/cpu.h"
#include "conclave/common/strings.h"
#include "conclave/relational/csv.h"

namespace conclave {
namespace e2e {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using ExecutionResult = backends::ExecutionResult;

// Query::Run's seed: fixed, so the engine sees only the generated relations.
constexpr uint64_t kRunSeed = 42;
constexpr const char* kPoolThreads = "4";
constexpr int kMinTracedReps = 3;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

struct Args {
  std::string workload;
  std::string work_dir;
  std::string trace_path;
  uint64_t seed = 1;
  double seconds = 10;
  bool smoke = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (const size_t eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--trace") {
      args->trace_path = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      return false;
    }
  }
  return !args->workload.empty() && !args->work_dir.empty() && args->seconds >= 0;
}

// Counts queries and failures: an error Status, an abort, a wrong answer, or a
// virtual clock / network total that differs from the first query's.
class Tally {
 public:
  explicit Tally(const Workload& workload) : workload_(workload) {}

  void Record(const StatusOr<ExecutionResult>& result) {
    ++attempted_;
    std::string error;
    if (!result.ok()) {
      error = result.status().ToString();
    } else if (result->aborted) {
      error = "aborted: " + result->abort_status.ToString();
    } else {
      error = workload_.Check(result->outputs);
    }
    if (error.empty()) {
      if (attempted_ - failed_ == 1) {
        virtual_s_ = result->virtual_seconds;
        network_bytes_ = result->counters.network_bytes;
      } else if (result->virtual_seconds != virtual_s_ ||
                 result->counters.network_bytes != network_bytes_) {
        error = "virtual clock or network bytes differ from the first query";
      }
    }
    if (!error.empty()) {
      ++failed_;
      std::fprintf(stderr, "%s: query %lld failed: %s\n", workload_.name(),
                   static_cast<long long>(attempted_), error.c_str());
    }
  }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  double virtual_s() const { return virtual_s_; }
  uint64_t network_bytes() const { return network_bytes_; }

 private:
  const Workload& workload_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  double virtual_s_ = 0;
  uint64_t network_bytes_ = 0;
};

// Builds the workload's query and times Query::Run alone into `*seconds`.
StatusOr<ExecutionResult> TimedRun(const Workload& workload, const Relations& inputs,
                                   const std::string& csv_dir, double* seconds) {
  api::Query query;
  workload.Build(query, csv_dir);
  const Clock::time_point start = Clock::now();
  StatusOr<ExecutionResult> result =
      query.Run(inputs, workload.options(), CostModel{}, kRunSeed);
  *seconds = SecondsSince(start);
  return result;
}

// Output JSON: "name": {"value": v, "unit": u} pairs, in insertion order.
class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    body_ += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                       body_.empty() ? "" : ", ", name.c_str(), value, unit);
  }
  std::string Json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string JsonList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += StrFormat("%s%.17g", i == 0 ? "" : ", ", values[i]);
  }
  return out + "]";
}

// Per-repetition sums over the spans of one traced repetition.
struct RepLayers {
  double compile_s = 0;
  double run_s = 0;
  double replay_s = 0;
  double ingest_s = 0;
  double local_s = 0;
  double input_s = 0;
  double protocol_s = 0;
  double hybrid_protocol_s = 0;
  double reveal_s = 0;
  double csv_rows = 0;
  double local_rows = 0;
  double input_rows = 0;
  double reveal_rows = 0;
};

std::vector<RepLayers> SumLayers(const Tracer& tracer, int reps) {
  std::vector<RepLayers> out(static_cast<size_t>(reps));
  const std::vector<Span>& spans = tracer.spans();
  for (const Span& span : spans) {
    if (span.rep < 0 || span.rep >= reps) {
      continue;
    }
    RepLayers& rep = out[static_cast<size_t>(span.rep)];
    const double s = span.dur_us * 1e-6;
    const double rows = static_cast<double>(span.rows_in);
    if (span.name == "compiler.compile") {
      rep.compile_s += s;
      continue;
    }
    if (span.name == "backends.run") {
      rep.run_s += s;
      continue;
    }
    if (span.parent < 0 ||
        spans[static_cast<size_t>(span.parent)].name != "backends.replay") {
      continue;
    }
    rep.replay_s += s;
    const auto starts = [&](const char* prefix) {
      return span.name.rfind(prefix, 0) == 0;
    };
    if (span.name == "relational.create") {
      rep.ingest_s += s;
    } else if (span.name == "relational.csv_read") {
      rep.ingest_s += s;
      rep.csv_rows += rows;
    } else if (starts("relational.")) {
      rep.local_s += s;
      rep.local_rows += rows;
    } else if (span.name == "mpc.input") {
      rep.input_s += s;
      rep.input_rows += rows;
    } else if (span.name == "mpc.reveal") {
      rep.reveal_s += s;
      rep.reveal_rows += rows;
    } else {
      rep.protocol_s += s;
      if (starts("hybrid.")) {
        rep.hybrid_protocol_s += s;
      }
    }
  }
  return out;
}

double MedianOf(const std::vector<RepLayers>& reps, double RepLayers::*field) {
  std::vector<double> values;
  for (const RepLayers& rep : reps) {
    values.push_back(rep.*field);
  }
  return Median(values);
}

// The per-layer metrics of the traced repetitions, as a JSON object. Times are
// medians over repetitions; counters come from the last traced Query::Run.
std::string LayerMetrics(const Tracer& tracer, int reps, const PlanShape& shape,
                         const ExecutionResult& last, double generate_s,
                         double untraced_s) {
  const std::vector<RepLayers> layers = SumLayers(tracer, reps);
  const double run_s = MedianOf(layers, &RepLayers::run_s);
  const double replay_s = MedianOf(layers, &RepLayers::replay_s);
  const double protocol_s = MedianOf(layers, &RepLayers::protocol_s);
  const spill::SpillStats& spill = last.spill_report.stats;
  const auto count = [](auto value) { return static_cast<double>(value); };
  Metrics m;
  m.Add("data.generate_s", generate_s, "s");
  m.Add("compiler.compile_s", MedianOf(layers, &RepLayers::compile_s), "s");
  m.Add("compiler.local_nodes", count(shape.local_nodes), "count");
  m.Add("compiler.mpc_nodes", count(shape.mpc_nodes), "count");
  m.Add("compiler.hybrid_nodes", count(shape.hybrid_nodes), "count");
  m.Add("compiler.retired_nodes", count(shape.retired_nodes), "count");
  m.Add("backends.run_s", run_s, "s");
  m.Add("backends.replay_s", replay_s, "s");
  m.Add("backends.replay_speedup", replay_s / run_s, "ratio");
  m.Add("relational.ingest_s", MedianOf(layers, &RepLayers::ingest_s), "s");
  m.Add("relational.csv_rows", MedianOf(layers, &RepLayers::csv_rows), "rows");
  m.Add("relational.local_s", MedianOf(layers, &RepLayers::local_s), "s");
  m.Add("relational.local_rows", MedianOf(layers, &RepLayers::local_rows), "rows");
  m.Add("relational.spill_bytes", count(spill.spilled_bytes), "bytes");
  m.Add("relational.spill_runs", count(spill.runs_written), "count");
  m.Add("relational.spill_merge_passes", count(spill.merge_passes), "count");
  m.Add("relational.spill_peak_rows", count(spill.peak_resident_rows), "rows");
  m.Add("relational.virtual_s", last.local_seconds, "virtual_s");
  m.Add("mpc.virtual_s", last.mpc_seconds, "virtual_s");
  m.Add("hybrid.virtual_s", last.hybrid_seconds, "virtual_s");
  m.Add("mpc.input_s", MedianOf(layers, &RepLayers::input_s), "s");
  m.Add("mpc.input_rows", MedianOf(layers, &RepLayers::input_rows), "rows");
  m.Add("mpc.protocol_s", protocol_s, "s");
  m.Add("mpc.reveal_s", MedianOf(layers, &RepLayers::reveal_s), "s");
  m.Add("mpc.reveal_rows", MedianOf(layers, &RepLayers::reveal_rows), "rows");
  m.Add("hybrid.protocol_share",
        protocol_s > 0 ? MedianOf(layers, &RepLayers::hybrid_protocol_s) / protocol_s
                       : 0,
        "ratio");
  m.Add("mpc.multiplications", count(last.counters.mpc_multiplications), "count");
  m.Add("mpc.comparisons", count(last.counters.mpc_comparisons), "count");
  m.Add("net.rounds", count(last.counters.network_rounds), "count");
  m.Add("trace.overhead_frac", (run_s - untraced_s) / untraced_s, "ratio");
  return m.Json();
}

bool SameOutputs(const Relations& a, const Relations& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (const auto& [name, relation] : a) {
    const auto it = b.find(name);
    if (it == b.end() || !UnorderedEqual(relation, it->second)) {
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  bench::TuneAllocatorForBench();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --work-dir DIR [--seed N] "
                 "[--seconds S] [--trace FILE] [--smoke]\n",
                 argv[0]);
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.smoke);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const bool traced = !args.trace_path.empty();
  const fs::path spill_dir = fs::path(args.work_dir) / "spill";
  fs::create_directories(spill_dir);
  setenv("CONCLAVE_THREADS", kPoolThreads, 1);
  setenv("CONCLAVE_SPILL_DIR", spill_dir.c_str(), 1);
  if (workload->mem_budget_rows() > 0) {
    setenv("CONCLAVE_MEM_BUDGET",
           std::to_string(workload->mem_budget_rows()).c_str(), 1);
  } else {
    unsetenv("CONCLAVE_MEM_BUDGET");
  }

  // --- Set-up: inputs, CSV files, one cold query. ---
  Tracer tracer;
  Relations generated;
  std::vector<fs::path> csv_files;
  {
    ScopedSpan span(tracer, "data.generate", -1, -1);
    generated = workload->Generate(args.seed);
  }
  if (workload->reads_csv()) {
    for (const auto& [name, relation] : generated) {
      csv_files.push_back(fs::path(args.work_dir) / (name + ".csv"));
      ScopedSpan span(tracer, "relational.csv_write", -1, -1, relation.NumRows());
      const Status written = WriteCsv(relation, csv_files.back().string());
      if (!written.ok()) {
        std::fprintf(stderr, "%s\n", written.ToString().c_str());
        return 1;
      }
    }
  }
  const Relations no_inputs;
  const Relations& run_inputs = workload->reads_csv() ? no_inputs : generated;
  Tally tally(*workload);
  double setup_s = 0;
  {
    double cold_s = 0;
    StatusOr<ExecutionResult> cold = [&] {
      ScopedSpan span(tracer, "setup.cold_query", -1, -1);
      return TimedRun(*workload, run_inputs, args.work_dir, &cold_s);
    }();
    setup_s = SecondsSince(process_start);
    workload->PrepareReference(generated);
    tally.Record(cold);
  }
  double generate_s = 0;
  for (const Span& span : tracer.spans()) {
    if (span.name == "data.generate" || span.name == "relational.csv_write") {
      generate_s += span.dur_us * 1e-6;
    }
  }

  // Smoke runs stop at the minimum; measured runs also fill --seconds.
  const size_t min_iterations = traced ? (args.smoke ? 1 : kMinTracedReps) : 2;
  const auto keep_going = [&](size_t done, Clock::time_point start) {
    return done < min_iterations ||
           (!args.smoke && SecondsSince(start) < args.seconds);
  };
  const std::string build_info = StrFormat(
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"simd\": \"%s\", "
      "\"pool_threads\": %s",
      E2E_BUILD_TYPE, E2E_COMPILER, cpu::SimdLevelName(), kPoolThreads);
  std::string record;
  bool ok = true;

  if (!traced) {
    // --- Measured loop. ---
    std::vector<double> samples;
    const Clock::time_point loop_start = Clock::now();
    while (keep_going(samples.size(), loop_start)) {
      samples.push_back(0);
      tally.Record(TimedRun(*workload, run_inputs, args.work_dir, &samples.back()));
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    record = StrFormat(
        "\"mode\": \"measure\", \"setup_s\": %.17g, \"generate_s\": %.17g, "
        "\"query_s\": %s, \"virtual_s\": %.17g, \"network_mb\": %.17g, "
        "\"peak_rss_mb\": %.17g",
        setup_s, generate_s, JsonList(samples).c_str(), tally.virtual_s(),
        static_cast<double>(tally.network_bytes()) / 1e6,
        static_cast<double>(usage.ru_maxrss) / 1024.0);
  } else {
    // --- Traced loop. ---
    std::vector<double> untraced;
    PlanShape shape;
    ExecutionResult last;
    bool replay_ok = true;
    int reps = 0;
    const Clock::time_point loop_start = Clock::now();
    for (; keep_going(static_cast<size_t>(reps), loop_start); ++reps) {
      untraced.push_back(0);
      tally.Record(TimedRun(*workload, run_inputs, args.work_dir, &untraced.back()));
      StatusOr<ExecutionResult> result = [&] {
        api::Query query;
        workload->Build(query, args.work_dir);
        ScopedSpan span(tracer, "backends.run", -1, reps);
        return query.Run(run_inputs, workload->options(), CostModel{}, kRunSeed);
      }();
      tally.Record(result);
      StatusOr<Relations> replayed = Replay(*workload, run_inputs, args.work_dir,
                                            kRunSeed, tracer, reps, &shape);
      if (!replayed.ok() || !result.ok() ||
          !SameOutputs(*replayed, result->outputs)) {
        replay_ok = false;
        std::fprintf(stderr, "%s: replay %d does not match Query::Run: %s\n",
                     workload->name(), reps,
                     replayed.ok() ? "outputs differ"
                                   : replayed.status().ToString().c_str());
      }
      if (result.ok()) {
        last = std::move(*result);
      }
    }
    const Status written = tracer.WriteChromeJson(args.trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
    }
    ok = replay_ok && written.ok();
    record = StrFormat("\"mode\": \"trace\", \"reps\": %d, \"metrics\": %s", reps,
                       LayerMetrics(tracer, reps, shape, last, generate_s,
                                    Median(untraced))
                           .c_str());
  }

  for (const fs::path& file : csv_files) {
    fs::remove(file);
  }
  if (!fs::is_empty(spill_dir)) {
    std::fprintf(stderr, "%s: spill files left behind in %s\n", workload->name(),
                 spill_dir.c_str());
    return 1;
  }
  fs::remove(spill_dir);
  if (!ok) {
    return 1;
  }
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, %s, \"attempted\": %lld, "
              "\"failed\": %lld, %s}\n",
              workload->name(), static_cast<unsigned long long>(args.seed),
              record.c_str(), static_cast<long long>(tally.attempted()),
              static_cast<long long>(tally.failed()), build_info.c_str());
  return 0;
}

}  // namespace
}  // namespace e2e
}  // namespace conclave

int main(int argc, char** argv) { return conclave::e2e::Main(argc, argv); }
