// Per-layer tracing for the benchmark's traced run.
//
// The engine has no spans of its own, so the traced run gets its per-layer split
// from outside: it compiles a twin of the workload's query and replays the plan
// node by node through each layer's public entry point (ReadCsv, ExecuteLocal,
// SharemindBackend Input/Execute/Reveal), timing every call as a span. The
// replay runs the nodes one after another, so its layer times add up to the
// replay's total; comparing that total with a traced Query::Run shows what the
// parallel executor adds or saves.
#ifndef CONCLAVE_BENCH_E2E_TRACE_H_
#define CONCLAVE_BENCH_E2E_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/e2e/workloads.h"
#include "conclave/common/status.h"
#include "conclave/ir/dag.h"

namespace conclave {
namespace e2e {

// One timed call. `name` is "<layer>.<op_kind>" (e.g. "mpc.aggregate"); spans of
// one repetition share `rep`, and `parent` is the enclosing span's id (-1 = none).
struct Span {
  std::string name;
  double start_us = 0;
  double dur_us = 0;
  int id = 0;
  int parent = -1;
  int rep = 0;
  int64_t rows_in = 0;
};

// Spans kept in memory and written out once, at the end of the traced run.
class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  int Begin(std::string name, int parent, int rep, int64_t rows_in);
  void End(int id);
  Span& span(int id) { return spans_[static_cast<size_t>(id)]; }
  const std::vector<Span>& spans() const { return spans_; }

  // Chrome trace-event JSON (opens in Perfetto or chrome://tracing).
  Status WriteChromeJson(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
};

// Times the enclosing scope as one span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, int parent, int rep,
             int64_t rows_in = 0)
      : tracer_(tracer), id_(tracer.Begin(std::move(name), parent, rep, rows_in)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }
  void set_rows_in(int64_t rows) { tracer_.span(id_).rows_in = rows; }

 private:
  Tracer& tracer_;
  int id_;
};

// Node counts of a compiled plan, by placement.
struct PlanShape {
  int64_t local_nodes = 0;
  int64_t mpc_nodes = 0;
  int64_t hybrid_nodes = 0;
  int64_t retired_nodes = 0;
};
PlanShape ShapeOf(const ir::Dag& dag);

// Compiles a twin of `workload`'s query (span "compiler.compile") and replays
// its plan node by node under a "backends.replay" span, skipping retired nodes.
// Creates take `inputs` or parse their CSV file; local nodes and Collects run
// through ExecuteLocal under the process memory budget; MPC and hybrid nodes run
// through SharemindBackend::Execute, with Input and Reveal where values cross
// the frontier. Returns the Collect outputs and fills `shape`.
StatusOr<Relations> Replay(const Workload& workload, const Relations& inputs,
                           const std::string& csv_dir, uint64_t run_seed,
                           Tracer& tracer, int rep, PlanShape* shape);

}  // namespace e2e
}  // namespace conclave

#endif  // CONCLAVE_BENCH_E2E_TRACE_H_
