// The end-to-end benchmark's four workloads: figure queries of the paper's
// evaluation (§7), each with a seeded input generator and a reference answer.
//
// A workload owns three things the engine never sees: how its inputs are drawn
// from the benchmark seed, where the parties keep them (in memory or in per-party
// CSV files), and the expected answer, computed with plain loops over the
// generated rows and none of the engine's kernels. The engine is reached only
// through api::Query, so the benchmark keeps measuring the same work while the
// layers below are rewritten.
//
// The seed draws the values, never the shape. Every cardinality the plan depends
// on (filter selectivity, join matches, distinct group keys) is fixed by the
// workload's size alone, so the modeled virtual clock and network bytes are the
// same for every seed and move only when the engine or its cost model does.
#ifndef CONCLAVE_BENCH_E2E_WORKLOADS_H_
#define CONCLAVE_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "conclave/api/conclave.h"
#include "conclave/relational/relation.h"

namespace conclave {
namespace e2e {

using Relations = std::map<std::string, Relation>;

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  // Row budget per blocking operator (CONCLAVE_MEM_BUDGET); 0 = unbounded.
  virtual int64_t mem_budget_rows() const { return 0; }
  // True when the parties read their inputs from CSV files instead of Run's map.
  virtual bool reads_csv() const { return false; }
  virtual compiler::CompilerOptions options() const { return {}; }

  // Every party's input, keyed by table name, drawn from `seed` alone.
  virtual Relations Generate(uint64_t seed) const = 0;
  // Declares the query. `csv_dir` holds <table>.csv per input when reads_csv().
  virtual void Build(api::Query& query, const std::string& csv_dir) const = 0;
  // Computes the expected answer from the generated inputs.
  virtual void PrepareReference(const Relations& inputs) = 0;
  // Empty when `outputs` match the reference; otherwise what differs.
  virtual std::string Check(const Relations& outputs) const = 0;
};

// `smoke` selects tiny inputs that run in milliseconds. Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, bool smoke);

}  // namespace e2e
}  // namespace conclave

#endif  // CONCLAVE_BENCH_E2E_WORKLOADS_H_
