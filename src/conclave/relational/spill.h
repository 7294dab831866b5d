// Beyond-RAM execution for the blocking cleartext operators (DESIGN.md §12).
//
// A memory budget of `mem_budget_rows` bounds the rows any single blocking
// operator instance keeps resident at once. When an input exceeds the budget,
// the kernels here spill sorted runs or hash partitions to RAII-owned temp
// files (common/tempfile.h). Runs merge back with a stable k-way merge (ties
// resolve to the lower stream) and partitions join leaf by leaf, so every
// result is bit-identical to the in-memory ops:: kernel:
//
//  * SortBy    — external merge sort: contiguous <=budget-row chunks, each
//                stable-sorted by ops::SortBy, k-way merged with lower-run-index
//                tie-break == std::stable_sort of the whole input.
//  * Distinct  — per-chunk ops::Distinct runs, k-way merged with dedup.
//  * Aggregate — per-chunk partial aggregates (kMean keeps exact (sum, count)
//                partials), runs merged by group key combining equal keys;
//                sum/count/min/max are associative, so chunking is invisible.
//                Aggregator is the same kernel as a consume/finish operator,
//                which a fused chain's aggregate tail feeds batch by batch.
//  * Join      — Grace-style: one scatter hash-partitions both sides on the key
//                into bucket files holding (key columns, row id) only, at every
//                level of a level-salted rehash recursion for skewed buckets.
//                Each leaf builds on its right bucket and probes its left one.
//                A left row's matches all come from one leaf, ascending by right
//                row, so placing the pairs by left row restores ops::Join's pair
//                order; the rows are then gathered from the in-memory inputs.
//
// SortBy and Distinct form runs through one helper, and the three run kernels
// merge through one multi-level driver.
//
// Budget semantics: rows <= budget (or budget <= 0) short-circuits to the
// in-memory kernel — 0 is "unbounded", today's behavior. The budget bounds the
// operator's OWN working set (runs being formed, merge heads, partial maps);
// borrowed inputs and the final output are excluded, matching the PipelineStats
// residency convention. Peak resident rows stay within 2 x budget, with two
// exceptions. A merge holds a batch of at least one row per run, so below a
// budget of kSpillMergeFanIn / 2 rows the peak can reach kSpillMergeFanIn rows.
// And a Grace bucket that the depth cap stops from splitting (one key with more
// right rows than the budget) is built whole, so a join keeps the bound only
// when every key's right rows fit the budget.
//
// Merges use fan-in kSpillMergeFanIn; more runs than that forces multi-level
// merges. SpillMergePasses is the closed-form pass count the cost model prices
// (compiler/plan_cost) — it depends only on (total rows, budget), so priced
// charges are invariant across the {pool, batch_rows} grid.
#ifndef CONCLAVE_RELATIONAL_SPILL_H_
#define CONCLAVE_RELATIONAL_SPILL_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "conclave/relational/aggregate.h"
#include "conclave/relational/ops.h"
#include "conclave/relational/relation.h"

namespace conclave {

// Resolves the process-default memory budget: CONCLAVE_MEM_BUDGET rows, else 0
// (unbounded). Mirrors DefaultBatchRows()'s CONCLAVE_BATCH_ROWS resolution.
int64_t DefaultMemBudgetRows();

namespace spill {

// Merge fan-in for external runs. Part of the pricing contract: changing it
// changes SpillMergePasses and therefore priced virtual time.
inline constexpr int64_t kSpillMergeFanIn = 8;

// Number of full read+write merge passes over the data an external sort (or
// run-merge aggregate/distinct) performs for `rows` input rows under `budget`:
// 0 when nothing spills, else ceil(log_fanin(ceil(rows/budget))) with a minimum
// of one pass. Pure closed-form math shared verbatim by the planner estimate
// and the dispatcher meter.
int64_t SpillMergePasses(int64_t rows, int64_t budget);

// Observability counters for one operator instance. Reported, but deliberately
// excluded from the determinism contract.
struct SpillStats {
  int64_t spilled_rows = 0;       // Rows written to run/partition files.
  int64_t spilled_bytes = 0;      // Bytes written to run/partition files.
  int64_t runs_written = 0;       // Run or partition files created.
  int64_t merge_passes = 0;       // Multi-level merge passes performed.
  int64_t peak_resident_rows = 0; // High-water operator-owned resident rows.

  void Merge(const SpillStats& other) {
    spilled_rows += other.spilled_rows;
    spilled_bytes += other.spilled_bytes;
    runs_written += other.runs_written;
    merge_passes += other.merge_passes;
    peak_resident_rows = std::max(peak_resident_rows, other.peak_resident_rows);
  }
};

// Budget-aware wrappers. Each matches its ops:: counterpart bit for bit; with
// budget <= 0 or inputs within budget they forward to it directly. `stats` may
// be null.
Relation SortBy(const Relation& input, std::span<const int> columns, bool ascending,
                int64_t budget, SpillStats* stats);

Relation Distinct(const Relation& input, std::span<const int> columns,
                  int64_t budget, SpillStats* stats);

Relation Aggregate(const Relation& input, std::span<const int> group_columns,
                   AggKind kind, int agg_column, const std::string& output_name,
                   int64_t budget, SpillStats* stats);

Relation Join(const Relation& left, const Relation& right,
              std::span<const int> left_keys, std::span<const int> right_keys,
              int64_t budget, SpillStats* stats);

// Aggregate as a consume/finish operator. Rows arrive in input order through
// Consume; every `budget` counted rows (Aggregate's chunk boundaries) become
// one sorted partial run, cut only when a further counted row arrives, so an
// input of at most `budget` counted rows never spills. Finish returns
// ops::Aggregate's output over every counted row. Aggregate drives it over one
// relation's unmasked view, and a fused chain's aggregate tail over each
// batch's view (relational/pipeline.h), whose mask drops the filtered rows in
// place: the same counted rows give the same runs, bytes and merge passes
// however they are batched and masked.
class Aggregator {
 public:
  Aggregator(const Schema& input_schema, std::span<const int> group_columns,
             AggKind kind, int agg_column, const std::string& output_name,
             int64_t budget, SpillStats* stats);
  ~Aggregator();
  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  // Consumes the counted rows of `batch`, whose columns follow the
  // constructor's schema.
  void Consume(const BatchView& batch);
  // Call once, after the last Consume.
  Relation Finish();

 private:
  struct Runs;  // The spill directory, run files and residency meter.

  // Writes the current chunk's groups as one sorted partial run.
  void CutRun();

  GroupAggregator groups_;
  int64_t budget_;
  SpillStats* stats_;
  int64_t chunk_rows_ = 0;       // Counted rows consumed since the last cut.
  std::unique_ptr<Runs> runs_;   // Created by the first cut.
};


}  // namespace spill
}  // namespace conclave

#endif  // CONCLAVE_RELATIONAL_SPILL_H_
