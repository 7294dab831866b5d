// Push-based batch pipeline for fused chains of cleartext operators.
//
// A BatchPipeline streams fixed-size row batches from its input — a materialized
// relation, or a RowSource pulled batch-at-a-time — through a chain of streaming
// operators (filter / project / arithmetic / limit / distinct-on-sorted),
// optionally ending in a hash aggregate. One program per chain: the streaming
// ops compile into a single FusedExprProgram (relational/expr.h), which runs
// each batch in one pass and narrows one mask; a limit and a distinct carry
// O(1) rows of state across batches (the remaining count, the last kept key).
// The pipeline therefore holds O(batch_rows) rows of intermediate state
// regardless of input size, plus an aggregate tail's group state — the
// high-water marks in PipelineStats record the batches, and tests assert it.
//
// The aggregate tail is the one blocking operator a pipeline admits, and only
// as its last op after at least one streaming op. The chain's output goes to
// it (spill::Aggregator) instead of into a materialized output, so its group
// state replaces the chain's output. The program hands the tail its output
// columns in place with its mask (a BatchView), and the tail reduces the rows
// the mask keeps: a filter -> aggregate chain reads its input once, and forms,
// compacts and gathers no batch. Under a memory budget the tail cuts the same
// sorted partial runs, at the same counted-row boundaries, as spill::Aggregate
// over the materialized prefix output. A chain without a tail gathers each
// batch's survivors into an owned batch and appends it to the output.
//
// Batch-invariance contract: for every operator and every batch size (including
// one row per batch and the whole relation in one batch), the concatenation of the
// emitted batches is bit-identical — values AND row order — to the corresponding
// materializing kernel in ops.h applied to the concatenated input, and the
// aggregate tail's output is ops::Aggregate's over that concatenation. The
// dispatcher relies on this to extend the {pool} determinism contract with a
// batch axis (DESIGN.md §10). The other blocking operators (sort, join, window,
// pad, and an aggregate that is not a chain's tail) never enter a pipeline and
// keep materializing through ops.h.
//
// Streaming limit deliberately does NOT early-exit: the ops before it consume
// every batch even after the limit is satisfied, so per-operator row counts — and
// with them the dispatcher's cost-model charges and counters — are identical to
// the unfused execution at every batch size. PipelineStats::op_input_rows is
// indexed by op position, the aggregate tail's entry included, and holds the
// rows one-op-at-a-time execution would have fed each op, so the dispatcher
// prices every node from them.
#ifndef CONCLAVE_RELATIONAL_PIPELINE_H_
#define CONCLAVE_RELATIONAL_PIPELINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "conclave/common/status.h"
#include "conclave/relational/ops.h"
#include "conclave/relational/relation.h"
#include "conclave/relational/row_source.h"
#include "conclave/relational/spill.h"

namespace conclave {

// Default rows per batch of the push-based pipeline executor (~4k rows: large
// enough to amortize per-batch overhead, small enough that a fused chain's
// working set stays cache-resident).
inline constexpr int64_t kDefaultBatchRows = 4096;

// CONCLAVE_BATCH_ROWS env override: a positive integer sets the batch size
// (anything else aborts with a message naming the knob); unset picks
// kDefaultBatchRows.
int64_t DefaultBatchRows();

// One resolved streaming operator of a pipeline (column references are
// pre-resolved indices against the stage's input schema, as in ops.h).
struct PipelineOp {
  enum class Kind {
    kFilter,
    kProject,
    kArithmetic,
    kLimit,
    kDistinctOnSorted,
    kAggregate,
  };

  Kind kind = Kind::kFilter;
  FilterPredicate filter;         // kFilter.
  // kProject / kDistinctOnSorted; kAggregate: the group columns.
  std::vector<int> columns;
  ArithSpec arith;                // kArithmetic.
  int64_t limit_count = 0;        // kLimit.
  AggKind agg_kind = AggKind::kSum;  // kAggregate, as in ops::Aggregate.
  int agg_column = 0;
  std::string output_name;

  static PipelineOp Filter(const FilterPredicate& predicate);
  static PipelineOp Project(std::vector<int> columns);
  static PipelineOp Arithmetic(const ArithSpec& spec);
  static PipelineOp Limit(int64_t count);
  // Requires the pipeline's input at this stage to be sorted ascending
  // (lexicographically) by a column list of which `columns` is a prefix.
  static PipelineOp DistinctOnSorted(std::vector<int> columns);
  // Only as the last op, after at least one streaming op.
  static PipelineOp Aggregate(std::vector<int> group_columns, AggKind kind,
                              int agg_column, std::string output_name);
};

// A fully resolved pipeline: the source schema plus the operator chain. Cheap to
// copy.
struct PipelineSpec {
  Schema input_schema;
  std::vector<PipelineOp> ops;
  // Memory budget of an aggregate tail (spill.h; 0 = unbounded).
  int64_t mem_budget_rows = 0;
};

// Instrumentation captured by one BatchPipeline::Run. The peaks are high-water
// marks over the batches that form and that the pipeline owns: parsed or
// revealed source batches, and each batch a chain without an aggregate tail
// emits into its output. Borrowed source slices, the view the program hands an
// aggregate tail (it forms no batch) and the materialized output are not
// counted. The peaks are therefore at most two batches (a pulled batch and the
// batch it emits), never O(input rows); a filter -> aggregate chain over a
// borrowed relation reads 0.
struct PipelineStats {
  int64_t batches_pushed = 0;       // Source batches entering the pipeline.
  int64_t rows_pushed = 0;          // Source rows entering the pipeline.
  int64_t peak_batches_resident = 0;
  int64_t peak_rows_resident = 0;
  // Rows consumed by each operator (index-aligned with the spec's ops, an
  // aggregate tail included). Equals the intermediate cardinalities of running
  // the ops.h kernels one at a time, at every batch size; the dispatcher
  // prices fused interior nodes from these.
  std::vector<int64_t> op_input_rows;
  // Physical spill counters of an aggregate tail (zero when nothing spilled).
  spill::SpillStats spill;
};

class FusedExprProgram;

class BatchPipeline {
 public:
  explicit BatchPipeline(const PipelineSpec& spec);
  ~BatchPipeline();
  BatchPipeline(const BatchPipeline&) = delete;
  BatchPipeline& operator=(const BatchPipeline&) = delete;

  const Schema& output_schema() const { return output_schema_; }

  // Streams `input` through the chain in batches of at most `batch_rows` rows
  // (<= 0 streams the whole relation as one batch) and returns the materialized
  // result. The head reads borrowed slices of `input`, so no source row is
  // copied. Resets the program's state and the stats first, so a pipeline may
  // run again.
  Relation Run(const Relation& input, int64_t batch_rows);

  // Source-driven variant (DESIGN.md §12, §14): pulls `source` batch-at-a-time
  // and pushes each pulled batch through the chain, so the source relation
  // never materializes — at most one batch of source rows is live at a time
  // (it enters the pipeline's residency accounting, unlike Run's borrowed
  // slices). Bit-identical to Run(*source.Rows(0, source.NumRows()),
  // batch_rows) at every batch size; a failing pull (a malformed CSV line)
  // returns its error.
  StatusOr<Relation> Run(const RowSource& source, int64_t batch_rows);

  // Stats of the most recent Run.
  const PipelineStats& stats() const { return stats_; }

  // The schema each streaming operator derives from `input`, mirroring the
  // corresponding ops.h kernel; `ops` prefixes of a chain compose left to right.
  static Schema DeriveSchema(const Schema& input, const PipelineOp& op);

 private:
  // The batch loop both Run overloads share: resets the program's state and
  // the stats, then hands each [lo, hi) range of a `rows`-row input to
  // `run_batch`. Stops at the first failing batch. An empty chain runs
  // nothing; its callers return the input itself.
  Status RunBatches(int64_t rows, int64_t batch_rows,
                    const std::function<Status(int64_t lo, int64_t hi)>& run_batch);

  // Runs rows [lo, hi) of `src` through the program, then hands the view to
  // the aggregate tail (its op_input_rows entry grows by the rows the view
  // counts) or gathers the survivors into an owned batch appended to the
  // output.
  void RunProgram(const Relation& src, int64_t lo, int64_t hi);

  // Residency accounting of one pipeline-owned batch of `rows` rows: Hold
  // counts it toward the peaks while it lives, Release drops it.
  void Hold(int64_t rows);
  void Release(int64_t rows);

  Schema output_schema_;
  std::unique_ptr<FusedExprProgram> program_;  // Null for an empty chain.
  size_t num_ops_ = 0;  // spec.ops.size(); sizes stats_.op_input_rows.
  // The aggregate tail's op, its input schema and the spec's budget; the
  // aggregator itself is rebuilt by every run.
  std::optional<PipelineOp> tail_op_;
  Schema tail_input_schema_;
  int64_t mem_budget_rows_ = 0;
  std::unique_ptr<spill::Aggregator> tail_;
  PipelineStats stats_;
  int64_t live_batches_ = 0;
  int64_t live_rows_ = 0;
  Relation output_;
};

}  // namespace conclave

#endif  // CONCLAVE_RELATIONAL_PIPELINE_H_
