#include "conclave/relational/pipeline.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "conclave/common/env.h"
#include "conclave/relational/expr.h"

namespace conclave {

int64_t DefaultBatchRows() {
  return env::Int64Knob("CONCLAVE_BATCH_ROWS", kDefaultBatchRows, /*min_value=*/1,
                        std::numeric_limits<int64_t>::max());
}

PipelineOp PipelineOp::Filter(const FilterPredicate& predicate) {
  PipelineOp op;
  op.kind = Kind::kFilter;
  op.filter = predicate;
  return op;
}

PipelineOp PipelineOp::Project(std::vector<int> columns) {
  PipelineOp op;
  op.kind = Kind::kProject;
  op.columns = std::move(columns);
  return op;
}

PipelineOp PipelineOp::Arithmetic(const ArithSpec& spec) {
  PipelineOp op;
  op.kind = Kind::kArithmetic;
  op.arith = spec;
  return op;
}

PipelineOp PipelineOp::Limit(int64_t count) {
  PipelineOp op;
  op.kind = Kind::kLimit;
  op.limit_count = count;
  return op;
}

PipelineOp PipelineOp::DistinctOnSorted(std::vector<int> columns) {
  PipelineOp op;
  op.kind = Kind::kDistinctOnSorted;
  op.columns = std::move(columns);
  return op;
}

PipelineOp PipelineOp::Aggregate(std::vector<int> group_columns, AggKind kind,
                                 int agg_column, std::string output_name) {
  PipelineOp op;
  op.kind = Kind::kAggregate;
  op.columns = std::move(group_columns);
  op.agg_kind = kind;
  op.agg_column = agg_column;
  op.output_name = std::move(output_name);
  return op;
}

Schema BatchPipeline::DeriveSchema(const Schema& input, const PipelineOp& op) {
  switch (op.kind) {
    case PipelineOp::Kind::kFilter:
    case PipelineOp::Kind::kLimit:
      return input;
    case PipelineOp::Kind::kProject:
    case PipelineOp::Kind::kDistinctOnSorted:
    case PipelineOp::Kind::kAggregate: {
      std::vector<ColumnDef> defs;
      defs.reserve(op.columns.size() + 1);
      for (int c : op.columns) {
        defs.push_back(input.Column(c));
      }
      if (op.kind == PipelineOp::Kind::kAggregate) {
        defs.emplace_back(op.output_name);  // ops::Aggregate's output schema.
      }
      return Schema(std::move(defs));
    }
    case PipelineOp::Kind::kArithmetic: {
      std::vector<ColumnDef> defs = input.columns();
      defs.emplace_back(op.arith.result_name);
      return Schema(std::move(defs));
    }
  }
  return input;
}

BatchPipeline::BatchPipeline(const PipelineSpec& spec)
    : num_ops_(spec.ops.size()), mem_budget_rows_(spec.mem_budget_rows) {
  std::span<const PipelineOp> streaming(spec.ops);
  if (!spec.ops.empty() && spec.ops.back().kind == PipelineOp::Kind::kAggregate) {
    tail_op_ = spec.ops.back();
    streaming = streaming.first(spec.ops.size() - 1);
    CONCLAVE_CHECK(!streaming.empty());  // A chain, not a lone aggregate.
  }
  Schema schema = spec.input_schema;
  if (!streaming.empty()) {
    program_ = std::make_unique<FusedExprProgram>(schema, streaming);
    schema = program_->output_schema();
  }
  if (tail_op_.has_value()) {
    tail_input_schema_ = schema;
    schema = DeriveSchema(schema, *tail_op_);
  }
  output_schema_ = std::move(schema);
}

BatchPipeline::~BatchPipeline() = default;

void BatchPipeline::Hold(int64_t rows) {
  ++live_batches_;
  live_rows_ += rows;
  stats_.peak_batches_resident = std::max(stats_.peak_batches_resident, live_batches_);
  stats_.peak_rows_resident = std::max(stats_.peak_rows_resident, live_rows_);
}

void BatchPipeline::Release(int64_t rows) {
  --live_batches_;
  live_rows_ -= rows;
}

void BatchPipeline::RunProgram(const Relation& src, int64_t lo, int64_t hi) {
  const BatchView& view = program_->Select(
      src, lo, hi, std::span<int64_t>(stats_.op_input_rows).first(program_->num_ops()));
  if (view.counted == 0) {
    return;
  }
  if (tail_ != nullptr) {
    stats_.op_input_rows[num_ops_ - 1] += view.counted;
    tail_->Consume(view);
    return;
  }
  // The chain's emitted batch, live until it is appended to the output.
  const Relation batch = program_->Gather(view);
  const int64_t rows = batch.NumRows();
  Hold(rows);
  const int64_t start = output_.NumRows();
  output_.Resize(start + rows);
  for (int c = 0; c < batch.NumColumns(); ++c) {
    const auto column = batch.ColumnSpan(c);
    std::copy(column.begin(), column.end(), output_.ColumnData(c) + start);
  }
  Release(rows);
}

Status BatchPipeline::RunBatches(
    int64_t rows, int64_t batch_rows,
    const std::function<Status(int64_t lo, int64_t hi)>& run_batch) {
  stats_ = PipelineStats{};
  stats_.op_input_rows.assign(num_ops_, 0);
  live_batches_ = 0;
  live_rows_ = 0;
  if (program_ == nullptr) {
    return Status::Ok();  // The callers return the input itself.
  }
  program_->Reset();
  output_ = Relation{output_schema_};
  if (tail_op_.has_value()) {
    const PipelineOp& op = *tail_op_;
    tail_ = std::make_unique<spill::Aggregator>(tail_input_schema_, op.columns,
                                                op.agg_kind, op.agg_column,
                                                op.output_name, mem_budget_rows_,
                                                &stats_.spill);
  } else {
    // Every streaming operator's output is at most its input, so the source
    // row count bounds the output: one reservation, no quadratic regrowth on
    // append.
    output_.Reserve(rows);
  }

  const int64_t step = batch_rows <= 0 ? std::max<int64_t>(rows, 1) : batch_rows;
  for (int64_t lo = 0; lo < rows; lo += step) {
    const int64_t hi = std::min(rows, lo + step);
    ++stats_.batches_pushed;
    stats_.rows_pushed += hi - lo;
    CONCLAVE_RETURN_IF_ERROR(run_batch(lo, hi));
  }
  if (tail_ != nullptr) {
    output_ = tail_->Finish();
    tail_.reset();
  }
  return Status::Ok();
}

Relation BatchPipeline::Run(const Relation& input, int64_t batch_rows) {
  const Status status =
      RunBatches(input.NumRows(), batch_rows, [&](int64_t lo, int64_t hi) {
        RunProgram(input, lo, hi);
        return Status::Ok();
      });
  CONCLAVE_CHECK(status.ok());  // Borrowed slices cannot fail.
  return program_ == nullptr ? input : std::move(output_);
}

StatusOr<Relation> BatchPipeline::Run(const RowSource& source, int64_t batch_rows) {
  CONCLAVE_RETURN_IF_ERROR(RunBatches(
      source.NumRows(), batch_rows, [&](int64_t lo, int64_t hi) -> Status {
        CONCLAVE_ASSIGN_OR_RETURN(const Relation batch, source.Rows(lo, hi));
        // Unlike Run's borrowed slices, a pulled batch is pipeline-owned
        // memory: it counts in the residency high-water mark.
        Hold(batch.NumRows());
        RunProgram(batch, 0, batch.NumRows());
        Release(batch.NumRows());
        return Status::Ok();
      }));
  if (program_ == nullptr) {
    return source.Rows(0, source.NumRows());
  }
  return std::move(output_);
}

}  // namespace conclave
