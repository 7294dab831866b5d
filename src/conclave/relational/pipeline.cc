#include "conclave/relational/pipeline.h"

#include <algorithm>
#include <limits>
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

namespace pipeline_internal {

// The consume/flush operator contract. An operator receives owned batches (or,
// for the pipeline head, borrowed slices of the source), emits output batches
// downstream, and may keep only O(1) rows of cross-batch state. Subclasses must
// be batch-invariant: concatenating the emitted batches reproduces the matching
// ops.h kernel bit for bit at every batch size.
class BatchOperator {
 public:
  // `index` is the operator's executor SLOT (a fused run is one slot), not an
  // original op position; Push maps slots back to op indices for stats.
  BatchOperator(BatchPipeline* pipeline, size_t index, Schema output_schema)
      : pipeline_(pipeline), index_(index), output_schema_(std::move(output_schema)) {}
  virtual ~BatchOperator() = default;

  const Schema& output_schema() const { return output_schema_; }

  virtual void Reset() {}
  // Consumes one owned batch, emitting zero or more output batches.
  virtual void Consume(Relation&& batch) = 0;
  // Consumes rows [lo, hi) of a borrowed source relation, reading the source
  // directly so the head of the pipeline never copies its input slice.
  virtual void ConsumeSlice(const Relation& src, int64_t lo, int64_t hi) = 0;
  // End of stream. None of the streaming operators buffer whole batches, so the
  // default emits nothing; the hook is the contract's drain point.
  virtual void Flush() {}

 protected:
  void Emit(Relation&& batch) { pipeline_->Push(index_ + 1, std::move(batch)); }
  // The last slot's output handed to the aggregate tail in place.
  void EmitToTail(const BatchView& batch) { pipeline_->FeedTail(batch); }
  // Fused-slot accounting hook (see BatchPipeline::AddOpInputRows).
  void AddOpInputRows(size_t op_index, int64_t rows) {
    pipeline_->AddOpInputRows(op_index, rows);
  }

 private:
  BatchPipeline* pipeline_;
  size_t index_;
  Schema output_schema_;
};

namespace {

class LimitOperator : public BatchOperator {
 public:
  LimitOperator(BatchPipeline* pipeline, size_t index, Schema output_schema,
                int64_t count)
      : BatchOperator(pipeline, index, std::move(output_schema)), count_(count) {}

  void Reset() override { remaining_ = count_; }

  void Consume(Relation&& batch) override {
    const int64_t take = std::min(remaining_, batch.NumRows());
    remaining_ -= take;
    if (take == 0) {
      // Deliberately no early exit: the whole stream is still consumed so
      // per-operator row counts match the unfused execution.
      return;
    }
    if (take == batch.NumRows()) {
      Emit(std::move(batch));
    } else {
      Emit(ops::Slice(batch, 0, take));
    }
  }

  void ConsumeSlice(const Relation& src, int64_t lo, int64_t hi) override {
    const int64_t take = std::min(remaining_, hi - lo);
    remaining_ -= take;
    if (take > 0) {
      Emit(ops::Slice(src, lo, lo + take));
    }
  }

 private:
  int64_t count_;
  int64_t remaining_ = 0;
};

// Distinct over an input sorted ascending (lexicographically) by a column list
// of which `columns` is a prefix: the projection onto `columns` is then
// non-decreasing, so keeping the first row of every equal run emits exactly
// ops::Distinct's sorted unique rows. Cross-batch state is one row.
class DistinctOnSortedOperator : public BatchOperator {
 public:
  DistinctOnSortedOperator(BatchPipeline* pipeline, size_t index,
                           Schema output_schema, std::vector<int> columns)
      : BatchOperator(pipeline, index, std::move(output_schema)),
        columns_(std::move(columns)) {}

  void Reset() override {
    last_row_.clear();
    has_last_ = false;
  }

  void Consume(Relation&& batch) override { ConsumeSlice(batch, 0, batch.NumRows()); }

  void ConsumeSlice(const Relation& src, int64_t lo, int64_t hi) override {
    selected_.clear();
    std::vector<const int64_t*> cols(columns_.size());
    for (size_t i = 0; i < columns_.size(); ++i) {
      cols[i] = hi == lo ? nullptr : src.ColumnSpan(columns_[i]).data();
    }
    for (int64_t r = lo; r < hi; ++r) {
      bool is_new = !has_last_;
      if (!is_new) {
        for (size_t i = 0; i < cols.size(); ++i) {
          if (cols[i][r] != last_row_[i]) {
            is_new = true;
            break;
          }
        }
      }
      if (is_new) {
        selected_.push_back(r);
        has_last_ = true;
        last_row_.resize(cols.size());
        for (size_t i = 0; i < cols.size(); ++i) {
          last_row_[i] = cols[i][r];
        }
      }
    }
    if (selected_.empty()) {
      return;
    }
    Relation out{output_schema()};
    out.Resize(static_cast<int64_t>(selected_.size()));
    for (size_t i = 0; i < columns_.size(); ++i) {
      ops::GatherColumnInto(src, columns_[i], selected_,
                            out.ColumnData(static_cast<int>(i)));
    }
    Emit(std::move(out));
  }

 private:
  std::vector<int> columns_;
  bool has_last_ = false;
  std::vector<int64_t> last_row_;      // The last emitted distinct row; O(1) rows.
  std::vector<int64_t> selected_;      // Reused scratch; O(batch) rows.
};

// One executor slot covering a maximal run of >= 1 adjacent filter / project /
// arithmetic ops (relational/expr.h): the whole run evaluates in one
// register-resident pass per batch. Push attributes the batch's rows to the
// run's FIRST original op; the interior ops' per-op input rows come from the
// program's accounting and flow through AddOpInputRows, so op_input_rows equals
// one-op-at-a-time execution's at every batch size. A run feeding the
// aggregate tail hands it the program's view (Select) and forms no batch;
// any other run emits the gathered survivors (Eval).
class FusedExprOperator : public BatchOperator {
 public:
  FusedExprOperator(BatchPipeline* pipeline, size_t slot, Schema output_schema,
                    FusedExprProgram program, size_t first_op, bool feeds_tail)
      : BatchOperator(pipeline, slot, std::move(output_schema)),
        program_(std::move(program)),
        first_op_(first_op),
        feeds_tail_(feeds_tail),
        op_rows_(program_.num_ops()) {}

  void Consume(Relation&& batch) override { ConsumeSlice(batch, 0, batch.NumRows()); }

  void ConsumeSlice(const Relation& src, int64_t lo, int64_t hi) override {
    if (hi == lo) {
      return;
    }
    std::fill(op_rows_.begin(), op_rows_.end(), 0);
    if (feeds_tail_) {
      const BatchView& view = program_.Select(src, lo, hi, op_rows_);
      AddInteriorRows();
      if (view.counted > 0) {
        EmitToTail(view);
      }
      return;
    }
    Relation out = program_.Eval(src, lo, hi, op_rows_);
    AddInteriorRows();
    if (out.NumRows() > 0) {
      Emit(std::move(out));
    }
  }

 private:
  void AddInteriorRows() {
    for (size_t j = 1; j < op_rows_.size(); ++j) {
      AddOpInputRows(first_op_ + j, op_rows_[j]);
    }
  }

  FusedExprProgram program_;
  size_t first_op_;
  bool feeds_tail_;
  std::vector<int64_t> op_rows_;  // Per-batch relative-op row counts; reused.
};

}  // namespace
}  // namespace pipeline_internal

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
  using pipeline_internal::BatchOperator;
  std::span<const PipelineOp> streaming(spec.ops);
  if (!spec.ops.empty() && spec.ops.back().kind == PipelineOp::Kind::kAggregate) {
    tail_op_ = spec.ops.back();
    streaming = streaming.first(spec.ops.size() - 1);
    CONCLAVE_CHECK(!streaming.empty());  // A chain, not a lone aggregate.
  }
  Schema schema = spec.input_schema;
  for (const ExprSlot& slot : FuseExprSlots(streaming)) {
    const size_t i = operators_.size();  // This slot's executor index.
    const PipelineOp& op = spec.ops[slot.begin];
    std::unique_ptr<BatchOperator> built;
    Schema out;
    switch (op.kind) {
      case PipelineOp::Kind::kLimit:
        out = DeriveSchema(schema, op);
        built = std::make_unique<pipeline_internal::LimitOperator>(this, i, out,
                                                                   op.limit_count);
        break;
      case PipelineOp::Kind::kDistinctOnSorted:
        out = DeriveSchema(schema, op);
        built = std::make_unique<pipeline_internal::DistinctOnSortedOperator>(
            this, i, out, op.columns);
        break;
      case PipelineOp::Kind::kAggregate:
        CONCLAVE_CHECK(false);  // Only as the tail, split off above.
        break;
      case PipelineOp::Kind::kFilter:
      case PipelineOp::Kind::kProject:
      case PipelineOp::Kind::kArithmetic: {
        FusedExprProgram program(schema, streaming.subspan(slot.begin, slot.size()));
        out = program.output_schema();
        const bool feeds_tail = tail_op_.has_value() && slot.end == streaming.size();
        built = std::make_unique<pipeline_internal::FusedExprOperator>(
            this, i, out, std::move(program), slot.begin, feeds_tail);
        break;
      }
    }
    operators_.push_back(std::move(built));
    slot_first_op_.push_back(slot.begin);
    schema = std::move(out);
  }
  if (tail_op_.has_value()) {
    tail_input_schema_ = schema;
    schema = DeriveSchema(schema, *tail_op_);
  }
  output_schema_ = std::move(schema);
}

BatchPipeline::~BatchPipeline() = default;

void BatchPipeline::Push(size_t slot, Relation&& batch) {
  const int64_t rows = batch.NumRows();
  ++live_batches_;
  live_rows_ += rows;
  stats_.peak_batches_resident = std::max(stats_.peak_batches_resident, live_batches_);
  stats_.peak_rows_resident = std::max(stats_.peak_rows_resident, live_rows_);
  if (slot == operators_.size() && tail_ != nullptr) {
    // A limit's or distinct's emitted batch, read in place by the tail.
    FeedTail(BatchView::Of(batch));
  } else if (slot == operators_.size()) {
    // The chain's emitted batch, live until it is appended to the output.
    const int64_t start = output_.NumRows();
    output_.Resize(start + rows);
    for (int c = 0; c < batch.NumColumns(); ++c) {
      const auto column = batch.ColumnSpan(c);
      std::copy(column.begin(), column.end(), output_.ColumnData(c) + start);
    }
  } else {
    if (slot > 0) {
      stats_.op_input_rows[slot_first_op_[slot]] += rows;
    }
    operators_[slot]->Consume(std::move(batch));
  }
  --live_batches_;
  live_rows_ -= rows;
}

void BatchPipeline::FeedTail(const BatchView& batch) {
  stats_.op_input_rows[num_ops_ - 1] += batch.counted;
  tail_->Consume(batch);
}

Status BatchPipeline::RunBatches(
    int64_t rows, int64_t batch_rows,
    const std::function<Status(int64_t lo, int64_t hi)>& push_head) {
  stats_ = PipelineStats{};
  stats_.op_input_rows.assign(num_ops_, 0);
  live_batches_ = 0;
  live_rows_ = 0;
  for (auto& op : operators_) {
    op->Reset();
  }
  if (operators_.empty()) {
    return Status::Ok();  // The callers return the input itself.
  }
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
    stats_.op_input_rows[0] += hi - lo;
    CONCLAVE_RETURN_IF_ERROR(push_head(lo, hi));
  }
  for (auto& op : operators_) {
    op->Flush();
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
        operators_[0]->ConsumeSlice(input, lo, hi);
        return Status::Ok();
      });
  CONCLAVE_CHECK(status.ok());  // Borrowed slices cannot fail.
  return operators_.empty() ? input : std::move(output_);
}

StatusOr<Relation> BatchPipeline::Run(const RowSource& source, int64_t batch_rows) {
  CONCLAVE_RETURN_IF_ERROR(RunBatches(
      source.NumRows(), batch_rows, [&](int64_t lo, int64_t hi) -> Status {
        CONCLAVE_ASSIGN_OR_RETURN(Relation batch, source.Rows(lo, hi));
        // Unlike Run's borrowed slices, a pulled batch is pipeline-owned
        // memory: Push counts it in the residency high-water mark.
        Push(0, std::move(batch));
        return Status::Ok();
      }));
  if (operators_.empty()) {
    return source.Rows(0, source.NumRows());
  }
  return std::move(output_);
}

}  // namespace conclave
