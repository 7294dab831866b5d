#include "conclave/relational/expr.h"

#include <algorithm>

#include "conclave/common/check.h"

namespace conclave {

// --- Slot partitioning ------------------------------------------------------

bool FusibleExprOp(const PipelineOp& op) {
  switch (op.kind) {
    case PipelineOp::Kind::kFilter:
    case PipelineOp::Kind::kProject:
    case PipelineOp::Kind::kArithmetic:
      return true;
    case PipelineOp::Kind::kLimit:
    case PipelineOp::Kind::kDistinctOnSorted:
    case PipelineOp::Kind::kAggregate:
      return false;
  }
  return false;
}

std::vector<ExprSlot> FuseExprSlots(std::span<const PipelineOp> ops) {
  std::vector<ExprSlot> slots;
  size_t i = 0;
  while (i < ops.size()) {
    size_t end = i + 1;
    if (FusibleExprOp(ops[i])) {
      while (end < ops.size() && FusibleExprOp(ops[end])) {
        ++end;
      }
    }
    slots.push_back({i, end});
    i = end;
  }
  return slots;
}

// --- Program compilation ----------------------------------------------------

// ops.cc static_asserts that cpu::Cmp / cpu::Arith mirror CompareOp /
// ArithKind member for member; the casts below rely on the same orders.

FusedExprProgram::FusedExprProgram(const Schema& input,
                                   std::span<const PipelineOp> ops) {
  CONCLAVE_CHECK_GT(ops.size(), 0u);
  std::vector<ColRef> current(static_cast<size_t>(input.NumColumns()));
  for (int c = 0; c < input.NumColumns(); ++c) {
    current[static_cast<size_t>(c)].src = c;
  }
  Schema schema = input;
  instrs_.reserve(ops.size());
  for (const PipelineOp& op : ops) {
    CONCLAVE_CHECK(FusibleExprOp(op));
    Instr instr;
    instr.kind = op.kind;
    switch (op.kind) {
      case PipelineOp::Kind::kFilter:
        instr.cmp = static_cast<cpu::Cmp>(op.filter.op);
        instr.lhs = current[static_cast<size_t>(op.filter.column)];
        instr.rhs_is_column = op.filter.rhs_is_column;
        if (op.filter.rhs_is_column) {
          instr.rhs = current[static_cast<size_t>(op.filter.rhs_column)];
        }
        instr.literal = op.filter.rhs_literal;
        has_filter_ = true;
        break;
      case PipelineOp::Kind::kProject: {
        // Compiled away: the remap happens here, at compile time.
        std::vector<ColRef> next;
        next.reserve(op.columns.size());
        for (int c : op.columns) {
          next.push_back(current[static_cast<size_t>(c)]);
        }
        current = std::move(next);
        break;
      }
      case PipelineOp::Kind::kArithmetic:
        instr.arith = static_cast<cpu::Arith>(op.arith.kind);
        instr.lhs = current[static_cast<size_t>(op.arith.lhs_column)];
        instr.rhs_is_column = op.arith.rhs_is_column;
        if (op.arith.rhs_is_column) {
          instr.rhs = current[static_cast<size_t>(op.arith.rhs_column)];
        }
        instr.literal = op.arith.rhs_literal;
        instr.scale = op.arith.scale;
        instr.out_slot = num_slots_++;
        current.push_back(ColRef{/*src=*/-1, /*slot=*/instr.out_slot});
        break;
      default:
        break;
    }
    instrs_.push_back(instr);
    schema = BatchPipeline::DeriveSchema(schema, op);
  }
  output_cols_ = std::move(current);
  output_schema_ = std::move(schema);
  slots_.resize(static_cast<size_t>(num_slots_));
}

// --- Evaluation -------------------------------------------------------------

const int64_t* FusedExprProgram::Resolve(const Relation& src, int64_t lo,
                                         ColRef ref) const {
  if (ref.slot >= 0) {
    return slots_[static_cast<size_t>(ref.slot)].data();
  }
  return src.ColumnSpan(ref.src).data() + lo;
}

const BatchView& FusedExprProgram::Select(const Relation& src, int64_t lo,
                                          int64_t hi, std::span<int64_t> op_rows) {
  const int64_t n = hi - lo;
  const size_t un = static_cast<size_t>(n);
  for (auto& slot : slots_) {
    slot.resize(un);
  }
  if (has_filter_) {
    mask_.resize(un);
  }

  bool masked = false;
  int64_t surviving = n;
  for (size_t j = 0; j < instrs_.size(); ++j) {
    op_rows[j] += surviving;
    const Instr& instr = instrs_[j];
    switch (instr.kind) {
      case PipelineOp::Kind::kFilter: {
        const int64_t* lhs = Resolve(src, lo, instr.lhs);
        const int64_t* rhs =
            instr.rhs_is_column ? Resolve(src, lo, instr.rhs) : nullptr;
        cpu::CompareMask(instr.cmp, lhs, rhs, instr.literal, un,
                         masked ? cpu::MaskMode::kAnd : cpu::MaskMode::kSet,
                         mask_.data());
        masked = true;
        surviving = static_cast<int64_t>(cpu::CountMask(mask_.data(), un));
        break;
      }
      case PipelineOp::Kind::kArithmetic: {
        // Computed over the full batch, filtered or not: the kernel is total
        // (wrap semantics, divisor 0 -> 0), and rows the mask drops never
        // surface, so the result matches per-op execution bit for bit.
        const int64_t* lhs = Resolve(src, lo, instr.lhs);
        const int64_t* rhs =
            instr.rhs_is_column ? Resolve(src, lo, instr.rhs) : nullptr;
        cpu::ArithColumn(instr.arith, lhs, rhs, instr.literal, instr.scale, un,
                         slots_[static_cast<size_t>(instr.out_slot)].data());
        break;
      }
      default:
        break;  // kProject: compiled away.
    }
  }

  view_.columns.resize(output_cols_.size());
  for (size_t c = 0; c < output_cols_.size(); ++c) {
    view_.columns[c] = Resolve(src, lo, output_cols_[c]);
  }
  view_.rows = n;
  view_.mask = masked && surviving < n ? mask_.data() : nullptr;
  view_.counted = surviving;
  return view_;
}

Relation FusedExprProgram::Eval(const Relation& src, int64_t lo, int64_t hi,
                                std::span<int64_t> op_rows) {
  const BatchView& view = Select(src, lo, hi, op_rows);
  Relation out{output_schema_};
  if (view.counted == 0) {
    return out;
  }
  out.Resize(view.counted);
  const size_t rows = static_cast<size_t>(view.rows);
  if (view.mask != nullptr) {
    indices_.resize(static_cast<size_t>(view.counted));
    cpu::MaskToIndices(view.mask, rows, /*base=*/0, indices_.data());
    for (size_t c = 0; c < view.columns.size(); ++c) {
      cpu::GatherI64(view.columns[c], indices_.data(), indices_.size(),
                     out.ColumnData(static_cast<int>(c)));
    }
  } else {
    for (size_t c = 0; c < view.columns.size(); ++c) {
      std::copy(view.columns[c], view.columns[c] + rows,
                out.ColumnData(static_cast<int>(c)));
    }
  }
  return out;
}

}  // namespace conclave
