#include "conclave/relational/expr.h"

#include <algorithm>

#include "conclave/common/check.h"

namespace conclave {

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
        writes_mask_ = true;
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
      case PipelineOp::Kind::kLimit:
        instr.literal = op.limit_count;
        break;
      case PipelineOp::Kind::kDistinctOnSorted:
        // Its output is its keys: a project, compiled away like one.
        for (int c : op.columns) {
          instr.keys.push_back(current[static_cast<size_t>(c)]);
        }
        current = instr.keys;
        writes_mask_ = true;
        break;
      case PipelineOp::Kind::kAggregate:
        CONCLAVE_CHECK(false);  // A pipeline's tail, never an instruction.
        break;
    }
    instrs_.push_back(instr);
    schema = BatchPipeline::DeriveSchema(schema, op);
  }
  output_cols_ = std::move(current);
  output_schema_ = std::move(schema);
  slots_.resize(static_cast<size_t>(num_slots_));
  Reset();
}

void FusedExprProgram::Reset() {
  for (Instr& instr : instrs_) {
    instr.remaining = instr.literal;
    instr.has_last = false;
  }
}

// --- Evaluation -------------------------------------------------------------

const int64_t* FusedExprProgram::Resolve(const Relation& src, int64_t lo,
                                         ColRef ref) const {
  if (ref.slot >= 0) {
    return slots_[static_cast<size_t>(ref.slot)].data();
  }
  return src.ColumnSpan(ref.src).data() + lo;
}

int64_t FusedExprProgram::KeepFirstOfEachKey(Instr& instr, const Relation& src,
                                             int64_t lo, int64_t rows, bool masked) {
  const size_t width = instr.keys.size();
  keys_.resize(width);
  for (size_t k = 0; k < width; ++k) {
    keys_[k] = Resolve(src, lo, instr.keys[k]);
  }
  instr.last.resize(width);
  int64_t kept = 0;
  for (int64_t r = 0; r < rows; ++r) {
    const size_t i = static_cast<size_t>(r);
    if (masked && mask_[i] == 0) {
      continue;
    }
    bool is_new = !instr.has_last;
    for (size_t k = 0; k < width && !is_new; ++k) {
      is_new = keys_[k][r] != instr.last[k];
    }
    mask_[i] = is_new ? 1 : 0;
    if (is_new) {
      for (size_t k = 0; k < width; ++k) {
        instr.last[k] = keys_[k][r];
      }
      instr.has_last = true;
      ++kept;
    }
  }
  return kept;
}

const BatchView& FusedExprProgram::Select(const Relation& src, int64_t lo,
                                          int64_t hi, std::span<int64_t> op_rows) {
  // The rows the instructions still scan: a limit that runs out cuts the
  // batch right after its last kept row.
  int64_t n = hi - lo;
  for (auto& slot : slots_) {
    slot.resize(static_cast<size_t>(n));
  }
  if (writes_mask_) {
    mask_.resize(static_cast<size_t>(n));
  }

  bool masked = false;
  int64_t surviving = n;
  for (size_t j = 0; j < instrs_.size() && surviving > 0; ++j) {
    op_rows[j] += surviving;
    Instr& instr = instrs_[j];
    const size_t un = static_cast<size_t>(n);
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
      case PipelineOp::Kind::kLimit: {
        // No early exit: a satisfied limit keeps nothing, and the ops before
        // it still read every batch.
        const int64_t take = std::min(instr.remaining, surviving);
        instr.remaining -= take;
        if (take < surviving) {
          // Cut after the take-th counted row.
          int64_t end = take;
          if (masked && take > 0) {
            int64_t seen = 0;
            for (end = 0; seen < take; ++end) {
              seen += mask_[static_cast<size_t>(end)] != 0 ? 1 : 0;
            }
          }
          n = end;
          surviving = take;
        }
        break;
      }
      case PipelineOp::Kind::kDistinctOnSorted:
        surviving = KeepFirstOfEachKey(instr, src, lo, n, masked);
        masked = true;
        break;
      case PipelineOp::Kind::kProject:
      case PipelineOp::Kind::kAggregate:
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

Relation FusedExprProgram::Gather(const BatchView& view) {
  Relation out{output_schema_};
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
