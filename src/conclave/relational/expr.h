// Fused expression evaluator for pipeline chains (DESIGN.md §13).
//
// A maximal run (>= 1 op) of adjacent filter / project / arithmetic pipeline
// ops compiles into one FusedExprProgram: a short instruction list evaluated in
// a single pass per batch. Arithmetic results live in register-resident scratch
// columns, and filters AND into one progressive byte mask (cpu::CompareMask).
// Select stops there and returns the run's output columns in place with that
// mask: an aggregate tail reads the survivors through the mask, so nothing is
// compacted or gathered. Eval is Select plus one gather of the survivors into
// an owned batch, for every other consumer. Either way there is no per-operator
// batch materialization and no per-operator virtual dispatch. Projects cost
// nothing at runtime: they are compiled away into column remappings.
//
// Semantics contract: a fused run is bit-identical — values AND row order — to
// executing its ops one at a time, at every batch size. Two properties make
// this safe to fuse:
//   * Every kernel is a total function with the engine's wrap semantics
//     (cpu::ArithColumn: int64 wrap via uint64; kDiv: divisor 0 -> 0,
//     INT64_MIN / -1 wraps), so arithmetic may be computed on rows the mask
//     later drops.
//   * Filters only remove rows and never reorder them, so one deferred gather
//     of the intersected mask equals the composition of per-filter gathers,
//     and reading the rows the mask keeps reads exactly those rows.
//
// Accounting contract: the program reports, per original op, exactly the row
// count that op would have consumed in the unfused execution (the mask
// popcount after the preceding filters). BatchPipeline feeds these into
// PipelineStats::op_input_rows, so the dispatcher's estimate == meter identity
// holds for every fused node.
#ifndef CONCLAVE_RELATIONAL_EXPR_H_
#define CONCLAVE_RELATIONAL_EXPR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "conclave/common/cpu.h"
#include "conclave/relational/pipeline.h"
#include "conclave/relational/relation.h"

namespace conclave {

// True for the op kinds the fused evaluator can compile (filter / project /
// arithmetic). Limit and distinct-on-sorted carry cross-batch state and stay
// standalone operators.
bool FusibleExprOp(const PipelineOp& op);

// One executor slot of a pipeline: ops [begin, end) of the spec. A slot of
// fusible ops runs as one FusedExprProgram; any other slot is a single limit
// or distinct-on-sorted op running as its standalone streaming operator.
struct ExprSlot {
  size_t begin = 0;
  size_t end = 0;

  size_t size() const { return end - begin; }
};

// Partitions an op chain into slots: every maximal run of >= 1 adjacent
// fusible ops becomes one slot, every other op a singleton slot. Slots cover
// [0, ops.size()) exactly, in order.
std::vector<ExprSlot> FuseExprSlots(std::span<const PipelineOp> ops);

// A compiled fused run. Construction resolves every op's column references
// against the evolving intermediate schema, so evaluation touches only raw
// column pointers. The program owns reusable per-batch scratch (the arithmetic
// value columns, the filter mask, the survivor index list, the view Select
// returns); Select and Eval are therefore not const and a program must not be
// shared across threads — each BatchPipeline builds its own.
class FusedExprProgram {
 public:
  // Compiles `ops` (all FusibleExprOp, size >= 1) against `input`.
  FusedExprProgram(const Schema& input, std::span<const PipelineOp> ops);

  // Schema of the run's output — identical to folding
  // BatchPipeline::DeriveSchema over the ops.
  const Schema& output_schema() const { return output_schema_; }

  // Number of compiled ops.
  size_t num_ops() const { return instrs_.size(); }

  // Evaluates rows [lo, hi) of `src` through the whole run without moving a
  // row. The view holds hi - lo rows: its columns point into `src` at `lo` or
  // into the program's scratch, its mask selects the survivors (null when
  // every row survives), and `counted` is their number. It stays valid until
  // the next Select or Eval. Adds to op_rows[j] (size num_ops()) the rows
  // entering relative op j — op_rows[0] grows by hi - lo, later ops by the
  // survivor count of the filters before them, matching the unfused
  // execution's per-op input rows.
  const BatchView& Select(const Relation& src, int64_t lo, int64_t hi,
                          std::span<int64_t> op_rows);

  // Select, then the survivors gathered into one owned batch (0 rows -> emit
  // nothing upstream).
  Relation Eval(const Relation& src, int64_t lo, int64_t hi,
                std::span<int64_t> op_rows);

 private:
  // A column reference: a source-relation column (slot < 0) or a computed
  // arithmetic value column in scratch (slot >= 0).
  struct ColRef {
    int src = -1;
    int slot = -1;
  };

  struct Instr {
    PipelineOp::Kind kind = PipelineOp::Kind::kProject;
    cpu::Cmp cmp = cpu::Cmp::kEq;        // kFilter.
    cpu::Arith arith = cpu::Arith::kAdd;  // kArithmetic.
    ColRef lhs;                           // kFilter / kArithmetic.
    ColRef rhs;                           // Valid when rhs_is_column.
    bool rhs_is_column = false;
    int64_t literal = 0;
    int64_t scale = 1;                    // kArithmetic (read for kDiv).
    int out_slot = -1;                    // kArithmetic.
  };

  const int64_t* Resolve(const Relation& src, int64_t lo, ColRef ref) const;

  Schema output_schema_;
  std::vector<Instr> instrs_;
  std::vector<ColRef> output_cols_;  // The run's output columns, post-compile.
  int num_slots_ = 0;
  bool has_filter_ = false;

  // Reused per-batch scratch; O(batch) rows each.
  std::vector<std::vector<int64_t>> slots_;
  std::vector<uint8_t> mask_;
  std::vector<int64_t> indices_;
  BatchView view_;
};

}  // namespace conclave

#endif  // CONCLAVE_RELATIONAL_EXPR_H_
