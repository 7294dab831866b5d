// Fused evaluator for pipeline chains (DESIGN.md §10, §13).
//
// A chain's streaming ops (filter / project / arithmetic / limit /
// distinct-on-sorted) compile into one FusedExprProgram: a short instruction
// list evaluated in a single pass per batch. Arithmetic results live in
// register-resident scratch columns, and filters AND into one progressive byte
// mask (cpu::CompareMask). A limit keeps the first counted rows it has left
// and shortens the range the later instructions scan; a distinct-on-sorted
// keeps the first counted row of every run of equal keys. Both carry O(1)
// state across batches (the remaining count, the last kept key), which Reset
// restarts. Select stops there and returns the chain's output columns in place
// with that mask: an aggregate tail reads the survivors through the mask, so
// nothing is compacted or gathered. Gather copies a view's survivors into an
// owned batch, for every other consumer. Either way there is no per-operator
// batch materialization and no per-operator virtual dispatch. Projects cost
// nothing at runtime: they are compiled away into column remappings, and a
// distinct projects onto its keys the same way.
//
// Semantics contract: a program is bit-identical — values AND row order — to
// executing its ops one at a time, at every batch size. Three properties make
// this safe to fuse:
//   * Every kernel is a total function with the engine's wrap semantics
//     (cpu::ArithColumn: int64 wrap via uint64; kDiv: divisor 0 -> 0,
//     INT64_MIN / -1 wraps), so arithmetic may be computed on rows the mask
//     later drops.
//   * Filters, limits and distincts only remove rows and never reorder them,
//     so one deferred gather of the narrowed mask equals the composition of
//     per-op outputs, and reading the rows the mask keeps reads exactly those
//     rows.
//   * A limit and a distinct decide from the counted rows alone, in order, so
//     running them on the mask sees the rows their kernels would.
//
// Accounting contract: the program reports, per original op, exactly the row
// count that op would have consumed in the unfused execution (the rows still
// counted when the op is reached). BatchPipeline feeds these into
// PipelineStats::op_input_rows, so the dispatcher's estimate == meter identity
// holds for every fused node. An op reached with no counted row does no
// per-row work.
#ifndef CONCLAVE_RELATIONAL_EXPR_H_
#define CONCLAVE_RELATIONAL_EXPR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "conclave/common/cpu.h"
#include "conclave/relational/pipeline.h"
#include "conclave/relational/relation.h"

namespace conclave {

// A compiled chain. Construction resolves every op's column references
// against the evolving intermediate schema, so evaluation touches only raw
// column pointers. The program owns the limits' and distincts' cross-batch
// state and reusable per-batch scratch (the arithmetic value columns, the
// mask, the survivor index list, the view Select returns); Select is therefore
// not const and a program must not be shared across threads — each
// BatchPipeline builds its own.
class FusedExprProgram {
 public:
  // Compiles `ops` (streaming ops, no aggregate; size >= 1) against `input`.
  FusedExprProgram(const Schema& input, std::span<const PipelineOp> ops);

  // Schema of the chain's output — identical to folding
  // BatchPipeline::DeriveSchema over the ops.
  const Schema& output_schema() const { return output_schema_; }

  // Number of compiled ops.
  size_t num_ops() const { return instrs_.size(); }

  // Restarts every limit's count and forgets every distinct's last key: the
  // next Select reads the first batch of a stream.
  void Reset();

  // Evaluates rows [lo, hi) of `src` as the next batch of the stream without
  // moving a row. The view holds at most hi - lo rows (a limit that runs out
  // shortens it): its columns point into `src` at `lo` or into the program's
  // scratch, its mask selects the survivors (null when every row survives),
  // and `counted` is their number. It stays valid until the next Select.
  // Adds to op_rows[j] (size >= num_ops()) the rows entering op j — op_rows[0]
  // grows by hi - lo, later ops by the rows counted after the ops before
  // them, matching the unfused execution's per-op input rows.
  const BatchView& Select(const Relation& src, int64_t lo, int64_t hi,
                          std::span<int64_t> op_rows);

  // The view's counted rows, in order, gathered into one owned batch of the
  // output schema.
  Relation Gather(const BatchView& view);

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
    int64_t literal = 0;                  // kLimit: the count.
    int64_t scale = 1;                    // kArithmetic (read for kDiv).
    int out_slot = -1;                    // kArithmetic.
    std::vector<ColRef> keys;             // kDistinctOnSorted.

    // Cross-batch state, restarted by Reset: a limit's rows still to keep, a
    // distinct's last kept key.
    int64_t remaining = 0;
    bool has_last = false;
    std::vector<int64_t> last;
  };

  const int64_t* Resolve(const Relation& src, int64_t lo, ColRef ref) const;

  // A distinct over rows [0, rows) of the batch at `lo`: keeps the first
  // counted row of every run of equal keys (the mask when `masked`, else
  // every row) and writes the mask. Returns the rows kept.
  int64_t KeepFirstOfEachKey(Instr& instr, const Relation& src, int64_t lo,
                             int64_t rows, bool masked);

  Schema output_schema_;
  std::vector<Instr> instrs_;
  std::vector<ColRef> output_cols_;  // The chain's output columns, post-compile.
  int num_slots_ = 0;
  bool writes_mask_ = false;  // A filter or distinct writes the mask.

  // Reused per-batch scratch; O(batch) rows each.
  std::vector<std::vector<int64_t>> slots_;
  std::vector<uint8_t> mask_;
  std::vector<int64_t> indices_;
  std::vector<const int64_t*> keys_;  // A distinct's key columns.
  BatchView view_;
};

}  // namespace conclave

#endif  // CONCLAVE_RELATIONAL_EXPR_H_
