// A relation not yet materialized: the frontier input of a local job.
//
// Local jobs read two kinds of input that need not exist in memory as a whole:
// a party's own CSV file (CsvSource, §4.1) and a value revealed out of MPC
// (mpc::RevealSource, §5). Both are RowSources: the schema and row count are
// known up front, and any row range materializes on demand. The engine either
// pulls the whole range (the relation materializes once) or streams it — a
// fused chain pulls batch-sized ranges through BatchPipeline::Run, so the
// relation never exists in memory (DESIGN.md §12, §14). One compile-time rule
// decides which (compiler::PipelineChains).
//
// Rows is const and thread-safe, and any range is bit-identical to the same
// rows of the whole-range pull, including which error a failing range reports.
#ifndef CONCLAVE_RELATIONAL_ROW_SOURCE_H_
#define CONCLAVE_RELATIONAL_ROW_SOURCE_H_

#include <atomic>
#include <cstdint>

#include "conclave/common/status.h"
#include "conclave/relational/relation.h"
#include "conclave/relational/schema.h"

namespace conclave {

class RowSource {
 public:
  virtual ~RowSource() = default;

  virtual const Schema& schema() const = 0;
  virtual int64_t NumRows() const = 0;

  // Materializes rows [begin, end) (0 <= begin <= end <= NumRows(), enforced
  // by CHECK) and records the range in the residency high-water mark.
  StatusOr<Relation> Rows(int64_t begin, int64_t end) const {
    CONCLAVE_CHECK(begin >= 0 && begin <= end && end <= NumRows());
    CONCLAVE_ASSIGN_OR_RETURN(Relation rows, ReadRows(begin, end));
    // Relaxed CAS-max: concurrent pulls race only on this witness value.
    int64_t seen = max_materialized_rows_.load(std::memory_order_relaxed);
    while (end - begin > seen &&
           !max_materialized_rows_.compare_exchange_weak(
               seen, end - begin, std::memory_order_relaxed)) {
    }
    return rows;
  }

  // High-water mark of rows materialized by a single Rows call: the residency
  // witness (ExecutionResult::source_peak_rows). A streamed source keeps it at
  // the batch size, never anywhere near NumRows().
  int64_t MaxMaterializedRows() const {
    return max_materialized_rows_.load(std::memory_order_relaxed);
  }

 protected:
  RowSource() = default;
  // Sources built by value-returning factories move; the witness moves along.
  RowSource(RowSource&& other) noexcept
      : max_materialized_rows_(other.MaxMaterializedRows()) {}

  // Produces rows [begin, end) of an already range-checked request.
  virtual StatusOr<Relation> ReadRows(int64_t begin, int64_t end) const = 0;

 private:
  mutable std::atomic<int64_t> max_materialized_rows_{0};
};

}  // namespace conclave

#endif  // CONCLAVE_RELATIONAL_ROW_SOURCE_H_
