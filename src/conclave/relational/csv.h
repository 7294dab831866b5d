// CSV import/export for relations.
//
// Format: first line is comma-separated column names, subsequent lines are int64
// values. This mirrors the paper's deployment model where each party's Conclave agent
// reads local input CSVs and writes output CSVs (§4.1).
#ifndef CONCLAVE_RELATIONAL_CSV_H_
#define CONCLAVE_RELATIONAL_CSV_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "conclave/common/status.h"
#include "conclave/relational/relation.h"
#include "conclave/relational/schema.h"

namespace conclave {

StatusOr<Relation> ReadCsv(const std::string& path);
Status WriteCsv(const Relation& relation, const std::string& path);

// String-based variants (used by tests and in-memory pipelines).
StatusOr<Relation> ParseCsv(const std::string& text);
std::string ToCsv(const Relation& relation);

// A lazily-parsed CSV source: the raw text plus a byte index of its data lines,
// with cells parsed on demand in row ranges. Construction parses the header and
// indexes line boundaries only — no cell materializes until ParseRows. This is
// the streaming pipeline head of DESIGN.md §12: a fused chain pulls
// batch-at-a-time row ranges and the source relation never exists in memory.
// ParseRows is const and thread-safe. Row-range parses are bit-identical to the
// same rows of ParseCsv(text), including which malformed-cell error is reported
// (errors carry the original 1-based line numbers).
class CsvSource {
 public:
  static StatusOr<CsvSource> FromText(std::string text);
  static StatusOr<CsvSource> FromFile(const std::string& path);

  CsvSource(CsvSource&& other) noexcept;
  CsvSource& operator=(CsvSource&& other) noexcept;

  const Schema& schema() const { return schema_; }
  int64_t NumRows() const { return static_cast<int64_t>(lines_.size()); }

  // Parses rows [begin, end) of the data section (0-based, clamped order
  // enforced by CHECK) into a relation with the header schema.
  StatusOr<Relation> ParseRows(int64_t begin, int64_t end) const;

  // High-water mark of rows materialized by a single ParseRows call — the
  // residency witness streaming tests assert stays at the batch size, never
  // anywhere near NumRows().
  int64_t MaxMaterializedRows() const {
    return max_materialized_rows_.load(std::memory_order_relaxed);
  }

 private:
  struct DataLine {
    size_t begin;
    size_t end;
    size_t line_number;
  };

  CsvSource() = default;

  std::string text_;
  Schema schema_;
  std::vector<DataLine> lines_;
  mutable std::atomic<int64_t> max_materialized_rows_{0};
};

}  // namespace conclave

#endif  // CONCLAVE_RELATIONAL_CSV_H_
