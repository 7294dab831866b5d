// CSV import/export for relations.
//
// Format: first line is comma-separated column names, subsequent lines are int64
// values. This mirrors the paper's deployment model where each party's Conclave agent
// reads local input CSVs and writes output CSVs (§4.1).
#ifndef CONCLAVE_RELATIONAL_CSV_H_
#define CONCLAVE_RELATIONAL_CSV_H_

#include <cstdint>
#include <string>
#include <vector>

#include "conclave/common/status.h"
#include "conclave/relational/relation.h"
#include "conclave/relational/row_source.h"
#include "conclave/relational/schema.h"

namespace conclave {

// A party's CSV input as a RowSource: the raw text plus a byte index of its
// data lines, with cells parsed on demand in row ranges. Construction parses
// the header and indexes line boundaries only — no cell materializes until a
// Rows pull. A fused chain pulls batch-sized ranges (the streaming head of
// DESIGN.md §12, where the source relation never exists in memory); every
// other reader pulls the whole range. Parse errors carry the original 1-based
// line numbers, so a range reports exactly the error the whole-range pull
// reports for those rows.
class CsvSource : public RowSource {
 public:
  static StatusOr<CsvSource> FromText(std::string text);
  static StatusOr<CsvSource> FromFile(const std::string& path);

  const Schema& schema() const override { return schema_; }
  int64_t NumRows() const override { return static_cast<int64_t>(lines_.size()); }

 private:
  struct DataLine {
    size_t begin;
    size_t end;
    size_t line_number;
  };

  CsvSource() = default;
  StatusOr<Relation> ReadRows(int64_t begin, int64_t end) const override;

  std::string text_;
  Schema schema_;
  std::vector<DataLine> lines_;
};

// Whole-range pulls of a CsvSource: the file (or text) parsed into one relation.
StatusOr<Relation> ReadCsv(const std::string& path);
StatusOr<Relation> ParseCsv(std::string text);

Status WriteCsv(const Relation& relation, const std::string& path);
std::string ToCsv(const Relation& relation);

}  // namespace conclave

#endif  // CONCLAVE_RELATIONAL_CSV_H_
