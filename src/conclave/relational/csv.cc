#include "conclave/relational/csv.h"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "conclave/common/strings.h"

namespace conclave {
namespace {

std::vector<std::string> SplitLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  for (char c : line) {
    if (c == ',') {
      fields.push_back(field);
      field.clear();
    } else if (c != '\r') {
      field.push_back(c);
    }
  }
  fields.push_back(field);
  return fields;
}

StatusOr<int64_t> ParseInt(const std::string& text, size_t line_number) {
  if (text.empty()) {
    return InvalidArgumentError(StrFormat("empty cell on line %zu", line_number));
  }
  // strtoll silently skips leading whitespace and stops at a sign with no digits;
  // require the cell to be exactly [+-]?[0-9]+ so " 5", "+", and "-" fail loudly.
  const bool signed_cell = text[0] == '+' || text[0] == '-';
  const size_t first_digit = signed_cell ? 1 : 0;
  if (text.size() == first_digit || text[first_digit] < '0' ||
      text[first_digit] > '9') {
    return InvalidArgumentError(
        StrFormat("cell '%s' on line %zu is not an integer", text.c_str(),
                  line_number));
  }
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno == ERANGE) {
    return InvalidArgumentError(
        StrFormat("cell '%s' on line %zu overflows int64", text.c_str(),
                  line_number));
  }
  // end must reach the string's full size: '*end == 0' alone would accept an
  // embedded NUL ("5\0junk") and silently drop the tail.
  if (errno != 0 || end != text.c_str() + text.size()) {
    return InvalidArgumentError(
        StrFormat("cell '%s' on line %zu is not an integer", text.c_str(),
                  line_number));
  }
  return static_cast<int64_t>(value);
}

}  // namespace

StatusOr<Relation> ParseCsv(const std::string& text) {
  std::istringstream stream(text);
  std::string line;
  if (!std::getline(stream, line)) {
    return InvalidArgumentError("CSV input is empty (missing header)");
  }
  std::vector<ColumnDef> defs;
  for (const auto& name : SplitLine(line)) {
    if (name.empty()) {
      return InvalidArgumentError("CSV header contains an empty column name");
    }
    defs.emplace_back(name);
  }
  Relation relation{Schema(std::move(defs))};
  const int cols = relation.NumColumns();

  // First pass: count data lines so the column buffers size once. getline strips
  // the '\n' but not '\r'; "\r" alone is a 1-field line (matching SplitLine), so
  // only truly empty lines are skipped — the same rule the parse loop applies.
  const size_t header_end = text.find('\n');
  int64_t data_rows = 0;
  if (header_end != std::string::npos) {
    bool line_empty = true;
    for (size_t i = header_end + 1; i < text.size(); ++i) {
      if (text[i] == '\n') {
        data_rows += line_empty ? 0 : 1;
        line_empty = true;
      } else {
        line_empty = false;
      }
    }
    data_rows += line_empty ? 0 : 1;  // Final line without a trailing newline.
  }
  relation.Resize(data_rows);
  std::vector<int64_t*> column_data(static_cast<size_t>(cols));
  for (int c = 0; c < cols; ++c) {
    column_data[static_cast<size_t>(c)] = relation.ColumnData(c);
  }

  // Second pass: parse straight into the column buffers (no per-row AppendRow).
  size_t line_number = 1;
  int64_t row = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    if (line.empty()) {
      continue;
    }
    const auto fields = SplitLine(line);
    if (static_cast<int>(fields.size()) != cols) {
      return InvalidArgumentError(
          StrFormat("line %zu has %zu fields, expected %d", line_number,
                    fields.size(), cols));
    }
    CONCLAVE_CHECK_LT(row, data_rows);
    for (int c = 0; c < cols; ++c) {
      CONCLAVE_ASSIGN_OR_RETURN(
          int64_t value, ParseInt(fields[static_cast<size_t>(c)], line_number));
      column_data[static_cast<size_t>(c)][row] = value;
    }
    ++row;
  }
  CONCLAVE_CHECK_EQ(row, data_rows);
  return relation;
}

std::string ToCsv(const Relation& relation) {
  std::string out;
  std::vector<std::string> names;
  names.reserve(static_cast<size_t>(relation.NumColumns()));
  for (const auto& column : relation.schema().columns()) {
    names.push_back(column.name);
  }
  out += StrJoin(names, ",") + "\n";
  for (int64_t r = 0; r < relation.NumRows(); ++r) {
    std::vector<std::string> cells;
    cells.reserve(static_cast<size_t>(relation.NumColumns()));
    for (int c = 0; c < relation.NumColumns(); ++c) {
      cells.push_back(std::to_string(relation.At(r, c)));
    }
    out += StrJoin(cells, ",") + "\n";
  }
  return out;
}

StatusOr<CsvSource> CsvSource::FromText(std::string text) {
  if (text.empty()) {
    return InvalidArgumentError("CSV input is empty (missing header)");
  }
  const size_t header_end = text.find('\n');
  const std::string header =
      header_end == std::string::npos ? text : text.substr(0, header_end);
  std::vector<ColumnDef> defs;
  for (const auto& name : SplitLine(header)) {
    if (name.empty()) {
      return InvalidArgumentError("CSV header contains an empty column name");
    }
    defs.emplace_back(name);
  }
  CsvSource source;
  source.schema_ = Schema(std::move(defs));
  source.text_ = std::move(text);
  // Index the non-empty data lines (byte range + original line number, so error
  // messages match the eager parsers exactly).
  if (header_end != std::string::npos) {
    size_t line_start = header_end + 1;
    size_t line_number = 2;
    for (size_t i = line_start; i <= source.text_.size(); ++i) {
      if (i == source.text_.size() || source.text_[i] == '\n') {
        if (i > line_start) {
          source.lines_.push_back({line_start, i, line_number});
        }
        line_start = i + 1;
        ++line_number;
      }
    }
  }
  return source;
}

StatusOr<CsvSource> CsvSource::FromFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return NotFoundError(StrFormat("cannot open '%s' for reading", path.c_str()));
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return FromText(buffer.str());
}

CsvSource::CsvSource(CsvSource&& other) noexcept
    : text_(std::move(other.text_)),
      schema_(std::move(other.schema_)),
      lines_(std::move(other.lines_)),
      max_materialized_rows_(
          other.max_materialized_rows_.load(std::memory_order_relaxed)) {}

CsvSource& CsvSource::operator=(CsvSource&& other) noexcept {
  text_ = std::move(other.text_);
  schema_ = std::move(other.schema_);
  lines_ = std::move(other.lines_);
  max_materialized_rows_.store(
      other.max_materialized_rows_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  return *this;
}

StatusOr<Relation> CsvSource::ParseRows(int64_t begin, int64_t end) const {
  CONCLAVE_CHECK(begin >= 0 && begin <= end && end <= NumRows());
  const int cols = schema_.NumColumns();
  Relation relation{schema_};
  relation.Resize(end - begin);
  for (int64_t r = begin; r < end; ++r) {
    const DataLine& line = lines_[static_cast<size_t>(r)];
    const auto fields =
        SplitLine(text_.substr(line.begin, line.end - line.begin));
    if (static_cast<int>(fields.size()) != cols) {
      return InvalidArgumentError(
          StrFormat("line %zu has %zu fields, expected %d", line.line_number,
                    fields.size(), cols));
    }
    for (int c = 0; c < cols; ++c) {
      CONCLAVE_ASSIGN_OR_RETURN(
          int64_t value, ParseInt(fields[static_cast<size_t>(c)], line.line_number));
      relation.ColumnData(c)[r - begin] = value;
    }
  }
  // Relaxed CAS-max: concurrent parses race only on this witness value.
  int64_t seen = max_materialized_rows_.load(std::memory_order_relaxed);
  while (end - begin > seen &&
         !max_materialized_rows_.compare_exchange_weak(
             seen, end - begin, std::memory_order_relaxed)) {
  }
  return relation;
}

StatusOr<Relation> ReadCsv(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return NotFoundError(StrFormat("cannot open '%s' for reading", path.c_str()));
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ParseCsv(buffer.str());
}

Status WriteCsv(const Relation& relation, const std::string& path) {
  std::ofstream file(path);
  if (!file) {
    return InvalidArgumentError(StrFormat("cannot open '%s' for writing",
                                          path.c_str()));
  }
  file << ToCsv(relation);
  if (!file) {
    return InternalError(StrFormat("failed writing '%s'", path.c_str()));
  }
  return Status::Ok();
}

}  // namespace conclave
