#include "conclave/relational/csv.h"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "conclave/common/strings.h"

namespace conclave {
namespace {

// Splits one line at its commas. Only the line's final '\r', a CRLF ending's,
// is dropped: any other CR stays in its cell, which then fails ParseInt.
std::vector<std::string> SplitLine(std::string_view line) {
  if (!line.empty() && line.back() == '\r') {
    line.remove_suffix(1);
  }
  std::vector<std::string> fields;
  std::string field;
  for (char c : line) {
    if (c == ',') {
      fields.push_back(field);
      field.clear();
    } else {
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
  const std::string_view header =
      std::string_view(text).substr(0, header_end);
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
  // Index the non-empty data lines (byte range + original line number, so a
  // range's errors name the same lines as the whole-range pull's). "\r" alone
  // is a one-field line, so only truly empty lines are skipped.
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

StatusOr<Relation> CsvSource::ReadRows(int64_t begin, int64_t end) const {
  const int cols = schema_.NumColumns();
  Relation relation{schema_};
  relation.Resize(end - begin);
  for (int64_t r = begin; r < end; ++r) {
    const DataLine& line = lines_[static_cast<size_t>(r)];
    const auto fields = SplitLine(
        std::string_view(text_).substr(line.begin, line.end - line.begin));
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
  return relation;
}

StatusOr<Relation> ReadCsv(const std::string& path) {
  CONCLAVE_ASSIGN_OR_RETURN(const CsvSource source, CsvSource::FromFile(path));
  return source.Rows(0, source.NumRows());
}

StatusOr<Relation> ParseCsv(std::string text) {
  CONCLAVE_ASSIGN_OR_RETURN(const CsvSource source,
                            CsvSource::FromText(std::move(text)));
  return source.Rows(0, source.NumRows());
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
