#include "conclave/sql/sql.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <optional>
#include <system_error>
#include <vector>

#include "conclave/common/strings.h"

namespace conclave {
namespace sql {
namespace {

// --- Lexer ------------------------------------------------------------------------------

enum class TokenKind { kIdentifier, kNumber, kSymbol, kEnd };

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;   // Identifier name / symbol spelling.
  int64_t number = 0; // For kNumber.
};

StatusOr<std::vector<Token>> Lex(const std::string& input) {
  std::vector<Token> tokens;
  size_t i = 0;
  while (i < input.size()) {
    const char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < input.size() &&
             (std::isalnum(static_cast<unsigned char>(input[j])) ||
              input[j] == '_')) {
        ++j;
      }
      tokens.push_back({TokenKind::kIdentifier, input.substr(i, j - i), 0});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && i + 1 < input.size() &&
         std::isdigit(static_cast<unsigned char>(input[i + 1])))) {
      size_t j = i + 1;
      while (j < input.size() &&
             std::isdigit(static_cast<unsigned char>(input[j]))) {
        ++j;
      }
      Token token{TokenKind::kNumber, input.substr(i, j - i), 0};
      const char* const end = token.text.data() + token.text.size();
      const auto [stop, error] =
          std::from_chars(token.text.data(), end, token.number);
      if (error != std::errc() || stop != end) {
        return InvalidArgumentError(
            StrFormat("sql: integer literal %s at offset %zu is out of range",
                      token.text.c_str(), i));
      }
      tokens.push_back(token);
      i = j;
      continue;
    }
    // Multi-character comparison operators first.
    static constexpr const char* kTwoChar[] = {"<=", ">=", "!=", "<>"};
    bool matched = false;
    for (const char* symbol : kTwoChar) {
      if (input.compare(i, 2, symbol) == 0) {
        tokens.push_back({TokenKind::kSymbol, symbol, 0});
        i += 2;
        matched = true;
        break;
      }
    }
    if (matched) {
      continue;
    }
    if (std::string("(),.*=<>;").find(c) != std::string::npos) {
      tokens.push_back({TokenKind::kSymbol, std::string(1, c), 0});
      ++i;
      continue;
    }
    return InvalidArgumentError(
        StrFormat("sql: unexpected character '%c' at offset %zu", c, i));
  }
  tokens.push_back({TokenKind::kEnd, "", 0});
  return tokens;
}

std::string Upper(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return text;
}

// --- Parser -----------------------------------------------------------------------------

struct SelectItem {
  bool is_aggregate = false;
  std::string column;      // Plain column, or the aggregated column ('' for COUNT(*)).
  AggKind agg = AggKind::kSum;
  std::string alias;       // Required for aggregates.
};

class Parser {
 public:
  Parser(api::Query& query, const std::map<std::string, api::Table>& tables,
         std::vector<Token> tokens)
      : query_(query), tables_(tables), tokens_(std::move(tokens)) {}

  StatusOr<api::Table> Parse() {
    CONCLAVE_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    const bool distinct = ConsumeKeyword("DISTINCT");
    CONCLAVE_ASSIGN_OR_RETURN(std::vector<SelectItem> items, ParseSelectList());
    CONCLAVE_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    CONCLAVE_ASSIGN_OR_RETURN(api::Table current, ParseSource());

    // WHERE: filters run before grouping.
    if (ConsumeKeyword("WHERE")) {
      do {
        CONCLAVE_ASSIGN_OR_RETURN(current, ParseConjunct(current));
      } while (ConsumeKeyword("AND"));
    }

    // GROUP BY + aggregates, or plain projection.
    std::vector<std::string> group_columns;
    if (ConsumeKeyword("GROUP")) {
      CONCLAVE_RETURN_IF_ERROR(ExpectKeyword("BY"));
      CONCLAVE_ASSIGN_OR_RETURN(group_columns, ParseColumnList());
    }
    CONCLAVE_ASSIGN_OR_RETURN(
        current, ApplySelect(current, items, group_columns, distinct));

    if (ConsumeKeyword("ORDER")) {
      CONCLAVE_RETURN_IF_ERROR(ExpectKeyword("BY"));
      CONCLAVE_ASSIGN_OR_RETURN(const std::string column, ExpectIdentifier());
      CONCLAVE_RETURN_IF_ERROR(CheckColumn(current, column));
      bool ascending = true;
      if (ConsumeKeyword("DESC")) {
        ascending = false;
      } else {
        ConsumeKeyword("ASC");
      }
      current = current.SortBy({column}, ascending);
    }
    if (ConsumeKeyword("LIMIT")) {
      if (Peek().kind != TokenKind::kNumber || Peek().number < 0) {
        return InvalidArgumentError("sql: LIMIT expects a non-negative number");
      }
      current = current.Limit(Next().number);
    }
    ConsumeSymbol(";");
    if (Peek().kind != TokenKind::kEnd) {
      return InvalidArgumentError(
          StrFormat("sql: trailing input near '%s'", Peek().text.c_str()));
    }
    return current;
  }

 private:
  const Token& Peek() const { return tokens_[position_]; }
  Token Next() { return tokens_[position_++]; }

  bool ConsumeKeyword(const char* keyword) {
    if (Peek().kind == TokenKind::kIdentifier && Upper(Peek().text) == keyword) {
      ++position_;
      return true;
    }
    return false;
  }
  bool ConsumeSymbol(const char* symbol) {
    if (Peek().kind == TokenKind::kSymbol && Peek().text == symbol) {
      ++position_;
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const char* keyword) {
    if (!ConsumeKeyword(keyword)) {
      return InvalidArgumentError(StrFormat("sql: expected %s near '%s'", keyword,
                                            Peek().text.c_str()));
    }
    return Status::Ok();
  }
  Status ExpectSymbol(const char* symbol) {
    if (!ConsumeSymbol(symbol)) {
      return InvalidArgumentError(StrFormat("sql: expected '%s' near '%s'", symbol,
                                            Peek().text.c_str()));
    }
    return Status::Ok();
  }
  StatusOr<std::string> ExpectIdentifier() {
    if (Peek().kind != TokenKind::kIdentifier) {
      return InvalidArgumentError(
          StrFormat("sql: expected identifier near '%s'", Peek().text.c_str()));
    }
    return Next().text;
  }

  static std::optional<AggKind> AggFromName(const std::string& name) {
    const std::string upper = Upper(name);
    if (upper == "SUM") return AggKind::kSum;
    if (upper == "COUNT") return AggKind::kCount;
    if (upper == "MIN") return AggKind::kMin;
    if (upper == "MAX") return AggKind::kMax;
    if (upper == "AVG") return AggKind::kMean;
    return std::nullopt;
  }

  StatusOr<std::vector<SelectItem>> ParseSelectList() {
    std::vector<SelectItem> items;
    if (ConsumeSymbol("*")) {
      return items;  // Empty list = SELECT * (keep all columns).
    }
    do {
      CONCLAVE_ASSIGN_OR_RETURN(const std::string name, ExpectIdentifier());
      SelectItem item;
      const auto agg = AggFromName(name);
      if (agg.has_value() && ConsumeSymbol("(")) {
        item.is_aggregate = true;
        item.agg = *agg;
        if (ConsumeSymbol("*")) {
          if (item.agg != AggKind::kCount) {
            return InvalidArgumentError("sql: only COUNT accepts '*'");
          }
        } else {
          CONCLAVE_ASSIGN_OR_RETURN(item.column, ExpectIdentifier());
        }
        CONCLAVE_RETURN_IF_ERROR(ExpectSymbol(")"));
        CONCLAVE_RETURN_IF_ERROR(ExpectKeyword("AS"));
        CONCLAVE_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier());
      } else {
        item.column = name;
      }
      items.push_back(std::move(item));
    } while (ConsumeSymbol(","));
    return items;
  }

  StatusOr<std::vector<std::string>> ParseColumnList() {
    std::vector<std::string> columns;
    do {
      CONCLAVE_ASSIGN_OR_RETURN(const std::string name, ExpectIdentifier());
      columns.push_back(name);
    } while (ConsumeSymbol(","));
    return columns;
  }

  // Table-builder methods treat bad column references as developer errors and abort;
  // in SQL text they are user errors, so validate against the schema first.
  Status CheckColumn(const api::Table& table, const std::string& column) {
    if (!table.node()->schema.HasColumn(column)) {
      return NotFoundError(StrFormat("sql: no column '%s' in %s", column.c_str(),
                                     table.node()->schema.ToString().c_str()));
    }
    return Status::Ok();
  }

  StatusOr<api::Table> LookupTable(const std::string& name) {
    const auto it = tables_.find(name);
    if (it == tables_.end()) {
      return NotFoundError(StrFormat("sql: unknown table '%s'", name.c_str()));
    }
    return it->second;
  }

  // table | table JOIN table ON t.a = t.b | table UNION ALL table ...
  StatusOr<api::Table> ParseSource() {
    CONCLAVE_ASSIGN_OR_RETURN(const std::string first_name, ExpectIdentifier());
    CONCLAVE_ASSIGN_OR_RETURN(api::Table first, LookupTable(first_name));

    if (ConsumeKeyword("JOIN")) {
      CONCLAVE_ASSIGN_OR_RETURN(const std::string right_name, ExpectIdentifier());
      CONCLAVE_ASSIGN_OR_RETURN(api::Table right, LookupTable(right_name));
      CONCLAVE_RETURN_IF_ERROR(ExpectKeyword("ON"));
      CONCLAVE_ASSIGN_OR_RETURN(const auto left_ref, ParseQualifiedColumn());
      CONCLAVE_RETURN_IF_ERROR(ExpectSymbol("="));
      CONCLAVE_ASSIGN_OR_RETURN(const auto right_ref, ParseQualifiedColumn());
      // Orient the key pair by table name.
      std::string left_key;
      std::string right_key;
      if (left_ref.first == first_name && right_ref.first == right_name) {
        left_key = left_ref.second;
        right_key = right_ref.second;
      } else if (left_ref.first == right_name && right_ref.first == first_name) {
        left_key = right_ref.second;
        right_key = left_ref.second;
      } else {
        return InvalidArgumentError(
            "sql: ON clause must reference both joined tables");
      }
      CONCLAVE_RETURN_IF_ERROR(CheckColumn(first, left_key));
      CONCLAVE_RETURN_IF_ERROR(CheckColumn(right, right_key));
      return first.Join(right, {left_key}, {right_key});
    }

    if (Peek().kind == TokenKind::kIdentifier && Upper(Peek().text) == "UNION") {
      std::vector<api::Table> branches{first};
      while (ConsumeKeyword("UNION")) {
        CONCLAVE_RETURN_IF_ERROR(ExpectKeyword("ALL"));
        CONCLAVE_ASSIGN_OR_RETURN(const std::string name, ExpectIdentifier());
        CONCLAVE_ASSIGN_OR_RETURN(api::Table branch, LookupTable(name));
        const Schema& want = first.node()->schema;
        const Schema& got = branch.node()->schema;
        if (!want.NamesMatch(got)) {
          return InvalidArgumentError(
              StrFormat("sql: UNION ALL of mismatched tables: %s vs %s",
                        want.ToString().c_str(), got.ToString().c_str()));
        }
        branches.push_back(branch);
      }
      return query_.Concat(branches);
    }
    return first;
  }

  StatusOr<std::pair<std::string, std::string>> ParseQualifiedColumn() {
    CONCLAVE_ASSIGN_OR_RETURN(const std::string table, ExpectIdentifier());
    CONCLAVE_RETURN_IF_ERROR(ExpectSymbol("."));
    CONCLAVE_ASSIGN_OR_RETURN(const std::string column, ExpectIdentifier());
    return std::make_pair(table, column);
  }

  StatusOr<api::Table> ParseConjunct(api::Table current) {
    CONCLAVE_ASSIGN_OR_RETURN(const std::string column, ExpectIdentifier());
    if (Peek().kind != TokenKind::kSymbol) {
      return InvalidArgumentError("sql: expected comparison operator");
    }
    const Token symbol_token = Next();
    const std::string& symbol = symbol_token.text;
    CompareOp op;
    if (symbol == "=") {
      op = CompareOp::kEq;
    } else if (symbol == "!=" || symbol == "<>") {
      op = CompareOp::kNe;
    } else if (symbol == "<") {
      op = CompareOp::kLt;
    } else if (symbol == "<=") {
      op = CompareOp::kLe;
    } else if (symbol == ">") {
      op = CompareOp::kGt;
    } else if (symbol == ">=") {
      op = CompareOp::kGe;
    } else {
      return InvalidArgumentError(
          StrFormat("sql: unknown comparison '%s'", symbol.c_str()));
    }
    CONCLAVE_RETURN_IF_ERROR(CheckColumn(current, column));
    if (Peek().kind == TokenKind::kNumber) {
      return current.Filter(column, op, Next().number);
    }
    CONCLAVE_ASSIGN_OR_RETURN(const std::string rhs, ExpectIdentifier());
    CONCLAVE_RETURN_IF_ERROR(CheckColumn(current, rhs));
    return current.FilterByColumn(column, op, rhs);
  }

  StatusOr<api::Table> ApplySelect(api::Table current,
                                   const std::vector<SelectItem>& items,
                                   const std::vector<std::string>& group_columns,
                                   bool distinct) {
    std::vector<const SelectItem*> aggregates;
    std::vector<std::string> plain;
    for (const SelectItem& item : items) {
      (item.is_aggregate ? (void)aggregates.push_back(&item)
                         : (void)plain.push_back(item.column));
    }
    if (aggregates.size() > 1) {
      return UnimplementedError("sql: at most one aggregate per SELECT");
    }
    for (const auto& column : plain) {
      CONCLAVE_RETURN_IF_ERROR(CheckColumn(current, column));
    }
    for (const auto& column : group_columns) {
      CONCLAVE_RETURN_IF_ERROR(CheckColumn(current, column));
    }
    if (!aggregates.empty()) {
      const SelectItem& agg = *aggregates[0];
      if (agg.agg != AggKind::kCount) {
        CONCLAVE_RETURN_IF_ERROR(CheckColumn(current, agg.column));
      }
      // Plain columns must match GROUP BY (standard SQL restriction).
      for (const auto& column : plain) {
        if (std::find(group_columns.begin(), group_columns.end(), column) ==
            group_columns.end()) {
          return InvalidArgumentError(StrFormat(
              "sql: column '%s' must appear in GROUP BY", column.c_str()));
        }
      }
      return current.Aggregate(agg.alias, agg.agg, group_columns, agg.column);
    }
    if (!group_columns.empty()) {
      return InvalidArgumentError("sql: GROUP BY without an aggregate");
    }
    if (distinct) {
      return plain.empty() ? current : current.Distinct(plain);
    }
    return plain.empty() ? current : current.Project(plain);
  }

  api::Query& query_;
  const std::map<std::string, api::Table>& tables_;
  std::vector<Token> tokens_;
  size_t position_ = 0;
};

}  // namespace

StatusOr<api::Table> ParseQuery(api::Query& query,
                                const std::map<std::string, api::Table>& tables,
                                const std::string& statement) {
  CONCLAVE_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(statement));
  return Parser(query, tables, std::move(tokens)).Parse();
}

}  // namespace sql
}  // namespace conclave
