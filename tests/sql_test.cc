// Tests for the SQL frontend (§4.1): each clause compiles to the same DAG the LINQ
// builder produces, user errors surface as Status (never aborts), and a SQL-written
// paper query executes end-to-end identically to its LINQ twin.
#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "conclave/compiler/compiler.h"
#include "conclave/data/generators.h"
#include "conclave/sql/sql.h"

namespace conclave {
namespace sql {
namespace {

using api::Party;
using api::Query;
using api::Table;

struct Fixture {
  Query query;
  std::map<std::string, Table> tables;
  Party h0, h1;

  Fixture() {
    h0 = query.AddParty("h0");
    h1 = query.AddParty("h1");
    tables.emplace("diag0",
                   query.NewTable("diag0", {{"pid"}, {"diag"}}, h0));
    tables.emplace("diag1",
                   query.NewTable("diag1", {{"pid"}, {"diag"}}, h1));
    tables.emplace("meds", query.NewTable("meds", {{"pid"}, {"med"}}, h1));
  }
};

TEST(SqlParserTest, SelectStarIsIdentity) {
  Fixture f;
  const auto table = ParseQuery(f.query, f.tables, "SELECT * FROM diag0");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->node()->kind, ir::OpKind::kCreate);
}

TEST(SqlParserTest, ProjectionAndFilterChain) {
  Fixture f;
  const auto table = ParseQuery(
      f.query, f.tables,
      "SELECT pid FROM diag0 WHERE diag = 414 AND pid > 100");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->node()->kind, ir::OpKind::kProject);
  ASSERT_EQ(table->node()->schema.NumColumns(), 1);
  // Two stacked filters below the projection.
  const ir::OpNode* filter2 = table->node()->inputs[0];
  EXPECT_EQ(filter2->kind, ir::OpKind::kFilter);
  EXPECT_EQ(filter2->inputs[0]->kind, ir::OpKind::kFilter);
}

TEST(SqlParserTest, JoinOnQualifiedColumnsEitherOrder) {
  Fixture f;
  const auto forward = ParseQuery(
      f.query, f.tables,
      "SELECT * FROM diag0 JOIN meds ON diag0.pid = meds.pid");
  ASSERT_TRUE(forward.ok()) << forward.status().ToString();
  EXPECT_EQ(forward->node()->kind, ir::OpKind::kJoin);

  const auto reversed = ParseQuery(
      f.query, f.tables,
      "SELECT * FROM diag0 JOIN meds ON meds.pid = diag0.pid");
  ASSERT_TRUE(reversed.ok());
  EXPECT_EQ(reversed->node()->Params<ir::JoinParams>().left_keys[0], "pid");
}

TEST(SqlParserTest, UnionAllBecomesConcat) {
  Fixture f;
  const auto table =
      ParseQuery(f.query, f.tables, "SELECT * FROM diag0 UNION ALL diag1");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->node()->kind, ir::OpKind::kConcat);
  EXPECT_EQ(table->node()->inputs.size(), 2u);
}

TEST(SqlParserTest, GroupByAggregateOrderLimit) {
  Fixture f;
  const auto table = ParseQuery(
      f.query, f.tables,
      "SELECT diag, COUNT(*) AS cnt FROM diag0 UNION ALL diag1 "
      "GROUP BY diag ORDER BY cnt DESC LIMIT 10;");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->node()->kind, ir::OpKind::kLimit);
  const ir::OpNode* sort = table->node()->inputs[0];
  EXPECT_EQ(sort->kind, ir::OpKind::kSortBy);
  EXPECT_FALSE(sort->Params<ir::SortByParams>().ascending);
  const ir::OpNode* agg = sort->inputs[0];
  ASSERT_EQ(agg->kind, ir::OpKind::kAggregate);
  EXPECT_EQ(agg->Params<ir::AggregateParams>().kind, AggKind::kCount);
  EXPECT_EQ(agg->Params<ir::AggregateParams>().output_name, "cnt");
}

TEST(SqlParserTest, AggregateKinds) {
  Fixture f;
  for (const auto& [fn, kind] :
       std::map<std::string, AggKind>{{"SUM", AggKind::kSum},
                                      {"MIN", AggKind::kMin},
                                      {"MAX", AggKind::kMax},
                                      {"AVG", AggKind::kMean}}) {
    const auto table = ParseQuery(
        f.query, f.tables,
        "SELECT pid, " + fn + "(diag) AS x FROM diag0 GROUP BY pid");
    ASSERT_TRUE(table.ok()) << fn << ": " << table.status().ToString();
    EXPECT_EQ(table->node()->Params<ir::AggregateParams>().kind, kind) << fn;
  }
}

TEST(SqlParserTest, SelectDistinct) {
  Fixture f;
  const auto table =
      ParseQuery(f.query, f.tables, "SELECT DISTINCT pid FROM diag0");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->node()->kind, ir::OpKind::kDistinct);
}

TEST(SqlParserTest, UserErrorsAreStatusesNotAborts) {
  Fixture f;
  const struct {
    const char* statement;
    StatusCode code;
  } cases[] = {
      {"SELEKT * FROM diag0", StatusCode::kInvalidArgument},
      {"SELECT * FROM nope", StatusCode::kNotFound},
      {"SELECT missing FROM diag0", StatusCode::kNotFound},
      {"SELECT * FROM diag0 WHERE nope = 1", StatusCode::kNotFound},
      {"SELECT * FROM diag0 ORDER BY nope", StatusCode::kNotFound},
      {"SELECT * FROM diag0 JOIN meds ON diag0.pid = diag1.pid",
       StatusCode::kInvalidArgument},
      {"SELECT pid FROM diag0 GROUP BY pid", StatusCode::kInvalidArgument},
      {"SELECT diag, COUNT(*) AS c FROM diag0 GROUP BY pid",
       StatusCode::kInvalidArgument},
      {"SELECT SUM(*) AS s FROM diag0", StatusCode::kInvalidArgument},
      {"SELECT * FROM diag0 LIMIT x", StatusCode::kInvalidArgument},
      {"SELECT * FROM diag0 extra", StatusCode::kInvalidArgument},
      {"SELECT * FROM diag0 WHERE pid @ 3", StatusCode::kInvalidArgument},
      {"SELECT * FROM diag0 LIMIT 99999999999999999999", StatusCode::kInvalidArgument},
      {"SELECT * FROM diag0 WHERE pid > -99999999999999999999",
       StatusCode::kInvalidArgument},
      {"SELECT * FROM diag0 WHERE pid > 9223372036854775808",
       StatusCode::kInvalidArgument},
      {"SELECT * FROM diag0 LIMIT -1", StatusCode::kInvalidArgument},
      {"SELECT * FROM diag0 UNION ALL meds", StatusCode::kInvalidArgument},
  };
  for (const auto& test : cases) {
    const auto result = ParseQuery(f.query, f.tables, test.statement);
    EXPECT_EQ(result.status().code(), test.code) << test.statement;
  }
}

// Literals at the int64 bounds still parse.
TEST(SqlParserTest, Int64BoundLiteralsParse) {
  Fixture f;
  for (const char* statement :
       {"SELECT * FROM diag0 WHERE pid > -9223372036854775808",
        "SELECT * FROM diag0 WHERE pid < 9223372036854775807",
        "SELECT * FROM diag0 LIMIT 9223372036854775807"}) {
    const auto result = ParseQuery(f.query, f.tables, statement);
    EXPECT_TRUE(result.ok()) << statement << ": " << result.status().ToString();
  }
}

// Seeded token-level mutations of valid statements: each inserts, replaces or
// deletes tokens drawn from the keywords, the table and column names, symbols
// and literals at and past the int64 bounds. Every mutated statement returns a
// Status (never an abort), a rejected one carries one of the parser's user-error
// codes, and one that parses compiles.
TEST(SqlParserTest, MutatedStatementsReturnStatuses) {
  const std::vector<std::string> seeds = {
      "SELECT * FROM diag0",
      "SELECT pid FROM diag0 WHERE diag = 414 AND pid > 100",
      "SELECT * FROM diag0 JOIN meds ON diag0 . pid = meds . pid",
      "SELECT diag , COUNT ( * ) AS cnt FROM diag0 UNION ALL diag1 "
      "GROUP BY diag ORDER BY cnt DESC LIMIT 10 ;",
      "SELECT pid , AVG ( diag ) AS x FROM diag0 GROUP BY pid",
      "SELECT DISTINCT pid FROM diag0 WHERE pid != diag ORDER BY pid ASC",
  };
  const std::vector<std::string> vocabulary = {
      "SELECT", "DISTINCT", "FROM", "WHERE", "AND", "GROUP", "BY", "ORDER", "ASC",
      "DESC", "LIMIT", "JOIN", "ON", "UNION", "ALL", "AS", "SUM", "COUNT", "MIN",
      "MAX", "AVG", "diag0", "diag1", "meds", "nope", "pid", "diag", "med", "cnt",
      "x", "*", ",", "(", ")", ".", "=", "!=", "<>", "<", "<=", ">", ">=", ";", "0",
      "1", "-1", "9223372036854775807", "-9223372036854775808",
      "9223372036854775808", "-9223372036854775809"};
  std::mt19937_64 rng(/*seed=*/20261021);
  const auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  int parsed = 0;
  for (int i = 0; i < 20000; ++i) {
    std::vector<std::string> tokens;
    std::istringstream words(seeds[pick(seeds.size())]);
    for (std::string word; words >> word;) {
      tokens.push_back(word);
    }
    for (size_t edits = 1 + pick(3); edits > 0; --edits) {
      const std::string& token = vocabulary[pick(vocabulary.size())];
      const size_t kind = tokens.empty() ? 0 : pick(3);
      if (kind == 0) {
        tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(pick(tokens.size() + 1)),
                      token);
      } else if (kind == 1) {
        tokens[pick(tokens.size())] = token;
      } else {
        tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(pick(tokens.size())));
      }
    }
    std::string statement;
    for (const std::string& token : tokens) {
      statement += token + " ";
    }
    Fixture f;
    const auto table = ParseQuery(f.query, f.tables, statement);
    if (!table.ok()) {
      const StatusCode code = table.status().code();
      EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                  code == StatusCode::kNotFound || code == StatusCode::kUnimplemented)
          << statement << ": " << table.status().ToString();
      continue;
    }
    ++parsed;
    table->WriteToCsv("out", {f.h0});
    const auto compiled = f.query.Compile(compiler::CompilerOptions{});
    EXPECT_TRUE(compiled.ok()) << statement << ": " << compiled.status().ToString();
  }
  // Some mutants are valid statements, so the compile check runs.
  EXPECT_GT(parsed, 0);
}

// The comorbidity query written in SQL runs end-to-end and matches its LINQ twin.
TEST(SqlEndToEndTest, SqlComorbidityMatchesLinq) {
  data::HealthConfig config;
  config.rows_per_party = 300;
  config.seed = 44;
  std::map<std::string, Relation> inputs;
  inputs["diag0"] = data::ComorbidityDiagnoses(config, 0);
  inputs["diag1"] = data::ComorbidityDiagnoses(config, 1);

  // SQL version.
  Query sql_query;
  Party h0 = sql_query.AddParty("h0");
  Party h1 = sql_query.AddParty("h1");
  std::map<std::string, Table> tables;
  tables.emplace("diag0", sql_query.NewTable("diag0", {{"pid"}, {"diag"}}, h0));
  tables.emplace("diag1", sql_query.NewTable("diag1", {{"pid"}, {"diag"}}, h1));
  const auto parsed = ParseQuery(
      sql_query, tables,
      "SELECT diag, COUNT(*) AS cnt FROM diag0 UNION ALL diag1 "
      "GROUP BY diag ORDER BY cnt DESC LIMIT 10");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  parsed->WriteToCsv("top", {h0});
  const auto sql_result = sql_query.Run(inputs);
  ASSERT_TRUE(sql_result.ok()) << sql_result.status().ToString();

  // LINQ version.
  Query linq_query;
  Party l0 = linq_query.AddParty("h0");
  Party l1 = linq_query.AddParty("h1");
  Table d0 = linq_query.NewTable("diag0", {{"pid"}, {"diag"}}, l0);
  Table d1 = linq_query.NewTable("diag1", {{"pid"}, {"diag"}}, l1);
  linq_query.Concat({d0, d1})
      .Count("cnt", {"diag"})
      .SortBy({"cnt"}, /*ascending=*/false)
      .Limit(10)
      .WriteToCsv("top", {l0});
  const auto linq_result = linq_query.Run(inputs);
  ASSERT_TRUE(linq_result.ok());

  EXPECT_TRUE(UnorderedEqual(sql_result->outputs.at("top"),
                             linq_result->outputs.at("top")));
  EXPECT_DOUBLE_EQ(sql_result->virtual_seconds, linq_result->virtual_seconds);
}

}  // namespace
}  // namespace sql
}  // namespace conclave
