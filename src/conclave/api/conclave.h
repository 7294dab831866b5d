// Conclave's public, LINQ-style query frontend (§4.2, Listings 1–2).
//
// Analysts write one relational query as if all parties' data sat in a single trusted
// database; the only distribution-aware annotations are each input's owning party
// (`at`), optional per-column trust sets (§4.3), and each output's recipients (`to`).
//
//   conclave::api::Query query;
//   auto regulator = query.AddParty("mpc.ftc.gov");
//   auto bank = query.AddParty("mpc.a.com");
//   auto demo = query.NewTable("demographics",
//                              {{"ssn"}, {"zip"}}, regulator);
//   auto scores = query.NewTable("scores",
//                                {{"ssn", {regulator}}, {"score"}}, bank);
//   auto joined = demo.Join(scores, {"ssn"}, {"ssn"});
//   joined.Aggregate("total", AggKind::kSum, {"zip"}, "score")
//         .WriteToCsv("totals", {regulator});
//   auto result = query.Run(inputs);
//
// Table-builder methods CHECK-fail with an actionable message on malformed queries
// (unknown column, schema mismatch) — query construction bugs are developer errors.
// Compilation and execution return Status for runtime conditions (simulated OOM,
// missing inputs).
#ifndef CONCLAVE_API_CONCLAVE_H_
#define CONCLAVE_API_CONCLAVE_H_

#include <map>
#include <string>
#include <vector>

#include "conclave/backends/dispatcher.h"
#include "conclave/compiler/compiler.h"
#include "conclave/ir/dag.h"

namespace conclave {
namespace api {

struct Party {
  PartyId id = kNoParty;
  std::string host;
};

// Column declaration sugar: name plus the parties trusted to see it in the clear.
struct ColumnSpec {
  std::string name;
  std::vector<Party> trust;

  ColumnSpec(const char* column_name) : name(column_name) {}
  ColumnSpec(std::string column_name) : name(std::move(column_name)) {}
  ColumnSpec(std::string column_name, std::vector<Party> trusted)
      : name(std::move(column_name)), trust(std::move(trusted)) {}
};

class Query;

class Table {
 public:
  Table() = default;

  Table Project(std::vector<std::string> columns) const;
  Table Filter(const std::string& column, CompareOp op, int64_t literal) const;
  Table FilterByColumn(const std::string& column, CompareOp op,
                       const std::string& other_column) const;
  Table Join(const Table& right, std::vector<std::string> left_keys,
             std::vector<std::string> right_keys) const;
  // aggregate("total", kSum, group={"zip"}, over="score").
  Table Aggregate(const std::string& output_name, AggKind kind,
                  std::vector<std::string> group_columns,
                  const std::string& over_column = "") const;
  Table Count(const std::string& output_name,
              std::vector<std::string> group_columns) const;
  Table Multiply(const std::string& output_name, const std::string& lhs,
                 const std::string& rhs_column) const;
  Table Subtract(const std::string& output_name, const std::string& lhs,
                 const std::string& rhs_column) const;
  Table MultiplyConst(const std::string& output_name, const std::string& lhs,
                      int64_t literal) const;
  // divide("avg", "total", by="count"): fixed-point numerator scale optional.
  Table Divide(const std::string& output_name, const std::string& lhs,
               const std::string& by_column, int64_t scale = 1) const;
  Table AddConst(const std::string& output_name, const std::string& lhs,
                 int64_t literal) const;
  // Window function: output_name = fn(value) OVER (PARTITION BY partition ORDER BY
  // order). `value_column` is ignored for kRowNumber. Enables SQL-window queries like
  // SMCQL's recurrent c.diff (lag over diagnosis timestamps).
  Table Window(const std::string& output_name, WindowFn fn,
               std::vector<std::string> partition_columns,
               const std::string& order_column,
               const std::string& value_column = "") const;
  Table SortBy(std::vector<std::string> columns, bool ascending = true) const;
  Table Distinct(std::vector<std::string> columns) const;
  Table Limit(int64_t count) const;
  // Terminal: reveals the result to `recipients` under `name`.
  void WriteToCsv(const std::string& name, const std::vector<Party>& recipients) const;
  // Terminal with differential privacy: recipients receive the columns listed in
  // `column_sensitivity` perturbed by discrete-Laplace noise calibrated to
  // (epsilon, sensitivity); other columns stay exact. Use sensitivity 1 for counts
  // and a per-individual contribution bound for sums.
  void WriteToCsvNoisy(const std::string& name, const std::vector<Party>& recipients,
                       double epsilon,
                       std::map<std::string, double> column_sensitivity) const;

  ir::OpNode* node() const { return node_; }

 private:
  friend class Query;
  Table(Query* query, ir::OpNode* node) : query_(query), node_(node) {}

  Query* query_ = nullptr;
  ir::OpNode* node_ = nullptr;
};

class Query {
 public:
  Query() = default;

  Party AddParty(std::string host);

  // Declares an input relation stored at `owner` (Listing 1, lines 4–11).
  Table NewTable(const std::string& name, const std::vector<ColumnSpec>& columns,
                 const Party& owner, int64_t num_rows_hint = 0);
  // Declares an input relation backed by a CSV file at `owner` instead of an
  // entry in Run's `inputs` map. When the table's sole consumer is a fused
  // local chain, ingest streams: the executor indexes the file and the chain
  // parses row ranges batch-at-a-time, never materializing the source relation
  // (DESIGN.md §12). Otherwise the file parses eagerly at dispatch.
  Table NewCsvTable(const std::string& name,
                    const std::vector<ColumnSpec>& columns, const Party& owner,
                    const std::string& csv_path, int64_t num_rows_hint = 0);
  // Marks a column public (trust set = all parties) in a ColumnSpec list.
  ColumnSpec PublicColumn(const std::string& name) const;

  // Duplicate-preserving union (Listing 2, line 12).
  Table Concat(const std::vector<Table>& tables);

  // Compiles the query (rewrites the DAG in place). Callable once per Query.
  StatusOr<compiler::Compilation> Compile(const compiler::CompilerOptions& options);

  // Explain API: compiles the query (single-use, like Compile) and returns the
  // plan-cost report — per MPC-resident node, the estimated cardinalities and the
  // price under each MPC backend, computed with the same formulas the engines charge
  // at run time. `report.cheapest` is the backend the chooser would pick.
  StatusOr<compiler::PlanCostReport> ExplainPlan(
      compiler::CompilerOptions options = {});

  // Compile + dispatch in one step. `inputs` maps table names to relations,
  // which the run borrows in place instead of copying: they must outlive the
  // call, and the run never writes them.
  // `exec` carries the run options — thread budget, batch size, fault plan,
  // memory budget — with unset fields taking their CONCLAVE_* environment
  // defaults (compiler/exec_options.h). Results and virtual time are
  // identical for every option combination (DESIGN.md §5, §10, §12); a
  // recoverable fault plan preserves the results bit for bit and adds exactly
  // its priced recovery time to the clock, and a budget adds exactly its
  // priced spill I/O time.
  StatusOr<backends::ExecutionResult> Run(
      const std::map<std::string, Relation>& inputs,
      const compiler::CompilerOptions& options = {}, CostModel cost_model = {},
      uint64_t seed = 42, compiler::ExecOptions exec = {});

  ir::Dag& dag() { return dag_; }
  int num_parties() const { return static_cast<int>(parties_.size()); }

 private:
  friend class Table;
  ir::Dag dag_;
  std::vector<Party> parties_;
};

}  // namespace api
}  // namespace conclave

#endif  // CONCLAVE_API_CONCLAVE_H_
