#include "conclave/api/conclave.h"

namespace conclave {
namespace api {
namespace {

// Table builders treat malformed queries as developer errors: fail fast and loud.
template <typename T>
T Unwrap(StatusOr<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "conclave query error in %s: %s\n", what,
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

}  // namespace

Party Query::AddParty(std::string host) {
  Party party;
  party.id = static_cast<PartyId>(parties_.size());
  party.host = std::move(host);
  parties_.push_back(party);
  dag_.DeclareParties(static_cast<int>(parties_.size()));
  return party;
}

Table Query::NewTable(const std::string& name, const std::vector<ColumnSpec>& columns,
                      const Party& owner, int64_t num_rows_hint) {
  std::vector<ColumnDef> defs;
  defs.reserve(columns.size());
  for (const auto& spec : columns) {
    PartySet trust;
    for (const auto& party : spec.trust) {
      trust.Insert(party.id);
    }
    defs.emplace_back(spec.name, trust);
  }
  ir::OpNode* node = Unwrap(
      dag_.AddCreate(name, Schema(std::move(defs)), owner.id, num_rows_hint),
      "NewTable");
  return Table(this, node);
}

Table Query::NewCsvTable(const std::string& name,
                         const std::vector<ColumnSpec>& columns,
                         const Party& owner, const std::string& csv_path,
                         int64_t num_rows_hint) {
  std::vector<ColumnDef> defs;
  defs.reserve(columns.size());
  for (const auto& spec : columns) {
    PartySet trust;
    for (const auto& party : spec.trust) {
      trust.Insert(party.id);
    }
    defs.emplace_back(spec.name, trust);
  }
  ir::OpNode* node =
      Unwrap(dag_.AddCreate(name, Schema(std::move(defs)), owner.id,
                            num_rows_hint, csv_path),
             "NewCsvTable");
  return Table(this, node);
}

ColumnSpec Query::PublicColumn(const std::string& name) const {
  ColumnSpec spec(name);
  spec.trust = parties_;
  return spec;
}

Table Query::Concat(const std::vector<Table>& tables) {
  CONCLAVE_CHECK(!tables.empty());
  std::vector<ir::OpNode*> nodes;
  nodes.reserve(tables.size());
  for (const Table& table : tables) {
    CONCLAVE_CHECK(table.query_ == this);
    nodes.push_back(table.node_);
  }
  return Table(this, Unwrap(dag_.AddConcat(std::move(nodes)), "Concat"));
}

Table Table::Project(std::vector<std::string> columns) const {
  return Table(query_,
               Unwrap(query_->dag_.AddProject(node_, std::move(columns)), "Project"));
}

Table Table::Filter(const std::string& column, CompareOp op, int64_t literal) const {
  ir::FilterParams params;
  params.column = column;
  params.op = op;
  params.rhs_is_column = false;
  params.literal = literal;
  return Table(query_, Unwrap(query_->dag_.AddFilter(node_, std::move(params)),
                              "Filter"));
}

Table Table::FilterByColumn(const std::string& column, CompareOp op,
                            const std::string& other_column) const {
  ir::FilterParams params;
  params.column = column;
  params.op = op;
  params.rhs_is_column = true;
  params.rhs_column = other_column;
  return Table(query_, Unwrap(query_->dag_.AddFilter(node_, std::move(params)),
                              "FilterByColumn"));
}

Table Table::Join(const Table& right, std::vector<std::string> left_keys,
                  std::vector<std::string> right_keys) const {
  CONCLAVE_CHECK(right.query_ == query_);
  return Table(query_,
               Unwrap(query_->dag_.AddJoin(node_, right.node_, std::move(left_keys),
                                           std::move(right_keys)),
                      "Join"));
}

Table Table::Aggregate(const std::string& output_name, AggKind kind,
                       std::vector<std::string> group_columns,
                       const std::string& over_column) const {
  ir::AggregateParams params;
  params.group_columns = std::move(group_columns);
  params.kind = kind;
  params.agg_column = over_column;
  params.output_name = output_name;
  return Table(query_, Unwrap(query_->dag_.AddAggregate(node_, std::move(params)),
                              "Aggregate"));
}

Table Table::Count(const std::string& output_name,
                   std::vector<std::string> group_columns) const {
  return Aggregate(output_name, AggKind::kCount, std::move(group_columns));
}

Table Table::Multiply(const std::string& output_name, const std::string& lhs,
                      const std::string& rhs_column) const {
  ir::ArithmeticParams params;
  params.kind = ArithKind::kMul;
  params.lhs_column = lhs;
  params.rhs_is_column = true;
  params.rhs_column = rhs_column;
  params.output_name = output_name;
  return Table(query_, Unwrap(query_->dag_.AddArithmetic(node_, std::move(params)),
                              "Multiply"));
}

Table Table::Subtract(const std::string& output_name, const std::string& lhs,
                      const std::string& rhs_column) const {
  ir::ArithmeticParams params;
  params.kind = ArithKind::kSub;
  params.lhs_column = lhs;
  params.rhs_is_column = true;
  params.rhs_column = rhs_column;
  params.output_name = output_name;
  return Table(query_, Unwrap(query_->dag_.AddArithmetic(node_, std::move(params)),
                              "Subtract"));
}

Table Table::MultiplyConst(const std::string& output_name, const std::string& lhs,
                           int64_t literal) const {
  ir::ArithmeticParams params;
  params.kind = ArithKind::kMul;
  params.lhs_column = lhs;
  params.rhs_is_column = false;
  params.literal = literal;
  params.output_name = output_name;
  return Table(query_, Unwrap(query_->dag_.AddArithmetic(node_, std::move(params)),
                              "MultiplyConst"));
}

Table Table::Divide(const std::string& output_name, const std::string& lhs,
                    const std::string& by_column, int64_t scale) const {
  ir::ArithmeticParams params;
  params.kind = ArithKind::kDiv;
  params.lhs_column = lhs;
  params.rhs_is_column = true;
  params.rhs_column = by_column;
  params.output_name = output_name;
  params.scale = scale;
  return Table(query_, Unwrap(query_->dag_.AddArithmetic(node_, std::move(params)),
                              "Divide"));
}

Table Table::AddConst(const std::string& output_name, const std::string& lhs,
                      int64_t literal) const {
  ir::ArithmeticParams params;
  params.kind = ArithKind::kAdd;
  params.lhs_column = lhs;
  params.rhs_is_column = false;
  params.literal = literal;
  params.output_name = output_name;
  return Table(query_, Unwrap(query_->dag_.AddArithmetic(node_, std::move(params)),
                              "AddConst"));
}

Table Table::Window(const std::string& output_name, WindowFn fn,
                    std::vector<std::string> partition_columns,
                    const std::string& order_column,
                    const std::string& value_column) const {
  ir::WindowParams params;
  params.partition_columns = std::move(partition_columns);
  params.order_column = order_column;
  params.fn = fn;
  params.value_column = value_column;
  params.output_name = output_name;
  return Table(query_, Unwrap(query_->dag_.AddWindow(node_, std::move(params)),
                              "Window"));
}

Table Table::SortBy(std::vector<std::string> columns, bool ascending) const {
  return Table(query_, Unwrap(query_->dag_.AddSortBy(node_, std::move(columns),
                                                     ascending),
                              "SortBy"));
}

Table Table::Distinct(std::vector<std::string> columns) const {
  return Table(query_, Unwrap(query_->dag_.AddDistinct(node_, std::move(columns)),
                              "Distinct"));
}

Table Table::Limit(int64_t count) const {
  return Table(query_, Unwrap(query_->dag_.AddLimit(node_, count), "Limit"));
}

void Table::WriteToCsv(const std::string& name,
                       const std::vector<Party>& recipients) const {
  PartySet parties;
  for (const auto& party : recipients) {
    parties.Insert(party.id);
  }
  Unwrap(query_->dag_.AddCollect(node_, name, parties), "WriteToCsv");
}

void Table::WriteToCsvNoisy(const std::string& name,
                            const std::vector<Party>& recipients, double epsilon,
                            std::map<std::string, double> column_sensitivity) const {
  PartySet parties;
  for (const auto& party : recipients) {
    parties.Insert(party.id);
  }
  dp::DpSpec spec;
  spec.enabled = true;
  spec.epsilon = epsilon;
  spec.column_sensitivity = std::move(column_sensitivity);
  Unwrap(query_->dag_.AddCollect(node_, name, parties, std::move(spec)),
         "WriteToCsvNoisy");
}

StatusOr<compiler::Compilation> Query::Compile(
    const compiler::CompilerOptions& options) {
  return compiler::Compile(dag_, options);
}

StatusOr<compiler::PlanCostReport> Query::ExplainPlan(
    compiler::CompilerOptions options) {
  options.explain_plan = true;
  CONCLAVE_ASSIGN_OR_RETURN(compiler::Compilation compilation, Compile(options));
  return std::move(compilation.cost_report);
}

StatusOr<backends::ExecutionResult> Query::Run(
    const std::map<std::string, Relation>& inputs,
    const compiler::CompilerOptions& options, CostModel cost_model, uint64_t seed,
    compiler::ExecOptions exec) {
  CONCLAVE_ASSIGN_OR_RETURN(compiler::Compilation compilation, Compile(options));
  backends::Dispatcher dispatcher(cost_model, seed, std::move(exec));
  return dispatcher.Run(dag_, compilation, inputs);
}

}  // namespace api
}  // namespace conclave
