#include "conclave/ir/dag.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "conclave/common/strings.h"

namespace conclave {
namespace ir {
namespace {

Status CheckColumns(const Schema& schema, const std::vector<std::string>& columns) {
  for (const auto& name : columns) {
    if (!schema.HasColumn(name)) {
      return NotFoundError(StrFormat("no column '%s' in schema %s", name.c_str(),
                                     schema.ToString().c_str()));
    }
  }
  return Status::Ok();
}

// Strips trust annotations: schema names only (the trust pass refills trust sets).
Schema NamesOnly(const Schema& schema) {
  std::vector<ColumnDef> defs;
  defs.reserve(static_cast<size_t>(schema.NumColumns()));
  for (const auto& column : schema.columns()) {
    defs.emplace_back(column.name);
  }
  return Schema(std::move(defs));
}

}  // namespace

StatusOr<Schema> InferSchemaNames(const OpNode& node) {
  switch (node.kind) {
    case OpKind::kCreate:
      return NamesOnly(node.Params<CreateParams>().schema);
    case OpKind::kConcat: {
      if (node.inputs.empty()) {
        return InvalidArgumentError("concat requires at least one input");
      }
      const Schema& first = node.inputs[0]->schema;
      for (const OpNode* input : node.inputs) {
        if (!first.NamesMatch(input->schema)) {
          return InvalidArgumentError(StrFormat(
              "concat schema mismatch: %s vs %s", first.ToString().c_str(),
              input->schema.ToString().c_str()));
        }
      }
      return NamesOnly(first);
    }
    case OpKind::kProject: {
      const auto& p = node.Params<ProjectParams>();
      CONCLAVE_RETURN_IF_ERROR(CheckColumns(node.inputs[0]->schema, p.columns));
      std::vector<ColumnDef> defs;
      for (const auto& name : p.columns) {
        defs.emplace_back(name);
      }
      return Schema(std::move(defs));
    }
    case OpKind::kFilter: {
      const auto& p = node.Params<FilterParams>();
      std::vector<std::string> used{p.column};
      if (p.rhs_is_column) {
        used.push_back(p.rhs_column);
      }
      CONCLAVE_RETURN_IF_ERROR(CheckColumns(node.inputs[0]->schema, used));
      return NamesOnly(node.inputs[0]->schema);
    }
    case OpKind::kJoin: {
      const auto& p = node.Params<JoinParams>();
      if (p.left_keys.empty() || p.left_keys.size() != p.right_keys.size()) {
        return InvalidArgumentError("join requires equal-length, non-empty key lists");
      }
      const Schema& left = node.inputs[0]->schema;
      const Schema& right = node.inputs[1]->schema;
      CONCLAVE_RETURN_IF_ERROR(CheckColumns(left, p.left_keys));
      CONCLAVE_RETURN_IF_ERROR(CheckColumns(right, p.right_keys));
      CONCLAVE_ASSIGN_OR_RETURN(std::vector<int> lk, left.IndicesOf(p.left_keys));
      CONCLAVE_ASSIGN_OR_RETURN(std::vector<int> rk, right.IndicesOf(p.right_keys));
      return NamesOnly(ops::JoinOutputSchema(left, right, lk, rk));
    }
    case OpKind::kAggregate: {
      const auto& p = node.Params<AggregateParams>();
      const Schema& input = node.inputs[0]->schema;
      CONCLAVE_RETURN_IF_ERROR(CheckColumns(input, p.group_columns));
      if (p.kind != AggKind::kCount) {
        CONCLAVE_RETURN_IF_ERROR(CheckColumns(input, {p.agg_column}));
      }
      std::vector<ColumnDef> defs;
      for (const auto& name : p.group_columns) {
        defs.emplace_back(name);
      }
      defs.emplace_back(p.output_name);
      return Schema(std::move(defs));
    }
    case OpKind::kArithmetic: {
      const auto& p = node.Params<ArithmeticParams>();
      const Schema& input = node.inputs[0]->schema;
      std::vector<std::string> used{p.lhs_column};
      if (p.rhs_is_column) {
        used.push_back(p.rhs_column);
      }
      CONCLAVE_RETURN_IF_ERROR(CheckColumns(input, used));
      if (input.HasColumn(p.output_name)) {
        return InvalidArgumentError(StrFormat("arithmetic output column '%s' already "
                                              "exists in %s",
                                              p.output_name.c_str(),
                                              input.ToString().c_str()));
      }
      Schema schema = NamesOnly(input);
      std::vector<ColumnDef> defs = schema.columns();
      defs.emplace_back(p.output_name);
      return Schema(std::move(defs));
    }
    case OpKind::kWindow: {
      const auto& p = node.Params<WindowParams>();
      const Schema& input = node.inputs[0]->schema;
      if (p.partition_columns.empty()) {
        return InvalidArgumentError("window requires at least one partition column");
      }
      std::vector<std::string> used = p.partition_columns;
      used.push_back(p.order_column);
      if (p.fn != WindowFn::kRowNumber) {
        used.push_back(p.value_column);
      }
      CONCLAVE_RETURN_IF_ERROR(CheckColumns(input, used));
      if (input.HasColumn(p.output_name)) {
        return InvalidArgumentError(StrFormat(
            "window output column '%s' already exists in %s", p.output_name.c_str(),
            input.ToString().c_str()));
      }
      Schema schema = NamesOnly(input);
      std::vector<ColumnDef> defs = schema.columns();
      defs.emplace_back(p.output_name);
      return Schema(std::move(defs));
    }
    case OpKind::kPad:
      return NamesOnly(node.inputs[0]->schema);
    case OpKind::kSortBy: {
      const auto& p = node.Params<SortByParams>();
      CONCLAVE_RETURN_IF_ERROR(CheckColumns(node.inputs[0]->schema, p.columns));
      return NamesOnly(node.inputs[0]->schema);
    }
    case OpKind::kDistinct: {
      const auto& p = node.Params<DistinctParams>();
      CONCLAVE_RETURN_IF_ERROR(CheckColumns(node.inputs[0]->schema, p.columns));
      std::vector<ColumnDef> defs;
      for (const auto& name : p.columns) {
        defs.emplace_back(name);
      }
      return Schema(std::move(defs));
    }
    case OpKind::kLimit:
      return NamesOnly(node.inputs[0]->schema);
    case OpKind::kCollect:
      return NamesOnly(node.inputs[0]->schema);
  }
  return InternalError("unhandled op kind in schema inference");
}

OpNode* Dag::NewNode(OpKind kind, OpParams params, std::vector<OpNode*> inputs) {
  auto node = std::make_unique<OpNode>();
  node->id = next_id_++;
  node->kind = kind;
  node->params = std::move(params);
  node->inputs = std::move(inputs);
  for (OpNode* input : node->inputs) {
    input->outputs.push_back(node.get());
  }
  nodes_.push_back(std::move(node));
  return nodes_.back().get();
}

StatusOr<OpNode*> Dag::AddCreate(const std::string& name, Schema schema, PartyId party,
                                 int64_t num_rows_hint, std::string csv_path) {
  if (party == kNoParty) {
    return InvalidArgumentError("create requires an owning party (at= annotation)");
  }
  CreateParams params;
  params.name = name;
  params.schema = std::move(schema);
  params.party = party;
  params.num_rows_hint = num_rows_hint;
  params.csv_path = std::move(csv_path);
  OpNode* node = NewNode(OpKind::kCreate, std::move(params), {});
  CONCLAVE_RETURN_IF_ERROR(ReinferSchema(node));
  return node;
}

StatusOr<OpNode*> Dag::AddConcat(std::vector<OpNode*> inputs) {
  OpNode* node = NewNode(OpKind::kConcat, ConcatParams{}, std::move(inputs));
  CONCLAVE_RETURN_IF_ERROR(ReinferSchema(node));
  return node;
}

StatusOr<OpNode*> Dag::AddProject(OpNode* input, std::vector<std::string> columns) {
  OpNode* node =
      NewNode(OpKind::kProject, ProjectParams{std::move(columns)}, {input});
  CONCLAVE_RETURN_IF_ERROR(ReinferSchema(node));
  return node;
}

StatusOr<OpNode*> Dag::AddFilter(OpNode* input, FilterParams params) {
  OpNode* node = NewNode(OpKind::kFilter, std::move(params), {input});
  CONCLAVE_RETURN_IF_ERROR(ReinferSchema(node));
  return node;
}

StatusOr<OpNode*> Dag::AddJoin(OpNode* left, OpNode* right,
                               std::vector<std::string> left_keys,
                               std::vector<std::string> right_keys) {
  JoinParams params;
  params.left_keys = std::move(left_keys);
  params.right_keys = std::move(right_keys);
  OpNode* node = NewNode(OpKind::kJoin, std::move(params), {left, right});
  CONCLAVE_RETURN_IF_ERROR(ReinferSchema(node));
  return node;
}

StatusOr<OpNode*> Dag::AddAggregate(OpNode* input, AggregateParams params) {
  OpNode* node = NewNode(OpKind::kAggregate, std::move(params), {input});
  CONCLAVE_RETURN_IF_ERROR(ReinferSchema(node));
  return node;
}

StatusOr<OpNode*> Dag::AddArithmetic(OpNode* input, ArithmeticParams params) {
  OpNode* node = NewNode(OpKind::kArithmetic, std::move(params), {input});
  CONCLAVE_RETURN_IF_ERROR(ReinferSchema(node));
  return node;
}

StatusOr<OpNode*> Dag::AddPad(OpNode* input, PadParams params) {
  OpNode* node = NewNode(OpKind::kPad, std::move(params), {input});
  CONCLAVE_RETURN_IF_ERROR(ReinferSchema(node));
  return node;
}

StatusOr<OpNode*> Dag::AddWindow(OpNode* input, WindowParams params) {
  OpNode* node = NewNode(OpKind::kWindow, std::move(params), {input});
  CONCLAVE_RETURN_IF_ERROR(ReinferSchema(node));
  return node;
}

StatusOr<OpNode*> Dag::AddSortBy(OpNode* input, std::vector<std::string> columns,
                                 bool ascending) {
  OpNode* node = NewNode(OpKind::kSortBy, SortByParams{std::move(columns), ascending},
                         {input});
  CONCLAVE_RETURN_IF_ERROR(ReinferSchema(node));
  return node;
}

StatusOr<OpNode*> Dag::AddDistinct(OpNode* input, std::vector<std::string> columns) {
  OpNode* node =
      NewNode(OpKind::kDistinct, DistinctParams{std::move(columns)}, {input});
  CONCLAVE_RETURN_IF_ERROR(ReinferSchema(node));
  return node;
}

StatusOr<OpNode*> Dag::AddLimit(OpNode* input, int64_t count) {
  if (count < 0) {
    return InvalidArgumentError("limit count must be non-negative");
  }
  OpNode* node = NewNode(OpKind::kLimit, LimitParams{count}, {input});
  CONCLAVE_RETURN_IF_ERROR(ReinferSchema(node));
  return node;
}

StatusOr<OpNode*> Dag::AddCollect(OpNode* input, const std::string& name,
                                  PartySet recipients, dp::DpSpec dp) {
  if (recipients.Empty()) {
    return InvalidArgumentError("collect requires at least one recipient party");
  }
  if (dp.enabled) {
    if (dp.epsilon <= 0) {
      return InvalidArgumentError("dp epsilon must be positive");
    }
    for (const auto& [column, sensitivity] : dp.column_sensitivity) {
      if (!input->schema.HasColumn(column)) {
        return NotFoundError(StrFormat("dp column '%s' not in output schema %s",
                                       column.c_str(),
                                       input->schema.ToString().c_str()));
      }
      if (sensitivity <= 0) {
        return InvalidArgumentError(StrFormat(
            "dp sensitivity for '%s' must be positive", column.c_str()));
      }
    }
  }
  CollectParams params;
  params.name = name;
  params.recipients = recipients;
  params.dp = std::move(dp);
  OpNode* node = NewNode(OpKind::kCollect, std::move(params), {input});
  CONCLAVE_RETURN_IF_ERROR(ReinferSchema(node));
  return node;
}

Status Dag::ReinferSchema(OpNode* node) {
  CONCLAVE_ASSIGN_OR_RETURN(node->schema, InferSchemaNames(*node));
  return Status::Ok();
}

void Dag::ReplaceInput(OpNode* node, OpNode* old_input, OpNode* new_input) {
  bool replaced = false;
  for (auto& input : node->inputs) {
    if (input == old_input) {
      input = new_input;
      replaced = true;
    }
  }
  CONCLAVE_CHECK(replaced);
  auto& outs = old_input->outputs;
  outs.erase(std::remove(outs.begin(), outs.end(), node), outs.end());
  new_input->outputs.push_back(node);
}

void Dag::Detach(OpNode* node) {
  CONCLAVE_CHECK(node->outputs.empty());
  for (OpNode* input : node->inputs) {
    auto& outs = input->outputs;
    outs.erase(std::remove(outs.begin(), outs.end(), node), outs.end());
  }
  node->inputs.clear();
}

std::vector<OpNode*> Dag::TopoOrder() const {
  // Kahn's algorithm over nodes reachable from Create roots; detached rewrite
  // leftovers are skipped. Node ids break ties for deterministic ordering.
  std::vector<OpNode*> order;
  std::unordered_set<const OpNode*> reachable;
  // Roots are Create nodes with at least one consumer (consumer-less creates are
  // rewrite leftovers or degenerate queries and are excluded from plans).
  std::vector<OpNode*> stack;
  for (const auto& node : nodes_) {
    if (node->kind == OpKind::kCreate && !node->outputs.empty()) {
      stack.push_back(node.get());
    }
  }
  while (!stack.empty()) {
    OpNode* node = stack.back();
    stack.pop_back();
    if (!reachable.insert(node).second) {
      continue;
    }
    for (OpNode* out : node->outputs) {
      stack.push_back(out);
    }
  }
  // Kahn over the reachable subgraph.
  std::unordered_map<const OpNode*, int> pending;
  std::vector<OpNode*> ready;
  for (const auto& node : nodes_) {
    if (!reachable.contains(node.get())) {
      continue;
    }
    int count = 0;
    for (OpNode* input : node->inputs) {
      if (reachable.contains(input)) {
        ++count;
      }
    }
    pending[node.get()] = count;
    if (count == 0) {
      ready.push_back(node.get());
    }
  }
  std::sort(ready.begin(), ready.end(),
            [](const OpNode* a, const OpNode* b) { return a->id < b->id; });
  while (!ready.empty()) {
    // Pop the lowest id for determinism.
    auto it = std::min_element(
        ready.begin(), ready.end(),
        [](const OpNode* a, const OpNode* b) { return a->id < b->id; });
    OpNode* node = *it;
    ready.erase(it);
    order.push_back(node);
    for (OpNode* out : node->outputs) {
      if (!reachable.contains(out)) {
        continue;
      }
      if (--pending[out] == 0) {
        ready.push_back(out);
      }
    }
  }
  return order;
}

std::vector<OpNode*> Dag::Creates() const {
  std::vector<OpNode*> creates;
  for (OpNode* node : TopoOrder()) {
    if (node->kind == OpKind::kCreate) {
      creates.push_back(node);
    }
  }
  return creates;
}

std::vector<OpNode*> Dag::Collects() const {
  std::vector<OpNode*> collects;
  for (OpNode* node : TopoOrder()) {
    if (node->kind == OpKind::kCollect) {
      collects.push_back(node);
    }
  }
  return collects;
}

std::string Dag::ToString() const {
  std::string out;
  for (const OpNode* node : TopoOrder()) {
    out += node->ToString();
    if (!node->inputs.empty()) {
      std::vector<std::string> ids;
      for (const OpNode* input : node->inputs) {
        ids.push_back(StrFormat("#%d", input->id));
      }
      out += " <- " + StrJoin(ids, ", ");
    }
    out += "\n";
  }
  return out;
}

std::string Dag::ToDot() const {
  std::string out = "digraph conclave {\n  rankdir=BT;\n";
  for (const OpNode* node : TopoOrder()) {
    const char* color = node->exec_mode == ExecMode::kMpc     ? "lightcoral"
                        : node->exec_mode == ExecMode::kHybrid ? "gold"
                                                               : "lightblue";
    out += StrFormat("  n%d [label=\"%s\\n%s\", style=filled, fillcolor=%s];\n",
                     node->id, OpKindName(node->kind),
                     ExecModeName(node->exec_mode), color);
    for (const OpNode* input : node->inputs) {
      out += StrFormat("  n%d -> n%d;\n", input->id, node->id);
    }
  }
  out += "}\n";
  return out;
}

int Dag::NumParties() const {
  int max_party = -1;
  for (const auto& node : nodes_) {
    if (node->kind == OpKind::kCreate) {
      max_party = std::max(max_party, node->Params<CreateParams>().party);
    } else if (node->kind == OpKind::kCollect) {
      for (PartyId p : node->Params<CollectParams>().recipients.ToVector()) {
        max_party = std::max(max_party, p);
      }
    }
  }
  return std::max(declared_parties_, max_party + 1);
}

}  // namespace ir
}  // namespace conclave
