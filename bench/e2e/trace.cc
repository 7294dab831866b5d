#include "bench/e2e/trace.h"

#include <cstdio>
#include <map>

#include "conclave/backends/local_backend.h"
#include "conclave/backends/sharemind_backend.h"
#include "conclave/common/strings.h"
#include "conclave/relational/csv.h"
#include "conclave/relational/spill.h"

namespace conclave {
namespace e2e {

int Tracer::Begin(std::string name, int parent, int rep, int64_t rows_in) {
  Span span;
  span.name = std::move(name);
  span.start_us = std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - epoch_)
                      .count();
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.rep = rep;
  span.rows_in = rows_in;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(int id) {
  Span& span = spans_[static_cast<size_t>(id)];
  span.dur_us = std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - epoch_)
                    .count() -
                span.start_us;
}

Status Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return InvalidArgumentError(StrFormat("cannot write %s", path.c_str()));
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::string layer = span.name.substr(0, span.name.find('.'));
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                 "\"dur\": %.3f, \"pid\": 1, \"tid\": 1, \"args\": {\"id\": %d, "
                 "\"parent\": %d, \"rep\": %d, \"rows_in\": %lld}}%s\n",
                 span.name.c_str(), layer.c_str(), span.start_us, span.dur_us,
                 span.id, span.parent, span.rep,
                 static_cast<long long>(span.rows_in),
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) {
    return InternalError(StrFormat("error closing %s", path.c_str()));
  }
  return Status::Ok();
}

PlanShape ShapeOf(const ir::Dag& dag) {
  PlanShape shape;
  for (const ir::OpNode* node : dag.TopoOrder()) {
    if (node->retired) {
      ++shape.retired_nodes;
    } else if (node->kind == ir::OpKind::kCreate ||
               node->kind == ir::OpKind::kCollect) {
      continue;  // Input and output boundaries, not operators.
    } else if (node->exec_mode == ir::ExecMode::kLocal) {
      ++shape.local_nodes;
    } else if (node->exec_mode == ir::ExecMode::kHybrid) {
      ++shape.hybrid_nodes;
    } else {
      ++shape.mpc_nodes;
    }
  }
  return shape;
}

namespace {

// A node's output in whichever form the last consumer left it.
struct Value {
  bool shared = false;
  Relation clear;
  SharedRelation secret;
};

}  // namespace

StatusOr<Relations> Replay(const Workload& workload, const Relations& inputs,
                           const std::string& csv_dir, uint64_t run_seed,
                           Tracer& tracer, int rep, PlanShape* shape) {
  api::Query query;
  workload.Build(query, csv_dir);
  StatusOr<compiler::Compilation> compilation = [&] {
    ScopedSpan span(tracer, "compiler.compile", -1, rep);
    return query.Compile(workload.options());
  }();
  if (!compilation.ok()) {
    return compilation.status();
  }
  const std::vector<ir::OpNode*> topo = query.dag().TopoOrder();
  *shape = ShapeOf(query.dag());

  ScopedSpan replay(tracer, "backends.replay", -1, rep);
  SimNetwork network{CostModel{}};
  backends::SharemindBackend mpc(&network, run_seed, compilation->num_parties);
  backends::LocalExecOptions local;
  local.mem_budget_rows = DefaultMemBudgetRows();

  // Values are dropped after their last live consumer, as the executor does.
  std::map<int, int> uses;
  for (const ir::OpNode* node : topo) {
    if (!node->retired) {
      for (const ir::OpNode* in : node->inputs) {
        ++uses[in->id];
      }
    }
  }
  std::map<int, Value> values;
  Relations outputs;

  auto clear_input = [&](const ir::OpNode* in) -> const Relation& {
    Value& value = values.at(in->id);
    if (value.shared) {
      ScopedSpan span(tracer, "mpc.reveal", replay.id(), rep, value.secret.NumRows());
      value.clear = mpc.Reveal(value.secret);
      value.secret = SharedRelation{};
      value.shared = false;
    }
    return value.clear;
  };
  auto shared_input = [&](const ir::OpNode* in) -> StatusOr<const SharedRelation*> {
    Value& value = values.at(in->id);
    if (!value.shared) {
      ScopedSpan span(tracer, "mpc.input", replay.id(), rep, value.clear.NumRows());
      CONCLAVE_ASSIGN_OR_RETURN(value.secret, mpc.Input(value.clear));
      value.clear = Relation{};
      value.shared = true;
    }
    return &value.secret;
  };

  for (const ir::OpNode* node : topo) {
    if (node->retired) {
      continue;
    }
    Value out;
    if (node->kind == ir::OpKind::kCreate) {
      const auto& params = node->Params<ir::CreateParams>();
      if (params.csv_path.empty()) {
        const auto it = inputs.find(params.name);
        if (it == inputs.end()) {
          return InvalidArgumentError(
              StrFormat("no input relation for '%s'", params.name.c_str()));
        }
        // The executor's ingest copies each party's relation into its value slot.
        ScopedSpan span(tracer, "relational.create", replay.id(), rep,
                        it->second.NumRows());
        out.clear = it->second;
      } else {
        ScopedSpan span(tracer, "relational.csv_read", replay.id(), rep);
        CONCLAVE_ASSIGN_OR_RETURN(out.clear, ReadCsv(params.csv_path));
        span.set_rows_in(out.clear.NumRows());
      }
    } else if (node->kind == ir::OpKind::kCollect ||
               node->exec_mode == ir::ExecMode::kLocal) {
      std::vector<const Relation*> rels;
      int64_t rows = 0;
      for (const ir::OpNode* in : node->inputs) {
        rels.push_back(&clear_input(in));
        rows += rels.back()->NumRows();
      }
      ScopedSpan span(tracer, StrFormat("relational.%s", ir::OpKindName(node->kind)),
                      replay.id(), rep, rows);
      CONCLAVE_ASSIGN_OR_RETURN(out.clear, backends::ExecuteLocal(*node, rels, local));
    } else {
      std::vector<const SharedRelation*> rels;
      int64_t rows = 0;
      for (const ir::OpNode* in : node->inputs) {
        CONCLAVE_ASSIGN_OR_RETURN(const SharedRelation* rel, shared_input(in));
        rels.push_back(rel);
        rows += rel->NumRows();
      }
      const char* layer = node->exec_mode == ir::ExecMode::kHybrid ? "hybrid" : "mpc";
      ScopedSpan span(tracer,
                      StrFormat("%s.%s", layer, ir::OpKindName(node->kind)),
                      replay.id(), rep, rows);
      CONCLAVE_ASSIGN_OR_RETURN(out.secret, mpc.Execute(*node, rels));
      out.shared = true;
    }
    for (const ir::OpNode* in : node->inputs) {
      if (--uses[in->id] == 0) {
        values.erase(in->id);
      }
    }
    if (node->kind == ir::OpKind::kCollect) {
      outputs[node->Params<ir::CollectParams>().name] = std::move(out.clear);
    } else {
      values[node->id] = std::move(out);
    }
  }
  return outputs;
}

}  // namespace e2e
}  // namespace conclave
