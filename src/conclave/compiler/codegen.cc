#include "conclave/compiler/codegen.h"

#include "conclave/common/strings.h"

namespace conclave {
namespace compiler {
namespace {

std::string Ref(const ir::OpNode* node) { return StrFormat("rel_%d", node->id); }

std::string FilterExpr(const ir::FilterParams& p) {
  if (p.rhs_is_column) {
    return StrFormat("%s %s %s", p.column.c_str(), CompareOpName(p.op),
                     p.rhs_column.c_str());
  }
  return StrFormat("%s %s %lld", p.column.c_str(), CompareOpName(p.op),
                   static_cast<long long>(p.literal));
}

std::string ArithExpr(const ir::ArithmeticParams& p) {
  const std::string rhs =
      p.rhs_is_column ? p.rhs_column : std::to_string(p.literal);
  if (p.kind == ArithKind::kDiv && p.scale != 1) {
    return StrFormat("(%s * %lld) / %s", p.lhs_column.c_str(),
                     static_cast<long long>(p.scale), rhs.c_str());
  }
  return StrFormat("%s %s %s", p.lhs_column.c_str(), ArithKindName(p.kind),
                   rhs.c_str());
}

// Python/Spark-style line for a cleartext node.
std::string LocalLine(const ir::OpNode* node, bool use_spark) {
  const char* frame = use_spark ? "spark" : "py";
  switch (node->kind) {
    case ir::OpKind::kCreate: {
      const auto& p = node->Params<ir::CreateParams>();
      return StrFormat("%s = %s.read_csv('%s.csv')", Ref(node).c_str(), frame,
                       p.name.c_str());
    }
    case ir::OpKind::kConcat: {
      std::vector<std::string> ins;
      for (const ir::OpNode* input : node->inputs) {
        ins.push_back(Ref(input));
      }
      return StrFormat("%s = %s.union([%s])", Ref(node).c_str(), frame,
                       StrJoin(ins, ", ").c_str());
    }
    case ir::OpKind::kProject: {
      const auto& p = node->Params<ir::ProjectParams>();
      return StrFormat("%s = %s.select(['%s'])", Ref(node).c_str(),
                       Ref(node->inputs[0]).c_str(),
                       StrJoin(p.columns, "', '").c_str());
    }
    case ir::OpKind::kFilter:
      return StrFormat("%s = %s.where(\"%s\")", Ref(node).c_str(),
                       Ref(node->inputs[0]).c_str(),
                       FilterExpr(node->Params<ir::FilterParams>()).c_str());
    case ir::OpKind::kJoin: {
      const auto& p = node->Params<ir::JoinParams>();
      return StrFormat("%s = %s.join(%s, left_on=['%s'], right_on=['%s'])",
                       Ref(node).c_str(), Ref(node->inputs[0]).c_str(),
                       Ref(node->inputs[1]).c_str(),
                       StrJoin(p.left_keys, "', '").c_str(),
                       StrJoin(p.right_keys, "', '").c_str());
    }
    case ir::OpKind::kAggregate: {
      const auto& p = node->Params<ir::AggregateParams>();
      return StrFormat("%s = %s.groupby(['%s']).%s('%s').alias('%s')",
                       Ref(node).c_str(), Ref(node->inputs[0]).c_str(),
                       StrJoin(p.group_columns, "', '").c_str(),
                       AggKindName(p.kind), p.agg_column.c_str(),
                       p.output_name.c_str());
    }
    case ir::OpKind::kArithmetic: {
      const auto& p = node->Params<ir::ArithmeticParams>();
      return StrFormat("%s = %s.with_column('%s', %s)", Ref(node).c_str(),
                       Ref(node->inputs[0]).c_str(), p.output_name.c_str(),
                       ArithExpr(p).c_str());
    }
    case ir::OpKind::kWindow: {
      const auto& p = node->Params<ir::WindowParams>();
      return StrFormat(
          "%s = %s.with_column('%s', %s('%s') over (partition ['%s'] order '%s'))",
          Ref(node).c_str(), Ref(node->inputs[0]).c_str(), p.output_name.c_str(),
          WindowFnName(p.fn), p.value_column.c_str(),
          StrJoin(p.partition_columns, "', '").c_str(), p.order_column.c_str());
    }
    case ir::OpKind::kSortBy: {
      const auto& p = node->Params<ir::SortByParams>();
      return StrFormat("%s = %s.sort_values(['%s'])", Ref(node).c_str(),
                       Ref(node->inputs[0]).c_str(), StrJoin(p.columns, "', '").c_str());
    }
    case ir::OpKind::kDistinct: {
      const auto& p = node->Params<ir::DistinctParams>();
      return StrFormat("%s = %s[['%s']].drop_duplicates()", Ref(node).c_str(),
                       Ref(node->inputs[0]).c_str(), StrJoin(p.columns, "', '").c_str());
    }
    case ir::OpKind::kPad:
      return StrFormat("%s = %s.pad_to_power_of_two(sentinels)", Ref(node).c_str(),
                       Ref(node->inputs[0]).c_str());
    case ir::OpKind::kLimit:
      return StrFormat("%s = %s.head(%lld)", Ref(node).c_str(),
                       Ref(node->inputs[0]).c_str(),
                       static_cast<long long>(node->Params<ir::LimitParams>().count));
    case ir::OpKind::kCollect: {
      const auto& p = node->Params<ir::CollectParams>();
      return StrFormat("%s.write_csv('%s.csv')  # recipients %s",
                       Ref(node->inputs[0]).c_str(), p.name.c_str(),
                       p.recipients.ToString().c_str());
    }
  }
  return "# ?";
}

// SecreC-style (Sharemind) or Obliv-C-style line for an MPC node.
std::string MpcLine(const ir::OpNode* node, MpcBackendKind backend) {
  const bool secrec = backend == MpcBackendKind::kSharemind;
  const char* domain = secrec ? "pd_shared3p" : "obliv";
  const char* sorted_note = node->assume_sorted ? "  // sort elided (§5.4)" : "";
  switch (node->kind) {
    case ir::OpKind::kConcat:
      return StrFormat("%s table %s = mpc_concat(...);", domain, Ref(node).c_str());
    case ir::OpKind::kProject:
      return StrFormat("%s table %s = mpc_project(%s, {'%s'});", domain,
                       Ref(node).c_str(), Ref(node->inputs[0]).c_str(),
                       StrJoin(node->Params<ir::ProjectParams>().columns, "', '")
                           .c_str());
    case ir::OpKind::kFilter:
      return StrFormat("%s table %s = oblivious_filter(%s, \"%s\");", domain,
                       Ref(node).c_str(), Ref(node->inputs[0]).c_str(),
                       FilterExpr(node->Params<ir::FilterParams>()).c_str());
    case ir::OpKind::kJoin: {
      const auto& p = node->Params<ir::JoinParams>();
      return StrFormat("%s table %s = oblivious_join(%s, %s, '%s', '%s');  // O(n*m)",
                       domain, Ref(node).c_str(), Ref(node->inputs[0]).c_str(),
                       Ref(node->inputs[1]).c_str(),
                       StrJoin(p.left_keys, "','").c_str(),
                       StrJoin(p.right_keys, "','").c_str());
    }
    case ir::OpKind::kAggregate: {
      const auto& p = node->Params<ir::AggregateParams>();
      return StrFormat("%s table %s = oblivious_agg_%s(%s, keys={'%s'});%s", domain,
                       Ref(node).c_str(), AggKindName(p.kind),
                       Ref(node->inputs[0]).c_str(),
                       StrJoin(p.group_columns, "', '").c_str(), sorted_note);
    }
    case ir::OpKind::kArithmetic: {
      const auto& p = node->Params<ir::ArithmeticParams>();
      return StrFormat("%s table %s = mpc_map(%s, '%s' = %s);", domain,
                       Ref(node).c_str(), Ref(node->inputs[0]).c_str(),
                       p.output_name.c_str(), ArithExpr(p).c_str());
    }
    case ir::OpKind::kWindow: {
      const auto& p = node->Params<ir::WindowParams>();
      return StrFormat(
          "%s table %s = oblivious_window_%s(%s, partition={'%s'}, order='%s');%s",
          domain, Ref(node).c_str(), WindowFnName(p.fn),
          Ref(node->inputs[0]).c_str(),
          StrJoin(p.partition_columns, "', '").c_str(), p.order_column.c_str(),
          sorted_note);
    }
    case ir::OpKind::kSortBy:
      return StrFormat("%s table %s = oblivious_sort(%s, {'%s'});%s", domain,
                       Ref(node).c_str(), Ref(node->inputs[0]).c_str(),
                       StrJoin(node->Params<ir::SortByParams>().columns, "', '")
                           .c_str(),
                       sorted_note);
    case ir::OpKind::kDistinct:
      return StrFormat("%s table %s = oblivious_distinct(%s, {'%s'});%s", domain,
                       Ref(node).c_str(), Ref(node->inputs[0]).c_str(),
                       StrJoin(node->Params<ir::DistinctParams>().columns, "', '")
                           .c_str(),
                       sorted_note);
    case ir::OpKind::kLimit:
      return StrFormat("%s table %s = mpc_take(%s, %lld);", domain, Ref(node).c_str(),
                       Ref(node->inputs[0]).c_str(),
                       static_cast<long long>(node->Params<ir::LimitParams>().count));
    default:
      return StrFormat("%s table %s = /* %s */;", domain, Ref(node).c_str(),
                       ir::OpKindName(node->kind));
  }
}

std::string HybridListing(const ir::OpNode* node) {
  std::string out;
  switch (node->hybrid) {
    case ir::HybridKind::kHybridJoin:
      out += StrFormat("  %s = hybrid_join(%s, %s, stp=party_%d):\n",
                       Ref(node).c_str(), Ref(node->inputs[0]).c_str(),
                       Ref(node->inputs[1]).c_str(), node->stp);
      out += "    mpc:  shuffle(left); shuffle(right)\n";
      out += StrFormat("    mpc:  reveal key columns to party_%d\n", node->stp);
      out += "    stp:  pair matching rows in the clear (row positions)\n";
      out += "    stp:  secret-share the two row-index columns back into MPC\n";
      out += "    mpc:  oblivious_select(left); oblivious_select(right); reshuffle\n";
      break;
    case ir::HybridKind::kPublicJoin:
      out += StrFormat("  %s = public_join(%s, %s, joiner=party_%d):\n",
                       Ref(node).c_str(), Ref(node->inputs[0]).c_str(),
                       Ref(node->inputs[1]).c_str(), node->stp);
      out += "    all:  send public key columns to the joiner\n";
      out += "    join: cleartext join, sorted by key; broadcast index relation\n";
      out += "    all:  assemble joined result locally\n";
      break;
    case ir::HybridKind::kHybridAggregate: {
      const auto& p = node->Params<ir::AggregateParams>();
      out += StrFormat("  %s = hybrid_agg_%s(%s, keys={'%s'}, stp=party_%d):\n",
                       Ref(node).c_str(), AggKindName(p.kind),
                       Ref(node->inputs[0]).c_str(),
                       StrJoin(p.group_columns, "', '").c_str(), node->stp);
      out += "    mpc:  shuffle; reveal group-by column to the STP\n";
      out += "    stp:  cleartext sort of row positions; equality flags\n";
      out += "    stp:  send ordering in the clear; secret-share flags\n";
      out += "    mpc:  reorder; flag-driven oblivious accumulate; compact\n";
      break;
    }
    case ir::HybridKind::kHybridWindow: {
      const auto& p = node->Params<ir::WindowParams>();
      out += StrFormat(
          "  %s = hybrid_window_%s(%s, partition={'%s'}, order='%s', stp=party_%d):\n",
          Ref(node).c_str(), WindowFnName(p.fn), Ref(node->inputs[0]).c_str(),
          StrJoin(p.partition_columns, "', '").c_str(), p.order_column.c_str(),
          node->stp);
      out += "    mpc:  shuffle; reveal partition+order columns to the STP\n";
      out += "    stp:  cleartext sort of row positions; same-partition flags\n";
      out += "    stp:  send ordering in the clear; secret-share flags\n";
      out += "    mpc:  reorder; flag-gated window scan (no compaction)\n";
      break;
    }
    case ir::HybridKind::kNone:
      break;
  }
  return out;
}

}  // namespace

const char* MpcBackendName(MpcBackendKind kind) {
  switch (kind) {
    case MpcBackendKind::kSharemind:
      return "sharemind";
    case MpcBackendKind::kOblivC:
      return "obliv-c";
  }
  return "?";
}

std::string GenerateCode(const ExecutionPlan& plan, MpcBackendKind mpc_backend,
                         bool use_spark) {
  std::string out;
  for (const Job& job : plan.jobs) {
    switch (job.kind) {
      case JobKind::kLocal:
        out += StrFormat("# --- job %d: local %s at party %d ---\n", job.id,
                         use_spark ? "spark" : "python", job.party);
        for (const ir::OpNode* node : job.nodes) {
          out += "  " + LocalLine(node, use_spark) + "\n";
        }
        break;
      case JobKind::kMpc:
        out += StrFormat("# --- job %d: %s MPC ---\n", job.id,
                         MpcBackendName(mpc_backend));
        for (const ir::OpNode* node : job.nodes) {
          out += "  " + MpcLine(node, mpc_backend) + "\n";
        }
        break;
      case JobKind::kHybrid:
        out += StrFormat("# --- job %d: hybrid protocol ---\n", job.id);
        for (const ir::OpNode* node : job.nodes) {
          out += HybridListing(node);
        }
        break;
    }
  }
  return out;
}

}  // namespace compiler
}  // namespace conclave
