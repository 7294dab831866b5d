#include "conclave/compiler/partition.h"

#include <unordered_map>

#include "conclave/common/strings.h"

namespace conclave {
namespace compiler {
namespace {

struct Placement {
  JobKind kind;
  PartyId party;  // Only for kLocal.

  bool operator==(const Placement& other) const {
    return kind == other.kind && (kind != JobKind::kLocal || party == other.party);
  }
};

Placement PlacementOf(const ir::OpNode& node) {
  switch (node.exec_mode) {
    case ir::ExecMode::kLocal:
      return {JobKind::kLocal, node.exec_party};
    case ir::ExecMode::kHybrid:
      return {JobKind::kHybrid, kNoParty};
    case ir::ExecMode::kMpc:
      return {JobKind::kMpc, kNoParty};
  }
  return {JobKind::kMpc, kNoParty};
}

// Minimal union-find over node ids.
class UnionFind {
 public:
  int Find(int x) {
    auto it = parent_.find(x);
    if (it == parent_.end()) {
      parent_[x] = x;
      return x;
    }
    int root = x;
    while (parent_[root] != root) {
      root = parent_[root];
    }
    while (parent_[x] != root) {
      int next = parent_[x];
      parent_[x] = root;
      x = next;
    }
    return root;
  }
  void Merge(int a, int b) { parent_[Find(a)] = Find(b); }

 private:
  std::unordered_map<int, int> parent_;
};

}  // namespace

const char* JobKindName(JobKind kind) {
  switch (kind) {
    case JobKind::kLocal:
      return "local";
    case JobKind::kMpc:
      return "mpc";
    case JobKind::kHybrid:
      return "hybrid";
  }
  return "?";
}

int ExecutionPlan::CountJobs(JobKind kind) const {
  int count = 0;
  for (const Job& job : jobs) {
    if (job.kind == kind) {
      ++count;
    }
  }
  return count;
}

std::string ExecutionPlan::Summary() const {
  std::string out = StrFormat("%zu jobs: %d local, %d mpc, %d hybrid\n", jobs.size(),
                              CountJobs(JobKind::kLocal), CountJobs(JobKind::kMpc),
                              CountJobs(JobKind::kHybrid));
  for (const Job& job : jobs) {
    std::vector<std::string> ids;
    ids.reserve(job.nodes.size());
    for (const ir::OpNode* node : job.nodes) {
      ids.push_back(StrFormat("#%d:%s", node->id, ir::OpKindName(node->kind)));
    }
    out += StrFormat("  job %d [%s", job.id, JobKindName(job.kind));
    if (job.kind == JobKind::kLocal) {
      out += StrFormat("@%d", job.party);
    }
    if (job.kind == JobKind::kHybrid) {
      out += StrFormat(",%s,stp=%d", ir::HybridKindName(job.hybrid), job.stp);
    }
    out += "] " + StrJoin(ids, " ") + "\n";
  }
  return out;
}

ExecutionPlan PartitionDag(const ir::Dag& dag) {
  const std::vector<ir::OpNode*> order = dag.TopoOrder();
  UnionFind groups;
  for (ir::OpNode* node : order) {
    const Placement mine = PlacementOf(*node);
    if (mine.kind == JobKind::kHybrid) {
      continue;  // Hybrid nodes stay singletons.
    }
    for (ir::OpNode* input : node->inputs) {
      if (PlacementOf(*input) == mine &&
          PlacementOf(*input).kind != JobKind::kHybrid) {
        groups.Merge(node->id, input->id);
      }
    }
  }

  ExecutionPlan plan;
  std::unordered_map<int, int> root_to_job;
  for (ir::OpNode* node : order) {
    const Placement mine = PlacementOf(*node);
    const int root =
        mine.kind == JobKind::kHybrid ? -node->id - 1 : groups.Find(node->id);
    auto it = root_to_job.find(root);
    if (it == root_to_job.end()) {
      Job job;
      job.id = static_cast<int>(plan.jobs.size());
      job.kind = mine.kind;
      job.party = mine.party;
      if (mine.kind == JobKind::kHybrid) {
        job.hybrid = node->hybrid;
        job.stp = node->stp;
      }
      plan.jobs.push_back(std::move(job));
      it = root_to_job.emplace(root, plan.jobs.back().id).first;
    }
    plan.jobs[static_cast<size_t>(it->second)].nodes.push_back(node);
  }
  return plan;
}

}  // namespace compiler
}  // namespace conclave
