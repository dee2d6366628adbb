#include "incremental/decomposition.h"

#include <algorithm>
#include <set>

#include "util/logging.h"

namespace deepdive::incremental {

using factor::FactorGraph;
using factor::VarId;

namespace {

/// Union of two sorted unique vectors.
std::vector<VarId> SortedUnion(const std::vector<VarId>& a, const std::vector<VarId>& b) {
  std::vector<VarId> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

}  // namespace

std::vector<DecompositionGroup> DecomposeWithInactive(const FactorGraph& graph,
                                                      const std::vector<bool>& is_active) {
  const size_t n = graph.NumVariables();
  DD_CHECK_EQ(is_active.size(), n);

  // Line 1: connected components among inactive variables (edges through
  // active variables do not connect).
  std::vector<int> component(n, -1);
  int num_components = 0;
  std::vector<VarId> stack;
  for (VarId start = 0; start < n; ++start) {
    if (is_active[start] || component[start] >= 0) continue;
    const int c = num_components++;
    component[start] = c;
    stack.push_back(start);
    while (!stack.empty()) {
      const VarId v = stack.back();
      stack.pop_back();
      for (VarId u : graph.Neighbors(v)) {
        if (is_active[u] || component[u] >= 0) continue;
        component[u] = c;
        stack.push_back(u);
      }
    }
  }

  // Line 2: per-component inactive sets and minimal active boundaries.
  std::vector<DecompositionGroup> groups(num_components);
  for (VarId v = 0; v < n; ++v) {
    if (component[v] >= 0) groups[component[v]].inactive.push_back(v);
  }
  for (DecompositionGroup& g : groups) {
    std::set<VarId> boundary;
    for (VarId v : g.inactive) {
      for (VarId u : graph.Neighbors(v)) {
        if (is_active[u]) boundary.insert(u);
      }
    }
    g.active.assign(boundary.begin(), boundary.end());
  }

  // Lines 4-6: greedily merge pairs whose active sets nest, i.e.
  // |A_j ∪ A_k| == max(|A_j|, |A_k|). Repeat until no pair merges.
  bool merged = true;
  while (merged) {
    merged = false;
    for (size_t j = 0; j < groups.size() && !merged; ++j) {
      for (size_t k = j + 1; k < groups.size() && !merged; ++k) {
        const std::vector<VarId> u = SortedUnion(groups[j].active, groups[k].active);
        // Merge only when boundaries nest *and* sharing is real — merging
        // groups with no active boundary would fuse independent components
        // for no materialization saving.
        if (u.empty()) continue;
        if (u.size() == std::max(groups[j].active.size(), groups[k].active.size())) {
          groups[j].inactive.insert(groups[j].inactive.end(), groups[k].inactive.begin(),
                                    groups[k].inactive.end());
          std::sort(groups[j].inactive.begin(), groups[j].inactive.end());
          groups[j].active = u;
          groups.erase(groups.begin() + static_cast<ptrdiff_t>(k));
          merged = true;
        }
      }
    }
  }
  return groups;
}

std::vector<std::vector<VarId>> ConnectedComponents(const FactorGraph& graph) {
  const size_t n = graph.NumVariables();
  std::vector<int> component(n, -1);
  int num_components = 0;
  std::vector<VarId> stack;
  for (VarId start = 0; start < n; ++start) {
    if (component[start] >= 0) continue;
    const int c = num_components++;
    component[start] = c;
    stack.push_back(start);
    while (!stack.empty()) {
      const VarId v = stack.back();
      stack.pop_back();
      for (VarId u : graph.Neighbors(v)) {
        if (component[u] >= 0) continue;
        component[u] = c;
        stack.push_back(u);
      }
    }
  }
  std::vector<std::vector<VarId>> out(num_components);
  for (VarId v = 0; v < n; ++v) out[component[v]].push_back(v);
  return out;
}

void IncrementalComponents::AddVariables(size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const auto v = static_cast<VarId>(parent_.size());
    parent_.push_back(v);
    members_.push_back({v});
    min_member_.push_back(v);
    sorted_.push_back(1);
  }
}

VarId IncrementalComponents::Find(VarId v) {
  VarId root = v;
  while (parent_[root] != root) root = parent_[root];
  while (parent_[v] != root) {
    const VarId next = parent_[v];
    parent_[v] = root;
    v = next;
  }
  return root;
}

void IncrementalComponents::Union(VarId a, VarId b) {
  a = Find(a);
  b = Find(b);
  if (a == b) return;
  // Union by size: the smaller member list moves, so a variable moves
  // O(log V) times in total.
  if (members_[a].size() < members_[b].size()) std::swap(a, b);
  parent_[b] = a;
  members_[a].insert(members_[a].end(), members_[b].begin(), members_[b].end());
  members_[b] = {};
  min_member_[a] = std::min(min_member_[a], min_member_[b]);
  sorted_[a] = 0;
}

void IncrementalComponents::UnionGroup(const FactorGraph& graph, factor::GroupId g,
                                       const std::vector<factor::ClauseId>* clauses) {
  const factor::FactorGroup& group = graph.group(g);
  if (!group.active) return;
  for (factor::ClauseId cid : clauses != nullptr ? *clauses : group.clauses) {
    const factor::Clause& clause = graph.clause(cid);
    if (!clause.active) continue;
    for (const factor::Literal& lit : clause.literals) Union(group.head, lit.var);
  }
}

void IncrementalComponents::Rebuild(const FactorGraph& graph) {
  parent_.clear();
  members_.clear();
  min_member_.clear();
  sorted_.clear();
  AddVariables(graph.NumVariables());
  for (factor::GroupId g = 0; g < graph.NumGroups(); ++g) UnionGroup(graph, g, nullptr);
  valid_ = true;
}

void IncrementalComponents::Apply(const FactorGraph& graph,
                                  const factor::GraphDelta& delta) {
  if (!valid_) return;
  bool removes = !delta.removed_groups.empty();
  for (const factor::GraphDelta::GroupMod& mod : delta.modified_groups) {
    removes = removes || !mod.removed.empty();
  }
  if (removes) {
    valid_ = false;
    return;
  }
  if (graph.NumVariables() > parent_.size()) {
    AddVariables(graph.NumVariables() - parent_.size());
  }
  for (factor::GroupId g : delta.new_groups) UnionGroup(graph, g, nullptr);
  for (const factor::GraphDelta::GroupMod& mod : delta.modified_groups) {
    UnionGroup(graph, mod.group, &mod.added);
  }
}

void IncrementalComponents::Sync(const FactorGraph& graph) {
  if (!valid_ || parent_.size() != graph.NumVariables()) Rebuild(graph);
}

const std::vector<VarId>& IncrementalComponents::SortedMembers(VarId r) {
  if (!sorted_[r]) {
    std::sort(members_[r].begin(), members_[r].end());
    sorted_[r] = 1;
  }
  return members_[r];
}

std::vector<const std::vector<VarId>*> IncrementalComponents::ComponentsOf(
    const std::vector<VarId>& vars) {
  DD_CHECK(valid_);
  // Distinct roots via a per-call stamp: O(|vars|), then a sort of the
  // (usually few) components by smallest member.
  if (++stamp_ == 0) {
    std::fill(seen_.begin(), seen_.end(), 0);
    stamp_ = 1;
  }
  seen_.resize(parent_.size(), 0);
  std::vector<std::pair<VarId, VarId>> roots;  // (smallest member, root)
  for (VarId v : vars) {
    const VarId r = Find(v);
    if (seen_[r] == stamp_) continue;
    seen_[r] = stamp_;
    roots.emplace_back(min_member_[r], r);
  }
  std::sort(roots.begin(), roots.end());
  std::vector<const std::vector<VarId>*> out;
  out.reserve(roots.size());
  for (const auto& [min_member, r] : roots) out.push_back(&SortedMembers(r));
  return out;
}

}  // namespace deepdive::incremental
