#include "factor/factor_graph.h"

#include <algorithm>

#include "util/hash.h"
#include "util/logging.h"

namespace deepdive::factor {

namespace {

/// Growth-aware reserve: never shrinks the amortized growth guarantee.
/// Reserving an exact slightly-larger capacity on every small batch would
/// reallocate per batch (quadratic); growing to at least double keeps
/// appends amortized O(1) while still pre-sizing for large batches.
template <typename Vector>
void GrowReserve(Vector* v, size_t n) {
  if (n > v->capacity()) v->reserve(std::max(n, v->size() * 2));
}

}  // namespace

VarId FactorGraph::AddVariable() {
  evidence_.emplace_back(std::nullopt);
  head_refs_.emplace_back();
  body_refs_.emplace_back();
  return static_cast<VarId>(evidence_.size() - 1);
}

VarId FactorGraph::AddVariables(size_t n) {
  DD_CHECK_GT(n, 0u);
  const VarId first = static_cast<VarId>(evidence_.size());
  evidence_.resize(evidence_.size() + n);
  head_refs_.resize(head_refs_.size() + n);
  body_refs_.resize(body_refs_.size() + n);
  return first;
}

void FactorGraph::SetEvidence(VarId var, std::optional<bool> value) {
  DD_CHECK_LT(var, evidence_.size());
  evidence_[var] = value;
}

WeightId FactorGraph::AddWeight(double value, bool learnable, std::string description) {
  weights_.push_back(Weight{value, learnable, std::move(description)});
  weight_groups_.emplace_back();
  return static_cast<WeightId>(weights_.size() - 1);
}

WeightId FactorGraph::GetOrCreateTiedWeight(const std::string& key) {
  auto it = tied_weights_.find(key);
  if (it != tied_weights_.end()) return it->second;
  const WeightId id = AddWeight(0.0, /*learnable=*/true, key);
  tied_weights_.emplace(key, id);
  return id;
}

std::optional<WeightId> FactorGraph::FindTiedWeight(const std::string& key) const {
  auto it = tied_weights_.find(key);
  if (it == tied_weights_.end()) return std::nullopt;
  return it->second;
}

void FactorGraph::SetWeightValue(WeightId id, double value) {
  DD_CHECK_LT(id, weights_.size());
  weights_[id].value = value;
}

GroupId FactorGraph::AddGroup(uint32_t rule_id, VarId head, WeightId weight,
                              Semantics semantics) {
  DD_CHECK_LT(head, evidence_.size());
  DD_CHECK_LT(weight, weights_.size());
  FactorGroup group;
  group.rule_id = rule_id;
  group.head = head;
  group.weight = weight;
  group.semantics = semantics;
  const GroupId id = static_cast<GroupId>(groups_.size());
  groups_.push_back(std::move(group));
  head_refs_[head].push_back(id);
  weight_groups_[weight].push_back(id);
  return id;
}

uint64_t FactorGraph::ClauseKey(GroupId group, const std::vector<Literal>& literals) {
  uint64_t h = HashMix(0x51ab5e1f00d5eedULL ^ group);
  for (const Literal& lit : literals) {
    h = HashCombine(h, (static_cast<uint64_t>(lit.var) << 1) | (lit.negated ? 1 : 0));
  }
  return h;
}

ClauseId FactorGraph::AddClause(GroupId group, std::vector<Literal> literals) {
  DD_CHECK_LT(group, groups_.size());
  for (const Literal& lit : literals) {
    DD_CHECK_LT(lit.var, evidence_.size());
    DD_CHECK_NE(lit.var, groups_[group].head)
        << "clause literal equals group head (self-loop)";
  }
  Clause clause;
  clause.group = group;
  clause.literals = std::move(literals);
  const ClauseId id = static_cast<ClauseId>(clauses_.size());
  for (const Literal& lit : clause.literals) {
    body_refs_[lit.var].push_back(BodyRef{id, lit.negated});
  }
  clause_index_[ClauseKey(group, clause.literals)].push_back(id);
  clauses_.push_back(std::move(clause));
  groups_[group].clauses.push_back(id);
  if (groups_[group].active) ++num_active_clauses_;
  return id;
}

ClauseId FactorGraph::AddClauses(GroupId group,
                                 std::vector<std::vector<Literal>> literal_lists) {
  DD_CHECK_LT(group, groups_.size());
  if (literal_lists.empty()) return kNoClause;
  ReserveClauses(clauses_.size() + literal_lists.size());
  const ClauseId first = static_cast<ClauseId>(clauses_.size());
  for (std::vector<Literal>& literals : literal_lists) {
    AddClause(group, std::move(literals));
  }
  return first;
}

void FactorGraph::ReserveVariables(size_t n) {
  GrowReserve(&evidence_, n);
  GrowReserve(&head_refs_, n);
  GrowReserve(&body_refs_, n);
}

void FactorGraph::ReserveWeights(size_t n) {
  GrowReserve(&weights_, n);
  GrowReserve(&weight_groups_, n);
}

void FactorGraph::ReserveGroups(size_t n) { GrowReserve(&groups_, n); }

void FactorGraph::ReserveClauses(size_t n) {
  GrowReserve(&clauses_, n);
  // The hash index grows geometrically on its own; an explicit rehash only
  // pays off when pre-sizing well past the current load.
  if (n > clause_index_.size() * 2) clause_index_.reserve(n);
}

void FactorGraph::DeactivateGroup(GroupId group) {
  DD_CHECK_LT(group, groups_.size());
  if (!groups_[group].active) return;
  for (ClauseId cid : groups_[group].clauses) {
    if (clauses_[cid].active) --num_active_clauses_;
  }
  groups_[group].active = false;
}

void FactorGraph::DeactivateClause(ClauseId clause) {
  DD_CHECK_LT(clause, clauses_.size());
  if (clauses_[clause].active && groups_[clauses_[clause].group].active) {
    --num_active_clauses_;
  }
  clauses_[clause].active = false;
  // Drop it from the active-clause index (preserving bucket order so
  // FindActiveClause keeps returning the earliest matching clause).
  const Clause& c = clauses_[clause];
  auto it = clause_index_.find(ClauseKey(c.group, c.literals));
  if (it != clause_index_.end()) {
    auto pos = std::find(it->second.begin(), it->second.end(), clause);
    if (pos != it->second.end()) it->second.erase(pos);
    if (it->second.empty()) clause_index_.erase(it);
  }
}

ClauseId FactorGraph::FindActiveClause(GroupId group,
                                       const std::vector<Literal>& literals) const {
  auto it = clause_index_.find(ClauseKey(group, literals));
  if (it == clause_index_.end()) return kNoClause;
  for (ClauseId cid : it->second) {
    const Clause& clause = clauses_[cid];
    if (!clause.active || clause.group != group ||
        clause.literals.size() != literals.size()) {
      continue;
    }
    bool equal = true;
    for (size_t i = 0; i < literals.size(); ++i) {
      if (clause.literals[i].var != literals[i].var ||
          clause.literals[i].negated != literals[i].negated) {
        equal = false;
        break;
      }
    }
    if (equal) return cid;
  }
  return kNoClause;
}

GroupId FactorGraph::AddSimpleFactor(VarId head, const std::vector<Literal>& body,
                                     WeightId weight, Semantics semantics,
                                     uint32_t rule_id) {
  const GroupId g = AddGroup(rule_id, head, weight, semantics);
  AddClause(g, body);
  return g;
}

std::vector<VarId> FactorGraph::Neighbors(VarId var) const {
  std::vector<VarId> out;
  auto add_group_vars = [&](GroupId gid) {
    const FactorGroup& g = groups_[gid];
    if (!g.active) return;
    if (g.head != var) out.push_back(g.head);
    for (ClauseId cid : g.clauses) {
      if (!clauses_[cid].active) continue;
      for (const Literal& lit : clauses_[cid].literals) {
        if (lit.var != var) out.push_back(lit.var);
      }
    }
  };
  for (GroupId gid : head_refs_[var]) add_group_vars(gid);
  // A retracted clause no longer links its literals to the group: skipping
  // it keeps the relation symmetric (the head side only sees active
  // clauses), so components do not depend on which side a traversal meets
  // first.
  for (const BodyRef& ref : body_refs_[var]) {
    if (clauses_[ref.clause].active) add_group_vars(clauses_[ref.clause].group);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

int64_t FactorGraph::SatisfiedClauses(
    GroupId group, const std::function<bool(VarId)>& value_of) const {
  const FactorGroup& g = groups_[group];
  int64_t n = 0;
  for (ClauseId cid : g.clauses) {
    if (!clauses_[cid].active) continue;
    bool sat = true;
    for (const Literal& lit : clauses_[cid].literals) {
      const bool v = value_of(lit.var);
      if (v == lit.negated) {
        sat = false;
        break;
      }
    }
    if (sat) ++n;
  }
  return n;
}

double FactorGraph::GroupLogWeight(GroupId group,
                                   const std::function<bool(VarId)>& value_of) const {
  const FactorGroup& g = groups_[group];
  if (!g.active) return 0.0;
  const double sign = value_of(g.head) ? 1.0 : -1.0;
  return weights_[g.weight].value * sign *
         GCount(g.semantics, SatisfiedClauses(group, value_of));
}

double FactorGraph::TotalLogWeight(const std::function<bool(VarId)>& value_of) const {
  double total = 0.0;
  for (GroupId gid = 0; gid < groups_.size(); ++gid) {
    total += GroupLogWeight(gid, value_of);
  }
  return total;
}

}  // namespace deepdive::factor
