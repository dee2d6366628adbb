#include "engine/rule_evaluator.h"

#include <algorithm>

#include "util/logging.h"

namespace deepdive::engine {

bool EvalCompare(dsl::CompareOp op, const Value& lhs, const Value& rhs) {
  switch (op) {
    case dsl::CompareOp::kEq:
      return lhs == rhs;
    case dsl::CompareOp::kNe:
      return lhs != rhs;
    case dsl::CompareOp::kLt:
      return lhs < rhs;
    case dsl::CompareOp::kLe:
      return lhs < rhs || lhs == rhs;
    case dsl::CompareOp::kGt:
      return rhs < lhs;
    case dsl::CompareOp::kGe:
      return rhs < lhs || lhs == rhs;
  }
  return false;
}

Tuple ProjectHead(const std::vector<dsl::Term>& head_terms,
                  const std::map<std::string, int>& slots,
                  const std::vector<Value>& values) {
  Tuple out;
  out.reserve(head_terms.size());
  for (const dsl::Term& t : head_terms) {
    if (t.is_var()) {
      auto it = slots.find(t.var);
      DD_CHECK(it != slots.end()) << "unbound head variable " << t.var;
      out.push_back(values[it->second]);
    } else {
      out.push_back(t.constant);
    }
  }
  return out;
}

StatusOr<CompiledRuleBody> CompiledRuleBody::Compile(
    const dsl::Program& program, const Database& db, const std::vector<dsl::Atom>& body,
    const std::vector<dsl::Condition>& conditions) {
  CompiledRuleBody compiled;

  auto slot_for = [&](const std::string& var) {
    auto [it, inserted] =
        compiled.var_slots_.emplace(var, static_cast<int>(compiled.var_slots_.size()));
    (void)inserted;
    return it->second;
  };

  auto compile_term = [&](const dsl::Term& t) {
    TermPlan plan;
    plan.is_var = t.is_var();
    if (plan.is_var) {
      plan.slot = slot_for(t.var);
    } else {
      plan.constant = t.constant;
    }
    return plan;
  };

  for (const dsl::Atom& atom : body) {
    if (program.FindRelation(atom.predicate) == nullptr) {
      return Status::NotFound("undeclared predicate '" + atom.predicate + "'");
    }
    const Table* table = db.GetTable(atom.predicate);
    if (table == nullptr) {
      return Status::NotFound("no table for relation '" + atom.predicate + "'");
    }
    AtomPlan plan;
    plan.table = table;
    plan.relation = atom.predicate;
    plan.negated = atom.negated;
    for (const dsl::Term& t : atom.terms) plan.terms.push_back(compile_term(t));
    compiled.atoms_.push_back(std::move(plan));
  }
  // Move negated atoms after all positive ones so their variables are bound.
  std::stable_partition(compiled.atoms_.begin(), compiled.atoms_.end(),
                        [](const AtomPlan& a) { return !a.negated; });

  for (const dsl::Condition& c : conditions) {
    CondPlan plan;
    plan.lhs = compile_term(c.lhs);
    plan.op = c.op;
    plan.rhs = compile_term(c.rhs);
    compiled.conditions_.push_back(std::move(plan));
  }
  return compiled;
}

bool CompiledRuleBody::MatchTuple(const AtomPlan& atom, const Tuple& tuple,
                                  std::vector<Value>* values, std::vector<bool>* bound,
                                  std::vector<int>* newly_bound) const {
  if (tuple.size() != atom.terms.size()) return false;
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    const TermPlan& t = atom.terms[i];
    if (!t.is_var) {
      if (!(tuple[i] == t.constant)) return false;
    } else if ((*bound)[t.slot]) {
      if (!((*values)[t.slot] == tuple[i])) return false;
    } else {
      (*values)[t.slot] = tuple[i];
      (*bound)[t.slot] = true;
      newly_bound->push_back(t.slot);
    }
  }
  return true;
}

bool CompiledRuleBody::ConditionsHold(const std::vector<Value>& values) const {
  for (const CondPlan& c : conditions_) {
    const Value& lhs = c.lhs.is_var ? values[c.lhs.slot] : c.lhs.constant;
    const Value& rhs = c.rhs.is_var ? values[c.rhs.slot] : c.rhs.constant;
    if (!EvalCompare(c.op, lhs, rhs)) return false;
  }
  return true;
}

bool CompiledRuleBody::TupleInOld(const AtomPlan& atom, const DeltaTable* delta,
                                  const Tuple& tuple) const {
  // OLD = NEW ⊖ delta: present now and not just-inserted, or just-deleted.
  const int64_t c = delta == nullptr ? 0 : delta->Count(tuple);
  if (c > 0) return false;                    // inserted: in NEW only
  if (c < 0) return true;                     // deleted: was in OLD
  return atom.table->Contains(tuple);         // unchanged
}

void CompiledRuleBody::Recurse(size_t atom_idx, std::vector<Value>* values,
                               std::vector<bool>* bound, int64_t sign,
                               const std::vector<AtomMode>& modes,
                               const std::vector<const DeltaTable*>& atom_deltas,
                               const BindingCallback& fn) const {
  if (atom_idx == atoms_.size()) {
    if (ConditionsHold(*values)) fn(*values, sign);
    return;
  }
  const AtomPlan& atom = atoms_[atom_idx];
  const AtomMode mode = modes[atom_idx];
  const DeltaTable* delta = atom_deltas[atom_idx];

  if (atom.negated) {
    // All variables are bound (analyzer guarantees safety); negated atoms are
    // only allowed on unchanged relations in delta mode, so probe the table.
    Tuple probe;
    probe.reserve(atom.terms.size());
    for (const TermPlan& t : atom.terms) {
      probe.push_back(t.is_var ? (*values)[t.slot] : t.constant);
    }
    if (!atom.table->Contains(probe)) {
      Recurse(atom_idx + 1, values, bound, sign, modes, atom_deltas, fn);
    }
    return;
  }

  auto try_tuple = [&](const Tuple& tuple, int64_t tuple_sign) {
    std::vector<int> newly_bound;
    if (MatchTuple(atom, tuple, values, bound, &newly_bound)) {
      Recurse(atom_idx + 1, values, bound, sign * tuple_sign, modes, atom_deltas, fn);
    }
    for (int slot : newly_bound) (*bound)[slot] = false;
  };

  if (mode == AtomMode::kDelta) {
    DD_CHECK(delta != nullptr);
    delta->ForEach([&](const Tuple& tuple, int64_t count) {
      try_tuple(tuple, count > 0 ? 1 : -1);
    });
    return;
  }

  // Pick an index column: first term that is a constant or a bound variable.
  int probe_col = -1;
  Value probe_value;
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    const TermPlan& t = atom.terms[i];
    if (!t.is_var) {
      probe_col = static_cast<int>(i);
      probe_value = t.constant;
      break;
    }
    if ((*bound)[t.slot]) {
      probe_col = static_cast<int>(i);
      probe_value = (*values)[t.slot];
      break;
    }
  }

  auto visit_current_or_old = [&](const Tuple& tuple) {
    if (mode == AtomMode::kOld) {
      // Skip tuples that are NEW-only (just inserted).
      if (delta != nullptr && delta->Count(tuple) > 0) return;
    }
    try_tuple(tuple, 1);
  };

  std::vector<RowId> semijoin_rows;
  if (probe_col >= 0) {
    for (RowId id : atom.table->Lookup(probe_col, probe_value)) {
      visit_current_or_old(atom.table->row(id));
    }
  } else if (atom_idx == 0 && DeltaSemiJoinRows(atom, modes, atom_deltas, &semijoin_rows)) {
    for (RowId id : semijoin_rows) visit_current_or_old(atom.table->row(id));
  } else {
    atom.table->Scan([&](RowId, const Tuple& tuple) { visit_current_or_old(tuple); });
  }

  if (mode == AtomMode::kOld && delta != nullptr) {
    // Add back just-deleted tuples (they were in OLD but are tombstoned now).
    delta->ForEach([&](const Tuple& tuple, int64_t count) {
      if (count >= 0) return;
      if (probe_col >= 0 && !(tuple[probe_col] == probe_value)) return;
      try_tuple(tuple, 1);
    });
  }
}

bool CompiledRuleBody::DeltaSemiJoinRows(const AtomPlan& atom,
                                         const std::vector<AtomMode>& modes,
                                         const std::vector<const DeltaTable*>& atom_deltas,
                                         std::vector<RowId>* rows) const {
  for (size_t j = 0; j < atoms_.size(); ++j) {
    if (modes[j] != AtomMode::kDelta || &atoms_[j] == &atom) continue;
    const AtomPlan& delta_atom = atoms_[j];
    for (size_t col = 0; col < atom.terms.size(); ++col) {
      if (!atom.terms[col].is_var) continue;
      for (size_t dcol = 0; dcol < delta_atom.terms.size(); ++dcol) {
        const TermPlan& dt = delta_atom.terms[dcol];
        if (!dt.is_var || dt.slot != atom.terms[col].slot) continue;
        // Every derivation binds this column to the shared variable's value
        // in some delta tuple, so only rows holding one of those values can
        // contribute. Sorted RowIds visit them in the scan's order.
        atom_deltas[j]->ForEach([&](const Tuple& tuple, int64_t) {
          if (dcol >= tuple.size()) return;
          for (RowId id : atom.table->Lookup(col, tuple[dcol])) rows->push_back(id);
        });
        std::sort(rows->begin(), rows->end());
        rows->erase(std::unique(rows->begin(), rows->end()), rows->end());
        return true;
      }
    }
  }
  return false;
}

void CompiledRuleBody::EvaluateFull(const BindingCallback& fn) const {
  // Sequential entry point: keep the Recurse path, which probes the driver
  // atom's column index when it has a constant term (the range path always
  // scans, which only pays off once the scan is split across shards). The
  // index yields rows in ascending RowId order, so enumeration order is
  // identical to EvaluateFullRange(0, FullDriverDomain()).
  std::vector<Value> values(var_slots_.size());
  std::vector<bool> bound(var_slots_.size(), false);
  std::vector<AtomMode> modes(atoms_.size(), AtomMode::kCurrent);
  std::vector<const DeltaTable*> deltas(atoms_.size(), nullptr);
  Recurse(0, &values, &bound, 1, modes, deltas, fn);
}

bool CompiledRuleBody::DriverHasConstantTerm() const {
  if (!DriverShardable()) return false;
  for (const TermPlan& t : atoms_[0].terms) {
    if (!t.is_var) return true;
  }
  return false;
}

size_t CompiledRuleBody::FullDriverDomain() const {
  return DriverShardable() ? atoms_[0].table->RowSlots() : 0;
}

void CompiledRuleBody::EvaluateFullRange(size_t begin, size_t end,
                                         const BindingCallback& fn) const {
  DD_CHECK(DriverShardable());
  std::vector<AtomMode> modes(atoms_.size(), AtomMode::kCurrent);
  std::vector<const DeltaTable*> deltas(atoms_.size(), nullptr);
  RecurseDriverRange(begin, end, AtomMode::kCurrent, nullptr, nullptr, modes, deltas,
                     fn);
}

StatusOr<CompiledRuleBody::DeltaEvalPlan> CompiledRuleBody::PlanDeltaEvaluation(
    const std::map<std::string, const DeltaTable*>& deltas) const {
  // Positions (atom indexes) on changed relations, in a fixed global order:
  // (relation name, atom index). Each term of the telescoping sum puts one
  // position in DELTA mode, earlier positions in NEW (current) mode, later
  // ones in OLD mode.
  DeltaEvalPlan plan;
  plan.atom_deltas.assign(atoms_.size(), nullptr);
  for (const auto& [relation, delta] : deltas) {
    if (delta == nullptr || delta->empty()) continue;
    for (size_t i = 0; i < atoms_.size(); ++i) {
      if (atoms_[i].relation != relation) continue;
      if (atoms_[i].negated) {
        return Status::Unimplemented(
            "delta evaluation with a changed negated relation '" + relation + "'");
      }
      plan.atom_deltas[i] = delta;
      plan.delta_positions.push_back(i);
    }
  }
  // Order by (relation, position): map iteration is already name-sorted and
  // inner loop is position-sorted, so delta_positions is in global order.
  return plan;
}

void CompiledRuleBody::MaterializeDriverDelta(DeltaEvalPlan* plan) const {
  if (plan->driver_materialized) return;
  plan->driver_materialized = true;
  // ForEach order is reused for every term, which keeps enumeration
  // identical across shard layouts.
  if (!atoms_.empty() && plan->atom_deltas[0] != nullptr) {
    plan->atom_deltas[0]->ForEach([&](const Tuple& tuple, int64_t count) {
      plan->driver_entries.emplace_back(tuple, count);
      if (count < 0) plan->driver_deletions.push_back(tuple);
    });
  }
}

size_t CompiledRuleBody::DeltaTermDomain(const DeltaEvalPlan& plan, size_t term) const {
  if (!DriverShardable()) return 0;
  // The driver's mode in term `term` follows EvaluateDeltaTermRange's mode
  // assignment: positions at telescoping index < term are NEW, == term is
  // DELTA, > term is OLD. So the driver is NEW for terms *after* its own
  // index and OLD for terms *before* it.
  const size_t driver_term =
      std::find(plan.delta_positions.begin(), plan.delta_positions.end(), size_t{0}) -
      plan.delta_positions.begin();
  if (plan.atom_deltas[0] == nullptr || term > driver_term) {
    // Driver in NEW (current) mode.
    return atoms_[0].table->RowSlots();
  }
  // Entry counts come from the delta table itself, so domains are exact
  // whether or not MaterializeDriverDelta has run (routing needs them before
  // the sharded path commits to materializing).
  if (term == driver_term) return plan.atom_deltas[0]->size();
  // Driver in OLD mode: current rows plus just-deleted tuples added back.
  return atoms_[0].table->RowSlots() + plan.atom_deltas[0]->DeletionEntries();
}

std::vector<CompiledRuleBody::AtomMode> CompiledRuleBody::TermModes(
    const DeltaEvalPlan& plan, size_t term) const {
  std::vector<AtomMode> modes(atoms_.size(), AtomMode::kCurrent);
  for (size_t mm = 0; mm < plan.delta_positions.size(); ++mm) {
    if (mm < term) {
      modes[plan.delta_positions[mm]] = AtomMode::kCurrent;  // NEW
    } else if (mm == term) {
      modes[plan.delta_positions[mm]] = AtomMode::kDelta;
    } else {
      modes[plan.delta_positions[mm]] = AtomMode::kOld;
    }
  }
  return modes;
}

void CompiledRuleBody::EvaluateDeltaTermRange(const DeltaEvalPlan& plan, size_t term,
                                              size_t begin, size_t end,
                                              const BindingCallback& fn) const {
  DD_CHECK(DriverShardable());
  DD_CHECK(plan.atom_deltas[0] == nullptr || plan.driver_materialized)
      << "call MaterializeDriverDelta before range evaluation";
  const std::vector<AtomMode> modes = TermModes(plan, term);
  RecurseDriverRange(begin, end, modes[0], &plan.driver_entries,
                     &plan.driver_deletions, modes, plan.atom_deltas, fn);
}

void CompiledRuleBody::EvaluateDeltaTerm(const DeltaEvalPlan& plan, size_t term,
                                         const BindingCallback& fn) const {
  std::vector<Value> values(var_slots_.size());
  std::vector<bool> bound(var_slots_.size(), false);
  Recurse(0, &values, &bound, 1, TermModes(plan, term), plan.atom_deltas, fn);
}

Status CompiledRuleBody::EvaluateDelta(
    const std::map<std::string, const DeltaTable*>& deltas,
    const BindingCallback& fn) const {
  DD_ASSIGN_OR_RETURN(DeltaEvalPlan plan, PlanDeltaEvaluation(deltas));
  for (size_t m = 0; m < plan.num_terms(); ++m) {
    EvaluateDeltaTerm(plan, m, fn);
  }
  return Status::OK();
}

void CompiledRuleBody::RecurseDriverRange(
    size_t begin, size_t end, AtomMode driver_mode,
    const std::vector<std::pair<Tuple, int64_t>>* driver_entries,
    const std::vector<Tuple>* driver_deletions, const std::vector<AtomMode>& modes,
    const std::vector<const DeltaTable*>& atom_deltas, const BindingCallback& fn) const {
  const AtomPlan& atom = atoms_[0];
  const DeltaTable* delta = atom_deltas[0];
  std::vector<Value> values(var_slots_.size());
  std::vector<bool> bound(var_slots_.size(), false);

  auto try_tuple = [&](const Tuple& tuple, int64_t tuple_sign) {
    std::vector<int> newly_bound;
    if (MatchTuple(atom, tuple, &values, &bound, &newly_bound)) {
      Recurse(1, &values, &bound, tuple_sign, modes, atom_deltas, fn);
    }
    for (int slot : newly_bound) bound[slot] = false;
  };

  if (driver_mode == AtomMode::kDelta) {
    DD_CHECK(driver_entries != nullptr);
    const size_t limit = std::min(end, driver_entries->size());
    for (size_t i = begin; i < limit; ++i) {
      const auto& [tuple, count] = (*driver_entries)[i];
      try_tuple(tuple, count > 0 ? 1 : -1);
    }
    return;
  }

  const size_t slots = atom.table->RowSlots();
  if (begin < slots) {
    atom.table->ScanRange(static_cast<RowId>(begin),
                          static_cast<RowId>(std::min(end, slots)),
                          [&](RowId, const Tuple& tuple) {
                            if (driver_mode == AtomMode::kOld && delta != nullptr &&
                                delta->Count(tuple) > 0) {
                              return;  // NEW-only tuple: not in OLD
                            }
                            try_tuple(tuple, 1);
                          });
  }
  if (driver_mode == AtomMode::kOld && driver_deletions != nullptr && end > slots) {
    // Add back just-deleted tuples; their domain indexes follow the rows.
    const size_t del_begin = begin > slots ? begin - slots : 0;
    const size_t del_end = std::min(end - slots, driver_deletions->size());
    for (size_t i = del_begin; i < del_end; ++i) {
      try_tuple((*driver_deletions)[i], 1);
    }
  }
}

void CompiledRuleBody::PrewarmIndexes() const {
  // The probe column of every atom is static: the first term that is a
  // constant or a variable bound by an earlier atom. (MatchTuple binds every
  // variable of an atom, so the bound set at atom k does not depend on data.)
  std::vector<bool> bound(var_slots_.size(), false);
  for (size_t k = 0; k < atoms_.size(); ++k) {
    const AtomPlan& atom = atoms_[k];
    if (!atom.negated && k > 0) {
      for (size_t i = 0; i < atom.terms.size(); ++i) {
        const TermPlan& t = atom.terms[i];
        if (!t.is_var || bound[t.slot]) {
          atom.table->WarmColumnIndex(i);
          break;
        }
      }
    }
    for (const TermPlan& t : atom.terms) {
      if (t.is_var) bound[t.slot] = true;
    }
  }
}

}  // namespace deepdive::engine
