#ifndef DEEPDIVE_ENGINE_RULE_EVALUATOR_H_
#define DEEPDIVE_ENGINE_RULE_EVALUATOR_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "dsl/ast.h"
#include "dsl/program.h"
#include "storage/database.h"
#include "storage/delta_table.h"
#include "util/status.h"

namespace deepdive::engine {

/// Callback invoked once per derivation. `values` holds the binding of every
/// rule variable (indexed by the compiled slot map); `sign` is +1 for a
/// derivation gained, -1 for one lost (always +1 in full evaluation).
using BindingCallback =
    std::function<void(const std::vector<Value>& values, int64_t sign)>;

/// A compiled conjunctive rule body: atoms bound to tables, variables mapped
/// to slots. Supports
///   * full evaluation (all derivations over the current database), and
///   * delta evaluation: given per-relation set-level deltas, enumerates
///     exactly the derivations gained/lost, using the standard telescoping
///     expansion  Join(N...) - Join(O...) = sum_j N..N Δ_j O..O
///     which is the "delta rule" evaluation of DRed/counting [21] and
///     handles self-joins (e.g. rule R1 of Example 2.2) correctly.
///
/// The compiled body holds Table pointers; it must be recompiled if tables
/// are dropped/recreated (not merely mutated).
class CompiledRuleBody {
 public:
  static StatusOr<CompiledRuleBody> Compile(const dsl::Program& program,
                                            const Database& db,
                                            const std::vector<dsl::Atom>& body,
                                            const std::vector<dsl::Condition>& conditions);

  /// Slot index for each variable name appearing in the body. Immutable
  /// after construction; the evaluator itself is used single-threaded.
  const std::map<std::string, int>& var_slots() const { return var_slots_; }
  size_t num_slots() const { return var_slots_.size(); }

  /// Enumerates all derivations in the current database state.
  void EvaluateFull(const BindingCallback& fn) const;

  /// Enumerates derivations gained/lost given set-level deltas (count sign
  /// +1 = tuple appeared, -1 = disappeared) for some body relations. Tables
  /// must already be in the NEW state (deltas applied). Relations absent
  /// from `deltas` are treated as unchanged. Errors if a negated atom's
  /// relation changed (unsupported).
  Status EvaluateDelta(const std::map<std::string, const DeltaTable*>& deltas,
                       const BindingCallback& fn) const;

  // ---- sharded evaluation ----
  //
  // The driver atom (first body atom) defines a scan domain that can be
  // partitioned into contiguous ranges; evaluating each range independently
  // and concatenating the results in range order reproduces the sequential
  // enumeration exactly. This is what lets the grounder run shards on a
  // thread pool and still build a bit-identical graph.

  /// True when the driver atom has a constant term: the sequential
  /// recursion then probes the driver's column index (O(matching rows)),
  /// which usually beats a sharded full scan — callers should prefer the
  /// sequential path for such bodies.
  bool DriverHasConstantTerm() const;

  /// Size of the full-evaluation driver domain (the driver table's row-slot
  /// count), or 0 if the body is not shardable (empty or negation-only).
  size_t FullDriverDomain() const;

  /// Enumerates exactly the derivations whose driver row-slot falls in
  /// [begin, end). EvaluateFull == EvaluateFullRange(0, FullDriverDomain()).
  /// Thread-safe against concurrent ranges once PrewarmIndexes() has run.
  void EvaluateFullRange(size_t begin, size_t end, const BindingCallback& fn) const;

  /// Precomputed state for one EvaluateDelta call: the telescoping terms plus
  /// (for the sharded path) the driver atom's materialized delta entries.
  struct DeltaEvalPlan {
    std::vector<size_t> delta_positions;
    std::vector<const DeltaTable*> atom_deltas;
    /// Driver-atom delta entries / deletions in ForEach order, filled by
    /// MaterializeDriverDelta. Only the indexed range evaluation needs them
    /// (sequential term evaluation iterates the delta table directly).
    std::vector<std::pair<Tuple, int64_t>> driver_entries;
    std::vector<Tuple> driver_deletions;
    bool driver_materialized = false;
    size_t num_terms() const { return delta_positions.size(); }
  };

  /// Builds the telescoping-evaluation plan (same validation as
  /// EvaluateDelta: errors on a changed negated relation).
  StatusOr<DeltaEvalPlan> PlanDeltaEvaluation(
      const std::map<std::string, const DeltaTable*>& deltas) const;

  /// Copies the driver atom's delta entries into the plan so range
  /// evaluation can index them. Required before EvaluateDeltaTermRange /
  /// DeltaTermDomain when the driver is on a changed relation; idempotent.
  void MaterializeDriverDelta(DeltaEvalPlan* plan) const;

  /// Driver-domain size of one telescoping term, or 0 if not shardable.
  size_t DeltaTermDomain(const DeltaEvalPlan& plan, size_t term) const;

  /// Sequential evaluation of one telescoping term (the whole driver
  /// domain), via the recursion that probes the driver's column index when
  /// it has a constant term. Enumeration order equals
  /// EvaluateDeltaTermRange(plan, term, 0, DeltaTermDomain(plan, term)).
  void EvaluateDeltaTerm(const DeltaEvalPlan& plan, size_t term,
                         const BindingCallback& fn) const;

  /// Enumerates term `term`'s derivations with driver index in [begin, end).
  /// Covering [0, DeltaTermDomain()) for every term in order reproduces
  /// EvaluateDelta exactly.
  void EvaluateDeltaTermRange(const DeltaEvalPlan& plan, size_t term, size_t begin,
                              size_t end, const BindingCallback& fn) const;

  /// Builds every column index the evaluation will probe. Call before
  /// evaluating ranges concurrently: index construction is lazy and not
  /// thread-safe, but probing built indexes is.
  void PrewarmIndexes() const;

 private:
  struct TermPlan {
    bool is_var = false;
    int slot = -1;       // if is_var
    Value constant;      // if !is_var
  };
  struct AtomPlan {
    const Table* table = nullptr;
    std::string relation;
    bool negated = false;
    std::vector<TermPlan> terms;
  };
  struct CondPlan {
    TermPlan lhs;
    dsl::CompareOp op = dsl::CompareOp::kEq;
    TermPlan rhs;
  };

  enum class AtomMode { kCurrent, kOld, kDelta };

  void Recurse(size_t atom_idx, std::vector<Value>* values, std::vector<bool>* bound,
               int64_t sign, const std::vector<AtomMode>& modes,
               const std::vector<const DeltaTable*>& atom_deltas,
               const BindingCallback& fn) const;

  /// True when the driver atom can be enumerated by domain index (non-empty
  /// body whose first atom is positive).
  bool DriverShardable() const { return !atoms_.empty() && !atoms_[0].negated; }

  /// Per-atom modes of telescoping term `term`: positions at telescoping
  /// index < term evaluate NEW, == term DELTA, > term OLD. The single source
  /// of truth for the mode convention (DeltaTermDomain must agree with it).
  std::vector<AtomMode> TermModes(const DeltaEvalPlan& plan, size_t term) const;

  /// Enumerates driver-atom matches with domain index in [begin, end) under
  /// `mode`, recursing into the remaining atoms for each.
  void RecurseDriverRange(size_t begin, size_t end, AtomMode driver_mode,
                          const std::vector<std::pair<Tuple, int64_t>>* driver_entries,
                          const std::vector<Tuple>* driver_deletions,
                          const std::vector<AtomMode>& modes,
                          const std::vector<const DeltaTable*>& atom_deltas,
                          const BindingCallback& fn) const;

  /// Tries to bind the atom's terms against `tuple`; returns false on
  /// mismatch. Appends newly bound slots to `newly_bound`.
  bool MatchTuple(const AtomPlan& atom, const Tuple& tuple, std::vector<Value>* values,
                  std::vector<bool>* bound, std::vector<int>* newly_bound) const;

  bool ConditionsHold(const std::vector<Value>& values) const;

  /// For an atom with nothing bound that shares a variable with the term's
  /// DELTA atom: the ascending ids of the rows whose shared column holds a
  /// value some delta tuple binds. Derivations can only come from those
  /// rows, and visiting them in RowId order enumerates exactly what a full
  /// scan would, in the same order — a semi-join instead of a scan. False
  /// when no such variable exists. Builds column indexes lazily, so only
  /// sequential evaluation (the first atom's Recurse) may call it.
  bool DeltaSemiJoinRows(const AtomPlan& atom, const std::vector<AtomMode>& modes,
                         const std::vector<const DeltaTable*>& atom_deltas,
                         std::vector<RowId>* rows) const;

  bool TupleInOld(const AtomPlan& atom, const DeltaTable* delta,
                  const Tuple& tuple) const;

  std::vector<AtomPlan> atoms_;
  std::vector<CondPlan> conditions_;
  std::map<std::string, int> var_slots_;
};

/// Evaluates a comparison between two concrete values.
bool EvalCompare(dsl::CompareOp op, const Value& lhs, const Value& rhs);

/// Projects rule-head terms from a full variable binding.
Tuple ProjectHead(const std::vector<dsl::Term>& head_terms,
                  const std::map<std::string, int>& slots,
                  const std::vector<Value>& values);

}  // namespace deepdive::engine

#endif  // DEEPDIVE_ENGINE_RULE_EVALUATOR_H_
