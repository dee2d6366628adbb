#ifndef DEEPDIVE_INCREMENTAL_DECOMPOSITION_H_
#define DEEPDIVE_INCREMENTAL_DECOMPOSITION_H_

#include <cstdint>
#include <vector>

#include "factor/factor_graph.h"
#include "factor/graph_delta.h"

namespace deepdive::incremental {

/// One materialization unit of Algorithm 2 (Appendix B.1): a set of inactive
/// variables that is conditionally independent of all other inactive
/// variables given its active boundary.
struct DecompositionGroup {
  std::vector<factor::VarId> inactive;
  std::vector<factor::VarId> active;  // minimal conditioning set
};

/// Algorithm 2: (1) connected components of the factor graph restricted to
/// inactive variables (active variables cut the graph); (2) each component's
/// minimal active boundary; (3) greedy merge of pairs whose boundaries nest
/// (|A_j ∪ A_k| == max(|A_j|, |A_k|)), so shared active variables are not
/// materialized twice.
std::vector<DecompositionGroup> DecomposeWithInactive(
    const factor::FactorGraph& graph, const std::vector<bool>& is_active);

/// Connected components of the whole graph (every variable "inactive").
/// Used by the engine to confine re-inference to components touched by a
/// delta; untouched components keep their materialized marginals exactly.
std::vector<std::vector<factor::VarId>> ConnectedComponents(
    const factor::FactorGraph& graph);

/// Connected components kept up to date across additive deltas by
/// union-find, so a constant-size insert costs O(|Δ|) here instead of a
/// whole-graph traversal. Edges only grow while a delta merely adds
/// variables, groups or clauses; a delta that removes groups or clauses
/// can split components, so it invalidates the structure and the next use
/// rebuilds it (one pass over the active groups).
///
/// The partition always equals ConnectedComponents(graph) of the graph the
/// structure has been kept in step with; every member list is ascending.
/// Not thread-safe: one owner thread (the engine's serving thread) calls
/// everything, and returned member pointers live until its next mutation.
class IncrementalComponents {
 public:
  bool valid() const { return valid_; }

  /// Recomputes the partition from scratch: one union per active clause
  /// literal. O(V + F), without ConnectedComponents' per-variable
  /// neighbour lists.
  void Rebuild(const factor::FactorGraph& graph);

  /// Folds a delta already applied to `graph` into the partition: new
  /// variables become singletons, new groups and added clauses union their
  /// head with their literals. A delta that removes groups or clauses
  /// invalidates instead. No-op while invalid.
  void Apply(const factor::FactorGraph& graph, const factor::GraphDelta& delta);

  /// Rebuilds if invalid or out of step with the graph's variable count.
  void Sync(const factor::FactorGraph& graph);

  /// Members of every component holding one of `vars`, each ascending,
  /// components ordered by their smallest member (ConnectedComponents'
  /// order). Requires a synced structure; `vars` may repeat.
  std::vector<const std::vector<factor::VarId>*> ComponentsOf(
      const std::vector<factor::VarId>& vars);

 private:
  factor::VarId Find(factor::VarId v);
  void Union(factor::VarId a, factor::VarId b);
  void AddVariables(size_t n);
  /// Unions the head with the literals of `clauses` (or of every active
  /// clause when null) of an active group.
  void UnionGroup(const factor::FactorGraph& graph, factor::GroupId g,
                  const std::vector<factor::ClauseId>* clauses);
  /// Members of root `r`, sorted on demand (unions append unsorted).
  /// Single-owner state, like the whole structure (the engine keeps it on
  /// its serving thread); the reference lives until the next Union or
  /// Rebuild.
  const std::vector<factor::VarId>& SortedMembers(factor::VarId r);

  bool valid_ = false;
  std::vector<factor::VarId> parent_;
  /// Indexed by root only; members_ of a non-root is empty.
  std::vector<std::vector<factor::VarId>> members_;
  std::vector<factor::VarId> min_member_;
  std::vector<uint8_t> sorted_;
  /// ComponentsOf's visited marks: seen_[root] == stamp_ within one call.
  std::vector<uint32_t> seen_;
  uint32_t stamp_ = 0;
};

}  // namespace deepdive::incremental

#endif  // DEEPDIVE_INCREMENTAL_DECOMPOSITION_H_
