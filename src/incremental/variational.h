#ifndef DEEPDIVE_INCREMENTAL_VARIATIONAL_H_
#define DEEPDIVE_INCREMENTAL_VARIATIONAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "factor/compiled_graph.h"
#include "factor/factor_graph.h"
#include "factor/graph_delta.h"
#include "inference/gibbs.h"
#include "util/status.h"

namespace deepdive::incremental {

struct VariationalOptions {
  /// N of Algorithm 1: Gibbs samples for covariance estimation.
  size_t num_samples = 200;
  /// λ: the regularization/sparsification parameter. Larger -> sparser
  /// approximate graph, faster inference, worse approximation (Figure 6).
  double lambda = 0.1;
  size_t gibbs_burn_in = 50;
  size_t gibbs_thin = 1;
  /// Weight-fitting epochs (maximum-likelihood projection onto the sparse
  /// pairwise family; stands in for the log-det solve, see DESIGN.md §4.3).
  size_t fit_epochs = 60;
  double fit_learning_rate = 0.25;
  double fit_decay = 0.96;
  uint64_t seed = 23;
  /// Worker threads for the covariance-estimation sample draw and the λ
  /// search's approximate-graph inference. 1 = sequential (deterministic).
  size_t num_threads = 1;
};

/// The variational approach (Section 3.2.3 / Algorithm 1): replace the
/// materialized distribution with a *sparser* pairwise factor graph.
///
/// Materialization: (1) draw N samples from the original graph; (2) estimate
/// spin covariances restricted to NZ (pairs co-occurring in some factor);
/// (3) select the edges whose |covariance| exceeds λ — the sparsity-inducing
/// extreme point of Algorithm 1's box constraint |X_kj - M_kj| <= λ; (4) fit
/// unary and pairwise weights by maximum likelihood against the samples
/// (standard learning already in the engine, as the paper notes). The exact
/// log-det interior-point solve is substituted per DESIGN.md §4.3; the λ ->
/// sparsity -> speed/quality tradeoff it exposes is preserved.
///
/// Inference: append the update's delta factors to the approximate graph and
/// run Gibbs on the (much sparser) result.
class VariationalMaterialization {
 public:
  struct EdgeStat {
    factor::VarId a = 0;
    factor::VarId b = 0;
    double covariance = 0.0;
  };

  static StatusOr<VariationalMaterialization> Materialize(
      const factor::FactorGraph& graph, const VariationalOptions& options);

  /// The sparse pairwise approximation (same variable ids as the original).
  /// Structurally immutable after Materialize; the serving thread tweaks
  /// only weight values (delta application), per FactorGraph's contract.
  const factor::FactorGraph& approx_graph() const { return *approx_graph_; }
  factor::FactorGraph* mutable_approx_graph() { return approx_graph_.get(); }

  size_t NumEdges() const { return num_edges_; }
  size_t NumNzPairs() const { return num_nz_pairs_; }

  /// All NZ-pair covariances (before thresholding); exposed for tests and
  /// for the λ search protocol. Immutable after Materialize.
  const std::vector<EdgeStat>& edge_stats() const { return edge_stats_; }

 private:
  std::unique_ptr<factor::FactorGraph> approx_graph_;
  std::vector<EdgeStat> edge_stats_;
  size_t num_edges_ = 0;
  size_t num_nz_pairs_ = 0;
};

/// The variational path's inference graph, restricted to one update's
/// affected variables and compiled to the flat kernel.
struct VariationalSubgraph {
  /// Local variable ids; groups and weights are local too.
  factor::CompiledGraph graph;
  /// Global (original-graph) id of each local variable. The affected
  /// variables come first, in the order they were given; the boundary
  /// variables they share groups with follow.
  std::vector<factor::VarId> global_ids;
  /// Local ids of the affected variables that are not evidence, in the
  /// order they were given: the sweep order.
  std::vector<factor::VarId> sweep;
};

/// Extracts, from the approximation and the cumulative delta, exactly the
/// groups that touch an `affected` variable, remaps their variables to local
/// ids and compiles the result. The groups are the ones the whole-graph
/// inference graph of this approach holds — the approximation's active
/// groups, then the delta's new groups and the added clauses of its
/// modified groups (as fresh groups of the same head and weight), with the
/// delta's evidence applied — and they are added in the same relative order
/// (approximation groups by ascending id, then delta groups in delta order).
/// So every affected variable sees its head groups and body refs in the
/// same order as in the whole graph, and a sweep over `sweep` consumes the
/// RNG identically: marginals are bit-identical at one thread, for work
/// proportional to the affected variables' neighbourhood instead of the
/// whole approximation. Removed original factors are already absorbed into
/// the approximation and cannot be subtracted — the inherent approximation
/// of this approach.
VariationalSubgraph BuildVariationalSubgraph(const factor::FactorGraph& original,
                                             const factor::FactorGraph& approx,
                                             const factor::GraphDelta& delta,
                                             const std::vector<factor::VarId>& affected);

/// Warm-started Gibbs over `sub.sweep`: every local variable starts at its
/// evidence value or at `warm[global] > 0.5` (0 past the end of `warm`);
/// `burn_in_sweeps` sweeps, then `max(1, sample_sweeps)` counted ones.
/// `num_threads` > 1 runs Hogwild sweeps; 1 is sequential and
/// deterministic for a given `seed`. Returns P(v = 1) per `sub.sweep` entry.
std::vector<double> SampleVariationalSubgraph(const VariationalSubgraph& sub,
                                              const std::vector<double>& warm,
                                              const inference::GibbsOptions& options,
                                              uint64_t seed);

/// The λ search protocol of Section 3.2.3: starting from λ = lambda_min,
/// multiply by 10 until the symmetric KL divergence between original and
/// approximate marginals exceeds `kl_threshold`; returns the last safe λ.
StatusOr<double> SearchLambda(const factor::FactorGraph& graph,
                              const VariationalOptions& base_options, double lambda_min,
                              double kl_threshold,
                              const std::vector<double>& reference_marginals);

}  // namespace deepdive::incremental

#endif  // DEEPDIVE_INCREMENTAL_VARIATIONAL_H_
