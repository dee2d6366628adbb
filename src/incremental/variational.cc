#include "incremental/variational.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_map>

#include "inference/gibbs.h"
#include "inference/parallel_gibbs.h"
#include "inference/world.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace deepdive::incremental {

using factor::FactorGraph;
using factor::GraphDelta;
using factor::GroupId;
using factor::Literal;
using factor::VarId;
using factor::WeightId;

StatusOr<VariationalMaterialization> VariationalMaterialization::Materialize(
    const FactorGraph& graph, const VariationalOptions& options) {
  VariationalMaterialization m;
  const size_t n = graph.NumVariables();

  // 1. Draw N samples from the original graph (Algorithm 1, line 1).
  inference::GibbsOptions gopts;
  gopts.burn_in_sweeps = options.gibbs_burn_in;
  gopts.seed = options.seed;
  gopts.num_threads = options.num_threads;
  inference::ParallelGibbsSampler sampler(&graph, options.num_threads);
  std::vector<BitVector> samples =
      sampler.DrawSamples(options.num_samples, options.gibbs_thin, gopts);
  if (samples.empty()) return Status::InvalidArgument("num_samples must be > 0");

  // 2. NZ pairs: variables co-occurring in some factor (line 2), and spin
  //    means/covariances over the samples (line 3).
  std::vector<double> mean(n, 0.0);  // E[s], s = 2x - 1
  for (const BitVector& s : samples) {
    for (VarId v = 0; v < n; ++v) mean[v] += s.Get(v) ? 1.0 : -1.0;
  }
  for (VarId v = 0; v < n; ++v) mean[v] /= static_cast<double>(samples.size());

  std::set<std::pair<VarId, VarId>> nz;
  for (VarId v = 0; v < n; ++v) {
    for (VarId u : graph.Neighbors(v)) {
      if (u > v) nz.emplace(v, u);
    }
  }
  m.num_nz_pairs_ = nz.size();

  for (const auto& [a, b] : nz) {
    double e_ab = 0.0;
    for (const BitVector& s : samples) {
      const double sa = s.Get(a) ? 1.0 : -1.0;
      const double sb = s.Get(b) ? 1.0 : -1.0;
      e_ab += sa * sb;
    }
    e_ab /= static_cast<double>(samples.size());
    m.edge_stats_.push_back(EdgeStat{a, b, e_ab - mean[a] * mean[b]});
  }

  // 3. Build the sparse pairwise skeleton: unary group per variable, one
  //    tied symmetric pair of groups per surviving edge (lines 4-7).
  m.approx_graph_ = std::make_unique<FactorGraph>();
  FactorGraph& ag = *m.approx_graph_;
  if (n > 0) ag.AddVariables(n);
  for (VarId v = 0; v < n; ++v) {
    const auto ev = graph.EvidenceValue(v);
    if (ev.has_value()) ag.SetEvidence(v, ev);
  }
  std::vector<WeightId> unary(n);
  for (VarId v = 0; v < n; ++v) {
    unary[v] = ag.AddWeight(0.0, /*learnable=*/true, StrFormat("vh/%u", v));
    ag.AddSimpleFactor(v, {}, unary[v]);  // empty clause: bias on sign(v)
  }
  for (const EdgeStat& e : m.edge_stats_) {
    if (std::abs(e.covariance) <= options.lambda) continue;
    const WeightId w =
        ag.AddWeight(0.0, /*learnable=*/true, StrFormat("vJ/%u-%u", e.a, e.b));
    // Symmetric interaction: w * (sign(a) 1{b} + sign(b) 1{a}).
    ag.AddSimpleFactor(e.a, {Literal{e.b, false}}, w);
    ag.AddSimpleFactor(e.b, {Literal{e.a, false}}, w);
    ++m.num_edges_;
  }

  // 4. Fit weights by maximum likelihood against the drawn samples:
  //    gradient(w) = E_samples[f_w] - E_model[f_w].
  std::vector<double> empirical(ag.NumWeights(), 0.0);
  {
    inference::World sw(&ag);
    for (const BitVector& s : samples) {
      sw.LoadBits(s);
      for (WeightId w = 0; w < ag.NumWeights(); ++w) {
        empirical[w] += sw.WeightFeature(w);
      }
    }
    for (double& e : empirical) e /= static_cast<double>(samples.size());
  }
  {
    inference::GibbsSampler fit_sampler(&ag);
    Rng rng(Rng::MixSeed(options.seed, /*stream=*/1));
    inference::World model(&ag);
    model.InitValues(&rng, /*random_init=*/true);
    double lr = options.fit_learning_rate;
    for (size_t epoch = 0; epoch < options.fit_epochs; ++epoch) {
      // The model chain samples every variable (the approximation targets
      // the full materialized distribution, evidence included).
      fit_sampler.Sweep(&model, &rng, /*sample_evidence=*/true);
      for (WeightId w = 0; w < ag.NumWeights(); ++w) {
        const double grad = empirical[w] - model.WeightFeature(w);
        ag.SetWeightValue(w, ag.WeightValue(w) + lr * grad);
      }
      lr *= options.fit_decay;
    }
  }
  return m;
}

VariationalSubgraph BuildVariationalSubgraph(const FactorGraph& original,
                                             const FactorGraph& approx,
                                             const GraphDelta& delta,
                                             const std::vector<VarId>& affected) {
  factor::CompiledGraphBuilder builder;
  VariationalSubgraph sub;
  // Affected variables take the first local ids, in the order given, so
  // "is affected" is "local id < affected.size()".
  std::unordered_map<VarId, VarId> local_of;
  local_of.reserve(affected.size() * 2);
  for (VarId v : affected) {
    if (local_of.emplace(v, static_cast<VarId>(sub.global_ids.size())).second) {
      sub.global_ids.push_back(v);
    }
  }
  const size_t num_affected = sub.global_ids.size();
  auto is_affected = [&](VarId v) {
    const auto it = local_of.find(v);
    return it != local_of.end() && it->second < num_affected;
  };
  auto local = [&](VarId v) {
    const auto [it, inserted] =
        local_of.emplace(v, static_cast<VarId>(sub.global_ids.size()));
    if (inserted) sub.global_ids.push_back(v);
    return it->second;
  };

  // Approximation groups touching an affected variable, by ascending id.
  std::vector<GroupId> approx_groups;
  for (size_t i = 0; i < num_affected; ++i) {
    const VarId v = sub.global_ids[i];
    if (v >= approx.NumVariables()) continue;
    for (GroupId g : approx.HeadGroups(v)) approx_groups.push_back(g);
    for (const factor::BodyRef& ref : approx.BodyRefs(v)) {
      approx_groups.push_back(approx.clause(ref.clause).group);
    }
  }
  std::sort(approx_groups.begin(), approx_groups.end());
  approx_groups.erase(std::unique(approx_groups.begin(), approx_groups.end()),
                      approx_groups.end());

  // Local ids are settled before any group is added: the builder needs every
  // variable to exist when a group or clause names it.
  struct PendingGroup {
    const FactorGraph* source;
    GroupId group;
    std::vector<factor::ClauseId> clauses;
  };
  std::vector<PendingGroup> pending;
  auto stage = [&](const FactorGraph& source, GroupId g,
                   std::vector<factor::ClauseId> clauses) {
    bool touches = is_affected(source.group(g).head);
    for (factor::ClauseId cid : clauses) {
      for (const Literal& lit : source.clause(cid).literals) {
        touches = touches || is_affected(lit.var);
      }
    }
    if (!touches) return;
    local(source.group(g).head);
    for (factor::ClauseId cid : clauses) {
      for (const Literal& lit : source.clause(cid).literals) local(lit.var);
    }
    pending.push_back(PendingGroup{&source, g, std::move(clauses)});
  };
  auto active_clauses = [](const FactorGraph& source, GroupId g) {
    std::vector<factor::ClauseId> out;
    for (factor::ClauseId cid : source.group(g).clauses) {
      if (source.clause(cid).active) out.push_back(cid);
    }
    return out;
  };
  for (GroupId g : approx_groups) {
    if (approx.group(g).active) stage(approx, g, active_clauses(approx, g));
  }
  for (GroupId g : delta.new_groups) {
    // Added then retracted within the window: not part of Pr(Δ).
    if (original.group(g).active) stage(original, g, active_clauses(original, g));
  }
  for (const GraphDelta::GroupMod& mod : delta.modified_groups) {
    // Added clauses ride a fresh group of the same head and weight. Removed
    // clauses were part of the approximated distribution; they cannot be
    // subtracted from the learned pairwise weights.
    if (!mod.added.empty() && original.group(mod.group).active) {
      stage(original, mod.group, mod.added);
    }
  }

  // Evidence: the approximation's (which covers the variables that existed
  // at materialization), then the delta's changes in order.
  std::vector<std::optional<bool>> evidence(sub.global_ids.size());
  for (size_t l = 0; l < sub.global_ids.size(); ++l) {
    const VarId v = sub.global_ids[l];
    if (v < approx.NumVariables()) evidence[l] = approx.EvidenceValue(v);
  }
  for (const GraphDelta::EvidenceChange& ec : delta.evidence_changes) {
    const auto it = local_of.find(ec.var);
    if (it != local_of.end()) evidence[it->second] = ec.new_value;
  }
  for (size_t l = 0; l < sub.global_ids.size(); ++l) {
    builder.AddVariable(evidence[l]);
    if (l < num_affected && !evidence[l].has_value()) {
      sub.sweep.push_back(static_cast<VarId>(l));
    }
  }

  std::map<WeightId, WeightId> approx_weights, original_weights;
  std::vector<Literal> literals;
  for (const PendingGroup& p : pending) {
    const FactorGraph& source = *p.source;
    const factor::FactorGroup& group = source.group(p.group);
    auto& weights = p.source == &approx ? approx_weights : original_weights;
    auto [wit, fresh] = weights.emplace(group.weight, 0);
    if (fresh) {
      wit->second = builder.AddWeight(source.WeightValue(group.weight),
                                      source.WeightLearnable(group.weight));
    }
    const GroupId ng =
        builder.AddGroup(group.rule_id, local_of.at(group.head), wit->second,
                         group.semantics);
    for (factor::ClauseId cid : p.clauses) {
      literals.clear();
      for (const Literal& lit : source.clause(cid).literals) {
        literals.push_back(Literal{local_of.at(lit.var), lit.negated});
      }
      builder.AddClause(ng, literals);
    }
  }
  sub.graph = builder.Build();
  return sub;
}

std::vector<double> SampleVariationalSubgraph(const VariationalSubgraph& sub,
                                              const std::vector<double>& warm,
                                              const inference::GibbsOptions& options,
                                              uint64_t seed) {
  const factor::CompiledGraph& graph = sub.graph;
  BitVector start(graph.NumVariables());
  for (VarId l = 0; l < graph.NumVariables(); ++l) {
    const auto ev = graph.EvidenceValue(l);
    const VarId v = sub.global_ids[l];
    start.Set(l, ev.has_value() ? *ev : (v < warm.size() && warm[v] > 0.5));
  }
  std::vector<double> sums(sub.sweep.size(), 0.0);
  const size_t sample_sweeps = std::max<size_t>(1, options.sample_sweeps);
  const size_t num_threads =
      options.num_threads == 0 ? ThreadPool::DefaultThreads() : options.num_threads;
  if (num_threads > 1) {
    // Hogwild over the affected variables: the decomposition shards across
    // workers.
    inference::CompiledParallelGibbsSampler sampler(&graph, num_threads);
    inference::CompiledAtomicWorld world(&graph);
    world.LoadBitsPrefix(start, /*fill=*/false);
    std::vector<Rng> rngs = sampler.MakeRngStreams(seed);
    for (size_t i = 0; i < options.burn_in_sweeps; ++i) {
      sampler.SweepVars(&world, &rngs, sub.sweep);
    }
    for (size_t i = 0; i < sample_sweeps; ++i) {
      sampler.SweepVars(&world, &rngs, sub.sweep);
      for (size_t k = 0; k < sub.sweep.size(); ++k) {
        sums[k] += world.value(sub.sweep[k]) ? 1.0 : 0.0;
      }
    }
  } else {
    inference::CompiledGibbsSampler sampler(&graph);
    inference::CompiledWorld world(&graph);
    world.LoadBits(start);
    Rng rng(seed);
    for (size_t i = 0; i < options.burn_in_sweeps; ++i) {
      sampler.SweepVars(&world, &rng, sub.sweep);
    }
    for (size_t i = 0; i < sample_sweeps; ++i) {
      sampler.SweepVars(&world, &rng, sub.sweep);
      for (size_t k = 0; k < sub.sweep.size(); ++k) {
        sums[k] += world.value(sub.sweep[k]) ? 1.0 : 0.0;
      }
    }
  }
  for (double& s : sums) s /= static_cast<double>(sample_sweeps);
  return sums;
}

StatusOr<double> SearchLambda(const FactorGraph& graph,
                              const VariationalOptions& base_options, double lambda_min,
                              double kl_threshold,
                              const std::vector<double>& reference_marginals) {
  double best = lambda_min;
  for (double lambda = lambda_min; lambda <= 10.0; lambda *= 10.0) {
    VariationalOptions options = base_options;
    options.lambda = lambda;
    DD_ASSIGN_OR_RETURN(VariationalMaterialization m,
                        VariationalMaterialization::Materialize(graph, options));
    inference::GibbsOptions gopts;
    gopts.seed = Rng::MixSeed(options.seed, /*stream=*/17);
    gopts.num_threads = options.num_threads;
    inference::ParallelGibbsSampler sampler(&m.approx_graph(), options.num_threads);
    const auto marginals = sampler.EstimateMarginals(gopts).marginals;
    // Symmetric KL between Bernoulli marginals, averaged over variables.
    double kl = 0.0;
    size_t count = 0;
    for (VarId v = 0; v < graph.NumVariables(); ++v) {
      if (graph.IsEvidence(v)) continue;
      const double p = std::clamp(reference_marginals[v], 1e-6, 1.0 - 1e-6);
      const double q = std::clamp(marginals[v], 1e-6, 1.0 - 1e-6);
      kl += (p - q) * (std::log(p / q) + std::log((1 - q) / (1 - p)));
      ++count;
    }
    if (count > 0) kl /= static_cast<double>(count);
    if (kl > kl_threshold) break;
    best = lambda;
  }
  return best;
}

}  // namespace deepdive::incremental
