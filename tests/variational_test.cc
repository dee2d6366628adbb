#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "factor/factor_graph.h"
#include "incremental/variational.h"
#include "inference/exact.h"
#include "inference/gibbs.h"
#include "inference/world.h"
#include "kbc/metrics.h"
#include "util/random.h"

namespace deepdive::incremental {
namespace {

using factor::FactorGraph;
using factor::GraphDelta;
using factor::VarId;
using factor::WeightId;

/// Chain with strong couplings: a good target for pairwise approximation.
FactorGraph StrongChain(uint64_t seed, size_t num_vars) {
  FactorGraph g;
  Rng rng(seed);
  g.AddVariables(num_vars);
  for (size_t i = 0; i + 1 < num_vars; ++i) {
    const double w = rng.Bernoulli(0.5) ? 1.2 : -1.2;
    g.AddSimpleFactor(static_cast<VarId>(i), {{static_cast<VarId>(i + 1), false}},
                      g.AddWeight(w, false));
  }
  for (size_t i = 0; i < num_vars; ++i) {
    g.AddSimpleFactor(static_cast<VarId>(i), {},
                      g.AddWeight(rng.Uniform(-0.3, 0.3), false));
  }
  return g;
}

VariationalOptions TestOptions(double lambda) {
  VariationalOptions options;
  options.lambda = lambda;
  options.num_samples = 400;
  options.gibbs_burn_in = 100;
  options.fit_epochs = 200;
  options.seed = 99;
  return options;
}

TEST(VariationalTest, SparsityIncreasesWithLambda) {
  FactorGraph g = StrongChain(1, 12);
  size_t last_edges = 1000;
  for (double lambda : {0.01, 0.3, 0.95}) {
    auto m = VariationalMaterialization::Materialize(g, TestOptions(lambda));
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    EXPECT_LE(m->NumEdges(), last_edges);
    last_edges = m->NumEdges();
  }
  EXPECT_EQ(last_edges, 0u);  // lambda ~ 1 kills every edge
}

TEST(VariationalTest, NzPairsRestrictEdgeCandidates) {
  FactorGraph g = StrongChain(2, 10);
  auto m = VariationalMaterialization::Materialize(g, TestOptions(0.0));
  ASSERT_TRUE(m.ok());
  // A chain has exactly n-1 co-occurring pairs.
  EXPECT_EQ(m->NumNzPairs(), 9u);
  EXPECT_LE(m->NumEdges(), 9u);
}

TEST(VariationalTest, ApproximationMatchesMarginalsAtSmallLambda) {
  FactorGraph g = StrongChain(3, 10);
  auto exact = inference::ExactInference(g);
  ASSERT_TRUE(exact.ok());

  auto m = VariationalMaterialization::Materialize(g, TestOptions(0.05));
  ASSERT_TRUE(m.ok());
  inference::GibbsSampler sampler(&m->approx_graph());
  inference::GibbsOptions gopts;
  gopts.burn_in_sweeps = 200;
  gopts.sample_sweeps = 3000;
  gopts.seed = 7;
  const auto approx = sampler.EstimateMarginals(gopts);
  const double kl = kbc::MeanSymmetricKL(exact->marginals, approx.marginals);
  EXPECT_LT(kl, 0.08) << "KL(original || approx) too large";
}

TEST(VariationalTest, LargerLambdaGivesWorseApproximation) {
  FactorGraph g = StrongChain(4, 10);
  auto exact = inference::ExactInference(g);
  ASSERT_TRUE(exact.ok());

  auto kl_for = [&](double lambda) {
    auto m = VariationalMaterialization::Materialize(g, TestOptions(lambda));
    EXPECT_TRUE(m.ok());
    inference::GibbsSampler sampler(&m->approx_graph());
    inference::GibbsOptions gopts;
    gopts.burn_in_sweeps = 200;
    gopts.sample_sweeps = 3000;
    gopts.seed = 11;
    return kbc::MeanSymmetricKL(exact->marginals,
                                sampler.EstimateMarginals(gopts).marginals);
  };
  // Edge-free approximation must be clearly worse than the dense one.
  EXPECT_LT(kl_for(0.05), kl_for(0.99) + 0.02);
}

TEST(VariationalTest, EvidencePreservedInApproxGraph) {
  FactorGraph g = StrongChain(5, 8);
  g.SetEvidence(0, true);
  auto m = VariationalMaterialization::Materialize(g, TestOptions(0.1));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->approx_graph().EvidenceValue(0), std::optional<bool>(true));
  EXPECT_EQ(m->approx_graph().NumVariables(), g.NumVariables());
}

TEST(VariationalTest, BuildInferenceGraphAppendsDelta) {
  FactorGraph g = StrongChain(6, 8);
  auto m = VariationalMaterialization::Materialize(g, TestOptions(0.1));
  ASSERT_TRUE(m.ok());

  GraphDelta delta;
  const WeightId w = g.AddWeight(1.0, true, "new-feature");
  delta.new_groups.push_back(g.AddSimpleFactor(2, {{3, false}}, w));
  g.SetEvidence(4, true);
  delta.evidence_changes.push_back({4, std::nullopt, true});

  std::vector<VarId> all(g.NumVariables());
  for (VarId v = 0; v < all.size(); ++v) all[v] = v;
  const VariationalSubgraph sub =
      BuildVariationalSubgraph(g, m->approx_graph(), delta, all);
  EXPECT_EQ(sub.graph.NumVariables(), g.NumVariables());
  EXPECT_EQ(sub.global_ids, all);
  EXPECT_EQ(sub.graph.NumGroups(), m->approx_graph().NumGroups() + 1);
  EXPECT_EQ(sub.graph.EvidenceValue(4), std::optional<bool>(true));
  // Evidence is never swept.
  EXPECT_EQ(std::count(sub.sweep.begin(), sub.sweep.end(), VarId{4}), 0);
  EXPECT_EQ(sub.sweep.size(), g.NumVariables() - 1);
  // The copied group carries the original weight value.
  const auto& copied = sub.graph.group(
      static_cast<factor::GroupId>(sub.graph.NumGroups() - 1));
  EXPECT_DOUBLE_EQ(sub.graph.WeightValue(copied.weight), 1.0);

  // Restricted to one end of the chain, only the groups around it remain,
  // plus the boundary variable they share with the rest.
  const VariationalSubgraph end = BuildVariationalSubgraph(g, m->approx_graph(), delta, {0});
  EXPECT_EQ(end.sweep, (std::vector<VarId>{0}));
  EXPECT_LT(end.graph.NumGroups(), sub.graph.NumGroups());
  EXPECT_EQ(end.global_ids.front(), VarId{0});
}

// ---- restricted compiled path vs the whole-approximation reference --------

/// The whole-approximation inference graph the variational path used to
/// build: a clone of the approximation plus the delta's groups and evidence.
/// Kept here as the reference the restricted path must match bit for bit.
FactorGraph ReferenceInferenceGraph(const FactorGraph& original,
                                    const FactorGraph& approx,
                                    const GraphDelta& delta) {
  FactorGraph out;
  if (original.NumVariables() > 0) out.AddVariables(original.NumVariables());
  for (VarId v = 0; v < approx.NumVariables(); ++v) {
    out.SetEvidence(v, approx.EvidenceValue(v));
  }
  std::vector<WeightId> approx_wmap(approx.NumWeights());
  for (WeightId w = 0; w < approx.NumWeights(); ++w) {
    approx_wmap[w] = out.AddWeight(approx.WeightValue(w), approx.WeightLearnable(w));
  }
  for (factor::GroupId g = 0; g < approx.NumGroups(); ++g) {
    const factor::FactorGroup& group = approx.group(g);
    if (!group.active) continue;
    const factor::GroupId ng =
        out.AddGroup(group.rule_id, group.head, approx_wmap[group.weight], group.semantics);
    for (factor::ClauseId cid : group.clauses) {
      if (approx.clause(cid).active) out.AddClause(ng, approx.clause(cid).literals);
    }
  }
  std::map<WeightId, WeightId> orig_wmap;
  auto map_weight = [&](WeightId w) {
    auto [it, fresh] = orig_wmap.emplace(w, 0);
    if (fresh) it->second = out.AddWeight(original.WeightValue(w), original.WeightLearnable(w));
    return it->second;
  };
  auto copy_group = [&](factor::GroupId g, const std::vector<factor::ClauseId>* only) {
    const factor::FactorGroup& group = original.group(g);
    if (!group.active) return;
    const factor::GroupId ng =
        out.AddGroup(group.rule_id, group.head, map_weight(group.weight), group.semantics);
    for (factor::ClauseId cid : only != nullptr ? *only : group.clauses) {
      if (only != nullptr || original.clause(cid).active) {
        out.AddClause(ng, original.clause(cid).literals);
      }
    }
  };
  for (factor::GroupId g : delta.new_groups) copy_group(g, nullptr);
  for (const GraphDelta::GroupMod& mod : delta.modified_groups) {
    if (!mod.added.empty()) copy_group(mod.group, &mod.added);
  }
  for (const GraphDelta::EvidenceChange& ec : delta.evidence_changes) {
    out.SetEvidence(ec.var, ec.new_value);
  }
  return out;
}

/// The reference sweep: warm start every variable, then sweep `affected`'s
/// non-evidence variables on the whole graph with the sequential sampler.
std::vector<double> ReferenceMarginals(const FactorGraph& inference_graph,
                                       const std::vector<VarId>& affected,
                                       const std::vector<double>& warm,
                                       const inference::GibbsOptions& options,
                                       uint64_t seed) {
  std::vector<VarId> sweep;
  for (VarId v : affected) {
    if (!inference_graph.IsEvidence(v)) sweep.push_back(v);
  }
  inference::GibbsSampler sampler(&inference_graph);
  inference::World world(&inference_graph);
  for (VarId v = 0; v < inference_graph.NumVariables(); ++v) {
    const auto ev = inference_graph.EvidenceValue(v);
    world.Flip(v, ev.has_value() ? *ev : (v < warm.size() && warm[v] > 0.5));
  }
  world.RecomputeStats();
  Rng rng(seed);
  std::vector<double> sums(inference_graph.NumVariables(), 0.0);
  const size_t sample_sweeps = std::max<size_t>(1, options.sample_sweeps);
  for (size_t i = 0; i < options.burn_in_sweeps; ++i) sampler.SweepVars(&world, &rng, sweep);
  for (size_t i = 0; i < sample_sweeps; ++i) {
    sampler.SweepVars(&world, &rng, sweep);
    for (VarId v : sweep) sums[v] += world.value(v) ? 1.0 : 0.0;
  }
  std::vector<double> out;
  for (VarId v : sweep) out.push_back(sums[v] / static_cast<double>(sample_sweeps));
  return out;
}

/// `clusters` disjoint random clusters of `size` variables: pairwise and
/// three-literal groups under mixed semantics, priors, and some evidence.
FactorGraph RandomClusters(Rng* rng, size_t clusters, size_t size) {
  FactorGraph g;
  g.AddVariables(clusters * size);
  const factor::Semantics kSemantics[] = {factor::Semantics::kLinear,
                                          factor::Semantics::kRatio,
                                          factor::Semantics::kLogical};
  for (size_t c = 0; c < clusters; ++c) {
    const auto base = static_cast<VarId>(c * size);
    for (size_t i = 0; i < size; ++i) {
      const VarId head = base + static_cast<VarId>(i);
      g.AddSimpleFactor(head, {}, g.AddWeight(rng->Uniform(-0.5, 0.5), false));
      const VarId a = base + static_cast<VarId>(rng->UniformInt(size));
      const VarId b = base + static_cast<VarId>(rng->UniformInt(size));
      if (a == head || b == head) continue;
      const factor::GroupId grp =
          g.AddGroup(0, head, g.AddWeight(rng->Uniform(-1.5, 1.5), false),
                     kSemantics[rng->UniformInt(3)]);
      g.AddClause(grp, {{a, rng->Bernoulli(0.3)}});
      if (a != b) g.AddClause(grp, {{a, false}, {b, rng->Bernoulli(0.5)}});
    }
    g.SetEvidence(base, rng->Bernoulli(0.5));
  }
  return g;
}

TEST(VariationalTest, RestrictedCompiledPathMatchesWholeGraphBitForBit) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const size_t kClusters = 5, kSize = 7;
    FactorGraph g = RandomClusters(&rng, kClusters, kSize);
    auto m = VariationalMaterialization::Materialize(g, TestOptions(0.05));
    ASSERT_TRUE(m.ok());

    // A delta touching clusters 1 and 3: a new variable wired into cluster
    // 1, a new group in cluster 3, an added clause on an existing group of
    // cluster 3, a group added and retracted again, and two evidence flips.
    GraphDelta delta;
    const VarId fresh = g.AddVariable();
    delta.new_variables.push_back(fresh);
    const WeightId wf = g.AddWeight(0.8, true, "new");
    delta.new_groups.push_back(g.AddSimpleFactor(1 * kSize + 2, {{fresh, false}}, wf));
    delta.new_groups.push_back(
        g.AddSimpleFactor(3 * kSize + 1, {{3 * kSize + 4, true}}, wf, factor::Semantics::kRatio));
    const factor::GroupId dead = g.AddSimpleFactor(3 * kSize + 5, {{3 * kSize + 6, false}}, wf);
    g.DeactivateGroup(dead);
    delta.new_groups.push_back(dead);
    for (factor::GroupId grp = 0; grp < g.NumGroups(); ++grp) {
      const factor::FactorGroup& group = g.group(grp);
      if (group.head / kSize == 3 && !group.clauses.empty() &&
          !g.clause(group.clauses[0]).literals.empty()) {
        const VarId other = group.head == 3 * kSize + 2 ? 3 * kSize + 3 : 3 * kSize + 2;
        delta.modified_groups.push_back(
            {grp, {g.AddClause(grp, {{other, false}})}, {}});
        break;
      }
    }
    g.SetEvidence(3 * kSize + 6, true);
    delta.evidence_changes.push_back({3 * kSize + 6, std::nullopt, true});
    g.SetEvidence(1 * kSize, std::nullopt);
    delta.evidence_changes.push_back({1 * kSize, g.EvidenceValue(1 * kSize), std::nullopt});

    std::vector<double> warm(g.NumVariables());
    for (double& p : warm) p = rng.Uniform(0.0, 1.0);
    inference::GibbsOptions options;
    options.burn_in_sweeps = 7;
    options.sample_sweeps = 40;
    options.num_threads = 1;
    const FactorGraph reference = ReferenceInferenceGraph(g, m->approx_graph(), delta);

    // Affected sets as the engine hands them over: whole clusters, in
    // ascending order, and (per-group mode) component by component.
    std::vector<std::vector<VarId>> affected_sets(2);
    for (size_t c : {1u, 3u}) {
      for (VarId v = 0; v < kSize; ++v) affected_sets[0].push_back(c * kSize + v);
    }
    affected_sets[0].push_back(fresh);
    std::sort(affected_sets[0].begin(), affected_sets[0].end());
    for (size_t c : {3u, 0u}) {
      for (VarId v = 0; v < kSize; ++v) affected_sets[1].push_back(c * kSize + v);
    }
    for (const std::vector<VarId>& affected : affected_sets) {
      const uint64_t sweep_seed = Rng::MixSeed(seed, 2);
      const VariationalSubgraph sub =
          BuildVariationalSubgraph(g, m->approx_graph(), delta, affected);
      EXPECT_LT(sub.graph.NumGroups(), reference.NumGroups());
      // Every swept variable sees its head groups and body refs in the
      // reference's order (identified by their random weight values): the
      // order that fixes the floating-point sums of its conditional.
      for (VarId local : sub.sweep) {
        const VarId v = sub.global_ids[local];
        std::vector<double> want_heads, got_heads, want_body, got_body;
        for (factor::GroupId grp : reference.HeadGroups(v)) {
          want_heads.push_back(reference.WeightValue(reference.group(grp).weight));
        }
        for (factor::GroupId grp : sub.graph.HeadGroups(local)) {
          got_heads.push_back(sub.graph.WeightValue(sub.graph.group(grp).weight));
        }
        for (const factor::BodyRef& ref : reference.BodyRefs(v)) {
          const auto& grp = reference.group(reference.clause(ref.clause).group);
          want_body.push_back(reference.WeightValue(grp.weight) * (ref.negated ? -1 : 1));
        }
        for (const factor::CompiledBodyRef& ref : sub.graph.BodyRefs(local)) {
          const auto& grp = sub.graph.group(sub.graph.clause(ref.clause).group);
          got_body.push_back(sub.graph.WeightValue(grp.weight) * (ref.negated ? -1 : 1));
        }
        EXPECT_EQ(got_heads, want_heads) << "seed " << seed << " var " << v;
        EXPECT_EQ(got_body, want_body) << "seed " << seed << " var " << v;
      }
      const std::vector<double> restricted =
          SampleVariationalSubgraph(sub, warm, options, sweep_seed);
      const std::vector<double> expected =
          ReferenceMarginals(reference, affected, warm, options, sweep_seed);
      ASSERT_EQ(restricted.size(), expected.size()) << "seed " << seed;
      for (size_t k = 0; k < expected.size(); ++k) {
        EXPECT_EQ(restricted[k], expected[k])
            << "seed " << seed << " var " << sub.global_ids[sub.sweep[k]];
      }
    }
  }
}

TEST(VariationalTest, SearchLambdaStopsBeforeQualityCollapse) {
  FactorGraph g = StrongChain(7, 10);
  auto exact = inference::ExactInference(g);
  ASSERT_TRUE(exact.ok());
  auto lambda = SearchLambda(g, TestOptions(0.0), 0.001, 0.05, exact->marginals);
  ASSERT_TRUE(lambda.ok()) << lambda.status().ToString();
  EXPECT_GE(*lambda, 0.001);
  EXPECT_LE(*lambda, 10.0);
}

TEST(VariationalTest, EdgeStatsExposeCovariances) {
  FactorGraph g = StrongChain(8, 6);
  auto m = VariationalMaterialization::Materialize(g, TestOptions(0.0));
  ASSERT_TRUE(m.ok());
  ASSERT_EQ(m->edge_stats().size(), 5u);
  // Strong couplings (|w| = 1.2) produce clearly nonzero spin covariance.
  double max_abs = 0;
  for (const auto& e : m->edge_stats()) max_abs = std::max(max_abs, std::abs(e.covariance));
  EXPECT_GT(max_abs, 0.3);
}

}  // namespace
}  // namespace deepdive::incremental
