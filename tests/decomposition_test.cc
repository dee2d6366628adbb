#include <gtest/gtest.h>

#include <algorithm>

#include "factor/factor_graph.h"
#include "util/random.h"
#include "incremental/decomposition.h"

namespace deepdive::incremental {
namespace {

using factor::FactorGraph;
using factor::VarId;
using factor::WeightId;

/// v0-v1-v2-v3-v4 chain (pairwise factors).
FactorGraph Chain(size_t n) {
  FactorGraph g;
  g.AddVariables(n);
  const WeightId w = g.AddWeight(1.0, false);
  for (size_t i = 0; i + 1 < n; ++i) {
    g.AddSimpleFactor(static_cast<VarId>(i), {{static_cast<VarId>(i + 1), false}}, w);
  }
  return g;
}

TEST(ConnectedComponentsTest, SingleChain) {
  FactorGraph g = Chain(5);
  auto comps = ConnectedComponents(g);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].size(), 5u);
}

TEST(ConnectedComponentsTest, DisconnectedPieces) {
  FactorGraph g;
  g.AddVariables(6);
  const WeightId w = g.AddWeight(1.0, false);
  g.AddSimpleFactor(0, {{1, false}}, w);
  g.AddSimpleFactor(3, {{4, false}}, w);
  auto comps = ConnectedComponents(g);
  // {0,1}, {2}, {3,4}, {5}.
  EXPECT_EQ(comps.size(), 4u);
}

TEST(DecompositionTest, ActiveVariableCutsChain) {
  // Chain 0-1-2-3-4 with 2 active: components {0,1} and {3,4}, both with
  // boundary {2}; the merge rule (|A_j ∪ A_k| == max) combines them.
  FactorGraph g = Chain(5);
  std::vector<bool> active(5, false);
  active[2] = true;
  auto groups = DecomposeWithInactive(g, active);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].inactive.size(), 4u);
  EXPECT_EQ(groups[0].active, (std::vector<VarId>{2}));
}

TEST(DecompositionTest, DisjointBoundariesStaySeparate) {
  // Two chains with different active boundaries must not merge:
  // 0-1-2 (active 2) and 3-4-5 (active 5) -> boundaries {2} and {5}.
  FactorGraph g;
  g.AddVariables(6);
  const WeightId w = g.AddWeight(1.0, false);
  g.AddSimpleFactor(0, {{1, false}}, w);
  g.AddSimpleFactor(1, {{2, false}}, w);
  g.AddSimpleFactor(3, {{4, false}}, w);
  g.AddSimpleFactor(4, {{5, false}}, w);
  std::vector<bool> active(6, false);
  active[2] = true;
  active[5] = true;
  auto groups = DecomposeWithInactive(g, active);
  ASSERT_EQ(groups.size(), 2u);
}

TEST(DecompositionTest, NestedBoundariesMerge) {
  // Star: active hub 0 touches inactive 1, 2, 3 -> three singleton
  // components all with boundary {0}; they merge into one group.
  FactorGraph g;
  g.AddVariables(4);
  const WeightId w = g.AddWeight(1.0, false);
  for (VarId v = 1; v <= 3; ++v) g.AddSimpleFactor(v, {{0, false}}, w);
  std::vector<bool> active(4, false);
  active[0] = true;
  auto groups = DecomposeWithInactive(g, active);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].inactive.size(), 3u);
  EXPECT_EQ(groups[0].active, (std::vector<VarId>{0}));
}

TEST(DecompositionTest, AllActiveYieldsNoGroups) {
  FactorGraph g = Chain(4);
  std::vector<bool> active(4, true);
  EXPECT_TRUE(DecomposeWithInactive(g, active).empty());
}

TEST(DecompositionTest, NoActiveYieldsComponents) {
  FactorGraph g;
  g.AddVariables(4);
  const WeightId w = g.AddWeight(1.0, false);
  g.AddSimpleFactor(0, {{1, false}}, w);
  g.AddSimpleFactor(2, {{3, false}}, w);
  std::vector<bool> active(4, false);
  auto groups = DecomposeWithInactive(g, active);
  ASSERT_EQ(groups.size(), 2u);
  for (const auto& grp : groups) EXPECT_TRUE(grp.active.empty());
}

// Property: Algorithm 2's guarantee — conditioned on its active boundary,
// each group's inactive variables are independent of all other inactive
// variables. Structurally: no factor connects inactive variables of two
// different groups.
class DecompositionProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DecompositionProperty, GroupsAreConditionallyIndependent) {
  Rng rng(GetParam());
  FactorGraph g;
  const size_t n = 12 + rng.UniformInt(12);
  g.AddVariables(n);
  const WeightId w = g.AddWeight(1.0, false);
  const size_t factors = n + rng.UniformInt(n);
  for (size_t i = 0; i < factors; ++i) {
    const VarId a = static_cast<VarId>(rng.UniformInt(n));
    const VarId b = static_cast<VarId>(rng.UniformInt(n));
    if (a != b) g.AddSimpleFactor(a, {{b, false}}, w);
  }
  std::vector<bool> active(n, false);
  for (VarId v = 0; v < n; ++v) active[v] = rng.Bernoulli(0.3);

  const auto groups = DecomposeWithInactive(g, active);

  // Map inactive var -> group index.
  std::vector<int> group_of(n, -1);
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    for (VarId v : groups[gi].inactive) {
      ASSERT_FALSE(active[v]);
      ASSERT_EQ(group_of[v], -1) << "groups must partition inactive vars";
      group_of[v] = static_cast<int>(gi);
    }
  }
  for (VarId v = 0; v < n; ++v) {
    if (!active[v]) ASSERT_NE(group_of[v], -1) << "inactive var " << v << " unassigned";
  }

  // No edge connects inactive vars of two different groups, and every
  // active neighbor of a group's inactive vars is in its boundary.
  for (VarId v = 0; v < n; ++v) {
    if (active[v]) continue;
    for (VarId u : g.Neighbors(v)) {
      if (active[u]) {
        const auto& boundary = groups[group_of[v]].active;
        EXPECT_TRUE(std::find(boundary.begin(), boundary.end(), u) != boundary.end())
            << "active neighbor " << u << " missing from boundary of group "
            << group_of[v];
      } else {
        EXPECT_EQ(group_of[v], group_of[u])
            << "inactive vars " << v << " and " << u
            << " share a factor but live in different groups";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecompositionProperty,
                         ::testing::Values(31, 32, 33, 34, 35, 36, 37, 38, 39, 40));

TEST(DecompositionTest, GroupsPartitionInactiveVariables) {
  FactorGraph g = Chain(9);
  std::vector<bool> active(9, false);
  active[3] = true;
  active[6] = true;
  auto groups = DecomposeWithInactive(g, active);
  std::vector<bool> seen(9, false);
  size_t total = 0;
  for (const auto& grp : groups) {
    for (VarId v : grp.inactive) {
      EXPECT_FALSE(seen[v]);
      EXPECT_FALSE(active[v]);
      seen[v] = true;
      ++total;
    }
  }
  EXPECT_EQ(total, 7u);
}

// Property: the union-find components, folded forward delta by delta
// (rebuilt only after a delta that removes), always equal a from-scratch
// ConnectedComponents of the live graph — same partition, same component
// order, same member order.
class IncrementalComponentsProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalComponentsProperty, MatchesConnectedComponentsAfterEveryDelta) {
  Rng rng(GetParam());
  FactorGraph g;
  g.AddVariables(20);
  const WeightId w = g.AddWeight(0.5, false);
  IncrementalComponents comps;
  comps.Rebuild(g);
  size_t rebuilds_avoided = 0;
  for (int step = 0; step < 150; ++step) {
    factor::GraphDelta delta;
    auto pick = [&] { return static_cast<VarId>(rng.UniformInt(g.NumVariables())); };
    const uint64_t op = rng.UniformInt(10);
    if (op < 2) {
      const VarId first = g.AddVariables(1 + rng.UniformInt(3));
      for (VarId v = first; v < g.NumVariables(); ++v) delta.new_variables.push_back(v);
    } else if (op < 6) {
      // A new group, with one or two clauses of one or two literals.
      const VarId head = pick();
      const factor::GroupId grp = g.AddGroup(0, head, w, factor::Semantics::kLinear);
      for (uint64_t c = 0, n = 1 + rng.UniformInt(2); c < n; ++c) {
        std::vector<factor::Literal> lits;
        for (uint64_t l = 0, k = 1 + rng.UniformInt(2); l < k; ++l) {
          const VarId v = pick();
          if (v != head) lits.push_back({v, rng.Bernoulli(0.5)});
        }
        g.AddClause(grp, lits);
      }
      delta.new_groups.push_back(grp);
    } else if (op < 8 && g.NumGroups() > 0) {
      // A clause added to an existing group.
      const auto grp = static_cast<factor::GroupId>(rng.UniformInt(g.NumGroups()));
      const VarId v = pick();
      if (v == g.group(grp).head) continue;
      delta.modified_groups.push_back({grp, {g.AddClause(grp, {{v, false}})}, {}});
    } else if (op < 9 && g.NumClauses() > 0) {
      const auto c = static_cast<factor::ClauseId>(rng.UniformInt(g.NumClauses()));
      g.DeactivateClause(c);
      delta.modified_groups.push_back({g.clause(c).group, {}, {c}});
    } else if (g.NumGroups() > 0) {
      const auto grp = static_cast<factor::GroupId>(rng.UniformInt(g.NumGroups()));
      g.DeactivateGroup(grp);
      delta.removed_groups.push_back(grp);
    }
    comps.Apply(g, delta);
    if (comps.valid()) ++rebuilds_avoided;
    comps.Sync(g);
    std::vector<VarId> everything(g.NumVariables());
    for (VarId v = 0; v < everything.size(); ++v) everything[v] = v;
    std::vector<std::vector<VarId>> all;
    for (const std::vector<VarId>* members : comps.ComponentsOf(everything)) {
      all.push_back(*members);
    }
    ASSERT_EQ(all, ConnectedComponents(g)) << "step " << step;
    // A subset query returns the touched components in the same order.
    std::vector<VarId> probe = {pick(), pick(), pick()};
    const auto touched = comps.ComponentsOf(probe);
    for (size_t i = 1; i < touched.size(); ++i) {
      EXPECT_LT(touched[i - 1]->front(), touched[i]->front());
    }
    for (VarId v : probe) {
      EXPECT_EQ(std::count_if(touched.begin(), touched.end(),
                              [&](const std::vector<VarId>* members) {
                                return std::binary_search(members->begin(),
                                                          members->end(), v);
                              }),
                1);
    }
  }
  // Most deltas only add: those were folded in without a rebuild.
  EXPECT_GT(rebuilds_avoided, 75u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalComponentsProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(ConnectedComponentsTest, RetractedClauseNoLongerConnects) {
  // Group headed by 0 with clauses {1} and {2}; retracting {2} leaves 2
  // disconnected, whichever side a traversal starts from.
  FactorGraph g;
  g.AddVariables(3);
  const WeightId w = g.AddWeight(1.0, false);
  const factor::GroupId grp = g.AddGroup(0, 2, w, factor::Semantics::kLinear);
  g.AddClause(grp, {{1, false}});
  const factor::ClauseId gone = g.AddClause(grp, {{0, false}});
  g.DeactivateClause(gone);
  EXPECT_EQ(ConnectedComponents(g),
            (std::vector<std::vector<VarId>>{{0}, {1, 2}}));
}

}  // namespace
}  // namespace deepdive::incremental
