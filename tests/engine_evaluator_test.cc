#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "dsl/program.h"
#include "engine/rule_evaluator.h"
#include "storage/database.h"
#include "util/random.h"

namespace deepdive::engine {
namespace {

using dsl::CompileProgram;
using dsl::Program;

struct Fixture {
  Program program;
  Database db;

  explicit Fixture(const std::string& source) {
    auto p = CompileProgram(source);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    program = std::move(p).value();
    EXPECT_TRUE(program.InstantiateSchema(&db).ok());
  }

  Table* table(const std::string& name) { return db.GetTable(name); }

  CompiledRuleBody Compile(size_t rule_index = 0) {
    const dsl::DeductiveRule& rule = program.deductive_rules()[rule_index];
    auto body = CompiledRuleBody::Compile(program, db, rule.body, rule.conditions);
    EXPECT_TRUE(body.ok()) << body.status().ToString();
    return std::move(body).value();
  }

  std::multiset<std::string> HeadTuples(const CompiledRuleBody& body,
                                        size_t rule_index = 0) {
    const dsl::DeductiveRule& rule = program.deductive_rules()[rule_index];
    std::multiset<std::string> out;
    body.EvaluateFull([&](const std::vector<Value>& values, int64_t sign) {
      EXPECT_EQ(sign, 1);
      out.insert(TupleToString(ProjectHead(rule.head.terms, body.var_slots(), values)));
    });
    return out;
  }
};

TEST(EvalCompareTest, AllOperators) {
  EXPECT_TRUE(EvalCompare(dsl::CompareOp::kEq, Value(1), Value(1)));
  EXPECT_TRUE(EvalCompare(dsl::CompareOp::kNe, Value(1), Value(2)));
  EXPECT_TRUE(EvalCompare(dsl::CompareOp::kLt, Value(1), Value(2)));
  EXPECT_TRUE(EvalCompare(dsl::CompareOp::kLe, Value(2), Value(2)));
  EXPECT_TRUE(EvalCompare(dsl::CompareOp::kGt, Value(3), Value(2)));
  EXPECT_TRUE(EvalCompare(dsl::CompareOp::kGe, Value(2), Value(2)));
  EXPECT_FALSE(EvalCompare(dsl::CompareOp::kLt, Value(2), Value(2)));
}

TEST(RuleEvaluatorTest, SimpleJoin) {
  Fixture f(R"(
    relation R(x: int, y: int).
    relation S(y: int).
    relation H(x: int).
    rule H(x) :- R(x, y), S(y).
  )");
  ASSERT_TRUE(f.table("R")->Insert({Value(1), Value(10)}).ok());
  ASSERT_TRUE(f.table("R")->Insert({Value(2), Value(20)}).ok());
  ASSERT_TRUE(f.table("S")->Insert({Value(10)}).ok());
  auto body = f.Compile();
  EXPECT_EQ(f.HeadTuples(body), (std::multiset<std::string>{"(1)"}));
}

TEST(RuleEvaluatorTest, SelfJoinEnumeratesOrderedPairs) {
  Fixture f(R"(
    relation P(s: int, m: int).
    relation H(a: int, b: int).
    rule H(a, b) :- P(s, a), P(s, b), a != b.
  )");
  ASSERT_TRUE(f.table("P")->Insert({Value(1), Value(7)}).ok());
  ASSERT_TRUE(f.table("P")->Insert({Value(1), Value(8)}).ok());
  ASSERT_TRUE(f.table("P")->Insert({Value(2), Value(9)}).ok());
  auto body = f.Compile();
  EXPECT_EQ(f.HeadTuples(body), (std::multiset<std::string>{"(7, 8)", "(8, 7)"}));
}

TEST(RuleEvaluatorTest, ConstantsFilter) {
  Fixture f(R"(
    relation R(x: int, tag: string).
    relation H(x: int).
    rule H(x) :- R(x, "keep").
  )");
  ASSERT_TRUE(f.table("R")->Insert({Value(1), Value("keep")}).ok());
  ASSERT_TRUE(f.table("R")->Insert({Value(2), Value("drop")}).ok());
  auto body = f.Compile();
  EXPECT_EQ(f.HeadTuples(body), (std::multiset<std::string>{"(1)"}));
}

TEST(RuleEvaluatorTest, RepeatedVariableWithinAtom) {
  Fixture f(R"(
    relation R(x: int, y: int).
    relation H(x: int).
    rule H(x) :- R(x, x).
  )");
  ASSERT_TRUE(f.table("R")->Insert({Value(1), Value(1)}).ok());
  ASSERT_TRUE(f.table("R")->Insert({Value(1), Value(2)}).ok());
  auto body = f.Compile();
  EXPECT_EQ(f.HeadTuples(body), (std::multiset<std::string>{"(1)"}));
}

TEST(RuleEvaluatorTest, NegationAsAntiJoin) {
  Fixture f(R"(
    relation A(x: int).
    relation B(x: int).
    relation H(x: int).
    rule H(x) :- A(x), !B(x).
  )");
  ASSERT_TRUE(f.table("A")->Insert({Value(1)}).ok());
  ASSERT_TRUE(f.table("A")->Insert({Value(2)}).ok());
  ASSERT_TRUE(f.table("B")->Insert({Value(2)}).ok());
  auto body = f.Compile();
  EXPECT_EQ(f.HeadTuples(body), (std::multiset<std::string>{"(1)"}));
}

TEST(RuleEvaluatorTest, MultisetSemantics) {
  // Two derivations of the same head tuple (different s) both fire.
  Fixture f(R"(
    relation P(s: int, m: int).
    relation H(m: int).
    rule H(m) :- P(s, m).
  )");
  ASSERT_TRUE(f.table("P")->Insert({Value(1), Value(7)}).ok());
  ASSERT_TRUE(f.table("P")->Insert({Value(2), Value(7)}).ok());
  auto body = f.Compile();
  EXPECT_EQ(f.HeadTuples(body), (std::multiset<std::string>{"(7)", "(7)"}));
}

TEST(RuleEvaluatorTest, DeltaEvaluationRejectsChangedNegation) {
  Fixture f(R"(
    relation A(x: int).
    relation B(x: int).
    relation H(x: int).
    rule H(x) :- A(x), !B(x).
  )");
  auto body = f.Compile();
  DeltaTable db_delta("B");
  db_delta.Add({Value(1)}, 1);
  std::map<std::string, const DeltaTable*> deltas = {{"B", &db_delta}};
  auto status = body.EvaluateDelta(deltas, [](const std::vector<Value>&, int64_t) {});
  EXPECT_EQ(status.code(), StatusCode::kUnimplemented);
}

// Property: for random updates (insertions and deletions, including
// self-joins), delta evaluation produces exactly new-state minus old-state
// derivation multisets.
class DeltaEvaluationProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeltaEvaluationProperty, MatchesRecomputation) {
  Fixture f(R"(
    relation P(s: int, m: int).
    relation Q(m: int).
    relation H(a: int, b: int).
    rule H(a, b) :- P(s, a), P(s, b), Q(b), a != b.
  )");
  Rng rng(GetParam());
  Table* p = f.table("P");
  Table* q = f.table("Q");

  // Random initial state.
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        p->Insert({Value(static_cast<int64_t>(rng.UniformInt(6))),
                   Value(static_cast<int64_t>(rng.UniformInt(8)))})
            .ok());
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q->Insert({Value(static_cast<int64_t>(rng.UniformInt(8)))}).ok());
  }

  auto body = f.Compile();
  auto count_derivations = [&]() {
    std::multiset<std::string> out;
    body.EvaluateFull([&](const std::vector<Value>& values, int64_t) {
      out.insert(TupleToString(values));
    });
    return out;
  };
  const auto before = count_derivations();

  // Random update touching both relations.
  DeltaTable dp("P"), dq("Q");
  for (int i = 0; i < 6; ++i) {
    Tuple t = {Value(static_cast<int64_t>(rng.UniformInt(6))),
               Value(static_cast<int64_t>(rng.UniformInt(8)))};
    if (p->Contains(t)) {
      if (rng.Bernoulli(0.5)) {
        p->Erase(t);
        dp.Add(t, -1);
      }
    } else {
      ASSERT_TRUE(p->Insert(t).ok());
      dp.Add(t, +1);
    }
  }
  for (int i = 0; i < 3; ++i) {
    Tuple t = {Value(static_cast<int64_t>(rng.UniformInt(8)))};
    if (q->Contains(t)) {
      if (rng.Bernoulli(0.5)) {
        q->Erase(t);
        dq.Add(t, -1);
      }
    } else {
      ASSERT_TRUE(q->Insert(t).ok());
      dq.Add(t, +1);
    }
  }
  const auto after = count_derivations();

  // Delta evaluation (tables are already in the NEW state).
  std::map<std::string, int64_t> delta_counts;
  std::map<std::string, const DeltaTable*> deltas = {{"P", &dp}, {"Q", &dq}};
  ASSERT_TRUE(body.EvaluateDelta(deltas,
                                 [&](const std::vector<Value>& values, int64_t sign) {
                                   delta_counts[TupleToString(values)] += sign;
                                 })
                  .ok());

  // Expected delta: after - before, as signed multiset counts.
  std::map<std::string, int64_t> expected;
  for (const auto& s : after) ++expected[s];
  for (const auto& s : before) --expected[s];
  for (auto it = expected.begin(); it != expected.end();) {
    it = it->second == 0 ? expected.erase(it) : std::next(it);
  }
  for (auto it = delta_counts.begin(); it != delta_counts.end();) {
    it = it->second == 0 ? delta_counts.erase(it) : std::next(it);
  }
  EXPECT_EQ(delta_counts, expected);
}

// Property: the sequential evaluation of each telescoping term (which
// semi-joins an unbound first atom against the DELTA atom instead of
// scanning it) emits exactly the derivations of the scanning range path, in
// the same order — the order the grounder's thread-count parity rests on.
TEST_P(DeltaEvaluationProperty, SequentialTermOrderMatchesRangeScan) {
  Fixture f(R"(
    relation P(s: int, m: int).
    relation Q(m: int).
    relation H(a: int, b: int).
    rule H(a, b) :- P(s, a), P(s, b), Q(b), a != b.
  )");
  Rng rng(GetParam());
  Table* p = f.table("P");
  Table* q = f.table("Q");
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(p->Insert({Value(static_cast<int64_t>(rng.UniformInt(10))),
                           Value(static_cast<int64_t>(rng.UniformInt(12)))})
                    .ok());
  }
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(q->Insert({Value(static_cast<int64_t>(rng.UniformInt(12)))}).ok());
  }
  DeltaTable dp("P"), dq("Q");
  for (int i = 0; i < 8; ++i) {
    Tuple t = {Value(static_cast<int64_t>(rng.UniformInt(10))),
               Value(static_cast<int64_t>(rng.UniformInt(12)))};
    if (!p->Contains(t)) {
      ASSERT_TRUE(p->Insert(t).ok());
      dp.Add(t, +1);
    } else if (rng.Bernoulli(0.5)) {
      p->Erase(t);
      dp.Add(t, -1);
    }
  }
  Tuple tq = {Value(static_cast<int64_t>(rng.UniformInt(12)))};
  if (q->Contains(tq)) {
    q->Erase(tq);
    dq.Add(tq, -1);
  } else {
    ASSERT_TRUE(q->Insert(tq).ok());
    dq.Add(tq, +1);
  }

  auto body = f.Compile();
  std::map<std::string, const DeltaTable*> deltas = {{"P", &dp}, {"Q", &dq}};
  auto plan = body.PlanDeltaEvaluation(deltas);
  ASSERT_TRUE(plan.ok());
  body.PrewarmIndexes();
  body.MaterializeDriverDelta(&*plan);
  ASSERT_EQ(plan->num_terms(), 3u);
  for (size_t m = 0; m < plan->num_terms(); ++m) {
    std::vector<std::string> sequential, ranged;
    auto record = [](std::vector<std::string>* out) {
      return [out](const std::vector<Value>& values, int64_t sign) {
        out->push_back(TupleToString(values) + (sign > 0 ? "+" : "-"));
      };
    };
    body.EvaluateDeltaTerm(*plan, m, record(&sequential));
    body.EvaluateDeltaTermRange(*plan, m, 0, body.DeltaTermDomain(*plan, m),
                                record(&ranged));
    EXPECT_EQ(sequential, ranged) << "term " << m;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, DeltaEvaluationProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

}  // namespace
}  // namespace deepdive::engine
