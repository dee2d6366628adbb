// Update-cost scaling ladder: the same seeded stream of one-sentence writes
// (three inserts, then one delete, repeated) against spouse KBs of 2k, 20k
// and 200k sentences, one thread, no learning. Emits
// BENCH_update_scaling.json with, per KB size, the write latency p50/p95
// and the p50 of every stage (grounding, learning, inference, and the rest:
// delta merge, components, publication).
//
// The paper's claim is that an update costs work proportional to the change
// (Section 3.2; Appendix B.1 for the component decomposition), so the run
// hard-gates the counts that must not grow with the KB, and exits nonzero
// on a violation:
//   - grounding_work is exactly 2 for every insert;
//   - affected_vars at every write index is equal across sizes;
//   - where every size took the variational path at a write index, the
//     compiled subgraph it swept has equal size across sizes.
// It reports the 200k/20k ratio of the write p50 but does not gate it: the
// per-write terms that still scan every variable (the marginal-vector
// copies, the view checksum, the evidence-overwrite loops) keep wall time
// growing with the KB.
//
//   bench_update_scaling [--sizes 2000,20000,200000] [--writes 40]
//                        [--seed 11] [--out BENCH_update_scaling.json]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/deepdive.h"
#include "util/random.h"
#include "util/thread_role.h"
#include "util/timer.h"

namespace deepdive::bench {
namespace {

struct Args {
  std::vector<int64_t> sizes = {2000, 20000, 200000};
  int writes = 40;
  uint64_t seed = 11;
  std::string out = "BENCH_update_scaling.json";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--sizes") {
      args.sizes.clear();
      std::stringstream list(next());
      std::string item;
      while (std::getline(list, item, ',')) args.sizes.push_back(std::atoll(item.c_str()));
    } else if (a == "--writes") {
      args.writes = std::atoi(next());
    } else if (a == "--seed") {
      args.seed = std::strtoull(next(), nullptr, 10);
    } else if (a == "--out") {
      args.out = next();
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
    }
  }
  return args;
}

constexpr char kProgram[] = R"(
  relation Person(sent: int, mention: int).
  relation Phrase(m1: int, m2: int, words: string).
  query relation HasSpouse(m1: int, m2: int).
  evidence HasSpouseLabel(m1: int, m2: int, l: bool) for HasSpouse.
  rule CAND: HasSpouse(m1, m2) :- Person(s, m1), Person(s, m2), m1 != m2.
  factor FE1: HasSpouse(m1, m2) :- Phrase(m1, m2, w)
    weight = w(w) semantics = ratio.
)";

/// Sentence `s` (mentions 2s and 2s+1): a phrase between them, both ways,
/// whose class follows the planted truth except one time in ten, and a
/// label on a tenth of the sentences. The vocabulary grows with the KB (one
/// phrase per class per 200 sentences), so every tied weight sees about as
/// many labels at any size.
struct Sentence {
  std::vector<Tuple> person, phrase, label;
};

Sentence MakeSentence(uint64_t seed, int64_t s, uint64_t vocabulary) {
  Rng rng(Rng::MixSeed(seed, static_cast<uint64_t>(s)));
  const bool truth = rng.Bernoulli(0.5);
  const bool flipped = rng.Bernoulli(0.1);
  const bool labeled = rng.Bernoulli(0.1);  // drawn before the size-dependent draw
  const std::string words =
      std::string(truth != flipped ? "married" : "met") + std::to_string(rng.UniformInt(vocabulary));
  Sentence out;
  out.person = {{Value(s), Value(2 * s)}, {Value(s), Value(2 * s + 1)}};
  out.phrase = {{Value(2 * s), Value(2 * s + 1), Value(words)},
                {Value(2 * s + 1), Value(2 * s), Value(words)}};
  if (labeled) {
    out.label = {{Value(2 * s), Value(2 * s + 1), Value(truth)},
                 {Value(2 * s + 1), Value(2 * s), Value(truth)}};
  }
  return out;
}

struct WriteRecord {
  bool is_delete = false;
  double wall_s = 0.0;
  incremental::UpdateReport report;
};

struct SizeResult {
  int64_t sentences = 0;
  size_t variables = 0;
  double setup_s = 0.0;
  std::vector<WriteRecord> writes;
};

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t index = static_cast<size_t>(q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

/// Builds the KB and runs the stream. The stream depends on the seed only:
/// inserts add fresh sentences with negative ids and deletes remove base
/// sentences below 2000, so every size sees the same writes.
bool RunSize(const Args& args, int64_t sentences, SizeResult* result)
    REQUIRES(serving_thread) {
  result->sentences = sentences;
  const auto vocabulary = static_cast<uint64_t>(std::max<int64_t>(1, sentences / 200));
  Timer setup;
  auto created = core::DeepDive::Create(kProgram, core::FastTestConfig());
  if (!created.ok()) {
    std::fprintf(stderr, "create: %s\n", created.status().ToString().c_str());
    return false;
  }
  std::unique_ptr<core::DeepDive> dd = std::move(created).value();
  std::vector<Tuple> person, phrase, label;
  for (int64_t s = 0; s < sentences; ++s) {
    Sentence x = MakeSentence(args.seed, s, vocabulary);
    person.insert(person.end(), x.person.begin(), x.person.end());
    phrase.insert(phrase.end(), x.phrase.begin(), x.phrase.end());
    label.insert(label.end(), x.label.begin(), x.label.end());
  }
  if (!dd->LoadRows("Person", person).ok() || !dd->LoadRows("Phrase", phrase).ok() ||
      !dd->LoadRows("HasSpouseLabel", label).ok() || !dd->Initialize().ok()) {
    std::fprintf(stderr, "set-up of the %lld-sentence KB failed\n",
                 static_cast<long long>(sentences));
    return false;
  }
  result->setup_s = setup.Seconds();

  // Writes draw from a fixed vocabulary so their structure is size-free.
  constexpr uint64_t kStreamVocabulary = 10;
  constexpr int64_t kDeletableBase = 2000;
  Rng pick(Rng::MixSeed(args.seed, /*stream=*/7));
  std::set<int64_t> deleted;
  int64_t next_insert = -1;
  for (int i = 0; i < args.writes; ++i) {
    WriteRecord record;
    record.is_delete = i % 4 == 3;
    core::UpdateSpec spec;
    spec.skip_learning = true;
    if (record.is_delete) {
      int64_t s = 0;
      Sentence x;
      do {  // an unlabeled base sentence that is still live
        s = static_cast<int64_t>(pick.UniformInt(
            static_cast<uint64_t>(std::min(kDeletableBase, sentences))));
        x = MakeSentence(args.seed, s, vocabulary);
      } while (deleted.count(s) > 0 || !x.label.empty());
      deleted.insert(s);
      spec.label = "delete";
      spec.deletes["Person"] = x.person;
      spec.deletes["Phrase"] = x.phrase;
    } else {
      const Sentence x = MakeSentence(args.seed, next_insert--, kStreamVocabulary);
      spec.label = "insert";
      spec.inserts["Person"] = x.person;
      spec.inserts["Phrase"] = x.phrase;
    }
    Timer wall;
    auto report = dd->ApplyUpdate(spec);
    record.wall_s = wall.Seconds();
    if (!report.ok()) {
      std::fprintf(stderr, "write %d: %s\n", i, report.status().ToString().c_str());
      return false;
    }
    record.report = *report;
    result->writes.push_back(record);
  }
  result->variables = dd->Query()->marginals.size();
  return true;
}

/// Violations of each count gate.
struct GateViolations {
  int grounding_work = 0;
  int affected_vars = 0;
  int inference_graph = 0;
  int total() const { return grounding_work + affected_vars + inference_graph; }
};

/// The count gates; prints each violation.
GateViolations CheckGates(const std::vector<SizeResult>& results) {
  GateViolations violations;
  for (const SizeResult& r : results) {
    for (size_t i = 0; i < r.writes.size(); ++i) {
      const WriteRecord& w = r.writes[i];
      if (!w.is_delete && w.report.grounding_work != 2) {
        std::fprintf(stderr, "GATE: %lld sentences, insert %zu did %llu groundings (want 2)\n",
                     static_cast<long long>(r.sentences), i,
                     static_cast<unsigned long long>(w.report.grounding_work));
        ++violations.grounding_work;
      }
    }
  }
  for (size_t k = 1; k < results.size(); ++k) {
    const SizeResult& a = results[0];
    const SizeResult& b = results[k];
    for (size_t i = 0; i < a.writes.size() && i < b.writes.size(); ++i) {
      const auto& ra = a.writes[i].report;
      const auto& rb = b.writes[i].report;
      if (ra.affected_vars != rb.affected_vars) {
        std::fprintf(stderr, "GATE: write %zu affects %zu vars at %lld sentences, %zu at %lld\n",
                     i, ra.affected_vars, static_cast<long long>(a.sentences),
                     rb.affected_vars, static_cast<long long>(b.sentences));
        ++violations.affected_vars;
      }
      if (ra.inference_graph_vars > 0 && rb.inference_graph_vars > 0 &&
          (ra.inference_graph_vars != rb.inference_graph_vars ||
           ra.inference_graph_groups != rb.inference_graph_groups)) {
        std::fprintf(stderr,
                     "GATE: write %zu swept a %zu-var/%zu-group subgraph at %lld "
                     "sentences, %zu/%zu at %lld\n",
                     i, ra.inference_graph_vars, ra.inference_graph_groups,
                     static_cast<long long>(a.sentences), rb.inference_graph_vars,
                     rb.inference_graph_groups, static_cast<long long>(b.sentences));
        ++violations.inference_graph;
      }
    }
  }
  return violations;
}

int Run(int argc, char** argv) REQUIRES(serving_thread) {
  const Args args = ParseArgs(argc, argv);
  std::vector<SizeResult> results;
  std::printf("%10s %10s %9s %9s %9s %9s %9s %9s %9s\n", "sentences", "vars", "setup_s",
              "p50_ms", "p95_ms", "ground", "infer", "other", "affected");
  for (const int64_t sentences : args.sizes) {
    SizeResult r;
    if (!RunSize(args, sentences, &r)) return 1;
    std::vector<double> wall, ground, infer, other;
    for (const WriteRecord& w : r.writes) {
      wall.push_back(w.wall_s);
      ground.push_back(w.report.grounding_seconds);
      infer.push_back(w.report.inference_seconds);
      other.push_back(w.wall_s - w.report.TotalSeconds());
    }
    std::printf("%10lld %10zu %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f %9zu\n",
                static_cast<long long>(sentences), r.variables, r.setup_s,
                Percentile(wall, 0.5) * 1e3, Percentile(wall, 0.95) * 1e3,
                Percentile(ground, 0.5) * 1e3, Percentile(infer, 0.5) * 1e3,
                Percentile(other, 0.5) * 1e3, r.writes.back().report.affected_vars);
    results.push_back(std::move(r));
  }
  const GateViolations violations = CheckGates(results);

  auto p50 = [&](int64_t sentences) {
    for (const SizeResult& r : results) {
      if (r.sentences != sentences) continue;
      std::vector<double> wall;
      for (const WriteRecord& w : r.writes) wall.push_back(w.wall_s);
      return Percentile(wall, 0.5);
    }
    return 0.0;
  };
  const double ratio = p50(20000) > 0.0 ? p50(200000) / p50(20000) : 0.0;
  if (ratio > 0.0) std::printf("p50 ratio 200k/20k: %.2f (reported, not gated)\n", ratio);

  std::FILE* out = std::fopen(args.out.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"update_scaling\",\n  \"update_class\": \"data_insert\",\n");
  std::fprintf(out, "  \"seed\": %llu,\n  \"writes\": %d,\n  \"threads\": 1,\n",
               static_cast<unsigned long long>(args.seed), args.writes);
  std::fprintf(out, "  \"sizes\": [\n");
  for (size_t k = 0; k < results.size(); ++k) {
    const SizeResult& r = results[k];
    std::vector<double> wall, ground, learn, infer, other;
    std::string affected, subgraph;
    for (const WriteRecord& w : r.writes) {
      wall.push_back(w.wall_s);
      ground.push_back(w.report.grounding_seconds);
      learn.push_back(w.report.learning_seconds);
      infer.push_back(w.report.inference_seconds);
      other.push_back(w.wall_s - w.report.TotalSeconds());
      affected += (affected.empty() ? "" : ", ") + std::to_string(w.report.affected_vars);
      subgraph += (subgraph.empty() ? "" : ", ") + std::to_string(w.report.inference_graph_vars);
    }
    std::fprintf(out,
                 "    {\"sentences\": %lld, \"variables\": %zu, \"setup_s\": %.3f,\n"
                 "     \"write_p50_s\": %.6f, \"write_p95_s\": %.6f,\n"
                 "     \"stage_p50_s\": {\"grounding\": %.6f, \"learning\": %.6f, "
                 "\"inference\": %.6f, \"other\": %.6f},\n"
                 "     \"affected_vars\": [%s],\n"
                 "     \"inference_graph_vars\": [%s]}%s\n",
                 static_cast<long long>(r.sentences), r.variables, r.setup_s,
                 Percentile(wall, 0.5), Percentile(wall, 0.95), Percentile(ground, 0.5),
                 Percentile(learn, 0.5), Percentile(infer, 0.5), Percentile(other, 0.5),
                 affected.c_str(), subgraph.c_str(), k + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"gates\": {\"grounding_work_2_per_insert\": %s, "
               "\"affected_vars_equal_across_sizes\": %s, "
               "\"inference_graph_equal_across_sizes\": %s},\n",
               violations.grounding_work == 0 ? "true" : "false",
               violations.affected_vars == 0 ? "true" : "false",
               violations.inference_graph == 0 ? "true" : "false");
  std::fprintf(out,
               "  \"p50_ratio_200k_over_20k\": %.3f,\n"
               "  \"p50_ratio_gate\": \"not enforced: the marginal-vector copies, the view "
               "checksum and the evidence-overwrite loops still scan every variable on "
               "each write\"\n}\n",
               ratio);
  std::fclose(out);
  std::printf("wrote %s\n", args.out.c_str());
  if (violations.total() > 0) {
    std::fprintf(stderr, "%d gate violation(s)\n", violations.total());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace deepdive::bench

int main(int argc, char** argv) {
  deepdive::serving_thread.AssertHeld();
  return deepdive::bench::Run(argc, argv);
}
