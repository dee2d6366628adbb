// The KBC benchmark program: runs one workload against the library and the
// serving stack from outside, checks its outputs, and writes the raw
// samples, counters, correctness checks and (in traced mode) spans as one
// JSON file. run.py turns that file into the metrics.
//
//   kbcbench --workload insert_stream|dev_loop|serve_mixed --seed N
//            --seconds S --trace 0|1 --out FILE [--socket PATH]
//
// Workloads (why each exists is recorded in BENCHMARK.json):
//   insert_stream  closed loop, one writer, engine at 1 thread: one-sentence
//                  ApplyUpdate inserts and deletes (3:1) with skip_learning
//                  against a ~40k-variable spouse KB.
//   dev_loop       closed loop, engine at nproc threads: KbcPipeline
//                  Initialize + A1 FE1 FE2 I1 S1 S2 + a trial AddRule /
//                  RetractRule, on independently seeded News corpora.
//   serve_mixed    the serving stack on a Unix socket: two closed-loop
//                  reader connections sending point queries, one open-loop
//                  writer connection sending one-sentence inserts at a fixed
//                  rate, one status connection sampling the queue.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "core/deepdive.h"
#include "factor/compiled_graph.h"
#include "inference/parallel_gibbs.h"
#include "kbc/pipeline.h"
#include "serve/serve.h"
#include "trace.h"
#include "util/random.h"
#include "util/thread_role.h"

namespace perfbench {
namespace {

using deepdive::Tuple;
using deepdive::Value;
namespace core = deepdive::core;
namespace comm = deepdive::serve::comm;
namespace incremental = deepdive::incremental;

constexpr size_t kInsertStreamSentences = 20000;
constexpr size_t kServeSentences = 2000;
constexpr size_t kDevLoopDocuments = 2000;
constexpr size_t kEngineThreadsDevLoop = 4;
constexpr uint64_t kMinDevLoopCorpora = 3;
// Set-up is repeated this many times per run and reported as a median.
constexpr int kSetupRepeats = 3;
constexpr int kServeSetupRepeats = 5;
// Point reads a writer makes after each update (pin + lookup).
constexpr int kReadsPerUpdate = 32;
// serve_mixed writer rate: ~60% of the capacity measured with readers
// running (about 16 writes/s on a 4-core host).
constexpr double kServeWritesPerSecond = 10.0;
constexpr int kServeReaders = 2;

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Everything one run produces; written as JSON for run.py.
struct Output {
  std::string workload;
  uint64_t seed = 0;
  std::string input_hash;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::vector<double>>> samples;
  std::vector<std::pair<std::string, double>> values;
  std::vector<Check> checks;

  std::vector<double>& Samples(const std::string& name) {
    for (auto& [key, list] : samples) {
      if (key == name) return list;
    }
    samples.emplace_back(name, std::vector<double>{});
    return samples.back().second;
  }
  void SetValue(const std::string& name, double value) {
    for (auto& [key, v] : values) {
      if (key == name) {
        v = value;
        return;
      }
    }
    values.emplace_back(name, value);
  }
  /// Records the outcome of a named check. Each name is kept once, with the
  /// first failure's detail, so a long run does not bloat the file.
  void Expect(const std::string& name, bool ok, const std::string& detail = "") {
    for (Check& c : checks) {
      if (c.name == name) {
        if (!ok && c.ok) {
          c.ok = false;
          c.detail = detail;
        }
        return;
      }
    }
    checks.push_back(Check{name, ok, ok ? "" : detail});
  }
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

bool WriteOutput(const Output& out, Tracer* tracer, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\":\"%s\",\"seed\":%llu,\"input_hash\":\"%s\",",
               out.workload.c_str(), static_cast<unsigned long long>(out.seed),
               out.input_hash.c_str());
  std::fprintf(f, "\"attempted\":%llu,\"failed\":%llu,\n\"checks\":[",
               static_cast<unsigned long long>(out.attempted),
               static_cast<unsigned long long>(out.failed));
  for (size_t i = 0; i < out.checks.size(); ++i) {
    std::fprintf(f, "%s{\"name\":\"%s\",\"ok\":%s,\"detail\":\"%s\"}", i ? "," : "",
                 out.checks[i].name.c_str(), out.checks[i].ok ? "true" : "false",
                 JsonEscape(out.checks[i].detail).c_str());
  }
  std::fputs("],\n\"values\":{", f);
  for (size_t i = 0; i < out.values.size(); ++i) {
    std::fprintf(f, "%s\"%s\":%.17g", i ? "," : "", out.values[i].first.c_str(),
                 out.values[i].second);
  }
  std::fputs("},\n\"samples\":{", f);
  for (size_t i = 0; i < out.samples.size(); ++i) {
    std::fprintf(f, "%s\n\"%s\":[", i ? "," : "", out.samples[i].first.c_str());
    const auto& list = out.samples[i].second;
    for (size_t j = 0; j < list.size(); ++j) {
      std::fprintf(f, "%s%.17g", j ? "," : "", list[j]);
    }
    std::fputc(']', f);
  }
  std::fputs("},\n\"spans\":", f);
  tracer->WriteJson(f);
  std::fputs("}\n", f);
  return std::fclose(f) == 0;
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// FNV-1a over the generated rows' text, so equal seeds can be shown to
/// give identical inputs.
class InputHash {
 public:
  void Add(const std::string& s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 1099511628211ULL;
    }
    h_ ^= 0xff;
    h_ *= 1099511628211ULL;
  }
  void Add(const std::vector<Tuple>& rows) {
    for (const Tuple& t : rows) Add(deepdive::TupleToString(t));
  }
  std::string Hex() const {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

// ---------------------------------------------------------------------------
// Spouse corpus shared by insert_stream and serve_mixed
// ---------------------------------------------------------------------------

// The quickstart spouse program: candidates from co-occurring mentions and
// one tied weight per phrase.
constexpr char kSpouseProgram[] = R"(
  relation Person(sent: int, mention: int).
  relation Phrase(m1: int, m2: int, words: string).
  query relation HasSpouse(m1: int, m2: int).
  evidence HasSpouseLabel(m1: int, m2: int, l: bool) for HasSpouse.
  rule CAND: HasSpouse(m1, m2) :- Person(s, m1), Person(s, m2), m1 != m2.
  factor FE1: HasSpouse(m1, m2) :- Phrase(m1, m2, w)
    weight = w(w) semantics = ratio.
)";

/// Two-mention sentences (mentions 2s and 2s+1). Truth is planted by phrase
/// class: a true pair draws an indicative phrase and a false pair a
/// misleading one, except that a tenth of sentences draw from the other
/// class. A tenth of the base sentences are labeled with their truth. The
/// vocabulary grows with the corpus (one phrase per class per 200
/// sentences), so each tied weight sees about the same number of labels at
/// every size and F1 varies little between seeds.
class SpouseCorpus {
 public:
  static constexpr size_t kSentencesPerPhrase = 200;
  static constexpr double kTrueRate = 0.5;
  static constexpr double kPhraseNoise = 0.1;
  static constexpr double kLabelRate = 0.1;

  SpouseCorpus(size_t base, uint64_t seed)
      : base_(base),
        phrases_per_class_(std::max<size_t>(10, base / kSentencesPerPhrase)),
        rng_(seed) {
    for (size_t s = 0; s < base; ++s) {
      Generate();
      labeled_.push_back(rng_.Bernoulli(kLabelRate));
    }
  }

  size_t base() const { return base_; }
  size_t size() const { return phrase_.size(); }
  bool truth(size_t s) const { return truth_[s]; }
  bool labeled(size_t s) const { return s < base_ && labeled_[s]; }

  /// Generates the next stream sentence and returns its id.
  size_t NextSentence() {
    Generate();
    return phrase_.size() - 1;
  }

  std::vector<Tuple> PersonRows(size_t s) const {
    const auto si = static_cast<int64_t>(s);
    return {{Value(si), Value(2 * si)}, {Value(si), Value(2 * si + 1)}};
  }
  std::vector<Tuple> PhraseRows(size_t s) const {
    const auto si = static_cast<int64_t>(s);
    return {{Value(2 * si), Value(2 * si + 1), Value(phrase_[s])},
            {Value(2 * si + 1), Value(2 * si), Value(phrase_[s])}};
  }
  std::vector<Tuple> LabelRows(size_t s) const {
    const auto si = static_cast<int64_t>(s);
    return {{Value(2 * si), Value(2 * si + 1), Value(truth_[s])},
            {Value(2 * si + 1), Value(2 * si), Value(truth_[s])}};
  }

  struct BaseRows {
    std::vector<Tuple> person, phrase, label;
  };
  BaseRows Base() const {
    BaseRows rows;
    for (size_t s = 0; s < base_; ++s) {
      for (auto& t : PersonRows(s)) rows.person.push_back(std::move(t));
      for (auto& t : PhraseRows(s)) rows.phrase.push_back(std::move(t));
      if (labeled_[s]) {
        for (auto& t : LabelRows(s)) rows.label.push_back(std::move(t));
      }
    }
    return rows;
  }

  /// Picks a random unlabeled base sentence that is still live.
  size_t PickDeletable(const std::set<size_t>& deleted) {
    for (;;) {
      const size_t s = rng_.UniformInt(base_);
      if (!labeled_[s] && deleted.count(s) == 0) return s;
    }
  }

  size_t PickBase() { return rng_.UniformInt(base_); }

 private:
  void Generate() {
    const bool t = rng_.Bernoulli(kTrueRate);
    const bool indicative = rng_.Bernoulli(kPhraseNoise) ? !t : t;
    const uint64_t k = rng_.UniformInt(phrases_per_class_);
    phrase_.push_back((indicative ? "and his wife #" : "met with #") +
                      std::to_string(k));
    truth_.push_back(t);
  }

  size_t base_;
  size_t phrases_per_class_;
  deepdive::Rng rng_;
  std::vector<std::string> phrase_;
  std::vector<bool> truth_;
  std::vector<bool> labeled_;
};

/// Hash of the rows loaded at set-up. Stream sentences continue the same
/// generator, so the seed fixes them too.
std::string BaseRowsHash(const SpouseCorpus::BaseRows& rows) {
  InputHash hash;
  hash.Add(rows.person);
  hash.Add(rows.phrase);
  hash.Add(rows.label);
  return hash.Hex();
}

std::string TupleTsv(int64_t a, int64_t b) {
  return std::to_string(a) + "\t" + std::to_string(b);
}

std::string RowsTsv(const std::vector<Tuple>& rows) {
  std::string tsv;
  for (const Tuple& t : rows) {
    for (size_t i = 0; i < t.size(); ++i) {
      if (i) tsv += '\t';
      tsv += t[i].ToString();
    }
    tsv += '\n';
  }
  return tsv;
}

/// Mention-level F1 at 0.5 over the live, unlabeled sentences of a corpus.
double SpouseF1(const incremental::ResultView& view, const SpouseCorpus& corpus,
                const std::set<size_t>& deleted, size_t live_limit) {
  std::vector<bool> predicted, actual;
  const auto* entries = view.Relation("HasSpouse");
  if (entries == nullptr) return 0.0;
  for (const auto& [tuple, marginal] : *entries) {
    const auto s = static_cast<size_t>(tuple[0].AsInt() / 2);
    if (s >= live_limit || corpus.labeled(s) || deleted.count(s)) continue;
    predicted.push_back(marginal >= 0.5);
    actual.push_back(corpus.truth(s));
  }
  return deepdive::kbc::ComputePrecisionRecall(predicted, actual).f1;
}

/// Checks that hold for every view the library publishes.
void CheckView(const incremental::ResultView& view, uint64_t* last_epoch,
               Output* out) {
  out->Expect("view.fingerprint", view.Fingerprint() == view.content_hash,
              "epoch " + std::to_string(view.epoch));
  out->Expect("view.epoch_increases", view.epoch > *last_epoch,
              std::to_string(view.epoch) + " after " + std::to_string(*last_epoch));
  *last_epoch = view.epoch;
  bool in_range = true;
  for (double p : view.marginals) in_range = in_range && p >= 0.0 && p <= 1.0;
  out->Expect("view.marginals_in_unit_interval", in_range,
              "epoch " + std::to_string(view.epoch));
}

/// Lays an update's stage seconds out as child spans of `root` from
/// `start_ns`, in the order the library runs them: grounding, learning, then
/// inference under the strategy that ran.
void StageSpans(Tracer* tracer, uint64_t op, int64_t root, int64_t start_ns,
                double grounding_s, double learning_s, double inference_s,
                const std::string& strategy) {
  if (root < 0) return;
  int64_t t = start_ns;
  auto add = [&](const std::string& name, double seconds) {
    const auto d = static_cast<int64_t>(seconds * 1e9);
    tracer->Add(name, op, root, t, t + d);
    t += d;
  };
  add("grounding", grounding_s);
  add("inference.learn", learning_s);
  add("incremental.infer." + strategy, inference_s);
}

void StageSpans(Tracer* tracer, uint64_t op, int64_t root,
                const incremental::UpdateReport& report) {
  StageSpans(tracer, op, root, tracer->StartOf(root), report.grounding_seconds,
             report.learning_seconds, report.inference_seconds,
             incremental::StrategyName(report.strategy));
}

void ReportAttrs(Tracer* tracer, int64_t span, const incremental::UpdateReport& r,
                 const incremental::ResultView& view) {
  tracer->Attr(span, "grounding_work", static_cast<double>(r.grounding_work));
  tracer->Attr(span, "affected_vars", static_cast<double>(r.affected_vars));
  tracer->Attr(span, "acceptance", r.acceptance_rate);
  tracer->Attr(span, "samples_remaining", static_cast<double>(view.samples_remaining));
  tracer->Attr(span, "snapshot_generation",
               static_cast<double>(view.snapshot_generation));
}

/// Times `reads` point reads (pin + lookup) of random query tuples and
/// returns the mean microseconds per read.
template <typename PickTuple>
double TimedReads(const core::DeepDive& dd, const std::string& relation, int reads,
                  PickTuple pick, Output* out) {
  std::vector<Tuple> tuples;
  tuples.reserve(static_cast<size_t>(reads));
  for (int i = 0; i < reads; ++i) tuples.push_back(pick());
  bool in_range = true;
  const int64_t start = NowNs();
  for (const Tuple& t : tuples) {
    const double p = dd.Query()->MarginalOf(relation, t);
    in_range = in_range && p >= 0.0 && p <= 1.0;
  }
  const double us = static_cast<double>(NowNs() - start) * 1e-3 / reads;
  out->Expect("read.marginal_in_unit_interval", in_range);
  return us;
}

/// Public compile + Gibbs sweeps on a final graph: factor.compile and the
/// per-variable sweep cost at the workload's thread count.
void GraphProbes(const deepdive::factor::FactorGraph& graph, size_t threads,
                 Tracer* tracer, uint64_t op) {
  for (int i = 0; i < 3; ++i) {
    ScopedSpan span(tracer, "factor.compile", op);
    deepdive::factor::CompiledGraph::Compile(graph);
  }
  const auto compiled = deepdive::factor::CompiledGraph::Compile(graph);
  deepdive::inference::CompiledParallelGibbsSampler sampler(&compiled, threads);
  deepdive::inference::GibbsOptions options;
  options.burn_in_sweeps = 0;
  options.sample_sweeps = 5;
  options.num_threads = threads;
  for (int i = 0; i < 3; ++i) {
    ScopedSpan span(tracer, "inference.sweeps", op);
    sampler.EstimateMarginals(options);
    span.Attr("var_sweeps",
              static_cast<double>(options.sample_sweeps * compiled.NumVariables()));
  }
}

// ---------------------------------------------------------------------------
// insert_stream
// ---------------------------------------------------------------------------

void RunInsertStream(uint64_t seed, double seconds, Tracer* tracer, Output* out)
    REQUIRES(deepdive::serving_thread) {
  SpouseCorpus corpus(kInsertStreamSentences, seed);
  const SpouseCorpus::BaseRows rows = corpus.Base();
  out->input_hash = BaseRowsHash(rows);

  std::unique_ptr<core::DeepDive> dd;
  uint64_t op = 0;
  for (int r = 0; r < kSetupRepeats; ++r) {
    dd.reset();
    ScopedSpan setup(tracer, "setup", ++op);
    const int64_t start = NowNs();
    {
      ScopedSpan span(tracer, "dsl.create", op, setup.id());
      auto created = core::DeepDive::Create(kSpouseProgram, core::FastTestConfig());
      if (!created.ok()) {
        out->Expect("setup", false, created.status().ToString());
        return;
      }
      dd = std::move(created).value();
    }
    {
      ScopedSpan span(tracer, "storage.load", op, setup.id());
      const bool ok = dd->LoadRows("Person", rows.person).ok() &&
                      dd->LoadRows("Phrase", rows.phrase).ok() &&
                      dd->LoadRows("HasSpouseLabel", rows.label).ok();
      out->Expect("setup", ok, "LoadRows failed");
      if (!ok) return;
    }
    {
      ScopedSpan span(tracer, "core.initialize", op, setup.id());
      const auto status = dd->Initialize();
      out->Expect("setup", status.ok(), status.ToString());
      if (!status.ok()) return;
      span.Attr("materialize_s", dd->Query()->materialization.seconds);
    }
    out->Samples("setup_s").push_back(SecondsSince(start));
  }

  // The stream: three one-sentence inserts, then one one-sentence delete.
  // Stream sentences are generated after the base rows, so the op sequence
  // is a deterministic function of the seed whatever the run length.
  std::set<size_t> deleted;
  uint64_t last_epoch = dd->Query()->epoch;
  const int64_t stream_start = NowNs();
  for (uint64_t i = 0; i == 0 || SecondsSince(stream_start) < seconds; ++i) {
    const bool is_delete = i % 4 == 3;
    core::UpdateSpec spec;
    spec.skip_learning = true;
    size_t sentence = 0;
    if (is_delete) {
      sentence = corpus.PickDeletable(deleted);
      deleted.insert(sentence);
      spec.label = "delete#" + std::to_string(i);
      spec.deletes["Person"] = corpus.PersonRows(sentence);
      spec.deletes["Phrase"] = corpus.PhraseRows(sentence);
    } else {
      sentence = corpus.NextSentence();
      spec.label = "insert#" + std::to_string(i);
      spec.inserts["Person"] = corpus.PersonRows(sentence);
      spec.inserts["Phrase"] = corpus.PhraseRows(sentence);
    }

    // Blocks of four writes alternate traced and untraced, so the traced
    // run also measures what tracing costs.
    const bool traced = (i / 4) % 2 == 0;
    Tracer* t = traced ? tracer : nullptr;
    ++out->attempted;
    const int64_t start = NowNs();
    const int64_t root =
        t ? t->Begin(is_delete ? "core.apply_update.delete" : "core.apply_update.insert",
                     ++op)
          : -1;
    auto report = dd->ApplyUpdate(spec);
    if (t) t->End(root);
    const double ms = static_cast<double>(NowNs() - start) * 1e-6;
    if (!report.ok()) {
      ++out->failed;
      out->Expect("update.ok", false, report.status().ToString());
      continue;
    }
    if (i == 0) out->Samples("first_write_ms").push_back(ms);
    out->Samples("update_ms").push_back(ms);
    out->Samples(is_delete ? "delete_ms" : "insert_ms").push_back(ms);
    // The first two blocks hold the slow first write and the sampling-path
    // writes, so the overhead comparison starts after them.
    if (tracer->enabled() && i >= 8) {
      out->Samples(traced ? "traced" : "untraced").push_back(ms);
    }

    const auto view = dd->Query();
    if (t) {
      StageSpans(t, op, root, *report);
      ReportAttrs(t, root, *report, *view);
    }
    CheckView(*view, &last_epoch, out);
    out->Expect("view.epoch_matches_report", view->epoch == report->epoch);
    out->Expect("view.size_equals_graph_variables",
                view->marginals.size() == report->graph_variables,
                std::to_string(view->marginals.size()) + " vs " +
                    std::to_string(report->graph_variables));
    if (!is_delete) {
      out->Expect("grounding.work_is_2_per_insert", report->grounding_work == 2,
                  "insert " + std::to_string(i) + " did " +
                      std::to_string(report->grounding_work));
    }
    const size_t live = corpus.size();
    out->Samples("read_us").push_back(TimedReads(
        *dd, "HasSpouse", kReadsPerUpdate,
        [&] {
          const auto s = static_cast<int64_t>(corpus.PickBase() % live);
          return Tuple{Value(2 * s), Value(2 * s + 1)};
        },
        out));
  }

  const auto view = dd->Query();
  out->SetValue("f1", SpouseF1(*view, corpus, deleted, corpus.size()));
  if (tracer->enabled()) GraphProbes(dd->ground().graph, 1, tracer, ++op);
  dd.reset();
}

// ---------------------------------------------------------------------------
// dev_loop
// ---------------------------------------------------------------------------

// A factor rule over the existing PersonCandidate pairs: the rule miner's
// trial pattern (add without learning, then retract).
constexpr char kTrialRule[] =
    "factor TRIAL: HasSpouse(m1, m2) :- PersonCandidate(s, m1), "
    "PersonCandidate(s, m2), m1 != m2 weight = 0.3 semantics = logical.";

core::DeepDiveConfig DevLoopConfig(size_t threads) {
  core::DeepDiveConfig config = core::FastTestConfig();
  config.grounding.num_threads = threads;
  config.gibbs.num_threads = threads;
  config.learner.num_threads = threads;
  config.materialization.num_threads = threads;
  config.materialization.variational.num_threads = threads;
  config.engine.gibbs.num_threads = threads;
  config.engine.rerun_gibbs.num_threads = threads;
  return config;
}

void RunDevLoop(uint64_t seed, double seconds, Tracer* tracer, Output* out)
    REQUIRES(deepdive::serving_thread) {
  namespace kbc = deepdive::kbc;
  InputHash hash;
  uint64_t op = 0;
  const int64_t run_start = NowNs();
  // At least three corpora, so set-up, the loop and F1 are medians over
  // independently seeded inputs.
  for (uint64_t c = 0; c < kMinDevLoopCorpora || SecondsSince(run_start) < seconds;
       ++c) {
    kbc::SystemProfile profile = kbc::ProfileFor(kbc::SystemKind::kNews);
    profile.num_documents = kDevLoopDocuments;
    kbc::PipelineOptions options;
    options.config = DevLoopConfig(kEngineThreadsDevLoop);
    options.seed = seed * 1000 + c;

    std::unique_ptr<kbc::KbcPipeline> pipeline;
    {
      ScopedSpan setup(tracer, "setup", ++op);
      const int64_t start = NowNs();
      {
        ScopedSpan span(tracer, "kbc.build", op, setup.id());
        auto built = kbc::KbcPipeline::Build(profile, options);
        if (!built.ok()) {
          out->Expect("setup", false, built.status().ToString());
          return;
        }
        pipeline = std::move(built).value();
      }
      {
        ScopedSpan span(tracer, "core.initialize", op, setup.id());
        const auto status = pipeline->Initialize();
        out->Expect("setup", status.ok(), status.ToString());
        if (!status.ok()) return;
        const auto view = pipeline->deepdive().Query();
        span.Attr("materialize_s", view->materialization.seconds);
      }
      out->Samples("setup_s").push_back(SecondsSince(start));
    }
    // The hash covers the corpora every run makes, so runs of any length
    // with one seed print the same hash.
    if (c < kMinDevLoopCorpora) {
      for (const auto& sentence : pipeline->corpus().sentences) {
        hash.Add(sentence.content);
      }
      out->input_hash = hash.Hex();
    }

    core::DeepDive& dd = pipeline->deepdive();
    const auto initial = dd.Query();
    uint64_t last_epoch = initial->epoch;
    const auto* candidates = initial->Relation("HasSpouse");
    const size_t num_candidates = candidates ? candidates->size() : 0;
    out->Expect("setup.has_candidates", num_candidates > 0);
    if (num_candidates == 0) return;
    deepdive::Rng read_rng(seed * 1000 + c);
    // Candidates never change during the loop, so reads pick among the
    // initial view's tuples.
    auto pick = [&] {
      return (*candidates)[read_rng.UniformInt(num_candidates)].first;
    };

    const uint64_t loop_op = ++op;
    const int64_t loop_root = tracer->Begin("kbc.devloop", loop_op);
    double loop_seconds = 0.0;
    std::vector<double> before;
    auto step = [&](const std::string& label, auto&& call) -> bool {
      ++out->attempted;
      const int64_t span = tracer->Begin("kbc.step." + label, loop_op, loop_root);
      const int64_t start = NowNs();
      auto report = call();
      loop_seconds += SecondsSince(start);
      tracer->End(span);
      if (!report.ok()) {
        ++out->failed;
        out->Expect("update.ok", false, label + ": " + report.status().ToString());
        return false;
      }
      const auto view = dd.Query();
      StageSpans(tracer, loop_op, span, *report);
      ReportAttrs(tracer, span, *report, *view);
      CheckView(*view, &last_epoch, out);
      out->Expect("view.size_equals_graph_variables",
                  view->marginals.size() == report->graph_variables, label);
      if (label == "trial_add") {
        out->Expect("grounding.work_equals_candidates_on_trial_add",
                    report->grounding_work == num_candidates,
                    std::to_string(report->grounding_work) + " vs " +
                        std::to_string(num_candidates));
      }
      out->Samples("read_us").push_back(
          TimedReads(dd, "HasSpouse", kReadsPerUpdate, pick, out));
      return true;
    };
    bool ok = true;
    for (const std::string& label : kbc::KbcPipeline::UpdateSequence()) {
      ok = ok && step(label, [&] { return pipeline->ApplyUpdate(label); });
    }
    if (ok) before = dd.Query()->marginals;
    ok = ok && step("trial_add", [&] { return dd.AddRule(kTrialRule, /*learn=*/false); });
    ok = ok && step("trial_retract", [&] { return dd.RetractRule("TRIAL"); });
    tracer->End(loop_root);
    if (!ok) return;
    const auto final_view = dd.Query();
    const std::vector<double>& after = final_view->marginals;
    out->Expect("trial_retract.restores_marginals_bit_for_bit",
                before.size() == after.size() &&
                    std::memcmp(before.data(), after.data(),
                                before.size() * sizeof(double)) == 0);
    out->Samples("devloop_ms").push_back(loop_seconds * 1e3);
    out->Samples("f1").push_back(pipeline->EvaluateMentions(0.5).f1);
    if (tracer->enabled() && c == 0) {
      GraphProbes(dd.ground().graph, kEngineThreadsDevLoop, tracer, ++op);
    }
  }
}

// ---------------------------------------------------------------------------
// serve_mixed
// ---------------------------------------------------------------------------

void RunServeMixed(uint64_t seed, double seconds, const std::string& socket_path,
                   Tracer* tracer, Output* out) {
  SpouseCorpus corpus(kServeSentences, seed);
  const SpouseCorpus::BaseRows rows = corpus.Base();
  out->input_hash = BaseRowsHash(rows);

  deepdive::serve::service::TenantRegistry registry;
  deepdive::serve::handlers::Dispatcher dispatcher(&registry);
  deepdive::serve::srv::ServerOptions server_options;
  server_options.listen_address = "unix:" + socket_path;
  server_options.connection_workers = 8;
  deepdive::serve::srv::Server server(&dispatcher, server_options);
  if (auto status = server.Start(); !status.ok()) {
    out->Expect("setup", false, status.ToString());
    return;
  }
  const std::string address = server.address();
  auto admin = comm::Client::Dial(address);
  if (!admin.ok()) {
    out->Expect("setup", false, admin.status().ToString());
    return;
  }

  // Set-up: create_tenant over the wire until the tenant is ready. Earlier
  // tenants are stopped once the next is up, so one engine serves.
  uint64_t op = 0;
  std::string tenant_name;
  for (int r = 0; r < kServeSetupRepeats; ++r) {
    comm::CreateTenantRequest create;
    create.name = "kb" + std::to_string(r);
    create.program = kSpouseProgram;
    create.config.threads = 1;
    create.config.seed = seed;
    create.data.push_back({"Person", RowsTsv(rows.person)});
    create.data.push_back({"Phrase", RowsTsv(rows.phrase)});
    create.data.push_back({"HasSpouseLabel", RowsTsv(rows.label)});
    comm::Request request;
    request.body = std::move(create);
    ScopedSpan span(tracer, "serve.service.create", ++op);
    const int64_t start = NowNs();
    auto response = admin->Call(request);
    const double s = SecondsSince(start);
    if (!response.ok() || !response->ok()) {
      out->Expect("setup", false,
                  response.ok() ? response->message : response.status().ToString());
      return;
    }
    out->Samples("setup_s").push_back(s);
    if (!tenant_name.empty()) registry.Find(tenant_name)->Stop();
    tenant_name = "kb" + std::to_string(r);
  }
  deepdive::serve::service::TenantInstance* tenant = registry.Find(tenant_name);

  auto insert_request = [&](const std::string& label) {
    const size_t sentence = corpus.NextSentence();
    comm::UpdateRequest body;
    body.label = label;
    body.inserts.push_back({"Person", RowsTsv(corpus.PersonRows(sentence))});
    body.inserts.push_back({"Phrase", RowsTsv(corpus.PhraseRows(sentence))});
    comm::Request request;
    request.tenant = tenant_name;
    request.body = std::move(body);
    return request;
  };

  // The first write on a fresh tenant pays one-time lazy costs (ten or more
  // steady writes' worth). It runs before the schedule starts, so it does
  // not back up the open loop, and is reported on its own.
  uint64_t acks = 0, writes_attempted = 1;
  {
    const int64_t start = NowNs();
    auto response = admin->Call(insert_request("warmup"));
    if (!response.ok() || !response->ok()) {
      out->Expect("update.ok", false,
                  response.ok() ? response->message : response.status().ToString());
      return;
    }
    ++acks;
    out->Samples("first_write_ms").push_back(SecondsSince(start) * 1e3);
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failed{0};
  struct ReaderLog {
    std::vector<double> us, traced, untraced;
    uint64_t queries = 0;
    Check check;
  };
  std::vector<ReaderLog> reader_logs(kServeReaders);
  std::vector<double> write_ms, engine_ms, lag_ms;
  uint32_t queue_depth_max = 0;
  uint64_t view_last_epoch = 0;
  Check writer_check, status_check;
  const int64_t t0 = NowNs();

  auto reader = [&](int id) {
    ReaderLog& log = reader_logs[id];
    auto client = comm::Client::Dial(address);
    if (!client.ok()) {
      log.check = {"reader.dial", false, client.status().ToString()};
      stop = true;
      return;
    }
    deepdive::Rng rng(seed * 7919 + static_cast<uint64_t>(id));
    for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      const auto s = static_cast<int64_t>(rng.UniformInt(corpus.base()));
      comm::Request request;
      request.tenant = tenant_name;
      request.body = comm::QueryRequest{"HasSpouse", TupleTsv(2 * s, 2 * s + 1), 0.0};
      // One query in eight is traced and followed by the same lookup
      // through each layer in-process; the rest measure the untraced path.
      Tracer* t = i % 8 == 0 ? tracer : nullptr;
      const uint64_t span_op = (static_cast<uint64_t>(id + 1) << 40) | i;
      const int64_t start = NowNs();
      const int64_t root = t ? t->Begin("serve.query", span_op) : -1;
      auto response = client->Call(request);
      if (t) t->End(root);
      const double us = static_cast<double>(NowNs() - start) * 1e-3;
      ++log.queries;
      const auto* result =
          response.ok() && response->ok() ? std::get_if<comm::QueryResult>(&response->body)
                                          : nullptr;
      if (result == nullptr || !result->found || result->marginal < 0.0 ||
          result->marginal > 1.0) {
        failed.fetch_add(1);
        log.check = {"query.found_in_unit_interval", false,
                     "sentence " + std::to_string(s)};
        continue;
      }
      log.us.push_back(us);
      if (!tracer->enabled()) continue;
      (t ? log.traced : log.untraced).push_back(us);
      if (!t) continue;
      {
        ScopedSpan span(t, "serve.comm.codec", span_op);
        auto decoded = comm::DecodeRequest(comm::EncodeRequest(request));
        auto decoded_response = comm::DecodeResponse(comm::EncodeResponse(*response));
        if (!decoded.ok() || !decoded_response.ok()) {
          log.check = {"codec.round_trip", false, "sentence " + std::to_string(s)};
        }
      }
      {
        ScopedSpan span(t, "serve.handlers.query", span_op);
        const comm::Response direct = dispatcher.Dispatch(request);
        if (!direct.ok()) log.check = {"handlers.dispatch", false, direct.message};
      }
      {
        ScopedSpan span(t, "serve.service.pin", span_op);
        const auto view = tenant->deepdive()->Query();
        const double p =
            view->MarginalOf("HasSpouse", Tuple{Value(2 * s), Value(2 * s + 1)});
        if (view->epoch == result->epoch && p != result->marginal) {
          log.check = {"service.pin_matches_wire", false,
                       "sentence " + std::to_string(s)};
        }
      }
    }
  };

  // Open loop: write i is due at t0 + i / rate whether or not write i-1
  // has finished; latency counts from the due time.
  auto writer = [&] {
    auto client = comm::Client::Dial(address);
    if (!client.ok()) {
      writer_check = {"writer.dial", false, client.status().ToString()};
      stop = true;
      return;
    }
    uint64_t last_epoch = 0;
    for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      const int64_t due = t0 + static_cast<int64_t>(i * 1e9 / kServeWritesPerSecond);
      while (NowNs() < due && !stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            std::min<int64_t>(2000, std::max<int64_t>(1, (due - NowNs()) / 1000))));
      }
      if (stop.load(std::memory_order_relaxed)) break;
      const comm::Request request = insert_request("insert#" + std::to_string(i));
      ++writes_attempted;
      const uint64_t span_op = (uint64_t{1} << 50) | i;
      const int64_t send = NowNs();
      const int64_t root = tracer->Add("serve.update", span_op, -1, due, due);
      tracer->Add("serve.gen_lag", span_op, root, due, send);
      auto response = client->Call(request);
      const int64_t done = NowNs();
      const auto* result =
          response.ok() && response->ok()
              ? std::get_if<comm::UpdateResult>(&response->body)
              : nullptr;
      if (result == nullptr) {
        // A shed (kUnavailable) counts as failed; anything else also fails
        // the run.
        failed.fetch_add(1);
        if (!response.ok() || response->code != deepdive::StatusCode::kUnavailable) {
          writer_check = {"update.ok", false,
                          response.ok() ? response->message
                                        : response.status().ToString()};
        }
        continue;
      }
      ++acks;
      if (result->epoch <= last_epoch) {
        writer_check = {"update.epoch_increases", false, std::to_string(result->epoch)};
      }
      last_epoch = result->epoch;
      const double engine_s =
          result->grounding_seconds + result->learning_seconds + result->inference_seconds;
      write_ms.push_back(static_cast<double>(done - due) * 1e-6);
      engine_ms.push_back(engine_s * 1e3);
      lag_ms.push_back(static_cast<double>(send - due) * 1e-6);
      StageSpans(tracer, span_op, root, done - static_cast<int64_t>(engine_s * 1e9),
                 result->grounding_seconds, result->learning_seconds,
                 result->inference_seconds, result->strategy);
      tracer->Attr(root, "affected_vars", static_cast<double>(result->affected_vars));
      tracer->End(root);
    }
  };

  // Samples the queue through the status verb and checks pinned views.
  auto status_sampler = [&] {
    auto client = comm::Client::Dial(address);
    if (!client.ok()) {
      status_check = {"status.dial", false, client.status().ToString()};
      stop = true;
      return;
    }
    while (!stop.load(std::memory_order_relaxed)) {
      comm::Request request;
      request.tenant = tenant_name;
      request.body = comm::StatusRequest{};
      auto response = client->Call(request);
      const auto* result = response.ok() && response->ok()
                               ? std::get_if<comm::StatusResult>(&response->body)
                               : nullptr;
      if (result == nullptr || result->tenants.empty()) {
        status_check = {"status.ok", false, "status verb failed"};
      } else {
        queue_depth_max = std::max(queue_depth_max, result->tenants[0].queue_depth);
      }
      const auto view = tenant->deepdive()->Query();
      if (view->Fingerprint() != view->content_hash || view->epoch < view_last_epoch) {
        status_check = {"view.fingerprint_and_epoch", false,
                        "epoch " + std::to_string(view->epoch)};
      }
      view_last_epoch = view->epoch;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  };

  std::vector<std::thread> threads;
  for (int r = 0; r < kServeReaders; ++r) threads.emplace_back(reader, r);
  threads.emplace_back(writer);
  threads.emplace_back(status_sampler);
  while (SecondsSince(t0) < seconds && !stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop = true;
  for (std::thread& t : threads) t.join();
  const double elapsed = SecondsSince(t0);

  std::vector<Check> checks = {writer_check, status_check};
  std::vector<double> all_queries, traced, untraced;
  uint64_t total_queries = 0;
  for (const ReaderLog& log : reader_logs) {
    checks.push_back(log.check);
    all_queries.insert(all_queries.end(), log.us.begin(), log.us.end());
    traced.insert(traced.end(), log.traced.begin(), log.traced.end());
    untraced.insert(untraced.end(), log.untraced.begin(), log.untraced.end());
    total_queries += log.queries;
  }
  for (const Check& c : checks) {
    if (!c.name.empty()) out->Expect(c.name, c.ok, c.detail);
  }
  out->Samples("query_us") = all_queries;
  out->Samples("read_us") = all_queries;
  if (tracer->enabled()) {
    out->Samples("traced") = traced;
    out->Samples("untraced") = untraced;
  }
  out->Samples("update_ms") = write_ms;
  out->Samples("insert_ms") = write_ms;
  out->Samples("engine_ms") = engine_ms;
  out->Samples("gen_lag_ms") = lag_ms;
  out->SetValue("queries_per_s", static_cast<double>(total_queries) / elapsed);
  out->SetValue("queue_depth_max", queue_depth_max);
  out->attempted = total_queries + writes_attempted;
  out->failed = failed.load();

  // The server's count of applied updates equals the client's
  // acknowledgements, and the final epoch is the initial view plus one per
  // applied update.
  comm::Request status_request;
  status_request.tenant = tenant_name;
  status_request.body = comm::StatusRequest{};
  auto status = admin->Call(status_request);
  const auto* result = status.ok() && status->ok()
                           ? std::get_if<comm::StatusResult>(&status->body)
                           : nullptr;
  if (result == nullptr || result->tenants.empty()) {
    out->Expect("status.ok", false, "final status failed");
  } else {
    const comm::TenantStatus& ts = result->tenants[0];
    out->Expect("serve.updates_applied_equals_acks", ts.updates_applied == acks,
                std::to_string(ts.updates_applied) + " vs " + std::to_string(acks));
    out->Expect("serve.final_epoch_is_1_plus_applied",
                ts.epoch == 1 + ts.updates_applied,
                std::to_string(ts.epoch) + " vs 1 + " +
                    std::to_string(ts.updates_applied));
    out->SetValue("shed", static_cast<double>(ts.updates_shed));
  }
  const auto view = tenant->deepdive()->Query();
  out->SetValue("f1", SpouseF1(*view, corpus, {}, corpus.base() + acks));
  server.Stop();
  registry.StopAll();
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string socket = "kbcbench.sock";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out = value;
    } else if (flag == "--socket") {
      args->socket = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->out.empty() &&
         (args->workload == "insert_stream" || args->workload == "dev_loop" ||
          args->workload == "serve_mixed");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Trusted root: the benchmark's main thread is the serving thread of the
  // in-process engines it drives.
  deepdive::serving_thread.AssertHeld();
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: kbcbench --workload insert_stream|dev_loop|serve_mixed "
                 "--seed N --seconds S --trace 0|1 --out FILE [--socket PATH]\n");
    return 2;
  }
  perfbench::Tracer tracer(args.trace);
  perfbench::Output out;
  out.workload = args.workload;
  out.seed = args.seed;
  if (args.workload == "insert_stream") {
    perfbench::RunInsertStream(args.seed, args.seconds, &tracer, &out);
  } else if (args.workload == "dev_loop") {
    perfbench::RunDevLoop(args.seed, args.seconds, &tracer, &out);
  } else {
    perfbench::RunServeMixed(args.seed, args.seconds, args.socket, &tracer, &out);
  }
  out.SetValue("peak_rss_mb", perfbench::PeakRssMiB());
  if (!perfbench::WriteOutput(out, &tracer, args.out)) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}
