// In-memory span recorder for the benchmark's traced mode.
//
// Spans are recorded from the benchmark's own code around each public call
// it makes into a layer of the library (nothing inside src/ is
// instrumented). A span carries a name, start and end on the steady clock,
// the index of the span that caused it (-1 for a root), the operation id
// shared by all spans of one benchmark operation, and numeric attributes:
// the counters the library returned at the same boundary (UpdateReport,
// UpdateResult, ResultView, TenantStatus). Spans stay in memory and are
// written once, when the run ends; run.py derives self time and the
// per-layer metrics from them.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t op = 0;
  std::map<std::string, double> attrs;
};

/// Thread-safe span store. When disabled every call is a no-op that
/// returns -1, so untraced runs pay one branch per boundary.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its index (-1 when disabled).
  int64_t Begin(const std::string& name, uint64_t op, int64_t parent = -1) {
    if (!enabled_) return -1;
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, now, 0, parent, op, {}});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  void End(int64_t id) {
    if (id < 0) return;
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = now;
  }

  /// Records a finished span whose interval is known (a stage duration the
  /// library returned, laid out inside its parent).
  int64_t Add(const std::string& name, uint64_t op, int64_t parent,
              int64_t start_ns, int64_t end_ns) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, start_ns, end_ns, parent, op, {}});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  void Attr(int64_t id, const std::string& key, double value) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].attrs[key] = value;
  }

  /// Start of a span (0 when disabled).
  int64_t StartOf(int64_t id) {
    if (id < 0) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    return spans_[static_cast<size_t>(id)].start_ns;
  }

  /// Writes the spans as a JSON array.
  void WriteJson(std::FILE* out) {
    std::lock_guard<std::mutex> lock(mu_);
    std::fputc('[', out);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "%s\n{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"parent\":%lld,\"op\":%llu,\"attrs\":{",
                   i ? "," : "", s.name.c_str(),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.op));
      bool first = true;
      for (const auto& [key, value] : s.attrs) {
        std::fprintf(out, "%s\"%s\":%.17g", first ? "" : ",", key.c_str(), value);
        first = false;
      }
      std::fputs("}}", out);
    }
    std::fputs("]", out);
  }

 private:
  const bool enabled_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, uint64_t op,
             int64_t parent = -1)
      : tracer_(tracer), id_(tracer->Begin(name, op, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }
  void Attr(const std::string& key, double value) { tracer_->Attr(id_, key, value); }

 private:
  Tracer* tracer_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
