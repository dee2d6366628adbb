#include "incremental/result_view.h"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "storage/text_io.h"
#include "util/hash.h"

namespace deepdive::incremental {

namespace {

using Entry = std::pair<Tuple, factor::VarId>;

bool TupleLess(const Entry& a, const Entry& b) { return a.first < b.first; }

/// Merges two tuple-sorted runs into one.
std::vector<Entry> MergeRuns(const std::vector<Entry>& a, const std::vector<Entry>& b) {
  std::vector<Entry> out;
  out.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out),
             TupleLess);
  return out;
}

}  // namespace

/// Shared by every view that indexes the relation; never mutated after
/// construction, so any thread may read it.
class KeyRun {
 public:
  explicit KeyRun(std::vector<Entry> sorted_entries);

  /// Variable of `tuple` (whose TupleHash is `hash`), or kNoVar.
  factor::VarId Find(const Tuple& tuple, uint64_t hash) const;
  /// Immutable after construction; safe from any thread.
  const std::vector<Entry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }

 private:
  std::vector<Entry> entries_;
  /// Open addressing over entries_: position + 1, 0 = empty slot.
  std::vector<uint32_t> slots_;
};

KeyRun::KeyRun(std::vector<Entry> sorted_entries) : entries_(std::move(sorted_entries)) {
  size_t capacity = 4;
  while (capacity < 2 * entries_.size()) capacity *= 2;
  slots_.assign(capacity, 0);
  const size_t mask = capacity - 1;
  for (size_t i = 0; i < entries_.size(); ++i) {
    size_t slot = TupleHash()(entries_[i].first) & mask;
    while (slots_[slot] != 0) slot = (slot + 1) & mask;
    slots_[slot] = static_cast<uint32_t>(i + 1);
  }
}

factor::VarId KeyRun::Find(const Tuple& tuple, uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t slot = hash & mask; slots_[slot] != 0; slot = (slot + 1) & mask) {
    const Entry& entry = entries_[slots_[slot] - 1];
    if (entry.first == tuple) return entry.second;
  }
  return factor::kNoVar;
}

size_t RelationIndex::size() const {
  return (base_ != nullptr ? base_->size() : 0) + (tail_ != nullptr ? tail_->size() : 0);
}

const std::pair<Tuple, factor::VarId>& RelationIndex::front() const {
  return base_ != nullptr && base_->size() > 0 ? base_->entries().front()
                                               : tail_->entries().front();
}

factor::VarId RelationIndex::Find(const Tuple& tuple) const {
  const uint64_t hash = TupleHash()(tuple);
  if (base_ != nullptr) {
    const factor::VarId var = base_->Find(tuple, hash);
    if (var != factor::kNoVar) return var;
  }
  return tail_ != nullptr ? tail_->Find(tuple, hash) : factor::kNoVar;
}

RelationIndex RelationIndex::Extend(std::vector<Entry> added) const {
  std::sort(added.begin(), added.end(), TupleLess);
  RelationIndex out = *this;
  if (tail_ != nullptr) added = MergeRuns(tail_->entries(), added);
  const size_t base_size = base_ != nullptr ? base_->size() : 0;
  if (added.size() * kTailFraction > base_size) {
    out.base_ = std::make_shared<const KeyRun>(
        base_ != nullptr ? MergeRuns(base_->entries(), added) : std::move(added));
    out.tail_ = nullptr;
  } else {
    out.tail_ = std::make_shared<const KeyRun>(std::move(added));
  }
  return out;
}

std::vector<Entry> RelationIndex::SortedEntries() const {
  static const std::vector<Entry> kNone;
  return MergeRuns(base_ != nullptr ? base_->entries() : kNone,
                   tail_ != nullptr ? tail_->entries() : kNone);
}

const std::vector<std::pair<Tuple, double>>* ResultView::Relation(
    const std::string& relation) const {
  const auto it = relations.find(relation);
  if (it == relations.end()) return nullptr;
  MutexLock lock(enumeration_mu_);
  auto& cached = enumerations_[relation];
  if (cached == nullptr) {
    auto entries = std::make_unique<std::vector<std::pair<Tuple, double>>>();
    std::vector<Entry> sorted = it->second.SortedEntries();
    entries->reserve(sorted.size());
    for (auto& [tuple, var] : sorted) {
      entries->emplace_back(std::move(tuple),
                            var < marginals.size() ? marginals[var] : 0.5);
    }
    cached = std::move(entries);
  }
  return cached.get();
}

double ResultView::MarginalOf(const std::string& relation,
                              const Tuple& tuple) const {
  const auto it = relations.find(relation);
  if (it == relations.end()) return 0.5;
  const factor::VarId var = it->second.Find(tuple);
  return var < marginals.size() ? marginals[var] : 0.5;
}

uint64_t ResultView::Fingerprint() const {
  uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  const auto mix = [&h](uint64_t bits) {
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xff;
      h *= 1099511628211ull;  // FNV prime
    }
  };
  mix(epoch);
  mix(marginals.size());
  for (const double m : marginals) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(m));
    std::memcpy(&bits, &m, sizeof(bits));
    mix(bits);
  }
  return h;
}

ResultPublisher::ResultPublisher() {
  auto initial = std::make_shared<ResultView>();
  initial->content_hash = initial->Fingerprint();
  // ordering: release — the constructing thread may hand the publisher to
  // readers through some other channel; the release pairs with Current()'s
  // acquire load so the epoch-0 view's fields travel with the pointer.
  slot_.store(std::shared_ptr<const ResultView>(std::move(initial)),
              std::memory_order_release);
}

uint64_t ResultPublisher::Publish(std::shared_ptr<ResultView> view) {
  view->epoch = ++last_epoch_;
  view->content_hash = view->Fingerprint();
  // ordering: release — publishes the fully-built view; pairs with the
  // acquire load in Current() so readers never observe a half-written view.
  slot_.store(std::shared_ptr<const ResultView>(std::move(view)),
              std::memory_order_release);
  {
    MutexLock lock(wait_mu_);
    published_epoch_ = last_epoch_;
  }
  published_cv_.NotifyAll();
  return last_epoch_;
}

void ResultPublisher::WaitForEpoch(uint64_t min_epoch) const {
  MutexLock lock(wait_mu_);
  while (published_epoch_ < min_epoch) published_cv_.Wait(wait_mu_);
}

Status WriteRelationTsv(const ResultView& view, const std::string& relation,
                        std::FILE* out, double threshold) {
  const auto* entries = view.Relation(relation);
  if (entries == nullptr) return Status::OK();
  for (const auto& [tuple, marginal] : *entries) {
    if (marginal < threshold) continue;
    auto line = FormatMarginalLine(marginal, tuple);
    if (!line.ok()) continue;  // unprintable tuple: same skip as FormatTsvLine
    std::fprintf(out, "%s\n", line->c_str());
  }
  return Status::OK();
}

}  // namespace deepdive::incremental
