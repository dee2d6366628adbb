#ifndef DEEPDIVE_INCREMENTAL_UPDATE_REPORT_H_
#define DEEPDIVE_INCREMENTAL_UPDATE_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "incremental/optimizer.h"

namespace deepdive::incremental {

/// Timing/diagnostics for one update. Lives in the incremental module (below
/// core) so the ResultView layer (incremental/result_view.h) can embed a
/// copy of the publishing update's report without reaching up the layering.
struct UpdateReport {
  std::string label;
  double grounding_seconds = 0.0;   // view maintenance + factor grounding
  double learning_seconds = 0.0;
  double inference_seconds = 0.0;
  double TotalSeconds() const {
    return grounding_seconds + learning_seconds + inference_seconds;
  }
  Strategy strategy = Strategy::kRerun;
  double acceptance_rate = -1.0;
  size_t affected_vars = 0;
  /// Variables and groups of the compiled subgraph the variational path
  /// swept (0 when it did not run). Like affected_vars they follow the
  /// delta's components, not the size of the KB.
  size_t inference_graph_vars = 0;
  size_t inference_graph_groups = 0;
  /// Groundings emitted while applying this update. For a first-class rule
  /// addition this equals the new rule's match count — the witness that the
  /// add evaluated only that rule, not the whole program.
  uint64_t grounding_work = 0;
  size_t graph_variables = 0;
  size_t graph_factors = 0;  // active clauses
  /// Epoch of the ResultView this update published (DeepDive::Query()).
  /// Strictly increasing across the update history; 0 = not yet published.
  uint64_t epoch = 0;
};

}  // namespace deepdive::incremental

namespace deepdive::core {
/// Back-compat alias: the report type moved down to the incremental module
/// so the view layer no longer depends on core.
using UpdateReport = incremental::UpdateReport;
}  // namespace deepdive::core

#endif  // DEEPDIVE_INCREMENTAL_UPDATE_REPORT_H_
