#include "engine/scheduler.h"

#include <algorithm>
#include <numeric>

namespace aiql {

Result<double> EstimateCardinality(
    const CompiledPattern& pattern, const ReadView& view,
    const std::optional<std::vector<AgentId>>& agents) {
  // Exact counts over every partition the range and agents select: events
  // of a matching op starting in range, and events whose subject exe
  // matches. Directory statistics serve both.
  AIQL_ASSIGN_OR_RETURN(
      ReadView::EstimateCounts counts,
      view.CountForEstimate(pattern.time_range, agents, pattern.op_mask,
                            pattern.subject.matched_exe_ids));
  double estimate = static_cast<double>(counts.op_events);
  if (!pattern.subject.matched_exe_ids.empty()) {
    estimate = std::min(estimate, static_cast<double>(counts.exe_events));
  } else if (pattern.subject.candidates.has_value()) {
    // Non-exe subject constraints: scale by candidate fraction.
    size_t universe = view.entities().NumEntities(EntityType::kProcess);
    double fraction =
        universe == 0 ? 0.0
                      : static_cast<double>(
                            pattern.subject.candidates->Count()) /
                            static_cast<double>(universe);
    estimate *= fraction;
  }
  if (pattern.object.candidates.has_value()) {
    size_t universe = view.entities().NumEntities(pattern.object.type);
    double fraction =
        universe == 0
            ? 0.0
            : static_cast<double>(pattern.object.candidates->Count()) /
                  static_cast<double>(universe);
    estimate *= fraction;
  }
  return estimate;
}

Result<std::vector<size_t>> SchedulePatterns(
    std::vector<CompiledPattern>* patterns, const ReadView& view,
    const std::optional<std::vector<AgentId>>& agents,
    const EngineOptions& options) {
  for (CompiledPattern& pattern : *patterns) {
    AIQL_ASSIGN_OR_RETURN(pattern.estimated_cardinality,
                          EstimateCardinality(pattern, view, agents));
  }
  std::vector<size_t> order(patterns->size());
  std::iota(order.begin(), order.end(), 0);
  if (!options.enable_reordering) return order;

  auto constraint_count = [&](size_t i) {
    return (*patterns)[i].subject.predicates.size() +
           (*patterns)[i].object.predicates.size();
  };
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    double ca = (*patterns)[a].estimated_cardinality;
    double cb = (*patterns)[b].estimated_cardinality;
    if (ca != cb) return ca < cb;
    // Tie-break: more constraints first (higher pruning power), then the
    // original order for determinism.
    return constraint_count(a) > constraint_count(b);
  });
  return order;
}

}  // namespace aiql
