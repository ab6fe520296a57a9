// Projection of bound events into result values — shared by the AIQL join
// executor and the graph baseline (both bind one event per pattern).

#ifndef AIQL_ENGINE_PROJECTOR_H_
#define AIQL_ENGINE_PROJECTOR_H_

#include <string>
#include <vector>

#include "engine/result.h"
#include "query/analyzer.h"
#include "query/ast.h"
#include "storage/entity_store.h"
#include "storage/partition.h"

namespace aiql {

/// Resolves attribute references against a per-pattern event assignment.
class Projector {
 public:
  Projector(const EntityStore& store, const AnalyzedQuery& analyzed)
      : store_(store), analyzed_(analyzed) {}

  /// Resolves `ref` against `assignment` (event per pattern, in query
  /// order). The referenced pattern must be assigned (non-null).
  Value Resolve(const AttrRefAst& ref,
                const std::vector<EventRef>& assignment) const;
  Value Resolve(const AttrRefAst& ref,
                const std::vector<const Event*>& assignment) const;

  /// Event attribute access (amount / start_time / end_time / agentid / op).
  Value EventAttr(const Event& event, const std::string& attr) const;

  /// Entity attribute access; empty attr resolves to the type's default.
  Value EntityAttr(EntityType type, EntityId id,
                   const std::string& attr) const;

 private:
  /// Resolves `ref` against the event `event_at(pattern)` bound to its
  /// pattern.
  template <typename EventAt>
  Value ResolveWith(const AttrRefAst& ref, const EventAt& event_at) const;

  const EntityStore& store_;
  const AnalyzedQuery& analyzed_;
};

/// Compares two values under a comparison operator (strings lexicographic,
/// numbers numeric). Used for explicit attribute relationships.
bool CompareValues(const Value& left, CmpOp op, const Value& right);

/// evt_a `before` evt_b: a's interval ends (`a_end`) no later than b starts
/// (`b_start`); a positive `within` additionally bounds the gap.
bool TemporalHolds(Timestamp a_end, Timestamp b_start, Duration within);

}  // namespace aiql

#endif  // AIQL_ENGINE_PROJECTOR_H_
