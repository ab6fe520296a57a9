// Zero-copy partition scan for compiled event patterns (paper §2.3).
//
// One scan inspects a sealed partition's columns and appends an EventRef
// (partition, row) per matching event — no event is copied on the scan
// path. Two strategies share the same match predicate:
//   * posting path — when the pattern's op mask selects few events, iterate
//     the per-operation posting lists (time-clipped via their zone maps),
//     merging multiple lists in ascending index order;
//   * columnar path — otherwise, walk the time-clipped row range
//     kScanBatch rows at a time through branch-free mask passes: an
//     op-acceptance table, an object-type compare, and raw-word
//     candidate-bitset tests — every predicate a u32/u8 integer op the
//     compiler can auto-vectorize.
// Both strategies produce matches in ascending row order and charge
// governance per inspected row.

#ifndef AIQL_ENGINE_SCAN_H_
#define AIQL_ENGINE_SCAN_H_

#include <vector>

#include "common/cancellation.h"
#include "engine/data_query.h"
#include "storage/key_summary.h"
#include "storage/partition.h"

namespace aiql {

/// Rows per batch-kernel iteration. Divides QueryContext::kCheckStride so
/// batch boundaries align with governance stride boundaries.
inline constexpr size_t kScanBatch = 16;
static_assert(QueryContext::kCheckStride % kScanBatch == 0,
              "governed batch scans charge at stride boundaries; the stride "
              "must be batch-aligned");

/// Scans `partition` for events matching `pattern` within `range` and
/// appends references to them to `*out`. `same_var_both_sides`
/// additionally requires subject == object. No agent is tested: partition
/// selection already restricted agents. Returns the number of events
/// inspected. The partition must be sealed.
///
/// `ctx` (optional) is charged one row per event inspected, at
/// QueryContext::kCheckStride granularity; on a governance violation the
/// scan stops early (partial `out`, partial count) and the caller observes
/// the latched status via ctx->Check().
uint64_t ScanPartition(const EventPartition& partition,
                       const CompiledPattern& pattern, const TimeRange& range,
                       bool same_var_both_sides, std::vector<EventRef>* out,
                       QueryContext* ctx = nullptr);

/// The summary key groups that select the cold partitions a scan of
/// `pattern` can match (ReadView::SelectPartitions): one group per side
/// with a candidate set, holding exactly the entities ScanPartition accepts
/// on that side (subject ids; object ids of the pattern's object type). A
/// summary that misses a group therefore proves the partition holds no
/// match. The groups reference `pattern`'s candidate sets.
SummaryKeyGroups ScanKeyGroups(const CompiledPattern& pattern);

}  // namespace aiql

#endif  // AIQL_ENGINE_SCAN_H_
