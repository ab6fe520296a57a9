// Query governance: deadlines, cooperative cancellation, and resource
// budgets (rows scanned, provenance nodes, gathered bytes).
//
// A QueryContext travels with one query execution. Hot loops call
// Check()/ChargeRows()/ChargeNodes()/ChargeMemory() at batch granularity;
// the first violation (cancel, deadline, or budget) latches a sticky error
// status that every later check returns, so a long scatter/gather unwinds
// with one consistent code. The context is thread-safe: scan workers,
// merge threads, and the controlling thread may all touch it concurrently.

#ifndef AIQL_COMMON_CANCELLATION_H_
#define AIQL_COMMON_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

#include "common/status.h"

namespace aiql {

/// What to do when a shard fails (after retries) during scatter/gather or
/// provenance tracking over a ShardMap with more than one shard.
enum class ShardPolicy {
  /// Any shard failure fails the whole query (all shard errors aggregated
  /// into one Status).
  kStrict,
  /// Failed / timed-out shards are dropped; the query returns the merged
  /// rows of the surviving shards, annotated per shard (QueryResult
  /// degraded/shard_status fields).
  kPartial,
};

/// Resource / time limits for one query. Zero means unlimited.
struct QueryLimits {
  /// Wall-clock deadline, as a duration from context construction.
  std::chrono::milliseconds timeout{0};
  /// Max events inspected + rows emitted across all shards and phases.
  uint64_t max_rows = 0;
  /// Max provenance nodes admitted to the frontier.
  uint64_t max_nodes = 0;
  /// Max bytes gathered cross-shard (binding exchange + rebuild).
  uint64_t max_bytes = 0;
  /// Shard failure policy of this query.
  ShardPolicy shard_policy = ShardPolicy::kStrict;
};

/// Per-query governance state. Construct once per Execute()/Track() call,
/// pass by pointer through the execution layers; nullptr means ungoverned.
class QueryContext {
 public:
  QueryContext() = default;
  explicit QueryContext(const QueryLimits& limits);

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  /// Requests cooperative cancellation; the next Check() anywhere in the
  /// query returns kCancelled. Safe from any thread (e.g. a Ctrl-C handler
  /// or a server admission controller).
  void Cancel() {
    cancelled_.store(true, std::memory_order_relaxed);
    Violate(StatusCode::kCancelled);
  }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// True once any violation (cancel / deadline / budget) has latched.
  bool stopped() const {
    return violation_.load(std::memory_order_relaxed) !=
           static_cast<int>(StatusCode::kOk);
  }

  /// Returns OK, or the sticky violation status. Reads the clock, so call
  /// it at batch granularity (every ~kCheckStride rows), not per row.
  Status Check();

  /// Charges `n` scanned/emitted rows against the row budget and runs a
  /// full Check. Returns the violation status on breach.
  Status ChargeRows(uint64_t n);

  /// Charges `n` provenance nodes against the node budget.
  Status ChargeNodes(uint64_t n);

  /// Charges `n` gathered bytes against the memory budget.
  Status ChargeMemory(uint64_t n);

  /// Suggested loop stride between Check() calls in tight scan loops.
  static constexpr uint64_t kCheckStride = 1024;

  uint64_t rows_charged() const {
    return rows_.load(std::memory_order_relaxed);
  }
  uint64_t nodes_charged() const {
    return nodes_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_charged() const {
    return bytes_.load(std::memory_order_relaxed);
  }

  const QueryLimits& limits() const { return limits_; }

  /// Remaining wall-clock time, clamped at zero; a very large value when no
  /// deadline is set. Used by interruptible sleeps and retry backoff.
  std::chrono::milliseconds remaining() const;

  /// In partial-shard mode the per-shard deadline must not also kill the
  /// bounded gather/merge of the surviving shards: once the degraded path
  /// has dropped the slow shard it lifts the deadline for the remainder.
  /// Cancel and budget violations stay fatal.
  void LiftDeadline();

 private:
  void Violate(StatusCode code);
  Status ViolationStatus() const;

  QueryLimits limits_;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  std::chrono::steady_clock::time_point deadline_{};  // zero => none
  std::atomic<bool> has_deadline_{false};
  std::atomic<bool> cancelled_{false};
  std::atomic<uint64_t> rows_{0};
  std::atomic<uint64_t> nodes_{0};
  std::atomic<uint64_t> bytes_{0};
  /// Sticky first violation, stored as int(StatusCode); kOk when healthy.
  std::atomic<int> violation_{static_cast<int>(StatusCode::kOk)};
};

/// RAII binding of the calling thread's "current query context", so code
/// without a QueryContext* parameter in reach (notably failpoint latency
/// injection deep inside snapshot reads) can still observe deadlines and
/// abort promptly. Nesting restores the previous binding on destruction.
class ScopedQueryContext {
 public:
  explicit ScopedQueryContext(QueryContext* ctx);
  ~ScopedQueryContext();

  ScopedQueryContext(const ScopedQueryContext&) = delete;
  ScopedQueryContext& operator=(const ScopedQueryContext&) = delete;

  /// The context bound to this thread, or nullptr.
  static QueryContext* Current();

 private:
  QueryContext* previous_;
};

/// Sleeps for `duration`, polling the thread-bound QueryContext (if any)
/// every ~1ms and returning early once it stops. Used by failpoint latency
/// injection so a 500ms injected stall still honors a 50ms deadline.
void InterruptibleSleep(std::chrono::microseconds duration);

}  // namespace aiql

#endif  // AIQL_COMMON_CANCELLATION_H_
