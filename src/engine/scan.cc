#include "engine/scan.h"

#include <algorithm>
#include <cstdint>

namespace aiql {

namespace {

/// A cursor over one op's time-clipped posting positions.
struct PostingCursor {
  const uint32_t* it = nullptr;
  const uint32_t* end = nullptr;
};

// Landing pad for candidate sets with zero words (an empty universe): every
// id maps to this all-zero word, so membership tests stay branch-free
// without ever dereferencing a null/empty words() pointer.
constexpr uint64_t kZeroWord = 0;

/// The pattern's row predicate, precompiled to flat tables and raw bitset
/// words — no std::optional, no hash lookups, no virtual calls on the scan.
/// Shared by the batch kernels and the posting path.
struct RowTest {
  uint8_t op_ok[kNumOpTypes] = {};   ///< op acceptance table
  uint8_t target_object_type = 0;
  const uint64_t* subj_words = nullptr;  ///< null = all subjects accepted
  size_t subj_nwords = 0;
  const uint64_t* obj_words = nullptr;   ///< null = all objects accepted
  size_t obj_nwords = 0;
  bool same_var = false;
};

RowTest MakeRowTest(const CompiledPattern& pattern, bool same_var_both_sides) {
  RowTest t;
  for (int op = 0; op < kNumOpTypes; ++op) {
    t.op_ok[op] =
        OpMaskContains(pattern.op_mask, static_cast<OpType>(op)) ? 1 : 0;
  }
  t.target_object_type = static_cast<uint8_t>(pattern.object.type);
  if (pattern.subject.candidates.has_value()) {
    t.subj_words = pattern.subject.candidates->words();
    t.subj_nwords = pattern.subject.candidates->num_words();
    if (t.subj_nwords == 0) {
      t.subj_words = &kZeroWord;
      t.subj_nwords = 1;
    }
  }
  if (pattern.object.candidates.has_value()) {
    t.obj_words = pattern.object.candidates->words();
    t.obj_nwords = pattern.object.candidates->num_words();
    if (t.obj_nwords == 0) {
      t.obj_words = &kZeroWord;
      t.obj_nwords = 1;
    }
  }
  t.same_var = same_var_both_sides;
  return t;
}

// Guarded branch-free bitset probe: out-of-range ids read word 0 and
// contribute 0. Subject ids are always < their universe (candidate sets are
// sized to the store at view time), but object ids of a non-matching
// object_type live in another id space and may exceed the object set.
inline uint8_t ProbeBit(const uint64_t* words, size_t nwords, uint32_t id) {
  size_t w = id >> 6;
  size_t in_range = static_cast<size_t>(w < nwords);
  uint64_t word = words[in_range ? w : 0];
  return static_cast<uint8_t>((word >> (id & 63)) & in_range);
}

/// Batch kernel: evaluates rows [begin, begin + n), n <= kScanBatch, through
/// per-predicate mask passes and emits matches in ascending row order. Each
/// pass is a short branch-free loop over flat arrays; the per-chunk `if`s
/// are loop-invariant predicate-presence checks, not per-row branches.
void RunBatch(const EventPartition& partition, const RowTest& t, size_t begin,
              size_t n, std::vector<EventRef>* out) {
  const EventColumns& cols = partition.columns();
  uint8_t ok[kScanBatch];
  const OpType* op = cols.op.data() + begin;
  const EntityType* otype = cols.object_type.data() + begin;
  const EntityId* subj = cols.subject.data() + begin;
  const EntityId* obj = cols.object.data() + begin;
  for (size_t j = 0; j < n; ++j) {
    ok[j] = t.op_ok[static_cast<size_t>(op[j])] &
            static_cast<uint8_t>(static_cast<uint8_t>(otype[j]) ==
                                 t.target_object_type);
  }
  if (t.subj_words != nullptr) {
    for (size_t j = 0; j < n; ++j) {
      ok[j] &= ProbeBit(t.subj_words, t.subj_nwords, subj[j]);
    }
  }
  if (t.obj_words != nullptr) {
    for (size_t j = 0; j < n; ++j) {
      ok[j] &= ProbeBit(t.obj_words, t.obj_nwords, obj[j]);
    }
  }
  if (t.same_var) {
    for (size_t j = 0; j < n; ++j) {
      ok[j] &= static_cast<uint8_t>(subj[j] == obj[j]);
    }
  }
  for (size_t j = 0; j < n; ++j) {
    if (ok[j]) {
      out->push_back(EventRef{&partition, static_cast<uint32_t>(begin + j)});
    }
  }
}

/// Scalar form of the complete predicate (op included), for the posting
/// path (random rows) and the governed boundary row.
inline bool TestRow(const EventColumns& cols, const RowTest& t, size_t i) {
  if (t.op_ok[static_cast<size_t>(cols.op[i])] == 0) return false;
  if (static_cast<uint8_t>(cols.object_type[i]) != t.target_object_type) {
    return false;
  }
  EntityId subject = cols.subject[i];
  EntityId object = cols.object[i];
  if (t.subj_words != nullptr &&
      ProbeBit(t.subj_words, t.subj_nwords, subject) == 0) {
    return false;
  }
  if (t.obj_words != nullptr &&
      ProbeBit(t.obj_words, t.obj_nwords, object) == 0) {
    return false;
  }
  if (t.same_var && subject != object) return false;
  return true;
}

/// Columnar batch driver under governance, with the posting path's charge
/// semantics: rows charge in kCheckStride batches; the row that completes a
/// stride is counted inspected, charged, and evaluated only if the charge
/// succeeds. Stride boundaries are handled as chunk ends
/// (kCheckStride % kScanBatch == 0 keeps them aligned), so a budget stops
/// the scan at the same row whichever path runs.
uint64_t GovernedBatchScan(const EventPartition& partition, const RowTest& t,
                           size_t row_begin, size_t row_end,
                           std::vector<EventRef>* out, QueryContext* ctx) {
  const EventColumns& cols = partition.columns();
  uint64_t inspected = 0;
  uint64_t since_check = 0;
  size_t i = row_begin;
  while (i < row_end) {
    // A stop observed at a chunk start: the stopping row counts as
    // inspected, unevaluated.
    if (ctx->stopped()) {
      ++inspected;
      ++since_check;
      break;
    }
    uint64_t room = QueryContext::kCheckStride - since_check;
    size_t limit = static_cast<size_t>(
        std::min<uint64_t>(row_end - i, room));
    bool hits_boundary = (static_cast<uint64_t>(limit) == room);
    size_t eval_now = hits_boundary ? limit - 1 : limit;
    for (size_t b = i; b < i + eval_now; b += kScanBatch) {
      RunBatch(partition, t, b, std::min(kScanBatch, i + eval_now - b), out);
    }
    inspected += eval_now;
    since_check += eval_now;
    i += eval_now;
    if (hits_boundary) {
      // The stride-completing row: inspected and charged before evaluation,
      // evaluated only when the budget still holds.
      ++inspected;
      ++since_check;
      Status s = ctx->ChargeRows(since_check);
      since_check = 0;
      if (!s.ok()) return inspected;
      if (TestRow(cols, t, i)) {
        out->push_back(EventRef{&partition, static_cast<uint32_t>(i)});
      }
      ++i;
    }
  }
  if (since_check > 0) ctx->ChargeRows(since_check);
  if (i >= row_end) return row_end - row_begin;
  return inspected;
}

}  // namespace

uint64_t ScanPartition(const EventPartition& partition,
                       const CompiledPattern& pattern, const TimeRange& range,
                       bool same_var_both_sides, std::vector<EventRef>* out,
                       QueryContext* ctx) {
  size_t row_begin = partition.LowerBound(range.start);
  size_t row_end = partition.LowerBound(range.end);
  if (row_begin >= row_end) return 0;
  size_t range_rows = row_end - row_begin;

  const EventColumns& cols = partition.columns();
  const RowTest row_test = MakeRowTest(pattern, same_var_both_sides);

  // Gather the time-clipped posting cursors for the ops in the mask; their
  // combined length is the exact number of op-matching events in range.
  PostingCursor cursors[kNumOpTypes];
  int num_cursors = 0;
  uint64_t posting_rows = 0;
  for (int op = 0; op < kNumOpTypes; ++op) {
    if (!OpMaskContains(pattern.op_mask, static_cast<OpType>(op))) continue;
    auto [lo, hi] = partition.PostingRange(static_cast<OpType>(op), range);
    if (lo == hi) continue;
    const uint32_t* base = partition.posting(static_cast<OpType>(op))
                               .indexes.data();
    cursors[num_cursors++] = PostingCursor{base + lo, base + hi};
    posting_rows += hi - lo;
  }
  if (posting_rows == 0) return 0;
  out->reserve(out->size() + static_cast<size_t>(posting_rows));

  // Posting path pays one indirection per op-matching event; the columnar
  // path streams every row in range but tests the op from a dense column.
  // Prefer postings when they skip at least half the range.
  if (posting_rows * 2 > range_rows) {
    if (ctx == nullptr) {
      // Ungoverned hot path: straight-line batch kernels over the clipped
      // row range; the time filter is the clip itself.
      for (size_t b = row_begin; b < row_end; b += kScanBatch) {
        RunBatch(partition, row_test, b, std::min(kScanBatch, row_end - b),
                 out);
      }
      return range_rows;
    }
    return GovernedBatchScan(partition, row_test, row_begin, row_end, out,
                             ctx);
  }

  // Governance checkpoint: charges the rows inspected since the previous
  // checkpoint and reports whether the scan should keep going. Checked
  // every kCheckStride inspected rows so the per-row cost stays one
  // branch + counter increment.
  uint64_t since_check = 0;
  auto keep_going = [&]() {
    if (ctx == nullptr) return true;
    if (++since_check < QueryContext::kCheckStride) return !ctx->stopped();
    Status s = ctx->ChargeRows(since_check);
    since_check = 0;
    return s.ok();
  };
  auto flush_charge = [&](uint64_t inspected) {
    if (ctx != nullptr && since_check > 0) ctx->ChargeRows(since_check);
    return inspected;
  };
  auto test = [&](uint32_t i) {
    if (TestRow(cols, row_test, i)) out->push_back(EventRef{&partition, i});
  };

  uint64_t inspected = 0;
  if (num_cursors == 1) {
    for (const uint32_t* it = cursors[0].it; it != cursors[0].end; ++it) {
      ++inspected;
      if (!keep_going()) return flush_charge(inspected);
      test(*it);
    }
  } else {
    // K-way merge (k <= kNumOpTypes) by event index keeps the output in
    // ascending index order, matching the row scan exactly.
    while (true) {
      int best = -1;
      uint32_t best_index = UINT32_MAX;
      for (int c = 0; c < num_cursors; ++c) {
        if (cursors[c].it != cursors[c].end && *cursors[c].it < best_index) {
          best = c;
          best_index = *cursors[c].it;
        }
      }
      if (best < 0) break;
      ++inspected;
      if (!keep_going()) return flush_charge(inspected);
      test(best_index);
      ++cursors[best].it;
    }
  }
  return flush_charge(posting_rows);
}

SummaryKeyGroups ScanKeyGroups(const CompiledPattern& pattern) {
  SummaryKeyGroups groups;
  if (pattern.subject.candidates.has_value()) {
    const EntitySet& ids = *pattern.subject.candidates;
    groups.Add([&ids](std::vector<uint64_t>* keys) {
      ids.ForEach(
          [&](EntityId id) { keys->push_back(SubjectSummaryKey(id)); });
    });
  }
  if (pattern.object.candidates.has_value()) {
    const EntitySet& ids = *pattern.object.candidates;
    const EntityType type = pattern.object.type;
    groups.Add([&ids, type](std::vector<uint64_t>* keys) {
      ids.ForEach(
          [&](EntityId id) { keys->push_back(ObjectSummaryKey(type, id)); });
    });
  }
  return groups;
}

}  // namespace aiql
