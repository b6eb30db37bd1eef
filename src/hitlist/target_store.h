#pragma once

// Columnar (struct-of-arrays) backing store for the cumulative
// hitlist — the shared substrate of the delta-driven day loop. One
// row per unique address, in first-seen order; the columns the day
// stages need (first-seen day, current aliased verdict) live in
// their own dense arrays so a stage touches only the bytes it reads.
//
// First-seen dedup runs on a flat hash index; the "all targets inside
// this prefix" range queries run on sorted-run blocks: appended rows
// collect in a small tail, spill into a sorted run, and runs merge
// geometrically (logarithmic-method) so each stays a dense sorted
// array a range query can binary-search — contiguous scans instead of
// the pointer-chasing of the old std::map index, and a batched form
// answers a whole flip-list of prefixes in one call.
//
// All runs live back-to-back in ONE arena (run_storage_) addressed by
// (offset, length) spans: runs form a stack, and the logarithmic
// method only ever merges the two most recent — i.e. adjacent — runs,
// so a merge writes through a reused scratch buffer and copies back
// in place. With reserve() sized to the campaign bound, inserts and
// spill-day merges are allocation-free (day-loop zero-alloc
// contract); without it the arena grows geometrically like any
// vector, so standalone use keeps working.

#include <cstdint>
#include <vector>

#include "ipv6/address.h"
#include "ipv6/prefix.h"
#include "util/flat_hash.h"

namespace v6h::hitlist {

/// What one run_day changed, instead of re-deriving the world: the
/// appended row range plus the alias-verdict transitions. New rows
/// are always a suffix of the store (rows are append-only), so the
/// delta is two integers and the flip lists.
struct DayDelta {
  int day = -1;
  std::uint32_t first_new_row = 0;  // new rows are [first_new_row, row_count)
  std::uint32_t row_count = 0;      // store size after the day
  std::vector<ipv6::Prefix> became_aliased;
  std::vector<ipv6::Prefix> became_clean;

  std::size_t new_addresses() const { return row_count - first_new_row; }

  void clear() {
    day = -1;
    first_new_row = 0;
    row_count = 0;
    became_aliased.clear();
    became_clean.clear();
  }
};

class TargetStore {
 public:
  /// Pre-size every column, the hash index, and the run arena for a
  /// store that will never exceed `max_rows` rows, so inserts and
  /// run merges never allocate afterwards.
  void reserve(std::size_t max_rows);

  /// First-seen dedup: appends a row when `a` is new and returns
  /// true; a duplicate leaves the store untouched.
  bool insert(const ipv6::Address& a, int day);

  std::size_t size() const { return addresses_.size(); }
  const std::vector<ipv6::Address>& addresses() const { return addresses_; }
  const ipv6::Address& address(std::size_t row) const { return addresses_[row]; }
  int first_seen_day(std::size_t row) const { return first_seen_[row]; }
  bool aliased(std::size_t row) const { return aliased_[row] != 0; }

  /// Flip a row's aliased verdict. The incremental unaliased-row
  /// index records the flip (rows not yet indexed are swept up by the
  /// next unaliased_rows() call instead).
  void set_aliased(std::size_t row, bool value) {
    if ((aliased_[row] != 0) == value) return;
    aliased_[row] = value;
    if (row < indexed_rows_) pending_flips_.push_back(static_cast<std::uint32_t>(row));
  }

  /// The rows whose current aliased flag is clear, in ascending row
  /// (= insertion) order: the day's scan list. Maintained
  /// incrementally — rows appended since the last call are swept once
  /// (O(new)), and recorded verdict flips are folded in with one
  /// linear merge on the (rare) days any occurred — instead of
  /// re-gathering the whole flags column per scan. Steady-state calls
  /// perform no heap allocations once capacity is warm. Lazily
  /// flushed under the hood: not safe to race with concurrent calls,
  /// like every other mutation of the store.
  const std::vector<std::uint32_t>& unaliased_rows() const;

  /// Append the rows whose address lies inside `prefix` (ascending
  /// address order) — binary search per sorted run plus a bounded
  /// tail scan, so a flipped prefix re-filters only its members.
  void rows_within(const ipv6::Prefix& prefix,
                   std::vector<std::uint32_t>* rows) const;

  /// Batched form: the union of members across `prefixes`, appended
  /// in ascending row order without duplicates (nested flip prefixes
  /// would otherwise emit their overlap once per prefix).
  void rows_within_many(const std::vector<ipv6::Prefix>& prefixes,
                        std::vector<std::uint32_t>* rows) const;

  std::size_t sorted_run_count() const { return spans_.size(); }

 private:
  struct Entry {
    ipv6::Address address;
    std::uint32_t row;
  };

  // One sorted run inside run_storage_: entries
  // [offset, offset + length), ascending by address. Spans are
  // stacked in arena order, so spans_[i+1].offset ==
  // spans_[i].offset + spans_[i].length and the last span ends at
  // run_storage_.size().
  struct RunSpan {
    std::uint32_t offset = 0;
    std::uint32_t length = 0;
  };

  // Collect matches of one [first, last] address range as entries.
  void gather_range(const ipv6::Address& first, const ipv6::Address& last,
                    std::vector<Entry>* hits) const;

  std::vector<ipv6::Address> addresses_;
  std::vector<std::int32_t> first_seen_;
  std::vector<char> aliased_;
  util::FlatMap<ipv6::Address, std::uint32_t, ipv6::AddressHash> index_;
  // Ordered index: geometric sorted runs in one arena + an unsorted
  // recent tail. merge_scratch_ is the reused merge buffer (adjacent
  // runs merge through it and copy back in place).
  std::vector<Entry> run_storage_;
  std::vector<RunSpan> spans_;
  std::vector<Entry> tail_;
  std::vector<Entry> merge_scratch_;
  // Reused query scratch for the range gathers. Mutable like the
  // unaliased index below: logically-const reads fill caches.
  mutable std::vector<Entry> hits_scratch_;
  mutable std::vector<std::uint32_t> batch_scratch_;
  // Incremental unaliased-row index. `unaliased_rows_` covers rows
  // [0, indexed_rows_); `pending_flips_` holds indexed rows whose
  // flag changed since the last flush. Mutable: the flush is a cache
  // fill behind a logically-const read — which makes even const
  // methods WRITE these fields. The store is therefore
  // thread-compatible, not thread-safe: the day loop's coordinator
  // thread owns all calls, and engine workers only ever see columns
  // handed to them by value/pointer between mutations (no const
  // method of this class is safe to race with any other call).
  mutable std::vector<std::uint32_t> unaliased_rows_;
  mutable std::vector<std::uint32_t> unaliased_scratch_;
  mutable std::vector<std::uint32_t> pending_flips_;
  mutable std::uint32_t indexed_rows_ = 0;
};

}  // namespace v6h::hitlist
