#include "hitlist/target_store.h"

#include <algorithm>
#include <iterator>

namespace v6h::hitlist {

using ipv6::Address;
using ipv6::Prefix;

namespace {

// Tail appends before a spill into a sorted run: small enough that
// the per-query linear tail scan stays in-cache, large enough that
// run merges amortize.
constexpr std::size_t kTailLimit = 256;

// Highest address inside the prefix: host bits forced to one.
Address last_address(const Prefix& prefix) {
  Address last = prefix.address();
  const unsigned length = prefix.length();
  if (length < 64) {
    last.hi |= length == 0 ? ~0ULL : ~0ULL >> length;
    last.lo = ~0ULL;
  } else if (length < 128) {
    last.lo |= ~0ULL >> (length - 64);
  }
  return last;
}

}  // namespace

void TargetStore::reserve(std::size_t max_rows) {
  addresses_.reserve(max_rows);
  first_seen_.reserve(max_rows);
  aliased_.reserve(max_rows);
  index_.reserve(max_rows);
  // Every row lives in exactly one run or the tail, so the arena and
  // the merge scratch are both bounded by the row count; the span
  // stack is logarithmic (geometric run sizes) — 64 is unreachable.
  run_storage_.reserve(max_rows);
  merge_scratch_.reserve(max_rows);
  tail_.reserve(kTailLimit);
  spans_.reserve(64);
  unaliased_rows_.reserve(max_rows);
  unaliased_scratch_.reserve(max_rows);
  pending_flips_.reserve(max_rows);
  hits_scratch_.reserve(max_rows);
  batch_scratch_.reserve(max_rows);
}

bool TargetStore::insert(const Address& a, int day) {
  const auto row = static_cast<std::uint32_t>(addresses_.size());
  auto [entry, inserted] = index_.try_emplace(a);
  if (!inserted) return false;
  entry->second = row;
  addresses_.push_back(a);
  first_seen_.push_back(day);
  aliased_.push_back(0);

  tail_.push_back(Entry{a, row});
  if (tail_.size() < kTailLimit) return true;
  // Spill the tail as a new sorted run at the arena's end, then keep
  // merging while the previous run is not substantially larger (the
  // logarithmic method): run sizes stay geometric, inserts cost
  // O(log n) amortized, and every run is one dense sorted block.
  const auto cmp = [](const Entry& x, const Entry& y) {
    return x.address < y.address;
  };
  std::sort(tail_.begin(), tail_.end(), cmp);
  spans_.push_back(RunSpan{static_cast<std::uint32_t>(run_storage_.size()),
                           static_cast<std::uint32_t>(tail_.size())});
  run_storage_.insert(run_storage_.end(), tail_.begin(), tail_.end());
  tail_.clear();
  while (spans_.size() >= 2 &&
         spans_[spans_.size() - 2].length < 2 * spans_.back().length) {
    // The two most recent runs are adjacent in the arena (spans are a
    // stack), so merge through the scratch and copy back in place —
    // the arena size is conserved and nothing allocates when warm.
    RunSpan& left = spans_[spans_.size() - 2];
    const RunSpan right = spans_.back();
    Entry* base = run_storage_.data();
    merge_scratch_.clear();
    std::merge(base + left.offset, base + left.offset + left.length,
               base + right.offset, base + right.offset + right.length,
               std::back_inserter(merge_scratch_), cmp);
    std::copy(merge_scratch_.begin(), merge_scratch_.end(),
              base + left.offset);
    left.length += right.length;
    spans_.pop_back();
  }
  return true;
}

void TargetStore::gather_range(const Address& first, const Address& last,
                               std::vector<Entry>* hits) const {
  for (const auto& span : spans_) {
    const Entry* begin = run_storage_.data() + span.offset;
    const Entry* end = begin + span.length;
    const Entry* it = std::lower_bound(
        begin, end, first,
        [](const Entry& e, const Address& a) { return e.address < a; });
    for (; it != end && !(last < it->address); ++it) {
      hits->push_back(*it);
    }
  }
  for (const auto& entry : tail_) {
    if (!(entry.address < first) && !(last < entry.address)) {
      hits->push_back(entry);
    }
  }
}

void TargetStore::rows_within(const Prefix& prefix,
                              std::vector<std::uint32_t>* rows) const {
  hits_scratch_.clear();
  gather_range(prefix.address(), last_address(prefix), &hits_scratch_);
  // Runs are disjoint (addresses are unique), but their matches
  // interleave; restore the ascending address order the old ordered
  // index delivered.
  std::sort(hits_scratch_.begin(), hits_scratch_.end(),
            [](const Entry& x, const Entry& y) { return x.address < y.address; });
  for (const auto& entry : hits_scratch_) rows->push_back(entry.row);
}

void TargetStore::rows_within_many(const std::vector<Prefix>& prefixes,
                                   std::vector<std::uint32_t>* rows) const {
  hits_scratch_.clear();
  for (const auto& prefix : prefixes) {
    gather_range(prefix.address(), last_address(prefix), &hits_scratch_);
  }
  batch_scratch_.clear();
  for (const auto& entry : hits_scratch_) batch_scratch_.push_back(entry.row);
  std::sort(batch_scratch_.begin(), batch_scratch_.end());
  batch_scratch_.erase(
      std::unique(batch_scratch_.begin(), batch_scratch_.end()),
      batch_scratch_.end());
  rows->insert(rows->end(), batch_scratch_.begin(), batch_scratch_.end());
}

const std::vector<std::uint32_t>& TargetStore::unaliased_rows() const {
  if (!pending_flips_.empty()) {
    // Fold the recorded verdict flips into the sorted index with one
    // linear merge. Membership is re-read from the current flag, so a
    // row that flipped twice (back to its indexed state) is handled
    // for free, and duplicates in the pending list are harmless.
    std::sort(pending_flips_.begin(), pending_flips_.end());
    pending_flips_.erase(
        std::unique(pending_flips_.begin(), pending_flips_.end()),
        pending_flips_.end());
    unaliased_scratch_.clear();
    std::size_t i = 0;  // over unaliased_rows_
    std::size_t j = 0;  // over pending_flips_
    while (i < unaliased_rows_.size() || j < pending_flips_.size()) {
      if (j == pending_flips_.size() ||
          (i < unaliased_rows_.size() &&
           unaliased_rows_[i] < pending_flips_[j])) {
        unaliased_scratch_.push_back(unaliased_rows_[i++]);
        continue;
      }
      const std::uint32_t row = pending_flips_[j++];
      if (i < unaliased_rows_.size() && unaliased_rows_[i] == row) ++i;
      if (aliased_[row] == 0) unaliased_scratch_.push_back(row);
    }
    // Swap keeps both buffers' capacities alive for the next flip day.
    std::swap(unaliased_rows_, unaliased_scratch_);
    pending_flips_.clear();
  }
  // Sweep the rows appended since the last call (always a suffix, so
  // appending preserves the ascending order).
  for (std::uint32_t row = indexed_rows_;
       row < static_cast<std::uint32_t>(addresses_.size()); ++row) {
    if (aliased_[row] == 0) unaliased_rows_.push_back(row);
  }
  indexed_rows_ = static_cast<std::uint32_t>(addresses_.size());
  return unaliased_rows_;
}

}  // namespace v6h::hitlist
