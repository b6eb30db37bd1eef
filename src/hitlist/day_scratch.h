#pragma once

// Reusable per-day scratch for Pipeline::run_day — the buffers the
// day loop refills instead of reallocating: the APD day outcome
// (the verdict transition delta), the re-filter's verdict column
// for the day's new rows, and the affected-row list of flipped
// prefixes. Owned by the Pipeline, cleared and refilled once per
// run_day; with the constructor's campaign-bound reserve, a warm day
// touches none of the allocator (tests/test_day_alloc.cpp).
//
// Thread discipline (phase-disciplined, not locked — the
// V6H_GUARDED_BY story of src/util/thread_annotations.h applies to
// mutex-guarded state; this struct has none): every field is owned by
// the day loop's coordinator thread. Engine workers never see a
// DayScratch — parallel stages receive plain pointers/spans into
// *other* buffers (the store columns, the frame's mask column), and
// the pool's run() barrier orders those hand-offs. Clang's capability
// analysis therefore has nothing to check here; the TSan matrix job
// enforces the contract instead, exactly as for ResolvedTargetTable.

#include <cstdint>
#include <vector>

#include "apd/apd.h"

namespace v6h::hitlist {

struct DayScratch {
  // APD batch outcome; its became_* vectors swap into the pipeline's
  // DayDelta each day (the two circulate their capacity).
  apd::DayOutcome outcome;
  // Verdict column for the day's new rows (AliasFilter output).
  std::vector<char> aliased;
  // Rows inside prefixes whose verdict flipped today.
  std::vector<std::uint32_t> affected;

  /// Front-load every buffer to its campaign bound: `max_rows` bounds
  /// the re-filter columns, `max_prefixes` the APD transition lists.
  void reserve(std::size_t max_rows, std::size_t max_prefixes) {
    outcome.became_aliased.reserve(max_prefixes);
    outcome.became_clean.reserve(max_prefixes);
    aliased.reserve(max_rows);
    affected.reserve(max_rows);
  }
};

}  // namespace v6h::hitlist
