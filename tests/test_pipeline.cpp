// End-to-end Pipeline::run_day: collection grows, APD catches truly
// aliased space without flagging honest space, scans carry response
// masks, and the whole thing is deterministic. Also pins the
// CandidateCounter invariants the pipeline's reserve bounds rest on,
// for several min_targets values.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "hitlist/pipeline.h"
#include "hitlist/stats.h"
#include "test_main.h"
#include "util/rng.h"

using namespace v6h;

namespace {

// Feed `hitlist` to a fresh CandidateCounter in random day-sized
// batches and in one batch. The per-call crossing sets must be
// disjoint and add up to candidates(), batching must not change the
// result, and the candidate count must respect the 5 * N / m bound
// the Pipeline constructor reserves the verdict table by.
void check_counter_invariants(const netsim::BgpTable& bgp,
                              const std::vector<ipv6::Address>& hitlist,
                              std::size_t min_targets, std::uint64_t seed) {
  const std::size_t n = hitlist.size();
  apd::CandidateCounter batched(bgp, min_targets);
  batched.reserve_for(n);
  util::Rng rng(seed);
  std::vector<ipv6::Prefix> crossed_union;
  std::size_t calls = 0;
  for (std::size_t begin = 0; begin < n; ++calls) {
    // Roughly a tenth of the hitlist per call, like a campaign day.
    const std::size_t size = std::min(n - begin, 1 + rng.uniform(n / 5 + 1));
    const auto& crossed = batched.add_addresses(hitlist.data() + begin, size);
    CHECK(std::is_sorted(crossed.begin(), crossed.end()));
    crossed_union.insert(crossed_union.end(), crossed.begin(), crossed.end());
    begin += size;
  }
  std::sort(crossed_union.begin(), crossed_union.end());
  const bool disjoint = std::adjacent_find(crossed_union.begin(),
                                           crossed_union.end()) ==
                        crossed_union.end();
  CHECK(disjoint);
  CHECK(crossed_union == batched.candidates());

  apd::CandidateCounter whole(bgp, min_targets);
  whole.add_addresses(hitlist.data(), n);
  CHECK(whole.candidates() == batched.candidates());
  CHECK(!whole.candidates().empty());

  const std::size_t bound = 5 * n / std::max<std::size_t>(1, min_targets);
  CHECK(batched.candidates().size() <= bound);
  if (!disjoint || crossed_union != batched.candidates() ||
      whole.candidates() != batched.candidates() ||
      batched.candidates().size() > bound) {
    std::fprintf(stderr,
                 "  min_targets %zu seed %llu: %zu calls, %zu crossed, %zu "
                 "candidates batched, %zu whole, bound %zu\n",
                 min_targets, static_cast<unsigned long long>(seed), calls,
                 crossed_union.size(), batched.candidates().size(),
                 whole.candidates().size(), bound);
  }
}

void run_tests() {
  netsim::UniverseParams params;
  params.scale = 0.05;
  params.tail_as_count = 150;
  const netsim::Universe universe(params);

  netsim::NetworkSim sim(universe);
  hitlist::Pipeline pipeline(universe, sim);

  const auto day1 = pipeline.run_day(268);
  const auto day2 = pipeline.run_day(269);
  const auto day3 = pipeline.run_day(270);

  // The hitlist accumulates and the later days only add the fresh part.
  CHECK(day1.new_addresses > 0);
  CHECK(!pipeline.targets().empty());
  CHECK(day1.new_addresses > day3.new_addresses);
  CHECK_EQ(pipeline.targets().size(),
           day1.new_addresses + day2.new_addresses + day3.new_addresses);

  // APD found aliased space, and verdicts are sound: flagged addresses
  // are mostly truly aliased, and plenty of aliased targets are caught.
  const auto& filter = pipeline.filter();
  CHECK(day3.aliased_prefixes > 0);
  CHECK(!filter.prefixes().empty());
  std::size_t flagged = 0, flagged_correct = 0, truly = 0, caught = 0;
  for (const auto& a : pipeline.targets()) {
    const bool mine = filter.is_aliased(a);
    const bool truth = universe.truly_aliased_at(a);
    flagged += mine;
    flagged_correct += mine && truth;
    truly += truth;
    caught += mine && truth;
  }
  CHECK(flagged > 0);
  CHECK(truly > 0);
  // No false positives by construction (16/16 random addresses).
  CHECK_EQ(flagged, flagged_correct);
  // The bulk of truly aliased hitlist addresses is detected.
  CHECK(caught * 10 >= truly * 6);

  // Columnar store: rows align with targets(), first-seen days are
  // real run days, and the per-row flags mirror the persistent filter.
  const auto& store = pipeline.store();
  CHECK_EQ(store.size(), pipeline.targets().size());
  for (std::size_t row = 0; row < store.size(); ++row) {
    CHECK(store.address(row) == pipeline.targets()[row]);
    CHECK(store.first_seen_day(row) >= 268 && store.first_seen_day(row) <= 270);
    CHECK_EQ(store.aliased(row), filter.is_aliased(store.address(row)));
  }

  // Prefix range queries find exactly the contained rows.
  {
    const auto& p = filter.prefixes().front();
    std::vector<std::uint32_t> rows;
    store.rows_within(p, &rows);
    std::size_t brute = 0;
    for (const auto& a : pipeline.targets()) brute += p.contains(a);
    CHECK_EQ(rows.size(), brute);
    CHECK(brute > 0);
    for (const auto row : rows) CHECK(p.contains(store.address(row)));
  }

  // The last delta describes day 3.
  const auto& delta = pipeline.last_delta();
  CHECK_EQ(delta.day, 270);
  CHECK_EQ(delta.new_addresses(), day3.new_addresses);
  CHECK_EQ(delta.row_count, store.size());

  // Scan frame: non-aliased targets only, masks consistent, and every
  // admitted row's address is the store's.
  const auto& frame = day3.scan();
  CHECK_EQ(frame.rows().size(), day3.scanned_targets);
  CHECK_EQ(frame.day(), 270);
  CHECK_EQ(frame.row_count(), store.size());
  CHECK(day3.scanned_targets < pipeline.targets().size());
  std::size_t responsive = 0;
  for (const auto row : frame.rows()) {
    CHECK(!filter.is_aliased(frame.address_of_row(row)));
    responsive += frame.mask_of_row(row) != 0;
  }
  CHECK(responsive > 0);
  CHECK(responsive < frame.rows().size());
  CHECK_EQ(frame.responsive_any_count(), responsive);
  std::size_t misaligned = 0;
  for (const auto row : frame.rows()) {
    misaligned += frame.address_of_row(row) != store.address(row);
  }
  CHECK_EQ(misaligned, 0u);

  // Distribution summaries are consistent with the hitlist.
  const auto summary =
      hitlist::summarize_distribution(pipeline.targets(), universe.bgp());
  CHECK_EQ(summary.addresses, pipeline.targets().size());
  CHECK(summary.ases > 1);
  CHECK(summary.prefixes >= summary.ases / 2);
  CHECK(!summary.as_curve.empty());
  CHECK_NEAR(summary.as_curve.back(), 1.0, 1e-9);

  // Full determinism: an identical pipeline reproduces the reports.
  netsim::NetworkSim sim2(universe);
  hitlist::Pipeline pipeline2(universe, sim2);
  pipeline2.run_day(268);
  pipeline2.run_day(269);
  const auto day3_again = pipeline2.run_day(270);
  CHECK_EQ(day3_again.new_addresses, day3.new_addresses);
  CHECK_EQ(day3_again.aliased_prefixes, day3.aliased_prefixes);
  CHECK_EQ(day3_again.scanned_targets, day3.scanned_targets);
  CHECK(pipeline2.targets() == pipeline.targets());
  CHECK_EQ(day3_again.scan().responsive_any_count(),
           day3.scan().responsive_any_count());

  // The sources the pipeline drives are reachable and populated.
  auto& sources = pipeline.source_simulator();
  for (const auto source : netsim::kAllSources) {
    CHECK(!sources.cumulative(source).empty());
  }

  for (const std::size_t min_targets : {0, 1, 2, 5}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      check_counter_invariants(universe.bgp(), pipeline.targets(),
                               min_targets, seed);
    }
  }
}

}  // namespace

TEST_MAIN()
