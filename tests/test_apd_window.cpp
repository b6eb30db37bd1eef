// Unit tests for the Table-4 sliding-window smoothing: flicker
// suppression, the window_days = 0 edge, and a prefix aging out of the
// aliased set — first on the extracted SlidingVerdict, then against a
// naive std::deque window over seed-driven outcome sequences, then
// end-to-end through AliasDetector on a simulated universe.

#include <cstdint>
#include <cstdio>
#include <deque>
#include <vector>

#include "apd/apd.h"
#include "netsim/network_sim.h"
#include "netsim/universe.h"
#include "test_main.h"
#include "util/rng.h"

using namespace v6h;
using apd::SlidingVerdict;

namespace {

// Feed a raw daily outcome sequence; returns the number of verdict
// flips and leaves the final verdict in *out_verdict.
unsigned feed(SlidingVerdict& window, const std::vector<bool>& days,
              bool* out_verdict) {
  unsigned flips = 0;
  for (const bool day : days) flips += window.update(day);
  *out_verdict = window.verdict();
  return flips;
}

// The textbook window: the last window_days + 1 raw outcomes in a
// deque plus a count of the aliased ones among them.
class DequeWindow {
 public:
  explicit DequeWindow(unsigned window_days) : size_(window_days + 1) {}

  bool update(bool aliased_today) {
    outcomes_.push_back(aliased_today);
    positives_ += aliased_today;
    if (outcomes_.size() > size_) {
      positives_ -= outcomes_.front();
      outcomes_.pop_front();
    }
    const bool verdict = positives_ > 0;
    const bool flipped = has_verdict_ && verdict != verdict_;
    verdict_ = verdict;
    has_verdict_ = true;
    return flipped;
  }

  bool verdict() const { return verdict_; }
  bool has_verdict() const { return has_verdict_; }

 private:
  std::size_t size_;
  std::deque<bool> outcomes_;
  std::size_t positives_ = 0;
  bool verdict_ = false;
  bool has_verdict_ = false;
};

// Differential run: SlidingVerdict against DequeWindow after every
// update, for one (window, density, seed). The sequence is long enough
// to fill the window several times; densities down to a fraction of
// 1 / (window + 1) leave quiet gaps longer than the window, so verdicts
// both age out and come back. Prints the first mismatch and stops.
void check_against_deque(unsigned window_days, double density,
                         std::uint64_t seed) {
  util::Rng rng(seed * 1000003 + window_days);
  SlidingVerdict window(window_days);
  DequeWindow model(window_days);
  const std::size_t steps = 4 * (std::size_t{window_days} + 1) + 64;
  for (std::size_t step = 0; step < steps; ++step) {
    const bool aliased = rng.uniform_real() < density;
    const bool flipped = window.update(aliased);
    const bool want_flipped = model.update(aliased);
    const bool same = flipped == want_flipped &&
                      window.verdict() == model.verdict() &&
                      window.has_verdict() == model.has_verdict();
    CHECK(same);
    if (!same) {
      std::fprintf(stderr,
                   "  window %u seed %llu density %g step %zu: flipped %d/%d "
                   "verdict %d/%d (got/want)\n",
                   window_days, static_cast<unsigned long long>(seed), density,
                   step, flipped, want_flipped, window.verdict(),
                   model.verdict());
      return;
    }
  }
}

void run_tests() {
  for (const unsigned window_days :
       {0u, 1u, 2u, 3u, 7u, 63u, 64u, 65u, 200u, 10000u}) {
    const double per_window = 1.0 / (window_days + 1.0);
    for (const double density :
         {0.9, 0.5, 0.1, 2 * per_window, per_window, 0.25 * per_window}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        check_against_deque(window_days, density, seed);
      }
    }
  }

  // window_days = 0: the verdict is today's raw outcome, every change
  // is a flip (the paper's unstable 65-prefix baseline).
  {
    SlidingVerdict window(0);
    CHECK(!window.has_verdict());
    bool verdict = false;
    const unsigned flips = feed(window, {true, false, true, false}, &verdict);
    CHECK(window.has_verdict());
    CHECK_EQ(flips, 3u);
    CHECK(!verdict);
  }

  // Flicker suppression: with a 3-day window, isolated rate-limited
  // days (raw false) inside an aliased streak never flip the verdict.
  {
    SlidingVerdict window(3);
    bool verdict = false;
    const unsigned flips = feed(
        window, {true, false, true, false, false, true, false, false, false},
        &verdict);
    CHECK_EQ(flips, 0u);
    CHECK(verdict);  // still inside the window of the last true day
  }

  // Aging out: after the last aliased day, the verdict survives
  // exactly window_days quiet days and drops on day window_days + 1,
  // counting a single flip.
  {
    SlidingVerdict window(3);
    bool verdict = false;
    unsigned flips = feed(window, {true, false, false, false}, &verdict);
    CHECK_EQ(flips, 0u);
    CHECK(verdict);  // day 3: the true day is still in the 4-slot window
    flips += window.update(false);  // day 4: aged out
    CHECK_EQ(flips, 1u);
    CHECK(!window.verdict());
    // Re-detection flips it back exactly once.
    flips += window.update(true);
    CHECK_EQ(flips, 2u);
    CHECK(window.verdict());
  }

  // Long window: update is O(1) via the latest-positive index, and a
  // single aliased day survives exactly window_days quiet days even
  // when the window spans most of a campaign.
  {
    constexpr unsigned kLongWindow = 10000;
    SlidingVerdict window(kLongWindow);
    unsigned flips = window.update(true);
    for (unsigned day = 1; day <= kLongWindow; ++day) {
      flips += window.update(false);
      CHECK(window.verdict());  // the true day is still inside
    }
    CHECK_EQ(flips, 0u);
    CHECK(window.update(false));  // day kLongWindow + 1: aged out
    CHECK(!window.verdict());
    // And re-detection after the long quiet stretch flips back once.
    CHECK(window.update(true));
    CHECK(window.verdict());
  }

  // A fresh window has no verdict to flip: the first update never
  // counts, whatever it reports.
  {
    SlidingVerdict window(2);
    CHECK(!window.update(true));
    CHECK(window.verdict());
  }

  // End-to-end through AliasDetector: probing the universe's aliased
  // zone prefixes daily, a 3-day window must leave no more unstable
  // prefixes than the raw day-by-day verdict (Table 4's reduction),
  // and a window-0 detector must flag at least as many.
  {
    netsim::UniverseParams params;
    params.scale = 0.3;
    params.tail_as_count = 300;
    const netsim::Universe universe(params);
    std::vector<ipv6::Prefix> prefixes;
    for (const auto& zone : universe.zones()) {
      if (zone.aliased()) prefixes.push_back(zone.prefix());
    }
    CHECK(!prefixes.empty());

    unsigned unstable_by_window[2] = {0, 0};
    const unsigned windows[2] = {0, 3};
    for (int w = 0; w < 2; ++w) {
      netsim::NetworkSim sim(universe);
      apd::ApdOptions options;
      options.window_days = windows[w];
      apd::AliasDetector detector(sim, options);
      for (int day = 0; day < 10; ++day) {
        detector.run_day_on_prefixes(prefixes, day);
      }
      for (const auto& [prefix, flips] : detector.verdict_flips()) {
        unstable_by_window[w] += flips > 0;
      }
      // Every truly aliased zone prefix should currently be flagged:
      // the window only ever widens the aliased set.
      CHECK(detector.current_aliased().size() <= prefixes.size());
    }
    CHECK(unstable_by_window[1] <= unstable_by_window[0]);
    CHECK(unstable_by_window[0] > 0);  // lossy zones do flicker raw

    // Verdict persistence: a prefix missing from later batches keeps
    // its windowed verdict until it is probed again.
    netsim::NetworkSim sim(universe);
    apd::AliasDetector detector(sim, {});
    const std::vector<ipv6::Prefix> one{prefixes.front()};
    detector.run_day_on_prefixes(one, 0);
    const auto flagged = detector.current_aliased();
    detector.run_day_on_prefixes({}, 1);  // empty batch: nothing ages
    CHECK_EQ(detector.current_aliased().size(), flagged.size());
  }
}

}  // namespace

TEST_MAIN()
