#pragma once

// Multi-level aliased prefix detection (Section 5): probe 16 fan-out
// addresses per candidate prefix (one per nybble value below the
// prefix); a prefix where all 16 pseudo-random addresses answer is
// aliased. Daily verdicts are smoothed with a sliding window
// (Table 4) to suppress rate-limiting flicker.
//
// Each candidate's zone is resolved once, when it first enters the
// verdict table, and kept in its slot; the daily fan-out then runs
// NetworkSim's 16-lane kernel over that zone.
//
// Steady-state allocation discipline: the persistent per-prefix state
// lives in flat open-addressing tables (util::FlatMap) sized once by
// the pipeline's campaign bounds, the sliding window is a handful of
// inline counters, and every per-day transient (outcomes, crossing
// lists) is a reusable scratch member. A warm APD day — new prefixes
// included — therefore performs zero heap allocations, which
// tests/test_day_alloc.cpp and the noalloc policy of tools/symlint.py
// both enforce.

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "engine/engine.h"
#include "ipv6/address.h"
#include "ipv6/prefix.h"
#include "net/protocol.h"
#include "netsim/network_sim.h"
#include "util/flat_hash.h"

namespace v6h::scan {
class ResultSink;
class ScanEngine;
}  // namespace v6h::scan

namespace v6h::obs {
class Observability;
}  // namespace v6h::obs

namespace v6h::apd {

struct ApdOptions {
  unsigned window_days = 3;   // verdict window (0 = today only)
  std::size_t min_targets = 2;  // hitlist addresses to make a candidate
  net::Protocol protocol = net::Protocol::kIcmp;
};

struct PrefixOutcome {
  ipv6::Prefix prefix;
  unsigned responded = 0;  // of the 16 fan-out probes
  bool aliased = false;    // today's raw outcome (pre-window)
};

struct DayOutcome {
  std::uint64_t probes = 0;
  // Verdict transitions relative to the effective previous verdict (a
  // never-probed prefix counts as clean), in batch order. These are
  // the exact delta the persistent AliasFilter applies in place, so a
  // prefix appears here if and only if its filter membership changes.
  std::vector<ipv6::Prefix> became_aliased;
  std::vector<ipv6::Prefix> became_clean;

  void clear() {
    probes = 0;
    became_aliased.clear();
    became_clean.clear();
  }
};

/// Table-4 sliding-window smoother for one prefix: the windowed
/// verdict is "aliased" while any of the last window_days + 1 raw
/// outcomes was aliased, so a single rate-limited day cannot flip it,
/// and a prefix ages out after window_days + 1 quiet days.
///
/// "Any positive among the last W outcomes" only needs the position
/// of the most recent positive, so the state is a few inline counters:
/// update() is O(1) and allocation-free for any window length, up to
/// Table 4's campaign-length sweeps. The counters are 32-bit because a
/// window sees one update per probed day; 2^32 updates is far beyond
/// any campaign.
class SlidingVerdict {
 public:
  explicit SlidingVerdict(unsigned window_days = 0)
      : window_(static_cast<std::uint32_t>(window_days) + 1) {}

  /// Feed today's raw outcome; returns true when the windowed verdict
  /// flipped relative to the previous day.
  bool update(bool aliased_today) {
    if (aliased_today) {
      last_positive_ = updates_;
      any_positive_ = true;
    }
    // The window is updates updates_ - window_ + 1 .. updates_; before
    // it fills, "a positive so far" and "a positive within the last
    // window_ updates" coincide.
    const bool verdict = any_positive_ && updates_ - last_positive_ < window_;
    ++updates_;
    const bool flipped = has_verdict_ && verdict != verdict_;
    verdict_ = verdict;
    has_verdict_ = true;
    return flipped;
  }

  bool verdict() const { return verdict_; }
  bool has_verdict() const { return has_verdict_; }

 private:
  std::uint32_t window_ = 1;         // window_days + 1 outcomes
  std::uint32_t updates_ = 0;        // outcomes fed so far
  std::uint32_t last_positive_ = 0;  // index of the latest aliased outcome
  bool any_positive_ = false;
  bool verdict_ = false;
  bool has_verdict_ = false;
};

/// Persistent multi-level candidate counters for the delta-driven day
/// loop: instead of re-counting the whole hitlist x 5 levels every
/// day, fold in only the day's new addresses, serially and in input
/// order, straight into one table. The candidate set — and therefore
/// every downstream probe — equals a full recount (the one
/// tests/reference_model.cpp performs daily).
class CandidateCounter {
 public:
  /// `engine` is unused: counting runs serially on the calling thread.
  /// The argument stays for callers that hand their engine to every
  /// stage.
  CandidateCounter(const netsim::BgpTable& bgp, std::size_t min_targets,
                   engine::Engine* engine = nullptr);

  /// Pre-size the counters for a universe whose cumulative hitlist
  /// will hold at most `max_addresses` unique addresses, so counting
  /// never grows a table mid-campaign (day-loop zero-alloc contract).
  void reserve_for(std::size_t max_addresses);

  /// Upper bound on candidates().size() once at most `max_addresses`
  /// unique addresses are counted: 5 * max_addresses / min_targets
  /// (min_targets floored at 1), plus slack. The proof is at the
  /// Pipeline constructor, which reserves the verdict table by it.
  std::size_t max_candidates(std::size_t max_addresses) const {
    return 5 * max_addresses / min_targets_ + 64;
  }

  /// Count `count` new (already deduplicated) addresses into the
  /// persistent per-prefix counters; returns the prefixes whose count
  /// crossed min_targets on this call, sorted. The sorted candidate
  /// list below absorbs them immediately. The returned reference is a
  /// reused scratch member, valid until the next call.
  const std::vector<ipv6::Prefix>& add_addresses(const ipv6::Address* addrs,
                                                 std::size_t count);

  /// All prefixes holding >= min_targets hitlist addresses, sorted:
  /// the announced prefix plus the /48, /64, /96 and /112 aggregates
  /// of every address counted so far.
  const std::vector<ipv6::Prefix>& candidates() const { return candidates_; }

  std::size_t tracked_prefixes() const { return counts_.size(); }

 private:
  using CountMap = util::FlatMap<ipv6::Prefix, std::size_t, ipv6::PrefixHash>;

  const netsim::BgpTable* bgp_;
  std::size_t min_targets_;
  CountMap counts_;
  std::vector<ipv6::Prefix> candidates_;
  // Per-call scratch, reused across calls.
  std::vector<ipv6::Prefix> crossed_;
  std::vector<ipv6::Prefix> merged_;
};

class AliasDetector {
 public:
  explicit AliasDetector(netsim::NetworkSim& sim, const ApdOptions& options = {},
                         engine::Engine* engine = nullptr);

  /// No-op, kept for source compatibility: the fan-out always runs
  /// through NetworkSim::probe_fanout, so there is no scan-engine
  /// route left to select.
  void set_scan_engine(scan::ScanEngine* /*scan_engine*/) {}

  /// Attach (or detach with nullptr) the observability layer: each
  /// run_day_on_prefixes batch gets an "apd_fanout" stage span and
  /// feeds the pipeline.apd_probes counter. Borrowed; never affects
  /// verdicts.
  void set_observability(obs::Observability* obs) { obs_ = obs; }

  /// Pre-size the per-prefix verdict table (day-loop zero-alloc
  /// contract; see CandidateCounter::reserve_for).
  void reserve_prefixes(std::size_t max_prefixes);

  /// Probe the 16 fan-out addresses of `prefix` at `day`: one
  /// pseudo-random address under each nybble branch, seq = nybble.
  /// Resolves the prefix's zone on the fly.
  PrefixOutcome probe_prefix(const ipv6::Prefix& prefix, int day);

  /// One APD day over a candidate batch, in three passes:
  ///  1. serially, in input order, find each prefix's verdict state,
  ///     inserting a new one with its window and its zone code
  ///     (NetworkSim::resolve_fanout), so a candidate's zone is
  ///     resolved once, when it first enters the table (a table not
  ///     reserved for the batch may grow here; the entries are then
  ///     found again);
  ///  2. probe every prefix through its zone code, chunked by
  ///     contiguous index across the engine workers when one is
  ///     attached;
  ///  3. serially, in input order, update the windows through the
  ///     entries pass 1 found (one table lookup per prefix per day),
  ///     and fill `out` with the verdict delta.
  /// `out`'s vectors are cleared and refilled (capacity retained), so
  /// a reused DayOutcome makes a warm APD day allocation-free. The
  /// fan-out counters stream through `sink` when one is given —
  /// ResultSink::on_fanout(prefix, responded, windowed verdict) fires
  /// serially in batch order, so a streaming consumer sees every
  /// prefix's verdict, not only the changes DayOutcome keeps.
  void run_day_on_prefixes(const std::vector<ipv6::Prefix>& prefixes, int day,
                           scan::ResultSink* sink, DayOutcome& out);

  /// Value-returning convenience wrapper (benches, tests).
  DayOutcome run_day_on_prefixes(const std::vector<ipv6::Prefix>& prefixes,
                                 int day, scan::ResultSink* sink = nullptr) {
    DayOutcome out;
    run_day_on_prefixes(prefixes, day, sink, out);
    return out;
  }

  /// How often each prefix's windowed verdict changed (Table 4),
  /// materialized in sorted order from the flat per-prefix state.
  std::map<ipv6::Prefix, unsigned> verdict_flips() const;

  /// All prefixes whose current windowed verdict is "aliased", sorted.
  std::vector<ipv6::Prefix> current_aliased() const;

  const ApdOptions& options() const { return options_; }

  /// Prefixes with verdict state: every prefix ever probed by a batch.
  std::size_t tracked_prefixes() const { return state_.size(); }

 private:
  // The fan-out's day constants for options_.protocol: lane n's seed
  // is fanout_seed(n, salt of (day, n)), the same for every prefix.
  netsim::FanoutDay fanout_day(int day) const;

  // Sliding window plus its Table-4 flip counter and the prefix's
  // NetworkSim::resolve_fanout code, stored inline in the flat table
  // (the separate std::map<Prefix, unsigned> it replaces allocated a
  // node per first flip). The zone code fills what was padding: the
  // table slot stays 48 bytes (asserted at reserve_prefixes).
  struct VerdictState {
    SlidingVerdict window;
    unsigned flips = 0;
    std::int32_t zone = netsim::NetworkSim::kFanoutNoZone;
  };

  netsim::NetworkSim* sim_;
  ApdOptions options_;
  engine::Engine* engine_;
  obs::Observability* obs_ = nullptr;
  util::FlatMap<ipv6::Prefix, VerdictState, ipv6::PrefixHash> state_;
  // One batch entry: the prefix's verdict state, found by pass 1, and
  // its responder count, written by pass 2.
  struct Probed {
    VerdictState* state = nullptr;
    unsigned responded = 0;
  };

  // Per-day scratch, reused across calls. Workers only read
  // batch_[i].state and write disjoint index-addressed
  // batch_[i].responded between dispatch and the pool barrier.
  std::vector<Probed> batch_;
};

}  // namespace v6h::apd
