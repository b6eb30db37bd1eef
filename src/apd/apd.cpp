#include "apd/apd.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <utility>

#include "obs/obs.h"
#include "scan/scan_frame.h"
#include "util/rng.h"

namespace v6h::apd {

using ipv6::Address;
using ipv6::Prefix;

namespace {

// The multi-level aggregation of Section 5.2: every hitlist address
// counts toward its /48../112 aggregates plus its announced prefix
// (unless that coincides with a fixed level, which must not count the
// address twice).
constexpr std::uint8_t kLevels[] = {48, 64, 96, 112};

}  // namespace

netsim::FanoutDay AliasDetector::fanout_day(int day) const {
  // The paper's per-day pseudo-random fan-out: nybble n's salt is a
  // function of (day, n) only, so one day's 16 seeds serve every
  // prefix probed that day.
  std::array<std::uint64_t, 16> seeds;
  for (unsigned nybble = 0; nybble < 16; ++nybble) {
    seeds[nybble] =
        Prefix::fanout_seed(nybble, util::hash64(day, nybble, 0xA9D));
  }
  return netsim::FanoutDay(seeds, day, options_.protocol);
}

CandidateCounter::CandidateCounter(const netsim::BgpTable& bgp,
                                   std::size_t min_targets,
                                   engine::Engine* /*engine*/)
    // min_targets 0 behaves like 1: a candidate must hold at least
    // one counted address, and a fresh counter entry starts at 0,
    // which would otherwise read as "already a candidate" and never
    // cross.
    : bgp_(&bgp), min_targets_(std::max<std::size_t>(1, min_targets)) {}

void CandidateCounter::reserve_for(std::size_t max_addresses) {
  // Every unique address contributes at most 5 level prefixes, and
  // measured campaigns track 1.4-1.8 prefixes per address (scales
  // 0.05-3.0), so 4x bounds the table with room to spare. The
  // candidate-side vectors hold at most one entry per candidate.
  counts_.reserve(max_addresses * 4 + 64);
  const std::size_t candidate_bound = max_candidates(max_addresses);
  candidates_.reserve(candidate_bound);
  merged_.reserve(candidate_bound);
  crossed_.reserve(candidate_bound);
}

const std::vector<Prefix>& CandidateCounter::add_addresses(
    const Address* addrs, std::size_t count) {
  crossed_.clear();
  if (count == 0) return crossed_;
  // Counts grow by one, so a prefix crosses min_targets exactly when
  // its count reaches it, at most once ever; sorting makes the
  // returned order canonical.
  auto count_one = [&](const Prefix& prefix) {
    if (++counts_[prefix] == min_targets_) crossed_.push_back(prefix);
  };
  for (std::size_t i = 0; i < count; ++i) {
    const Address& a = addrs[i];
    for (const auto level : kLevels) count_one(Prefix(a, level));
    if (const auto* announcement = bgp_->lookup(a)) {
      const std::uint8_t length = announcement->prefix.length();
      bool on_level = false;
      for (const auto level : kLevels) on_level |= level == length;
      if (!on_level) count_one(announcement->prefix);
    }
  }
  std::sort(crossed_.begin(), crossed_.end());
  // Absorb into the sorted candidate list by merging into a reused
  // scratch and swapping (std::inplace_merge buys a temporary buffer
  // from the heap; the two vectors circulate their capacity instead).
  merged_.clear();
  std::merge(candidates_.begin(), candidates_.end(), crossed_.begin(),
             crossed_.end(), std::back_inserter(merged_));
  candidates_.swap(merged_);
  return crossed_;
}

AliasDetector::AliasDetector(netsim::NetworkSim& sim, const ApdOptions& options,
                             engine::Engine* engine)
    : sim_(&sim), options_(options), engine_(engine) {}

void AliasDetector::reserve_prefixes(std::size_t max_prefixes) {
  // The verdict table is reserved for the Pipeline's proven candidate
  // bound, so every byte of its slot is bootstrap and rescan peak
  // memory.
  static_assert(sizeof(std::pair<Prefix, VerdictState>) == 48);
  state_.reserve(max_prefixes);
  batch_.reserve(max_prefixes);
}

PrefixOutcome AliasDetector::probe_prefix(const Prefix& prefix, int day) {
  PrefixOutcome outcome;
  outcome.prefix = prefix;
  outcome.responded =
      sim_->probe_fanout(prefix, sim_->resolve_fanout(prefix), fanout_day(day));
  outcome.aliased = outcome.responded == 16;
  return outcome;
}

void AliasDetector::run_day_on_prefixes(const std::vector<Prefix>& prefixes,
                                        int day, scan::ResultSink* sink,
                                        DayOutcome& out) {
  // Covers the fan-out probes AND the serial window merge; purely
  // observational (lane-local stores + clock reads), so verdicts are
  // identical with obs_ attached or null.
  obs::StageSpan span(obs_, obs::Stage::kApd);
  out.clear();
  const std::size_t n = prefixes.size();
  // Pass 1: find or insert every prefix's state, resolving a new
  // prefix's zone once. Entry pointers stay valid while the table does
  // not grow; a growth rehash (a table not reserved for the batch)
  // moves every slot, so the pointers are found again after it.
  const std::size_t capacity = state_.capacity();
  batch_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto [entry, inserted] = state_.try_emplace(prefixes[i]);
    if (inserted) {
      entry->second.window = SlidingVerdict(options_.window_days);
      entry->second.zone = sim_->resolve_fanout(prefixes[i]);
    }
    batch_[i].state = &entry->second;
  }
  if (state_.capacity() != capacity) {
    for (std::size_t i = 0; i < n; ++i) batch_[i].state = state_.find(prefixes[i]);
  }
  // Pass 2: probe. The day constants are computed before dispatch;
  // workers only read them and the entries.
  const netsim::FanoutDay fanout = fanout_day(day);
  auto probe = [&](std::size_t i) {
    batch_[i].responded =
        sim_->probe_fanout(prefixes[i], batch_[i].state->zone, fanout);
  };
  if (engine_ != nullptr && engine_->parallel()) {
    // Chunked by contiguous index: counts are index-addressed, so the
    // merge below reads them back in input order regardless of
    // scheduling.
    engine_->parallel_for(n, 4, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) probe(i);
    });
  } else {
    for (std::size_t i = 0; i < n; ++i) probe(i);
  }
  // Pass 3, the deterministic merge: windows update serially in input
  // order.
  for (std::size_t i = 0; i < n; ++i) {
    const Prefix& prefix = prefixes[i];
    out.probes += 16;
    VerdictState& state = *batch_[i].state;
    const unsigned responded = batch_[i].responded;
    // The effective previous verdict — a prefix without one yet is
    // clean, so a first-day aliased verdict is a became_aliased event
    // even though the Table-4 flip counter (which measures verdict
    // *instability*) does not count it.
    const bool previous = state.window.has_verdict() && state.window.verdict();
    if (state.window.update(responded == 16)) ++state.flips;
    const bool current = state.window.verdict();
    if (current != previous) {
      (current ? out.became_aliased : out.became_clean).push_back(prefix);
    }
    if (sink != nullptr) {
      sink->on_fanout(prefix, responded, current);
    }
  }
  if (obs_ != nullptr) {
    obs_->registry().add(obs_->core().apd_probes, out.probes);
  }
}

std::map<Prefix, unsigned> AliasDetector::verdict_flips() const {
  std::map<Prefix, unsigned> out;
  // order_lint: allow(sorted-after: emplaced into an ordered std::map keyed by prefix)
  for (const auto& [prefix, verdict_state] : state_) {
    if (verdict_state.flips > 0) out.emplace(prefix, verdict_state.flips);
  }
  return out;
}

std::vector<Prefix> AliasDetector::current_aliased() const {
  std::vector<Prefix> out;
  // order_lint: allow(sorted-after: membership filter, out is sorted below)
  for (const auto& [prefix, verdict_state] : state_) {
    if (verdict_state.window.verdict()) out.push_back(prefix);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace v6h::apd
