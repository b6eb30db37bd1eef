#include "apd/apd.h"

#include <algorithm>
#include <array>
#include <iterator>

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

AliasDetector::FanoutSeeds AliasDetector::fanout_seeds(int day) {
  // The paper's per-day pseudo-random fan-out: nybble n's salt is a
  // function of (day, n) only, so one day's 16 seeds serve every
  // prefix probed that day.
  FanoutSeeds seeds;
  for (unsigned nybble = 0; nybble < 16; ++nybble) {
    seeds[nybble] =
        Prefix::fanout_seed(nybble, util::hash64(day, nybble, 0xA9D));
  }
  return seeds;
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
  state_.reserve(max_prefixes);
  outcomes_.reserve(max_prefixes);
  partition_.order.reserve(max_prefixes);
}

PrefixOutcome AliasDetector::probe_prefix(const Prefix& prefix, int day) {
  return probe_seeded(prefix, day, fanout_seeds(day));
}

PrefixOutcome AliasDetector::probe_seeded(const Prefix& prefix, int day,
                                          const FanoutSeeds& seeds) {
  PrefixOutcome outcome;
  outcome.prefix = prefix;
  std::array<Address, 16> fanout;
  for (unsigned nybble = 0; nybble < 16; ++nybble) {
    fanout[nybble] = prefix.fanout_address_seeded(nybble, seeds[nybble]);
  }
  outcome.responded = sim_->probe_fanout(prefix, fanout.data(), fanout.size(),
                                         options_.protocol, day);
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
  outcomes_.clear();
  outcomes_.resize(n);
  // Computed before dispatch; workers only read it.
  const FanoutSeeds seeds = fanout_seeds(day);
  if (engine_ != nullptr && engine_->parallel()) {
    // Batch per top-bits shard: each worker chunk probes one region of
    // the address space; outcomes are index-addressed, so the merge
    // below reads them back in input order regardless of scheduling.
    engine::shard_partition_into(
        prefixes.data(), n,
        [](const Prefix& p) { return engine::shard_first(p); }, partition_);
    engine_->parallel_for(n, 4, [&](std::size_t begin, std::size_t end) {
      for (std::size_t k = begin; k < end; ++k) {
        const std::size_t i = partition_.order[k];
        outcomes_[i] = probe_seeded(prefixes[i], day, seeds);
      }
    });
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      outcomes_[i] = probe_seeded(prefixes[i], day, seeds);
    }
  }
  // Deterministic merge: windows update serially in input order.
  for (std::size_t i = 0; i < n; ++i) {
    const Prefix& prefix = prefixes[i];
    out.probes += 16;
    auto [entry, inserted] = state_.try_emplace(prefix);
    if (inserted) entry->second.window = SlidingVerdict(options_.window_days);
    SlidingVerdict& window = entry->second.window;
    // The effective previous verdict — a prefix without one yet is
    // clean, so a first-day aliased verdict is a became_aliased event
    // even though the Table-4 flip counter (which measures verdict
    // *instability*) does not count it.
    const bool previous = window.has_verdict() && window.verdict();
    if (window.update(outcomes_[i].aliased)) ++entry->second.flips;
    const bool current = window.verdict();
    if (current != previous) {
      (current ? out.became_aliased : out.became_clean).push_back(prefix);
    }
    if (current) out.aliased.push_back(prefix);
    if (sink != nullptr) {
      sink->on_fanout(prefix, outcomes_[i].responded, current);
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
