#include "hitlist/pipeline.h"

#include <algorithm>

#include "obs/obs.h"

namespace v6h::hitlist {

using ipv6::Address;
using ipv6::Prefix;

void AliasFilter::insert(const Prefix& prefix) {
  bool& live = members_.try_emplace(prefix).first->second;
  if (live) return;
  live = true;
  prefixes_.insert(
      std::lower_bound(prefixes_.begin(), prefixes_.end(), prefix), prefix);
  // The first live prefix of its length adds the length to the probe
  // list.
  if (live_per_length_[prefix.length()]++ == 0) {
    lengths_[length_count_++] = prefix.length();
  }
}

void AliasFilter::remove(const Prefix& prefix) {
  bool* live = members_.find(prefix);
  if (live == nullptr || !*live) return;
  *live = false;
  prefixes_.erase(
      std::lower_bound(prefixes_.begin(), prefixes_.end(), prefix));
  // The last live prefix of its length drops the length from the
  // probe list (whose order does not matter).
  if (--live_per_length_[prefix.length()] == 0) {
    std::size_t i = 0;
    while (lengths_[i] != prefix.length()) ++i;
    lengths_[i] = lengths_[--length_count_];
  }
}

void AliasFilter::is_aliased_many(const Address* in, std::size_t count,
                                  std::vector<char>* aliased,
                                  engine::Engine* /*engine*/) const {
  aliased->assign(count, 0);
  if (length_count_ == 0) return;
  for (std::size_t i = 0; i < count; ++i) (*aliased)[i] = is_aliased(in[i]);
}

void AliasFilter::reserve(std::size_t max_prefixes,
                          std::size_t /*max_trie_nodes*/) {
  prefixes_.reserve(max_prefixes);
  members_.reserve(max_prefixes);
}

Pipeline::Pipeline(const netsim::Universe& universe, netsim::NetworkSim& sim,
                   PipelineOptions options, engine::Engine* engine)
    : universe_(&universe),
      options_(std::move(options)),
      sim_(&sim),
      obs_(options_.obs),
      sources_(universe),
      detector_(sim, options_.apd, engine),
      counter_(universe.bgp(), options_.apd.min_targets),
      scan_engine_(sim, engine) {
  // Stage-level instrumentation inside the scan engine and the APD
  // fan-out; registry storage was allocated when the Observability
  // was constructed, so attaching it here allocates nothing.
  scan_engine_.set_observability(obs_);
  detector_.set_observability(obs_);
  // Front-load every steady-state buffer to its campaign bound. The
  // source simulator can never emit more unique addresses than the
  // sum of its per-source final counts (growth fractions cap at 1),
  // so that sum, N, bounds the store, the resolution cache, the
  // frame's row space and the candidate counters.
  //
  // The verdict table and the per-day candidate lists hold at most
  // one entry per APD candidate, and there are at most 5 * N / m
  // candidates (m = min_targets, floored at 1), which
  // CandidateCounter::max_candidates returns plus slack. Proof: at
  // each of the four fixed levels the candidates are disjoint
  // prefixes, so disjoint address sets of at least m addresses each,
  // hence at most N / m of them; the announced prefixes off those
  // levels are the fifth family, and each address counts toward at
  // most one of them, so they too number at most N / m.
  //
  // The aliased set is far smaller (only genuinely aliased zones
  // survive the 16/16 fan-out), so the filter gets a detection-sized
  // budget. Its member table keeps removed prefixes, so the budget
  // must cover every prefix ever aliased, not just the live set. The
  // candidate bound would prove that but costs a table as large as
  // the verdict table; measured, the detection budget covers it: over
  // whole campaigns (scale 0.05 to 3, min_targets 1 and 2) the prefixes
  // ever aliased number at most 1.06 times the largest live set, e.g.
  // 2360 (days 1..270, min_targets 2) and 27205 (days 150..270,
  // min_targets 1) at scale 3, seed 1, against a budget of 35008. The
  // budget itself is not proven: at min_targets 1 a cold scale-3 day
  // aliases 32843 prefixes at once and a cold scale-4 day 43550,
  // which outgrows it. The counting-allocator test
  // (tests/test_day_alloc.cpp) fails loudly if a campaign ever
  // outgrows any of these.
  const std::size_t bound = sources_.max_unique_addresses();
  const std::size_t prefix_bound = counter_.max_candidates(bound);
  const std::size_t aliased_budget =
      256 + universe.true_aliased_prefixes().size() * 64;
  store_.reserve(bound);
  counter_.reserve_for(bound);
  detector_.reserve_prefixes(prefix_bound);
  scan_engine_.reserve(bound);
  frame_.reserve(bound);
  filter_.reserve(aliased_budget, 2048 + aliased_budget * 24);
  scratch_.reserve(bound, prefix_bound);
  delta_.became_aliased.reserve(prefix_bound);
  delta_.became_clean.reserve(prefix_bound);
}

Pipeline::DayReport Pipeline::run_day(int day, scan::ResultSink* sink) {
  // Observability discipline: spans and counter updates below are
  // lane-local relaxed stores plus clock reads — no locks, no
  // allocation, no effect on any pipeline decision — so the DayReport
  // stream is byte-identical with obs_ attached or null
  // (tests/test_obs.cpp pins both halves of that contract).
  if (obs_ != nullptr) obs_->begin_day(day);
  const std::uint64_t probes_before =
      obs_ != nullptr ? sim_->probes_sent() : 0;

  DayReport report;
  report.day = day;
  delta_.clear();
  delta_.day = day;
  delta_.first_new_row = static_cast<std::uint32_t>(store_.size());

  // 1. Collect: every source contributes its day-`day` snapshot; the
  // scamper source traceroutes toward the hitlist so far. The
  // first-seen dedup stays serial in draw order (TargetStore::insert),
  // so row order is identical for any thread count.
  {
    obs::StageSpan span(obs_, obs::Stage::kCollect);
    for (const auto source : netsim::kAllSources) {
      const auto& result =
          source == netsim::SourceId::kScamper
              ? sources_.collect(source, day, store_.addresses())
              : sources_.collect(source, day);
      for (const auto& a : result.new_addresses) {
        if (store_.insert(a, day)) ++report.new_addresses;
      }
    }
  }
  delta_.row_count = static_cast<std::uint32_t>(store_.size());

  // 2. APD over the multi-level candidates: fold only the day's new
  // rows into the persistent counters. The candidate batch — and so
  // every probe — equals a full recount of the cumulative hitlist,
  // which matters because the windowed verdict of a prefix depends on
  // its full daily probe history.
  {
    obs::StageSpan span(obs_, obs::Stage::kCandidates);
    counter_.add_addresses(store_.addresses().data() + delta_.first_new_row,
                           delta_.new_addresses());
  }
  detector_.run_day_on_prefixes(counter_.candidates(), day, sink,
                                scratch_.outcome);
  // Swap, don't move: the outcome's buffers and the delta's circulate
  // between the two structs, so neither side ever reallocates.
  delta_.became_aliased.swap(scratch_.outcome.became_aliased);
  delta_.became_clean.swap(scratch_.outcome.became_clean);

  // 3. Alias filter + per-row verdict flags.
  {
    obs::StageSpan span(obs_, obs::Stage::kRefilter);
    // Apply the verdict transitions in place, then re-filter exactly
    // the rows whose answer can have changed: the day's new rows (all
    // flags start clean) and the members of flipped prefixes — a row
    // outside every flipped prefix keeps yesterday's longest match.
    // Overlap between the two sets is harmless: both assign the same
    // freshly-computed verdict. The two transition sets are disjoint,
    // so the order of removes and inserts cannot change the filter.
    for (const auto& prefix : delta_.became_clean) filter_.remove(prefix);
    for (const auto& prefix : delta_.became_aliased) filter_.insert(prefix);
    filter_.is_aliased_many(store_.addresses().data() + delta_.first_new_row,
                            delta_.new_addresses(), &scratch_.aliased);
    for (std::size_t i = 0; i < scratch_.aliased.size(); ++i) {
      store_.set_aliased(delta_.first_new_row + i, scratch_.aliased[i] != 0);
    }
    scratch_.affected.clear();
    store_.rows_within_many(delta_.became_aliased, &scratch_.affected);
    store_.rows_within_many(delta_.became_clean, &scratch_.affected);
    for (const auto row : scratch_.affected) {
      store_.set_aliased(row, filter_.is_aliased(store_.address(row)));
    }
  }
  report.aliased_prefixes = filter_.prefixes().size();

  // 4. Scan everything not inside detected aliased space into the
  // reusable frame. The resolved engine extends its per-row cache by
  // the day's new rows and answers every probe from it.
  scan_engine_.sync(store_, day);
  scan_engine_.scan_store(store_, day, options_.schedule, &frame_, sink);
  report.scanned_targets = frame_.rows().size();
  report.frame = &frame_;

  if (obs_ != nullptr) {
    // Deterministic day-loop series (coordinator-written: pure
    // functions of seed + day sequence), then the day close: gauges,
    // registry shard merge, DayTelemetry to the sink.
    auto& registry = obs_->registry();
    const obs::CoreMetrics& core = obs_->core();
    registry.add(core.new_addresses, report.new_addresses);
    registry.add(core.scanned_targets, report.scanned_targets);
    registry.add(core.probes, sim_->probes_sent() - probes_before);
    registry.set(core.aliased_prefixes, report.aliased_prefixes);
    registry.set(core.hitlist_rows, store_.size());
    obs_->end_day(day);
  }
  return report;
}

}  // namespace v6h::hitlist
