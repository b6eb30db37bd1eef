#pragma once

// The daily hitlist pipeline of the paper: collect from all sources,
// run APD over the candidate prefixes, then scan the de-aliased
// targets across the protocol set.
//
// The day loop is delta-driven: each run_day folds only the day's new
// addresses into the persistent candidate counters, applies the APD
// verdict transitions to a persistent alias filter in place, and
// re-filters only the new rows plus the members of flipped prefixes.
//
// The daily protocol scan runs on the resolved scan engine: a
// persistent per-row resolution cache extended by each DayDelta
// answers every probe without universe lookups. The APD fan-out
// probes fresh addresses every day, so it caches each candidate
// prefix's zone instead, in the detector's verdict table.
//
// tests/reference_model.{h,cpp} replays the same campaign naively —
// full recount, per-probe fan-out, full re-filter, per-probe scan —
// and tests/test_reference_model.cpp holds every day of this loop to
// it, field by field.
//
// Scan results land in one pipeline-owned scan::ScanFrame reused
// across days (zero steady-state allocations in the scan path);
// DayReport borrows it, and streaming consumers can pass a
// scan::ResultSink to run_day instead of holding any copy at all.

#include <array>
#include <cstdint>
#include <vector>

#include "apd/apd.h"
#include "engine/engine.h"
#include "hitlist/day_scratch.h"
#include "hitlist/target_store.h"
#include "ipv6/address.h"
#include "ipv6/prefix.h"
#include "netsim/network_sim.h"
#include "netsim/universe.h"
#include "scan/probe_schedule.h"
#include "scan/scan_engine.h"
#include "scan/scan_frame.h"
#include "sources/sources.h"
#include "util/flat_hash.h"

namespace v6h::obs {
class Observability;
}  // namespace v6h::obs

namespace v6h::hitlist {

struct PipelineOptions {
  /// The daily scan schedule: protocol set, probe interleave, budget,
  /// and retry policy. The default schedule reproduces the historical
  /// all-protocol scan byte-for-byte.
  scan::ProbeSchedule schedule;
  apd::ApdOptions apd;
  /// Observability layer (borrowed; may be null = disabled, the
  /// default). When set, run_day wraps every stage in an obs::StageSpan,
  /// feeds the core day-loop counters/gauges, and closes each day with
  /// Observability::end_day (registry shard merge + DayTelemetry to the
  /// attached sink). The DayReport stream is byte-identical either way
  /// (tests/test_obs.cpp); the object must outlive the pipeline.
  obs::Observability* obs = nullptr;
};

/// The APD verdict set as a queryable filter. APD only ever marks
/// candidate prefixes aliased, and candidates sit at a handful of
/// lengths (the announced prefix and the /48, /64, /96 and /112
/// levels), so "is this address inside an aliased prefix?" is an
/// exact-set question over at most a few lengths: is_aliased masks
/// the address to each length present in the set and probes one hash
/// table per length (binary search on prefix lengths reduced to hash
/// probes, Waldvogel et al., SIGCOMM 1997). Mutable in place: the
/// pipeline applies each day's verdict transitions as insert/remove.
///
/// The member table never erases: remove clears the prefix's flag, so
/// the table stays tombstone-free and holds every prefix ever
/// inserted. A per-length count of live prefixes keeps the probe list
/// to the lengths that can still answer.
///
/// The filter is single-threaded: every call runs on the coordinator.
class AliasFilter {
 public:
  AliasFilter() = default;

  /// Pre-size the sorted membership list and the member table for
  /// `max_prefixes` prefixes so day-loop inserts never grow a
  /// container (the member table keeps removed prefixes, so the bound
  /// must cover every prefix ever inserted; see the Pipeline
  /// constructor). `max_trie_nodes` is unused: it sized the node
  /// arena of the tries the filter used to hold. The argument stays
  /// for perfbench's copy of the day loop (TracedAssembly), which
  /// calls this signature until ROADMAP item 1 deletes that copy.
  void reserve(std::size_t max_prefixes, std::size_t max_trie_nodes);

  /// Add `prefix` to the aliased set (no-op when present).
  void insert(const ipv6::Prefix& prefix);

  /// Drop `prefix` from the aliased set (no-op when absent).
  void remove(const ipv6::Prefix& prefix);

  bool is_aliased(const ipv6::Address& a) const {
    for (std::size_t i = 0; i < length_count_; ++i) {
      const bool* live = members_.find(ipv6::Prefix(a, lengths_[i]));
      if (live != nullptr && *live) return true;
    }
    return false;
  }

  /// Batched filter: (*aliased)[i] = is_aliased(in[i]), serially. The
  /// engine is unused; the argument stays for perfbench's copy of the
  /// day loop (TracedAssembly) until ROADMAP item 1 deletes it.
  void is_aliased_many(const ipv6::Address* in, std::size_t count,
                       std::vector<char>* aliased,
                       engine::Engine* = nullptr) const;

  /// The aliased set, sorted.
  const std::vector<ipv6::Prefix>& prefixes() const { return prefixes_; }

 private:
  std::vector<ipv6::Prefix> prefixes_;
  // Every prefix ever inserted; the flag says whether it is live.
  util::FlatMap<ipv6::Prefix, bool, ipv6::PrefixHash> members_;
  // Live prefixes per length, and the lengths with a nonzero count
  // (the first length_count_ entries, in no particular order).
  std::array<std::uint32_t, 129> live_per_length_{};
  std::array<std::uint8_t, 129> lengths_{};
  std::size_t length_count_ = 0;
};

class Pipeline {
 public:
  /// With an engine, the APD fan-out, the resolved-table sync and the
  /// protocol scans of each day run chunked on its workers; collect,
  /// candidate counting and the re-filter stay serial. A null engine
  /// (or --threads 1) is the serial path. Output is byte-identical
  /// either way (tests/test_engine_equivalence.cpp).
  Pipeline(const netsim::Universe& universe, netsim::NetworkSim& sim,
           PipelineOptions options = {}, engine::Engine* engine = nullptr);

  struct DayReport {
    int day = -1;
    std::size_t new_addresses = 0;
    std::size_t aliased_prefixes = 0;
    std::size_t scanned_targets = 0;
    /// The day's scan results, borrowed from the pipeline's reusable
    /// frame: valid until the next run_day overwrites it.
    const scan::ScanFrame* frame = nullptr;

    const scan::ScanFrame& scan() const { return *frame; }
  };

  /// One daily cycle at `day`: collect -> APD -> scan. When a sink is
  /// given, the APD fan-out counters and every scanned row stream
  /// through it (serially, deterministic order) as they complete.
  DayReport run_day(int day, scan::ResultSink* sink = nullptr);

  /// Cumulative hitlist (pre-APD, deduplicated, insertion order).
  const std::vector<ipv6::Address>& targets() const {
    return store_.addresses();
  }

  /// Columnar per-target state (first-seen day, aliased flag).
  const TargetStore& store() const { return store_; }

  /// What the most recent run_day changed.
  const DayDelta& last_delta() const { return delta_; }

  /// The persistent alias filter, kept current by run_day.
  const AliasFilter& filter() const { return filter_; }

  const apd::AliasDetector& detector() const { return detector_; }

  /// The reusable scan frame run_day refills (what DayReport borrows).
  const scan::ScanFrame& frame() const { return frame_; }

  sources::SourceSimulator& source_simulator() { return sources_; }

  /// The resolved scan engine run_day keeps in sync with the store.
  const scan::ScanEngine& scan_engine() const { return scan_engine_; }

  const PipelineOptions& options() const { return options_; }

 private:
  const netsim::Universe* universe_;
  PipelineOptions options_;
  netsim::NetworkSim* sim_;          // for the probe-count telemetry
  obs::Observability* obs_;          // borrowed; null = disabled
  sources::SourceSimulator sources_;
  apd::AliasDetector detector_;
  apd::CandidateCounter counter_;
  scan::ScanEngine scan_engine_;
  TargetStore store_;
  AliasFilter filter_;
  DayDelta delta_;
  scan::ScanFrame frame_;
  // Per-day transient buffers (see day_scratch.h): coordinator-owned,
  // cleared and refilled once per run_day.
  DayScratch scratch_;
};

}  // namespace v6h::hitlist
