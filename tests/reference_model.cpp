#include "reference_model.h"

#include <algorithm>
#include <utility>

#include "util/rng.h"

namespace v6h::test {

using ipv6::Address;
using ipv6::Prefix;

const char* first_hitlist_difference(const DayRecord& a, const DayRecord& b) {
  if (a.day != b.day) return "day";
  if (a.new_rows != b.new_rows) return "new_rows";
  if (a.fanouts != b.fanouts) return "fanouts";
  if (a.became_aliased != b.became_aliased) return "became_aliased";
  if (a.became_clean != b.became_clean) return "became_clean";
  if (a.aliased != b.aliased) return "aliased";
  if (a.row_aliased != b.row_aliased) return "row_aliased";
  return nullptr;
}

const char* first_scan_difference(const DayRecord& a, const DayRecord& b) {
  if (a.day != b.day) return "day";
  if (a.scanned_rows != b.scanned_rows) return "scanned_rows";
  if (a.masks != b.masks) return "masks";
  if (a.responsive != b.responsive) return "responsive";
  if (a.responsive_any != b.responsive_any) return "responsive_any";
  if (a.probes != b.probes) return "probes";
  return nullptr;
}

const char* first_difference(const DayRecord& a, const DayRecord& b) {
  const char* field = first_hitlist_difference(a, b);
  return field != nullptr ? field : first_scan_difference(a, b);
}

ReferenceModel::ReferenceModel(const netsim::Universe& universe,
                               const apd::ApdOptions& apd,
                               std::vector<net::Protocol> protocols)
    : universe_(&universe),
      apd_(apd),
      protocols_(std::move(protocols)),
      sim_(universe),
      sources_(universe, sim_) {}

DayRecord ReferenceModel::run_day(int day) {
  DayRecord out;
  out.day = day;
  const std::uint64_t probes_before = sim_.probes_sent();

  // Collect: each source's new addresses, deduplicated across sources.
  for (const auto source : netsim::kAllSources) {
    const auto& result = source == netsim::SourceId::kScamper
                             ? sources_.collect(source, day, rows_)
                             : sources_.collect(source, day);
    for (const auto& a : result.new_addresses) {
      if (seen_.insert(a).second) {
        rows_.push_back(a);
        out.new_rows.push_back(a);
      }
    }
  }

  // Candidates: recount the whole hitlist. An address counts once
  // toward each level and once toward its announced prefix when that
  // is not already one of the levels.
  std::map<Prefix, std::size_t> counts;
  for (const auto& a : rows_) {
    std::set<Prefix> mine;
    for (const std::uint8_t level : {48, 64, 96, 112}) mine.insert(Prefix(a, level));
    if (const auto* announcement = universe_->bgp().lookup(a)) {
      mine.insert(announcement->prefix);
    }
    for (const auto& prefix : mine) ++counts[prefix];
  }
  const std::size_t min_targets = std::max<std::size_t>(1, apd_.min_targets);

  // Fan-out: 16 probes per candidate, one per nybble, with the
  // paper's per-day pseudo-random address under each branch.
  for (const auto& [prefix, count] : counts) {
    if (count < min_targets) continue;
    unsigned responded = 0;
    for (unsigned nybble = 0; nybble < 16; ++nybble) {
      const Address target =
          prefix.fanout_address(nybble, util::hash64(day, nybble, 0xA9D));
      responded += sim_.probe(target, apd_.protocol, day, nybble).responded;
    }
    auto& window =
        windows_.try_emplace(prefix, apd::SlidingVerdict(apd_.window_days))
            .first->second;
    const bool previous = window.has_verdict() && window.verdict();
    window.update(responded == 16);
    if (window.verdict() != previous) {
      (window.verdict() ? out.became_aliased : out.became_clean)
          .push_back(prefix);
    }
    out.fanouts.push_back({prefix, responded, window.verdict()});
  }
  for (const auto& [prefix, window] : windows_) {
    if (window.verdict()) out.aliased.push_back(prefix);
  }

  // Re-filter every row, then scan every unaliased row.
  for (std::uint32_t row = 0; row < rows_.size(); ++row) {
    const Address& a = rows_[row];
    const bool aliased =
        std::any_of(out.aliased.begin(), out.aliased.end(),
                    [&](const Prefix& prefix) { return prefix.contains(a); });
    out.row_aliased.push_back(aliased ? 1 : 0);
    if (aliased) continue;
    net::ProtocolMask mask = 0;
    for (const auto protocol : protocols_) {
      if (sim_.probe(a, protocol, day, 0).responded) {
        mask |= net::mask_of(protocol);
      }
    }
    out.scanned_rows.push_back(row);
    out.masks.push_back(mask);
    out.responsive_any += mask != 0;
    for (std::size_t p = 0; p < net::kProtocolCount; ++p) {
      out.responsive[p] += (mask >> p) & 1u;
    }
  }
  out.probes = sim_.probes_sent() - probes_before;
  return out;
}

}  // namespace v6h::test
