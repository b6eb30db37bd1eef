#include "sources/sources.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace v6h::sources {

using ipv6::Address;
using ipv6::Prefix;
using netsim::SourceId;
using netsim::Zone;
using netsim::ZoneKind;
using util::hash64;
using util::hash_unit;

namespace {

// Per-zone draw weight for one source; 0 keeps the zone out of the
// source's pool entirely.
double zone_weight(SourceId source, const Zone& zone) {
  const auto& config = zone.config();
  const bool amazon = config.asn == 16509;
  const double pool = static_cast<double>(zone.discoverable_count());
  switch (source) {
    case SourceId::kDomainLists:
      if (config.kind == ZoneKind::kCdn) return (amazon ? 30.0 : 3.0) * pool;
      if (config.kind == ZoneKind::kWebHosting) return 0.3 * pool;
      return 0.0;
    case SourceId::kCt:
      if (config.kind == ZoneKind::kCdn) return (amazon ? 60.0 : 5.0) * pool;
      if (config.kind == ZoneKind::kWebHosting) return 0.2 * pool;
      return 0.0;
    case SourceId::kFdns:
      if (config.kind == ZoneKind::kDnsServer) return 3.0 * pool;
      if (config.kind == ZoneKind::kWebHosting) return 1.0 * pool;
      if (config.kind == ZoneKind::kCdn) return (amazon ? 2.0 : 0.5) * pool;
      return 0.0;
    case SourceId::kAxfr:
      if (config.kind == ZoneKind::kDnsServer) return 2.0 * pool;
      if (config.kind == ZoneKind::kCdn) return (amazon ? 3.0 : 0.3) * pool;
      if (config.kind == ZoneKind::kWebHosting) return 0.3 * pool;
      return 0.0;
    case SourceId::kBitnodes:
      return config.kind == ZoneKind::kNodes ? pool : 0.0;
    case SourceId::kRipeAtlas:
      return config.kind == ZoneKind::kAtlasProbe ? pool : 0.0;
    case SourceId::kScamper:
      if (config.kind == ZoneKind::kIspCpe) return pool;
      if (config.kind == ZoneKind::kWebHosting) return 0.05 * pool;
      return 0.0;
  }
  return 0.0;
}

double exp_curve(double x, double k) {
  return (std::exp(k * x) - 1.0) / (std::exp(k) - 1.0);
}

}  // namespace

SourceSimulator::SourceSimulator(const netsim::Universe& universe)
    : universe_(&universe) {
  for (std::size_t s = 0; s < netsim::kAllSources.size(); ++s) {
    Pool& pool = pools_[s];
    const auto& zones = universe_->zones();
    for (std::uint32_t z = 0; z < zones.size(); ++z) {
      const double w = zone_weight(netsim::kAllSources[s], zones[z]);
      if (w <= 0.0) continue;
      pool.zones.push_back(z);
      pool.total_weight += w;
      pool.cumulative_weight.push_back(pool.total_weight);
    }
    if (pool.zones.empty()) {
      // Degenerate tiny universes: fall back to drawing from anywhere.
      for (std::uint32_t z = 0; z < zones.size(); ++z) {
        pool.zones.push_back(z);
        pool.total_weight += 1.0;
        pool.cumulative_weight.push_back(pool.total_weight);
      }
    }
  }
  // Pre-size every accumulator to its campaign-final count: the daily
  // draw target is final_count * growth_fraction <= final_count, so a
  // warm collect never grows a container (day-loop zero-alloc
  // contract). One shared result scratch covers the largest single
  // source.
  std::size_t max_final = 0;
  for (std::size_t s = 0; s < netsim::kAllSources.size(); ++s) {
    const auto cap =
        static_cast<std::size_t>(final_count(netsim::kAllSources[s]));
    states_[s].seen.reserve(cap);
    states_[s].cumulative.reserve(cap);
    max_final = std::max(max_final, cap);
  }
  result_.new_addresses.reserve(max_final);
}

std::size_t SourceSimulator::max_unique_addresses() const {
  std::size_t total = 0;
  for (const auto source : netsim::kAllSources) {
    total += static_cast<std::size_t>(final_count(source));
  }
  return total;
}

std::uint64_t SourceSimulator::final_count(SourceId source) const {
  double base = 0.0;
  switch (source) {
    case SourceId::kDomainLists: base = 9800; break;
    case SourceId::kFdns: base = 3300; break;
    case SourceId::kCt: base = 18500; break;
    case SourceId::kAxfr: base = 700; break;
    case SourceId::kBitnodes: base = 60; break;
    case SourceId::kRipeAtlas: base = 260; break;
    case SourceId::kScamper: base = 26000; break;
  }
  return std::max<std::uint64_t>(
      5, static_cast<std::uint64_t>(std::llround(base * universe_->params().scale)));
}

double SourceSimulator::growth_fraction(SourceId source, int day) const {
  const double x = std::clamp(static_cast<double>(day) / 270.0, 0.0, 1.0);
  switch (source) {
    case SourceId::kCt:
      // CT ingestion only started mid-campaign: a visible jump.
      if (x < 0.22) return 0.01 * (x / 0.22);
      return 0.01 + 0.99 * exp_curve((x - 0.22) / 0.78, 1.5);
    case SourceId::kRipeAtlas: return x;
    case SourceId::kBitnodes: return exp_curve(x, 1.5);
    case SourceId::kScamper: return exp_curve(x, 2.8);
    default: return exp_curve(x, 2.0);
  }
}

const Zone& SourceSimulator::pick_zone(const Pool& pool, std::uint64_t r) const {
  const double point =
      (static_cast<double>(r >> 11) * 0x1.0p-53) * pool.total_weight;
  const auto it = std::upper_bound(pool.cumulative_weight.begin(),
                                   pool.cumulative_weight.end(), point);
  const std::size_t index =
      std::min<std::size_t>(it - pool.cumulative_weight.begin(),
                            pool.zones.size() - 1);
  return universe_->zones()[pool.zones[index]];
}

const CollectResult& SourceSimulator::collect(SourceId source, int day) {
  static const std::vector<Address> kNoTargets;
  return collect(source, day, kNoTargets);
}

Address SourceSimulator::draw(SourceId source, std::uint64_t src_key,
                              std::uint64_t n, int day, bool path_discovery,
                              const std::vector<Address>& targets) const {
  if (path_discovery && hash_unit(src_key, n, 0x77) < 0.2) {
    // Router/CPE addresses discovered on the path toward a known
    // target: same /48, arbitrary interface.
    const auto& t = targets[hash64(src_key, n, 0x78) % targets.size()];
    return Prefix(t, 48).random_address(hash64(src_key, n, 0x79));
  }
  const Zone& zone =
      pick_zone(pools_[static_cast<std::size_t>(source)], hash64(src_key, n, 0x7A));
  const auto pool_size = std::max<std::uint32_t>(1, zone.discoverable_count());
  const auto index =
      static_cast<std::uint32_t>(hash64(src_key, n, 0x7B) % pool_size);
  return zone.discoverable_address(index, day);
}

const CollectResult& SourceSimulator::collect(
    SourceId source, int day, const std::vector<Address>& targets) {
  const auto s = static_cast<std::size_t>(source);
  State& state = states_[s];
  const auto src_key = hash64(universe_->params().seed, s, 0x50C);
  const auto target_count = static_cast<std::uint64_t>(std::llround(
      static_cast<double>(final_count(source)) * growth_fraction(source, day)));

  result_.new_addresses.clear();
  const bool path_discovery =
      source == SourceId::kScamper && !targets.empty();
  for (; state.drawn < target_count; ++state.drawn) {
    const Address a =
        draw(source, src_key, state.drawn, day, path_discovery, targets);
    if (state.seen.insert(a)) {
      state.cumulative.push_back(a);
      result_.new_addresses.push_back(a);
    }
  }
  result_.cumulative_count = state.cumulative.size();
  return result_;
}

}  // namespace v6h::sources
