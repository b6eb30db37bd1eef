#include "netsim/network_sim.h"

#include "util/lane_clones.h"
#include "util/rng.h"

namespace v6h::netsim {

using ipv6::Address;
using util::hash64;
using util::hash_unit;
using util::splitmix64;

namespace {

constexpr std::uint8_t kIttls[] = {64, 64, 64, 128, 255};
constexpr std::uint8_t kWscales[] = {0, 2, 7, 8, 14};
constexpr std::uint16_t kMsses[] = {1220, 1380, 1440, 8940};
constexpr std::uint16_t kWsizes[] = {14600, 28800, 29200, 64240, 65535};

// Per-day transient availability shared across protocols so that
// cross-protocol responsiveness stays correlated (Figure 7). The
// stability threshold lives in ZoneProbeParams.
bool host_transient_up(const ZoneProbeParams& zp, std::uint32_t slot, int day) {
  return hash_unit(zp.key, slot, 0xDA1ULL * 131 + static_cast<unsigned>(day)) <
         zp.stability;
}

// Bitnodes-style permanent churn: node populations turn over within
// weeks (Figure 8's ~80 % 14-day retention).
bool node_alive(const ZoneProbeParams& zp, std::uint32_t slot, int day) {
  if (!zp.nodes) return true;
  return hash_unit(zp.key, slot, 0xB17 + static_cast<unsigned>(day / 7)) < 0.82;
}

// Which of the zone's machine services this particular host runs.
net::ProtocolMask host_service_mask(const Zone& zone, std::uint32_t slot) {
  const net::ProtocolMask zone_mask = zone.config().machine_service;
  net::ProtocolMask mask = 0;
  for (const auto protocol : net::kAllProtocols) {
    if (!net::responds_to(zone_mask, protocol)) continue;
    double support = 1.0;
    switch (protocol) {
      case net::Protocol::kIcmp: support = 0.97; break;
      case net::Protocol::kTcp80: support = 0.90; break;
      case net::Protocol::kTcp443: support = 0.80; break;
      case net::Protocol::kUdp53: support = 0.95; break;
      case net::Protocol::kUdp443: support = 0.35; break;
    }
    if (hash_unit(zone.key(), slot, 0x5E00 + net::index_of(protocol)) < support) {
      mask |= net::mask_of(protocol);
    }
  }
  return mask;
}

// Position of `zone` in universe.zones(), which indexes zone_params_.
std::uint32_t zone_index(const Universe& universe, const Zone& zone) {
  return static_cast<std::uint32_t>(&zone - universe.zones().data());
}

// Aliased space minus the zone's honest carve-out, if any.
bool aliased_at(const ZoneConfig& config, const Address& a) {
  return config.aliased && !(config.carveout && config.carveout->contains(a));
}

// The machine image of a responding address at probe time `t`:
// aliased space (keyed by `addr_hash`) answers as its zone's one
// machine, an honest host `slot` as its zone's machine too unless the
// zone is diverse. Only probe() reports it; the scan and the fan-out
// need the response predicate alone.
void fill_image(const Zone& zone, bool aliased, std::uint32_t slot,
                std::uint64_t addr_hash, std::uint64_t t, ProbeResult* out) {
  const ZoneConfig& config = zone.config();
  const bool diverse = !aliased && config.uniformity == UniformityMode::kDiverse;
  const std::uint64_t machine = diverse ? hash64(zone.key(), slot, 0x3A) : zone.key();
  out->ittl = kIttls[hash64(machine, 0x17) % 5];
  out->wscale = kWscales[hash64(machine, 0x2C) % 5];
  out->mss = kMsses[hash64(machine, 0x35) % 4];
  out->wsize = kWsizes[hash64(machine, 0x47) % 5];
  out->options_id = static_cast<std::uint8_t>(hash64(machine, 0x59) % 6);
  if (config.uniformity != UniformityMode::kUniformNoTs) {
    static constexpr std::uint32_t kHz[] = {100, 250, 1000};
    out->has_timestamp = true;
    out->tsval = static_cast<std::uint32_t>(hash64(machine, 0x71)) +
                 kHz[hash64(machine, 0x63) % 3] * static_cast<std::uint32_t>(t);
  }
  unsigned hops = 6 + static_cast<unsigned>(hash64(zone.key(), 0xB0) % 18);
  if (aliased) {
    if (config.proxy_wsize) {
      // A TCP proxy terminates each flow with its own window.
      out->wsize = static_cast<std::uint16_t>(
          14600 + 1460 * (hash64(addr_hash, 0x90) % 8));
    }
    // Path length varies behind ~30 % of aliased prefixes (the raw-TTL
    // inconsistency the iTTL normalization removes).
    if (hash_unit(zone.key(), 0xB1) < 0.3 && (addr_hash & 1) != 0) ++hops;
  } else if (diverse) {
    hops += static_cast<unsigned>(hash64(zone.key(), slot, 0xB2) % 3);
  }
  out->ttl = static_cast<std::uint8_t>(out->ittl - hops);
}

// The day/seq-dependent half of the response predicate: does aliased
// space (keyed by `addr_hash`) or the live honest host `slot` answer
// this particular probe? The caller has already checked the service
// mask, so `zp` is valid.
bool day_responds(const ZoneProbeParams& zp, bool aliased, std::uint32_t slot,
                  std::uint64_t addr_hash, net::Protocol protocol, int day,
                  unsigned seq) {
  if (aliased) {
    if (zp.loss > 0.0 &&
        hash_unit(zp.key, addr_hash,
                  hash64(day, seq, net::index_of(protocol))) < zp.loss) {
      return false;
    }
    if (zp.quic_flaky && protocol == net::Protocol::kUdp443) {
      const double rate = 0.60 + 0.35 * hash_unit(zp.key, 0xF1A, day);
      if (hash_unit(zp.key, addr_hash, 0xF1B + static_cast<unsigned>(day)) >=
          rate) {
        return false;
      }
    }
    return true;
  }
  if (!host_transient_up(zp, slot, day)) return false;
  if (!node_alive(zp, slot, day)) return false;
  if (zp.quic_flaky && protocol == net::Protocol::kUdp443) {
    const double rate = 0.60 + 0.35 * hash_unit(zp.key, 0xF1A, day);
    if (hash_unit(zp.key, slot, 0xF1C + static_cast<unsigned>(day)) >= rate) {
      return false;
    }
  }
  return true;
}

// What the response predicate learned about one address: whether it
// answers, plus what probe() needs to fill the machine image.
struct Answer {
  bool responded = false;
  bool aliased = false;
  std::uint32_t slot = 0;       // live host slot (honest space)
  std::uint64_t addr_hash = 0;  // aliased space only
};

// The response predicate shared by probe() and probe_fanout(): does
// `a`, which lies in `zone` (probe parameters `zp`), answer `protocol`
// at (day, seq)? Runs the carve-out test, slot inversion, service mask
// and the day/seq-dependent loss and availability rolls.
inline Answer answer(const Zone& zone, const ZoneProbeParams& zp,
                     const Address& a, net::Protocol protocol, int day,
                     unsigned seq) {
  Answer out;
  const ZoneConfig& config = zone.config();
  if (aliased_at(config, a)) {
    out.aliased = true;
    out.addr_hash = NetworkSim::alias_hash(a);
    out.responded = net::responds_to(config.machine_service, protocol) &&
                    day_responds(zp, true, 0, out.addr_hash, protocol, day, seq);
    return out;
  }
  const auto slot = zone.slot_of(a, day);
  if (!slot || *slot >= config.host_count) return out;
  out.slot = *slot;
  out.responded = net::responds_to(host_service_mask(zone, *slot), protocol) &&
                  day_responds(zp, false, *slot, 0, protocol, day, seq);
  return out;
}

ZoneProbeParams params_of(const Zone& zone) {
  ZoneProbeParams zp;
  zp.key = zone.key();
  zp.key_head = splitmix64(zp.key ^ util::kHashSeed);
  zp.loss = zone.config().loss;
  zp.quic_flaky = zone.config().quic_flaky;
  zp.nodes = zone.config().kind == ZoneKind::kNodes;
  switch (zone.config().kind) {
    case ZoneKind::kNodes: zp.stability = 0.90; break;
    case ZoneKind::kIspCpe: zp.stability = 0.90; break;
    case ZoneKind::kAtlasProbe: zp.stability = 0.97; break;
    default: zp.stability = 0.98; break;
  }
  return zp;
}

// The fan-out lane kernels below are answer() re-expressed for the 16
// addresses of one prefix inside one zone, with the per-prefix work
// hoisted out of the lanes. Each returns the responder count.

// Zones nested below the prefix: each lane takes the longest nested
// zone that contains it, or else the zone covering the whole prefix.
// The nested range is found once per prefix and is short: walk
// candidates hold at most 6 nested zones (934 candidates at scale 0.3,
// cold day 200; 3,031 at scale 3, cold day 270; seed 1), so the lanes
// test containment against it instead of probing the zone index.
unsigned fanout_walk(const Universe& universe,
                     const std::vector<ZoneProbeParams>& params,
                     const ipv6::Prefix& prefix, const FanoutDay& fd) {
  std::array<Address, 16> addrs;
  prefix.fanout_addresses(fd.lanes, addrs);
  const auto nested = universe.nested_zones(prefix);
  const Zone* covering = universe.zone_at(prefix.address(), prefix.length());
  unsigned responded = 0;
  for (unsigned n = 0; n < 16; ++n) {
    // The nested zones holding a lane come shortest first, so the last
    // one is the lane's zone.
    const Zone* zone = covering;
    for (const Universe::ZoneEntry& e : nested) {
      if (e.first.contains(addrs[n])) zone = &universe.zones()[e.second];
    }
    if (zone == nullptr) continue;
    responded += answer(*zone, params[zone_index(universe, *zone)], addrs[n],
                        fd.protocol, fd.day, n)
                     .responded;
  }
  return responded;
}

// Aliased zone: answer()'s aliased branch. A lossless zone with no
// carve-out under the prefix and no QUIC roll answers every lane, so
// no address is generated; otherwise each lane takes the carve-out
// test and the loss and QUIC rolls, with hash64(key, ...)'s first
// round hoisted per zone (key_head) and hash64(day, n, protocol) per
// day (loss_salt).
unsigned fanout_aliased(const ZoneConfig& config, const ZoneProbeParams& zp,
                        const ipv6::Prefix& prefix, const FanoutDay& fd) {
  const bool lossy = zp.loss > 0.0;
  const bool quic = zp.quic_flaky && fd.protocol == net::Protocol::kUdp443;
  const ipv6::Prefix* carveout = nullptr;
  if (config.carveout && (config.carveout->contains(prefix) ||
                          prefix.contains(*config.carveout))) {
    carveout = &*config.carveout;
  }
  if (!lossy && !quic && carveout == nullptr) return 16;
  std::array<Address, 16> addrs;
  prefix.fanout_addresses(fd.lanes, addrs);
  const double rate = quic ? 0.60 + 0.35 * hash_unit(zp.key, 0xF1A, fd.day) : 0;
  const std::uint64_t quic_salt = 0xF1B + static_cast<unsigned>(fd.day);
  unsigned responded = 0;
  for (unsigned n = 0; n < 16; ++n) {
    const Address& a = addrs[n];
    // A carve-out member takes answer()'s honest branch, where an
    // aliased zone never inverts a slot: silent.
    if (carveout != nullptr && carveout->contains(a)) continue;
    const std::uint64_t keyed = splitmix64(zp.key_head ^ NetworkSim::alias_hash(a));
    if (lossy && util::to_unit(splitmix64(keyed ^ fd.loss_salt[n])) < zp.loss) {
      continue;
    }
    if (quic && util::to_unit(splitmix64(keyed ^ quic_salt)) >= rate) continue;
    ++responded;
  }
  return responded;
}

// The Feistel inverse of each lane's IID under one epoch's rounds.
// The rounds and IIDs are local copies, so the compiler sees that no
// store can alias them and vectorizes the loop at full width without
// a runtime overlap check.
V6H_LANE_CLONES
void invert_lanes(util::FeistelRounds rounds,
                  const std::array<Address, 16>& addrs,
                  std::array<std::uint64_t, 16>& slots) {
  std::uint64_t iid[16];
  for (std::size_t n = 0; n < 16; ++n) iid[n] = addrs[n].lo;
  for (std::size_t n = 0; n < 16; ++n) iid[n] = rounds.decrypt(iid[n]);
  for (std::size_t n = 0; n < 16; ++n) slots[n] = iid[n];
}

// Honest zone. slot_of() rejects a kRandom IID whose Feistel inverse
// is at or beyond the discoverable pool — for random fan-out IIDs,
// practically every lane — so the epoch's rounds are keyed once per
// prefix and only a lane that inverts into the pool runs answer().
// Counter schemes reject most IIDs with a range test, so their lanes
// run answer() directly.
unsigned fanout_honest(const Zone& zone, const ZoneProbeParams& zp,
                       const ipv6::Prefix& prefix, const FanoutDay& fd) {
  std::array<Address, 16> addrs;
  prefix.fanout_addresses(fd.lanes, addrs);
  unsigned responded = 0;
  if (zone.config().scheme == AddressingScheme::kRandom) {
    std::array<std::uint64_t, 16> slots;
    invert_lanes(zone.iid_rounds(fd.day), addrs, slots);
    for (unsigned n = 0; n < 16; ++n) {
      if (slots[n] >= zone.config().discoverable) continue;
      responded += answer(zone, zp, addrs[n], fd.protocol, fd.day, n).responded;
    }
    return responded;
  }
  for (unsigned n = 0; n < 16; ++n) {
    responded += answer(zone, zp, addrs[n], fd.protocol, fd.day, n).responded;
  }
  return responded;
}

}  // namespace

FanoutDay::FanoutDay(const std::array<std::uint64_t, 16>& seeds, int day,
                     net::Protocol protocol)
    : lanes(seeds), day(day), protocol(protocol) {
  for (unsigned n = 0; n < 16; ++n) {
    loss_salt[n] = hash64(day, n, net::index_of(protocol));
  }
}

NetworkSim::NetworkSim(const Universe& universe) : universe_(&universe) {
  zone_params_.reserve(universe.zones().size());
  zone_kernel_.reserve(universe.zones().size());
  for (const auto& zone : universe.zones()) {
    const ZoneProbeParams zp = params_of(zone);
    zone_params_.push_back(zp);
    ZoneKernelParams kp;
    kp.key = zp.key;
    kp.loss_t = unit_threshold(zp.loss);
    kp.stab_t = unit_threshold(zp.stability);
    kp.nodes = zp.nodes ? 1 : 0;
    kp.quic_flaky = zp.quic_flaky ? 1 : 0;
    zone_kernel_.push_back(kp);
  }
}

ResolvedTarget NetworkSim::resolve(const Address& a, int day) const {
  ResolvedTarget r;
  const Zone* zone = universe_->zone_at(a);
  if (zone == nullptr) return r;  // unrouted: service_mask 0, never answers
  r.zone = zone_index(*universe_, *zone);
  if (aliased_at(zone->config(), a)) {
    r.flags |= ResolvedTarget::kAliased;
    r.service_mask = zone->config().machine_service;
    return r;
  }

  // Honest space: carve-out members fall through here too, and die on
  // slot_of (aliased zones never invert) exactly like probe() does.
  r.epoch = zone->epoch(day);
  const auto slot = zone->slot_of(a, day);
  if (!slot || *slot >= zone->config().host_count) return r;  // dead address
  r.slot = *slot;
  r.service_mask = host_service_mask(*zone, *slot);
  return r;
}

ProbeResult NetworkSim::probe(const Address& a, net::Protocol protocol, int day,
                              unsigned seq) {
  // The per-address path: re-derive everything per call, filling the
  // machine image only after the probe is known to answer. answer()
  // is shared with probe_fanout(), and resolve() caches the same
  // address-only tests, so the paths cannot drift apart. All
  // probes_sent_ updates are relaxed: pure count, no data published
  // through it (invariant at the declaration).
  probes_sent_.fetch_add(1, std::memory_order_relaxed);
  ProbeResult out;
  const Zone* zone = universe_->zone_at(a);
  if (zone == nullptr) return out;
  const Answer hit = answer(*zone, zone_params_[zone_index(*universe_, *zone)],
                            a, protocol, day, seq);
  if (!hit.responded) return out;
  out.responded = true;
  fill_image(*zone, hit.aliased, hit.slot, hit.addr_hash, probe_time(day, seq),
             &out);
  return out;
}

std::int32_t NetworkSim::resolve_fanout(const ipv6::Prefix& prefix) const {
  if (!universe_->nested_zones(prefix).empty()) return kFanoutWalk;
  // With no zone nested below, one zone holds every address under it.
  const Zone* zone = universe_->zone_at(prefix.address(), prefix.length());
  return zone == nullptr
             ? kFanoutNoZone
             : static_cast<std::int32_t>(zone_index(*universe_, *zone));
}

unsigned NetworkSim::probe_fanout(const ipv6::Prefix& prefix,
                                  std::int32_t zone, const FanoutDay& day) {
  probes_sent_.fetch_add(16, std::memory_order_relaxed);
  if (zone == kFanoutNoZone) return 0;
  if (zone == kFanoutWalk) return fanout_walk(*universe_, zone_params_, prefix, day);
  const auto z = static_cast<std::size_t>(zone);
  const Zone& resolved = universe_->zones()[z];
  // A host serves a subset of its zone's machine services.
  if (!net::responds_to(resolved.config().machine_service, day.protocol)) {
    return 0;
  }
  return resolved.aliased()
             ? fanout_aliased(resolved.config(), zone_params_[z], prefix, day)
             : fanout_honest(resolved, zone_params_[z], prefix, day);
}

void NetworkSim::probe_resolved_mask(const ResolvedColumns& t,
                                     const std::uint32_t* rows,
                                     std::size_t count, net::Protocol protocol,
                                     int day, unsigned seq,
                                     net::ProtocolMask* masks) {
  probes_sent_.fetch_add(count, std::memory_order_relaxed);
  probe_mask_branchless(t, zone_kernel_.data(), rows, count, protocol, day, seq,
                        masks);
}

}  // namespace v6h::netsim
