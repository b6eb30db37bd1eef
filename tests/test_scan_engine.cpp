// The resolved-probe contract (ISSUE 4): probing through a cached
// resolution must answer like NetworkSim::probe for every kind of
// address the universe can produce — aliased space, carve-out
// islands, honest hosts, dead discoverable addresses, rotating
// privacy addresses across epoch boundaries, and unrouted space — for
// all protocols, several days, and several seq values, including a
// table refreshed day by day across rotation epochs. probe()'s full
// ProbeResult (the machine image only it reports) is pinned by a
// golden digest. Also covers the ScanEngine address-scan against a
// per-address probe() loop, the ProbeSchedule budget/retry scenarios,
// and the NetworkSim fan-out kernel (resolve_fanout + probe_fanout,
// plus the standalone AliasDetector::probe_prefix built on it)
// against a probe() loop over every class of APD candidate prefix and
// every branch of the kernel.

#include <algorithm>
#include <array>
#include <cstdio>
#include <vector>

#include "apd/apd.h"
#include "engine/engine.h"
#include "netsim/network_sim.h"
#include "netsim/universe.h"
#include "scan/probe_schedule.h"
#include "scan/resolved_table.h"
#include "scan/scan_engine.h"
#include "test_main.h"
#include "util/rng.h"

using namespace v6h;

namespace {

// Addresses exercising every resolution class, built per day so
// rotating zones contribute their current canonical addresses as well
// as yesterday's (now stale) ones.
std::vector<ipv6::Address> probe_targets(const netsim::Universe& universe,
                                         int day) {
  std::vector<ipv6::Address> out;
  util::Rng rng(0xbeef + static_cast<unsigned>(day));
  for (std::size_t z = 0; z < universe.zones().size(); z += 7) {
    const auto& zone = universe.zones()[z];
    const auto pool = zone.discoverable_count();
    // Live, dead-but-discoverable, and day-stale addresses.
    out.push_back(zone.discoverable_address(0, day));
    out.push_back(zone.discoverable_address(pool - 1, day));
    out.push_back(zone.discoverable_address(
        static_cast<std::uint32_t>(rng.uniform(pool)), day));
    if (zone.config().lifetime_days > 0) {
      out.push_back(zone.discoverable_address(0, day + zone.config().lifetime_days));
    }
    // Random (usually non-canonical) addresses inside the zone, and
    // APD-style fan-out probes of its prefix.
    out.push_back(zone.prefix().random_address(rng.next_u64()));
    out.push_back(zone.prefix().fanout_address(
        static_cast<unsigned>(z & 0xf), rng.next_u64()));
    if (zone.config().carveout) {
      out.push_back(zone.config().carveout->random_address(rng.next_u64()));
    }
  }
  for (int i = 0; i < 64; ++i) {
    // Unrouted space (the universe announces under 2001:xxxx::/32).
    out.push_back(ipv6::Address::from_u64(0xfd00000000000000ULL + rng.next_u64(),
                                          rng.next_u64()));
  }
  return out;
}

// The universe of the probe, refresh and digest checks.
netsim::UniverseParams probe_universe_params() {
  netsim::UniverseParams params;
  params.seed = 7;
  params.scale = 0.05;
  params.tail_as_count = 200;
  return params;
}

// (row, protocol) pairs of `table` whose mask bit differs from
// probe().responded at (day, seq), sweeping every row per protocol
// through the scan kernel the way ScanEngine does.
std::size_t mask_mismatches(netsim::NetworkSim& sim,
                            const scan::ResolvedTargetTable& table,
                            const std::vector<ipv6::Address>& targets, int day,
                            unsigned seq) {
  std::vector<std::uint32_t> rows(targets.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i] = static_cast<std::uint32_t>(i);
  }
  // The mask sweep scatters by row id, so the output buffer is
  // row-indexed like a ScanFrame's mask column.
  std::vector<net::ProtocolMask> masks(targets.size(), 0);
  const auto cols = table.columns();
  for (const auto protocol : net::kAllProtocols) {
    sim.probe_resolved_mask(cols, rows.data(), rows.size(), protocol, day, seq,
                            masks.data());
  }
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    for (const auto protocol : net::kAllProtocols) {
      mismatches += net::responds_to(masks[i], protocol) !=
                    sim.probe(targets[i], protocol, day, seq).responded;
    }
  }
  return mismatches;
}

// Rows where two tables over the same addresses disagree in any
// column the scan kernel reads (an aliased row's slot indexes the
// hash side table, which both tables fill in row order).
std::size_t column_mismatches(const scan::ResolvedTargetTable& a,
                              const scan::ResolvedTargetTable& b) {
  if (a.size() != b.size() || a.aliased_rows() != b.aliased_rows()) {
    return a.size() + b.size() + 1;
  }
  const auto x = a.columns();
  const auto y = b.columns();
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    mismatches += x.zone[i] != y.zone[i] || x.slot[i] != y.slot[i] ||
                  x.flags[i] != y.flags[i] ||
                  x.service_mask[i] != y.service_mask[i];
  }
  for (std::size_t k = 0; k < a.aliased_rows(); ++k) {
    mismatches += x.alias_hash[k] != y.alias_hash[k];
  }
  return mismatches;
}

void run_probe_equivalence() {
  const netsim::Universe universe(probe_universe_params());
  netsim::NetworkSim sim(universe);

  std::size_t rotating_seen = 0;
  std::size_t mismatches = 0;
  // Days spaced to cross rotation epochs (ISP zones rotate every
  // 25..55 days with phases up to 60).
  for (const int day : {0, 13, 61, 200}) {
    const auto targets = probe_targets(universe, day);
    scan::ResolvedTargetTable table(sim);
    table.extend(targets.data(), targets.size(), day);
    rotating_seen += table.rotating_rows();
    for (const unsigned seq : {0u, 3u}) {
      mismatches += mask_mismatches(sim, table, targets, day, seq);
    }
  }
  CHECK_EQ(mismatches, 0u);
  CHECK(rotating_seen > 0);  // the sweep must cover rotating zones
}

// A table extended once and then refreshed every day must hold the
// same columns as a table freshly resolved that day, and answer like
// probe(), through several rotation epochs of every rotating zone.
// The addresses are the day-0 and day-60 targets, so rows go stale,
// come alive and go stale again as their zones rotate.
void run_refresh_equivalence() {
  const netsim::Universe universe(probe_universe_params());
  netsim::NetworkSim sim(universe);
  auto targets = probe_targets(universe, 0);
  const auto later = probe_targets(universe, 60);
  targets.insert(targets.end(), later.begin(), later.end());

  engine::EngineOptions engine_options;
  engine_options.threads = 4;
  engine::Engine eng(engine_options);
  for (engine::Engine* engine : {static_cast<engine::Engine*>(nullptr), &eng}) {
    scan::ResolvedTargetTable table(sim);
    table.extend(targets.data(), targets.size(), 0, engine);
    CHECK(table.rotating_rows() > 0);
    std::vector<std::uint8_t> previous(table.columns().service_mask,
                                       table.columns().service_mask + table.size());
    std::size_t stale = 0;
    std::size_t wrong_masks = 0;
    int change_days = 0;
    for (int day = 1; day <= 150; ++day) {
      table.refresh(targets.data(), day, engine);
      scan::ResolvedTargetTable fresh(sim);
      fresh.extend(targets.data(), targets.size(), day);
      stale += column_mismatches(table, fresh);
      wrong_masks += mask_mismatches(sim, table, targets, day, 0);
      const std::uint8_t* masks = table.columns().service_mask;
      change_days += !std::equal(previous.begin(), previous.end(), masks);
      previous.assign(masks, masks + table.size());
    }
    CHECK_EQ(stale, 0u);
    CHECK_EQ(wrong_masks, 0u);
    // The sweep must see rows change on many days: one epoch crossing
    // per rotating zone would already give a handful.
    CHECK(change_days >= 4);
  }
}

// FNV-style fold of every ProbeResult field probe() reports over the
// targets of probe_universe_params(), all protocols, seq {0, 3} and
// days {0, 13, 61, 200}. Pins the machine image (TTL, iTTL, wscale,
// MSS, window, options class, timestamp clock), which only probe()
// computes. Recorded while probe() was still checked field by field
// against an independently cached copy of every image.
constexpr std::uint64_t kProbeImageDigest = 0x402733501e4ce478ULL;

void run_probe_image_digest() {
  const netsim::Universe universe(probe_universe_params());
  netsim::NetworkSim sim(universe);
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::size_t responded = 0;
  std::size_t timestamped = 0;
  for (const int day : {0, 13, 61, 200}) {
    for (const auto& a : probe_targets(universe, day)) {
      for (const auto protocol : net::kAllProtocols) {
        for (const unsigned seq : {0u, 3u}) {
          const auto r = sim.probe(a, protocol, day, seq);
          responded += r.responded;
          timestamped += r.has_timestamp;
          const std::uint64_t fields[] = {
              r.responded, r.ttl, r.ittl, r.wscale, r.mss, r.wsize,
              r.options_id, r.has_timestamp, r.tsval};
          for (const std::uint64_t field : fields) {
            digest = (digest ^ field) * 0x100000001b3ULL;
          }
        }
      }
    }
  }
  CHECK(responded > 0);
  CHECK(timestamped > 0 && timestamped < responded);
  CHECK_EQ(digest, kProbeImageDigest);
  if (digest != kProbeImageDigest) {
    std::fprintf(stderr, "probe() image digest 0x%016llx\n",
                 static_cast<unsigned long long>(digest));
  }
}

void run_scan_equivalence(const std::vector<unsigned>& thread_counts) {
  netsim::UniverseParams params;
  params.seed = 11;
  params.scale = 0.05;
  params.tail_as_count = 200;
  const netsim::Universe universe(params);
  const int day = 42;
  std::vector<ipv6::Address> targets = probe_targets(universe, day);

  // Baseline: every target x protocol through the per-address path.
  netsim::NetworkSim reference_sim(universe);
  std::vector<net::ProtocolMask> baseline(targets.size(), 0);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    for (const auto protocol : net::kAllProtocols) {
      if (reference_sim.probe(targets[i], protocol, day, 0).responded) {
        baseline[i] |= net::mask_of(protocol);
      }
    }
  }
  std::size_t baseline_any = 0;
  std::array<std::size_t, net::kProtocolCount> baseline_count{};
  for (const auto mask : baseline) {
    baseline_any += mask != 0;
    for (const auto protocol : net::kAllProtocols) {
      baseline_count[net::index_of(protocol)] += net::responds_to(mask, protocol);
    }
  }
  CHECK(baseline_any > 0);

  for (const unsigned threads : thread_counts) {
    engine::EngineOptions engine_options;
    engine_options.threads = threads;
    engine::Engine eng(engine_options);
    netsim::NetworkSim sim(universe);
    scan::ScanEngine scan_engine(sim, &eng);
    scan::ScanFrame frame;
    scan_engine.scan_addresses(targets, day, {}, &frame);
    CHECK_EQ(frame.rows().size(), targets.size());
    std::size_t diff = 0;
    for (std::size_t k = 0; k < frame.rows().size(); ++k) {
      const std::uint32_t row = frame.rows()[k];
      diff += row != k;
      diff += frame.address_of_row(row) != targets[k];
      diff += frame.mask_of_row(row) != baseline[k];
    }
    CHECK_EQ(diff, 0u);
    CHECK_EQ(frame.responsive_any_count(), baseline_any);
    for (const auto protocol : net::kAllProtocols) {
      CHECK_EQ(frame.responsive_count(protocol),
               baseline_count[net::index_of(protocol)]);
    }
    CHECK_EQ(sim.probes_sent(), reference_sim.probes_sent());
  }
}

void run_schedule_scenarios() {
  netsim::UniverseParams params;
  params.seed = 5;
  params.scale = 0.05;
  params.tail_as_count = 150;
  const netsim::Universe universe(params);
  const int day = 9;
  const auto targets = probe_targets(universe, day);

  // Budget: worst-case admission probes exactly the affordable prefix.
  {
    netsim::NetworkSim sim(universe);
    scan::ScanEngine engine(sim);
    scan::ProbeSchedule schedule;
    schedule.daily_probe_budget = 40 * schedule.probes_per_target() + 3;
    scan::ScanFrame frame;
    engine.scan_addresses(targets, day, schedule, &frame);
    CHECK_EQ(frame.rows().size(), 40u);
    CHECK_EQ(frame.row_count(), targets.size());
    CHECK(sim.probes_sent() <= schedule.daily_probe_budget);
    CHECK_EQ(schedule.admitted_targets(10), 10u);
    scan::ProbeSchedule unlimited;
    CHECK_EQ(unlimited.admitted_targets(123), 123u);
  }

  // Retries can only add responders, and both interleaves agree. The
  // same frame is refilled across the three scans (the reuse the day
  // loop depends on).
  {
    netsim::NetworkSim sim(universe);
    scan::ScanEngine engine(sim);
    scan::ProbeSchedule plain;
    scan::ScanFrame frame;
    auto masks_of = [](const scan::ScanFrame& f) {
      return std::vector<net::ProtocolMask>(f.masks(), f.masks() + f.row_count());
    };
    engine.scan_addresses(targets, day, plain, &frame);
    const auto base = masks_of(frame);
    const std::size_t base_any = frame.responsive_any_count();
    scan::ProbeSchedule retrying;
    retrying.retries = 2;
    engine.scan_addresses(targets, day, retrying, &frame);
    const auto retried = masks_of(frame);
    CHECK(frame.responsive_any_count() >= base_any);
    scan::ProbeSchedule target_major = retrying;
    target_major.interleave = scan::ProbeSchedule::Interleave::kTargetMajor;
    engine.scan_addresses(targets, day, target_major, &frame);
    const auto by_target = masks_of(frame);
    std::size_t lost = 0;
    std::size_t interleave_diff = 0;
    for (std::size_t i = 0; i < targets.size(); ++i) {
      lost += (base[i] & ~retried[i]) != 0;
      interleave_diff += retried[i] != by_target[i];
    }
    CHECK_EQ(lost, 0u);
    CHECK_EQ(interleave_diff, 0u);
  }

  // Protocol names round-trip; unknown names are rejected.
  for (const auto protocol : net::kAllProtocols) {
    const auto parsed =
        scan::protocol_from_name(scan::protocol_flag_name(protocol));
    CHECK(parsed.has_value() && *parsed == protocol);
  }
  CHECK(!scan::protocol_from_name("tpc80").has_value());
  CHECK(!scan::protocol_from_name("").has_value());
  CHECK_EQ(scan::protocols_to_string({net::Protocol::kIcmp,
                                      net::Protocol::kUdp443}),
           std::string("icmp,udp443"));
}

// Addresses worth probing inside `p`: live, dead and rotated-away
// host addresses, carve-out members and random addresses of every
// zone overlapping `p`. Fan-out addresses almost never hit a live
// honest host, so prefixes built around these are what reaches the
// kernel's rare lanes.
std::vector<ipv6::Address> addresses_under(const netsim::Universe& universe,
                                           const ipv6::Prefix& p, int day,
                                           util::Rng& rng) {
  std::vector<ipv6::Address> out;
  for (const auto& zone : universe.zones()) {
    if (!p.contains(zone.prefix()) && !zone.prefix().contains(p)) continue;
    const auto pool = zone.discoverable_count();
    const ipv6::Address candidates[] = {
        zone.discoverable_address(0, day),
        zone.discoverable_address(1 % pool, day),
        zone.discoverable_address(pool - 1, day),
        zone.discoverable_address(0, day + 60),
        zone.prefix().random_address(rng.next_u64()),
        zone.config().carveout
            ? zone.config().carveout->random_address(rng.next_u64())
            : p.random_address(rng.next_u64())};
    for (const auto& a : candidates) {
      if (p.contains(a)) out.push_back(a);
    }
  }
  return out;
}

// The APD fan-out seeds of `day` (AliasDetector's salts).
std::array<std::uint64_t, 16> fanout_seeds(int day) {
  std::array<std::uint64_t, 16> seeds;
  for (unsigned n = 0; n < 16; ++n) {
    seeds[n] = ipv6::Prefix::fanout_seed(n, util::hash64(day, n, 0xA9D));
  }
  return seeds;
}

// The probe_fanout branch a resolved prefix takes under `protocol`.
enum FanoutClass {
  kNoZone,
  kWalk,
  kAliasedLossless,
  kAliasedLossy,
  kAliasedCarveout,
  kAliasedQuic,
  kLowCounter,
  kWideCounter,
  kEui64,
  kRandom,
  kStructured,
  kNodes,
  kRotating,
  kClassCount
};

constexpr const char* kClassNames[kClassCount] = {
    "no zone",
    "walk",
    "aliased lossless",
    "aliased lossy",
    "aliased carve-out",
    "aliased quic",
    "low counter",
    "wide counter",
    "eui64",
    "random",
    "structured",
    "nodes",
    "rotating",
};

FanoutClass fanout_class(const netsim::Universe& universe, std::int32_t zone,
                         const ipv6::Prefix& p, net::Protocol protocol) {
  if (zone == netsim::NetworkSim::kFanoutNoZone) return kNoZone;
  if (zone == netsim::NetworkSim::kFanoutWalk) return kWalk;
  const auto& config = universe.zones()[static_cast<std::size_t>(zone)].config();
  if (config.aliased) {
    if (config.carveout &&
        (config.carveout->contains(p) || p.contains(*config.carveout))) {
      return kAliasedCarveout;
    }
    if (config.quic_flaky && protocol == net::Protocol::kUdp443) {
      return kAliasedQuic;
    }
    return config.loss > 0.0 ? kAliasedLossy : kAliasedLossless;
  }
  if (config.kind == netsim::ZoneKind::kNodes) return kNodes;
  if (config.lifetime_days > 0) return kRotating;
  return static_cast<FanoutClass>(kLowCounter +
                                  static_cast<int>(config.scheme));
}

void run_fanout_equivalence() {
  netsim::UniverseParams params;
  params.seed = 3;
  params.scale = 0.1;
  params.tail_as_count = 400;
  const netsim::Universe universe(params);
  netsim::NetworkSim sim(universe);
  netsim::NetworkSim reference(universe);

  // APD candidates of every class: each zone's own prefix and its
  // announced prefix (the /32 AS bases, with /48 zones and deep
  // /96../120 aliased pockets beneath), the /64, /96 and /112 of a
  // live address, every carve-out /64, and unrouted space.
  std::vector<ipv6::Prefix> prefixes;
  std::size_t lossy = 0, quic = 0, nodes = 0, carveouts = 0, deep_bases = 0;
  std::array<std::size_t, 5> schemes{};
  for (const auto& zone : universe.zones()) {
    const auto& config = zone.config();
    prefixes.push_back(zone.prefix());
    const auto* announcement = universe.bgp().lookup(zone.prefix().address());
    if (announcement != nullptr && announcement->prefix != zone.prefix()) {
      prefixes.push_back(announcement->prefix);
      deep_bases += zone.prefix().length() >= 96;
    }
    const ipv6::Address live = zone.discoverable_address(0, 0);
    for (const std::uint8_t level : {64, 96, 112}) {
      if (level > zone.prefix().length()) {
        prefixes.emplace_back(live, level);
      }
    }
    if (config.carveout) {
      prefixes.push_back(*config.carveout);
      ++carveouts;
    }
    lossy += config.aliased && config.loss > 0.0;
    quic += config.aliased && config.quic_flaky;
    nodes += config.kind == netsim::ZoneKind::kNodes;
    if (!config.aliased) ++schemes[static_cast<std::size_t>(config.scheme)];
  }
  prefixes.push_back(ipv6::must_parse_prefix("fd00:1234::/48"));
  prefixes.push_back(ipv6::must_parse_prefix("fd00:1234::1/128"));
  CHECK(lossy > 0);
  CHECK(quic > 0);
  CHECK(nodes > 0);
  CHECK(carveouts > 0);
  CHECK(deep_bases > 0);
  for (const auto count : schemes) CHECK(count > 0);

  std::size_t mismatches = 0;
  std::size_t miscounted = 0;
  std::size_t full = 0;
  // Per branch of the kernel: responding and silent lanes seen.
  std::array<std::size_t, kClassCount> answered{};
  std::array<std::size_t, kClassCount> silent{};
  util::Rng rng(0xfa4);
  // Days spaced to cross rotation epochs, as in run_probe_equivalence.
  for (const int day : {0, 13, 61, 200}) {
    // Around known addresses, every length from the /32 walk down to
    // the host: a /124 enumerates all 16 values of its last nybble,
    // and a /128's fan-out is the host itself, 16 times.
    std::vector<ipv6::Prefix> around = prefixes;
    for (std::size_t z = 0; z < universe.zones().size(); z += 2) {
      const auto known =
          addresses_under(universe, universe.zones()[z].prefix(), day, rng);
      for (std::size_t k = 0; k < known.size(); k += 2) {
        for (const std::uint8_t length : {32, 48, 64, 96, 112, 120, 124, 128}) {
          around.emplace_back(known[k], length);
        }
      }
    }
    const auto seeds = fanout_seeds(day);
    for (const auto protocol : net::kAllProtocols) {
      const netsim::FanoutDay fanout(seeds, day, protocol);
      for (const auto& p : around) {
        unsigned expected = 0;
        for (unsigned n = 0; n < 16; ++n) {
          expected += reference
                          .probe(p.fanout_address(n, util::hash64(day, n, 0xA9D)),
                                 protocol, day, n)
                          .responded;
        }
        const std::int32_t zone = sim.resolve_fanout(p);
        const std::uint64_t sent = sim.probes_sent();
        const unsigned got = sim.probe_fanout(p, zone, fanout);
        mismatches += got != expected;
        miscounted += sim.probes_sent() - sent != 16;
        full += got == 16;
        const FanoutClass cls = fanout_class(universe, zone, p, protocol);
        answered[cls] += expected;
        silent[cls] += 16 - expected;
      }
    }
  }
  CHECK_EQ(mismatches, 0u);
  CHECK_EQ(miscounted, 0u);
  CHECK(full > 0);
  // Every branch of the kernel answered and stayed silent at least
  // once — a prefix no zone holds only stays silent.
  CHECK_EQ(answered[kNoZone], 0u);
  for (int c = 0; c < kClassCount; ++c) {
    const bool covered = silent[c] > 0 && (c == kNoZone || answered[c] > 0);
    CHECK(covered);
    if (!covered) {
      std::fprintf(stderr, "  fan-out class %s: %zu answered, %zu silent\n",
                   kClassNames[c], answered[c], silent[c]);
    }
  }

  // The public single-prefix entry point, with no day batch around it,
  // against the per-address loop over the same fan-out addresses.
  std::size_t detector_mismatches = 0;
  for (const auto protocol : net::kAllProtocols) {
    apd::ApdOptions options;
    options.protocol = protocol;
    apd::AliasDetector detector(sim, options);
    for (const int day : {5, 61}) {
      for (const auto& p : prefixes) {
        unsigned expected = 0;
        for (unsigned n = 0; n < 16; ++n) {
          expected += reference
                          .probe(p.fanout_address(n, util::hash64(day, n, 0xA9D)),
                                 protocol, day, n)
                          .responded;
        }
        const std::uint64_t sent = sim.probes_sent();
        const auto outcome = detector.probe_prefix(p, day);
        detector_mismatches += outcome.prefix != p;
        detector_mismatches += outcome.responded != expected;
        detector_mismatches += outcome.aliased != (expected == 16);
        detector_mismatches += sim.probes_sent() - sent != 16;
      }
    }
  }
  CHECK_EQ(detector_mismatches, 0u);

  // Whole batches through run_day_on_prefixes on a detector whose
  // verdict table was never reserved: pass 1 grows the table mid-batch,
  // so the entries it found must be found again. Every on_fanout count
  // still equals the per-address loop, serially and across workers.
  struct CountSink : scan::ResultSink {
    std::vector<unsigned> counts;
    void on_fanout(const ipv6::Prefix&, unsigned responded, bool) override {
      counts.push_back(responded);
    }
  };
  std::vector<ipv6::Prefix> distinct = prefixes;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  for (const unsigned threads : {1u, 4u}) {
    engine::EngineOptions engine_options;
    engine_options.threads = threads;
    engine::Engine eng(engine_options);
    apd::AliasDetector detector(sim, apd::ApdOptions{}, &eng);
    std::size_t batch_mismatches = 0;
    for (const int day : {5, 61}) {
      std::vector<unsigned> expected;
      for (const auto& p : prefixes) {
        unsigned responded = 0;
        for (unsigned n = 0; n < 16; ++n) {
          responded +=
              reference
                  .probe(p.fanout_address(n, util::hash64(day, n, 0xA9D)),
                         net::Protocol::kIcmp, day, n)
                  .responded;
        }
        expected.push_back(responded);
      }
      CountSink sink;
      const auto out = detector.run_day_on_prefixes(prefixes, day, &sink);
      batch_mismatches += sink.counts != expected;
      batch_mismatches += out.probes != 16 * prefixes.size();
    }
    CHECK_EQ(batch_mismatches, 0u);
    CHECK_EQ(detector.tracked_prefixes(), distinct.size());
  }
}

void run_tests(const std::vector<unsigned>& thread_counts) {
  run_probe_equivalence();
  run_refresh_equivalence();
  run_probe_image_digest();
  run_fanout_equivalence();
  run_scan_equivalence(thread_counts);
  run_schedule_scenarios();
}

}  // namespace

int main(int argc, char** argv) {
  run_tests(v6h::test::thread_counts_from_cli(argc, argv, {1, 4}));
  std::printf("%d checks, %d failures\n", v6h::test::checks,
              v6h::test::failures);
  return v6h::test::failures == 0 ? 0 : 1;
}
