// Universe determinism and internal consistency, plus probe-level
// invariants of the simulated wire.

#include <bit>
#include <vector>

#include "hitlist/pipeline.h"
#include "netsim/network_sim.h"
#include "netsim/universe.h"
#include "test_main.h"
#include "util/rng.h"

using namespace v6h;
using netsim::Universe;
using netsim::UniverseParams;

namespace {

// The Feistel permutation in its textbook per-round form, F_r(x) =
// hash64(key, r, x), which util::FeistelRounds factors.
std::uint64_t reference_feistel(std::uint64_t key, std::uint64_t value,
                                bool decrypt) {
  auto a = static_cast<std::uint32_t>(value >> 32);
  auto b = static_cast<std::uint32_t>(value);
  for (int step = 0; step < 4; ++step) {
    const int round = decrypt ? 3 - step : step;
    // Encrypt feeds the right half to F, decrypt the left.
    std::uint32_t& fed = decrypt ? a : b;
    std::uint32_t& mixed = decrypt ? b : a;
    const auto f = static_cast<std::uint32_t>(util::hash64(key, round, fed));
    const std::uint32_t tmp = fed;
    fed = mixed ^ f;
    mixed = tmp;
  }
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

void check_feistel_rounds() {
  util::Rng trials(0xfe15);
  for (int trial = 0; trial < 4000; ++trial) {
    const std::uint64_t seed = trials.next_u64();
    util::Rng draw(seed);
    const std::uint64_t key = draw.next_u64();
    const util::FeistelRounds rounds(key);
    bool ok = true;
    // Full-width values, and host-slot-sized ones as the IID scheme uses.
    for (const std::uint64_t value : {draw.next_u64(), draw.uniform(4096)}) {
      const std::uint64_t encrypted = rounds.encrypt(value);
      ok = ok && encrypted == reference_feistel(key, value, false);
      ok = ok && rounds.decrypt(value) == reference_feistel(key, value, true);
      ok = ok && rounds.decrypt(encrypted) == value;
      ok = ok && util::feistel64_encrypt(key, value) == encrypted;
      ok = ok && util::feistel64_decrypt(key, encrypted) == value;
    }
    CHECK(ok);
    if (!ok) {
      std::fprintf(stderr, "  FeistelRounds: seed %llu\n",
                   static_cast<unsigned long long>(seed));
    }
  }
}

// How many leading bits `a` and `b` share (128 when equal).
unsigned common_length(const ipv6::Address& a, const ipv6::Address& b) {
  if (a.hi != b.hi) return static_cast<unsigned>(std::countl_zero(a.hi ^ b.hi));
  return 64 + static_cast<unsigned>(std::countl_zero(a.lo ^ b.lo));
}

// Index of the longest prefix of length <= max_length in `prefixes`
// that contains `a` (the last one listed among equals), or -1: a
// linear scan.
std::int64_t linear_match(const std::vector<ipv6::Prefix>& prefixes,
                          const ipv6::Address& a, unsigned max_length) {
  std::int64_t best = -1;
  int best_length = -1;
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    const ipv6::Prefix& p = prefixes[i];
    if (p.length() <= max_length && static_cast<int>(p.length()) >= best_length &&
        common_length(a, p.address()) >= p.length()) {
      best = static_cast<std::int64_t>(i);
      best_length = p.length();
    }
  }
  return best;
}

// resolve_fanout(prefix) by linear scan: kFanoutWalk when a zone
// longer than the prefix lies inside it, else the zone covering it.
std::int64_t linear_fanout(const std::vector<ipv6::Prefix>& zones,
                           const ipv6::Prefix& prefix) {
  for (const ipv6::Prefix& z : zones) {
    if (z.length() > prefix.length() &&
        common_length(z.address(), prefix.address()) >= prefix.length()) {
      return netsim::NetworkSim::kFanoutWalk;
    }
  }
  const std::int64_t zone = linear_match(zones, prefix.address(), prefix.length());
  return zone < 0 ? netsim::NetworkSim::kFanoutNoZone : zone;
}

// Universe::zone_at, BgpTable::lookup and NetworkSim::resolve_fanout
// against linear scans over zones() and bgp().announcements(): every
// row of a cold run_day at scale 0.3, random addresses, and
// Prefix(row, L) for the APD and zone lengths.
void check_lookups_against_linear_scan() {
  netsim::UniverseParams params;
  params.scale = 0.3;
  params.seed = 1;
  const Universe universe(params);
  netsim::NetworkSim sim(universe);
  hitlist::Pipeline pipeline(universe, sim, hitlist::PipelineOptions{});
  pipeline.run_day(200);
  std::vector<ipv6::Address> addresses = pipeline.targets();
  CHECK(addresses.size() > 5000);

  std::vector<ipv6::Prefix> zones;
  for (const auto& zone : universe.zones()) zones.push_back(zone.prefix());
  std::vector<ipv6::Prefix> announced;
  for (const auto& a : universe.bgp().announcements()) announced.push_back(a.prefix);

  util::Rng rng(0x1a7e);
  for (int i = 0; i < 2000; ++i) {
    addresses.push_back(ipv6::Address::from_u64(rng.next_u64(), rng.next_u64()));
    const auto& inside = announced[rng.uniform(announced.size())];
    addresses.push_back(inside.random_address(rng.next_u64()));
  }

  std::size_t point_mismatches = 0, fanout_mismatches = 0, walks = 0;
  for (const ipv6::Address& a : addresses) {
    const netsim::Zone* zone = universe.zone_at(a);
    const std::int64_t zone_ref = linear_match(zones, a, 128);
    point_mismatches += zone_ref < 0 ? zone != nullptr
                                     : zone != &universe.zones()[zone_ref];
    const netsim::Announcement* ann = universe.bgp().lookup(a);
    const std::int64_t ann_ref = linear_match(announced, a, 128);
    point_mismatches +=
        ann_ref < 0 ? ann != nullptr
                    : ann != &universe.bgp().announcements()[ann_ref];
    for (const unsigned length : {32u, 48u, 64u, 96u, 112u, 120u, 124u, 128u}) {
      const ipv6::Prefix prefix(a, static_cast<std::uint8_t>(length));
      const std::int64_t ref = linear_fanout(zones, prefix);
      fanout_mismatches += sim.resolve_fanout(prefix) != ref;
      walks += ref == netsim::NetworkSim::kFanoutWalk;
    }
  }
  CHECK_EQ(point_mismatches, 0u);
  CHECK_EQ(fanout_mismatches, 0u);
  CHECK(walks > 0);  // the walk class was exercised
}

}  // namespace

static void run_tests() {
  check_feistel_rounds();
  check_lookups_against_linear_scan();

  UniverseParams params;
  params.scale = 0.05;
  params.tail_as_count = 200;
  const Universe a(params);
  const Universe b(params);

  // Bit-identical construction.
  CHECK_EQ(a.zones().size(), b.zones().size());
  CHECK_EQ(a.bgp().size(), b.bgp().size());
  CHECK(!a.zones().empty());
  CHECK(!a.bgp().announcements().empty());
  bool zones_equal = a.zones().size() == b.zones().size();
  for (std::size_t i = 0; zones_equal && i < a.zones().size(); ++i) {
    zones_equal = a.zones()[i].prefix() == b.zones()[i].prefix() &&
                  a.zones()[i].aliased() == b.zones()[i].aliased() &&
                  a.zones()[i].config().asn == b.zones()[i].config().asn;
  }
  CHECK(zones_equal);
  CHECK_EQ(a.true_aliased_prefixes().size(), b.true_aliased_prefixes().size());
  CHECK(!a.true_aliased_prefixes().empty());

  // A different seed builds a different world.
  UniverseParams other = params;
  other.seed = 43;
  const Universe c(other);
  bool any_difference = a.zones().size() != c.zones().size();
  for (std::size_t i = 0; !any_difference && i < a.zones().size(); ++i) {
    any_difference = !(a.zones()[i].config().host_count ==
                       c.zones()[i].config().host_count);
  }
  CHECK(any_difference);

  // Every zone is routed and resolvable back to itself.
  for (const auto& zone : a.zones()) {
    const auto probe_addr = zone.prefix().random_address(1);
    const auto* found = a.zone_at(probe_addr);
    CHECK(found != nullptr && found->id() == zone.id());
    CHECK(a.bgp().is_routed(probe_addr));
  }

  // Ground truth is consistent with the zone flags.
  for (const auto& prefix : a.true_aliased_prefixes()) {
    const auto inside = prefix.random_address(3);
    const auto* zone = a.zone_at(inside);
    CHECK(zone != nullptr && zone->aliased());
  }

  // Host addresses invert back to their slot, for every scheme.
  for (const auto& zone : a.zones()) {
    if (zone.aliased() || zone.config().host_count == 0) continue;
    const std::uint32_t last = zone.config().host_count - 1;
    for (const std::uint32_t slot : {0u, last}) {
      const auto addr = zone.host_address(slot, 17);
      const auto inverted = zone.slot_of(addr, 17);
      CHECK(inverted && *inverted == slot);
    }
    // A mangled address must not invert.
    auto addr = zone.host_address(0, 17);
    addr.lo ^= 0x5a5a5a5a5a5aULL;
    const auto inverted = zone.slot_of(addr, 17);
    CHECK(!inverted || *inverted != 0);
  }

  // Probing: aliased space answers everywhere, honest zones only on
  // their real hosts; probes are deterministic.
  netsim::NetworkSim sim(a);
  netsim::NetworkSim sim2(a);
  // A lossless aliased zone answers on every address.
  const netsim::Zone* stable_aliased = nullptr;
  for (const auto& zone : a.zones()) {
    if (zone.aliased() && zone.config().loss == 0.0 && !zone.config().carveout) {
      stable_aliased = &zone;
      break;
    }
  }
  CHECK(stable_aliased != nullptr);
  int aliased_answers = 0;
  for (int i = 0; i < 16; ++i) {
    const auto target = stable_aliased->prefix().random_address(i);
    const auto r = sim.probe(target, net::Protocol::kIcmp, 0, 0);
    aliased_answers += r.responded;
    const auto r2 = sim2.probe(target, net::Protocol::kIcmp, 0, 0);
    CHECK_EQ(r.responded, r2.responded);
    CHECK_EQ(r.tsval, r2.tsval);
  }
  CHECK_EQ(aliased_answers, 16);

  std::size_t honest_hits = 0, honest_misses = 0;
  for (const auto& zone : a.zones()) {
    if (zone.aliased() || zone.config().host_count == 0) continue;
    if (sim.probe(zone.host_address(0, 5), net::Protocol::kIcmp, 5, 0).responded) {
      ++honest_hits;
    }
    // An address far beyond the discoverable pool never answers.
    auto ghost = zone.prefix().random_address(0xdead);
    ghost.lo = 0xffffffffffff1234ULL;
    honest_misses += !sim.probe(ghost, net::Protocol::kIcmp, 5, 0).responded;
  }
  CHECK(honest_hits > 0);
  std::size_t honest_zones = 0;
  for (const auto& zone : a.zones()) {
    honest_zones += !zone.aliased() && zone.config().host_count > 0;
  }
  CHECK_EQ(honest_misses, honest_zones);

  CHECK(sim.probes_sent() > 0);
  CHECK_EQ(a.as_name(16509), std::string("Amazon"));
  CHECK_EQ(a.as_name(4), std::string("AS4"));
}

TEST_MAIN()
