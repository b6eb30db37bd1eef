// Address parse/format round-trips, prefix semantics, IID helpers.

#include <array>
#include <cstdio>
#include <string>

#include "ipv6/address.h"
#include "ipv6/iid.h"
#include "ipv6/prefix.h"
#include "test_main.h"
#include "util/rng.h"

using namespace v6h;
using ipv6::Address;
using ipv6::Prefix;

static void run_tests() {
  // Canonical formatting.
  CHECK_EQ(ipv6::must_parse("2001:db8::1").to_string(), std::string("2001:db8::1"));
  CHECK_EQ(ipv6::must_parse("::").to_string(), std::string("::"));
  CHECK_EQ(ipv6::must_parse("::1").to_string(), std::string("::1"));
  CHECK_EQ(ipv6::must_parse("2001:db8::").to_string(), std::string("2001:db8::"));
  CHECK_EQ(ipv6::must_parse("2001:0DB8:0:0:1:0:0:1").to_string(),
           std::string("2001:db8::1:0:0:1"));
  CHECK_EQ(
      ipv6::must_parse("fe80:1:2:3:4:5:6:7").to_string(),
      std::string("fe80:1:2:3:4:5:6:7"));

  // Malformed input.
  CHECK(!Address::parse("2001:db8::1::2"));
  CHECK(!Address::parse("2001:db8"));
  CHECK(!Address::parse("g::1"));
  CHECK(!Address::parse("1:2:3:4:5:6:7:8:9"));
  CHECK(!Address::parse("12345::"));
  CHECK(!Address::parse(":1:2:3:4:5:6:7"));  // lone leading colon
  CHECK(!Address::parse("1:2:3:4:5:6:7:"));  // lone trailing colon
  CHECK(!Address::parse("1:2:3:"));
  CHECK(!Address::parse(":::"));

  // Fuzz round-trip: format then re-parse is the identity.
  util::Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    Address a = Address::from_u64(rng.next_u64(), rng.next_u64());
    // Mix in sparse addresses so "::" compression paths get exercised.
    if (i % 3 == 0) a.hi &= 0xffff000000000000ULL;
    if (i % 4 == 0) a.lo &= 0xffULL;
    const auto reparsed = Address::parse(a.to_string());
    CHECK(reparsed && *reparsed == a);
  }

  // Nybble accessors are consistent with group/bit views.
  const Address a = ipv6::must_parse("2001:db8:407:8000:181c:4fcb:8ca8:7c64");
  CHECK_EQ(a.nybble(0), 2u);
  CHECK_EQ(a.nybble(1), 0u);
  CHECK_EQ(a.nybble(31), 4u);
  CHECK_EQ(a.group(1), 0xdb8);
  CHECK_EQ(a.with_nybble(31, 0xf).nybble(31), 0xfu);

  // Prefix masking and containment.
  const Prefix p = ipv6::must_parse_prefix("2001:db8:407:8000::/50");
  CHECK(p.contains(a));
  CHECK(!p.contains(ipv6::must_parse("2001:db8:407:4000::1")));
  CHECK_EQ(p.to_string(), std::string("2001:db8:407:8000::/50"));
  CHECK(ipv6::must_parse_prefix("2001:db8::/32").contains(p));
  CHECK(!p.contains(ipv6::must_parse_prefix("2001:db8::/32")));

  // fanout_address stays inside and pins the level nybble.
  const Prefix p64 = ipv6::must_parse_prefix("2001:db8:407:8000::/64");
  for (unsigned nybble = 0; nybble < 16; ++nybble) {
    const Address f = p64.fanout_address(nybble, 12345);
    CHECK(p64.contains(f));
    CHECK_EQ(f.nybble(16), nybble);
  }
  // Distinct salts give distinct host bits.
  CHECK(p64.fanout_address(3, 1) != p64.fanout_address(3, 2));

  // random_address is deterministic in the seed and inside the prefix.
  CHECK(p.random_address(9) == p.random_address(9));
  CHECK(p.random_address(9) != p.random_address(10));
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    CHECK(p.contains(p.random_address(seed)));
  }

  // The 16-lane generator equals fanout_address_seeded lane by lane
  // for every length 0..128, on random prefixes and the fan-out seeds
  // of random days.
  util::Rng lane_trials(0x16a);
  for (int trial = 0; trial < 40; ++trial) {
    const std::uint64_t seed = lane_trials.next_u64();
    util::Rng draw(seed);
    const std::uint64_t day = draw.uniform(400);
    std::array<std::uint64_t, 16> seeds;
    for (unsigned n = 0; n < 16; ++n) {
      seeds[n] = Prefix::fanout_seed(n, util::hash64(day, n, 0xA9D));
    }
    const ipv6::FanoutLanes lanes(seeds);
    const Address base = Address::from_u64(draw.next_u64(), draw.next_u64());
    for (unsigned length = 0; length <= 128; ++length) {
      const Prefix prefix(base, static_cast<std::uint8_t>(length));
      std::array<Address, 16> out;
      prefix.fanout_addresses(lanes, out);
      bool same = true;
      for (unsigned n = 0; n < 16; ++n) {
        same = same && out[n] == prefix.fanout_address_seeded(n, seeds[n]);
      }
      CHECK(same);
      if (!same) {
        std::fprintf(stderr, "  fanout_addresses: seed %llu length %u\n",
                     static_cast<unsigned long long>(seed), length);
      }
    }
  }

  // IID helpers.
  CHECK(ipv6::has_eui64_marker(ipv6::must_parse("fe80::0211:22ff:fe33:4455")));
  CHECK(!ipv6::has_eui64_marker(ipv6::must_parse("2001:db8::1")));
  CHECK_EQ(ipv6::iid_hamming_weight(ipv6::must_parse("2001:db8::3")), 2u);
}

TEST_MAIN()
