// ipv6::PrefixIndex: longest-prefix matching, capped queries, repeated
// prefixes, value-type copies, and agreement with a brute-force scan.

#include "ipv6/prefix.h"
#include "ipv6/prefix_index.h"
#include "test_main.h"
#include "util/rng.h"

using namespace v6h;
using ipv6::Address;
using ipv6::Prefix;
using ipv6::PrefixIndex;

static void run_tests() {
  const PrefixIndex<int> none;
  CHECK(none.longest_match(ipv6::must_parse("2001:db8::1")) == nullptr);

  const PrefixIndex<int> index({
      {ipv6::must_parse_prefix("2001:db8::/32"), 32},
      {ipv6::must_parse_prefix("2001:db8:1::/48"), 48},
      {ipv6::must_parse_prefix("2001:db8:1:2::/64"), 64},
      {ipv6::must_parse_prefix("::/0"), 0},
  });

  // Most specific wins.
  const int* m = index.longest_match(ipv6::must_parse("2001:db8:1:2::99"));
  CHECK(m != nullptr && *m == 64);
  m = index.longest_match(ipv6::must_parse("2001:db8:1:3::99"));
  CHECK(m != nullptr && *m == 48);
  m = index.longest_match(ipv6::must_parse("2001:db8:ffff::1"));
  CHECK(m != nullptr && *m == 32);
  m = index.longest_match(ipv6::must_parse("2002::1"));
  CHECK(m != nullptr && *m == 0);  // default route

  // A capped query ignores everything longer than the cap, including
  // a cap at a length no stored prefix has.
  m = index.longest_match(ipv6::must_parse("2001:db8:1:2::99"), 48);
  CHECK(m != nullptr && *m == 48);
  m = index.longest_match(ipv6::must_parse("2001:db8:1:2::99"), 47);
  CHECK(m != nullptr && *m == 32);
  m = index.longest_match(ipv6::must_parse("2001:db8:1:2::99"), 0);
  CHECK(m != nullptr && *m == 0);

  // A repeated prefix keeps its last value.
  const PrefixIndex<int> repeated({
      {ipv6::must_parse_prefix("2001:db8:1::/48"), 1},
      {ipv6::must_parse_prefix("2001:db8:1:2::/64"), 2},
      {ipv6::must_parse_prefix("2001:db8:1::/48"), 3},
  });
  m = repeated.longest_match(ipv6::must_parse("2001:db8:1:3::99"));
  CHECK(m != nullptr && *m == 3);

  // Without a default route, a miss is a miss; /128 host routes behave.
  const PrefixIndex<int> sparse({
      {ipv6::must_parse_prefix("2620:0:2d0::/48"), 1},
      {Prefix(ipv6::must_parse("2620:0:2d0::5"), 128), 2},
  });
  CHECK(sparse.longest_match(ipv6::must_parse("2001::1")) == nullptr);
  m = sparse.longest_match(ipv6::must_parse("2620:0:2d0::5"));
  CHECK(m != nullptr && *m == 2);
  m = sparse.longest_match(ipv6::must_parse("2620:0:2d0::6"));
  CHECK(m != nullptr && *m == 1);

  // Copies are independent values.
  const PrefixIndex<int> copy = sparse;
  m = copy.longest_match(ipv6::must_parse("2620:0:2d0::5"));
  CHECK(m != nullptr && *m == 2 && m != sparse.longest_match(
                                            ipv6::must_parse("2620:0:2d0::5")));

  // Randomized agreement with a brute-force scan.
  util::Rng rng(99);
  std::vector<std::pair<Prefix, int>> inserted;
  for (int i = 0; i < 500; ++i) {
    const Address a = Address::from_u64(0x2000000000000000ULL | (rng.next_u64() >> 4),
                                        rng.next_u64());
    const auto length = static_cast<std::uint8_t>(16 + rng.uniform(97));
    inserted.emplace_back(Prefix(a, length), i);
  }
  const PrefixIndex<int> fuzz(inserted);
  for (int i = 0; i < 500; ++i) {
    const Address probe = Address::from_u64(
        0x2000000000000000ULL | (rng.next_u64() >> 4), rng.next_u64());
    int best_len = -1, best_value = -1;
    for (const auto& [p, value] : inserted) {
      if (p.contains(probe) && static_cast<int>(p.length()) >= best_len) {
        // Later entries win ties (last value wins).
        if (static_cast<int>(p.length()) > best_len || value > best_value) {
          best_value = value;
        }
        best_len = p.length();
      }
    }
    const int* found = fuzz.longest_match(probe);
    if (best_len < 0) {
      CHECK(found == nullptr);
    } else {
      CHECK(found != nullptr && *found == best_value);
    }
  }
}

TEST_MAIN()
