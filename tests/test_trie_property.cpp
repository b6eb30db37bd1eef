// Randomized property test for ipv6::PrefixIndex: index 10k random
// prefixes drawn with a fixed-seed LCG and check longest_match, plain
// and capped by max_length, against a brute-force linear scan. Edge
// cases: an empty index, /0 and /128, nested chains (/48 ⊃ /96 ⊃
// /112 ⊃ /120), prefixes shorter than ones listed before them,
// repeated prefixes (last value wins), and caps at lengths no stored
// prefix has.

#include <map>
#include <utility>
#include <vector>

#include "ipv6/address.h"
#include "ipv6/prefix.h"
#include "ipv6/prefix_index.h"
#include "test_main.h"

using namespace v6h;
using ipv6::Address;
using ipv6::Prefix;
using ipv6::PrefixIndex;

namespace {

using Entries = std::vector<std::pair<Prefix, int>>;

// Classic 64-bit LCG (MMIX constants), fixed seed: the test is fully
// reproducible without util::Rng so an index bug can't hide behind a
// shared hashing utility.
struct Lcg {
  std::uint64_t state = 0x123456789abcdef0ULL;
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state;
  }
};

// The model: each prefix's last value, as the index keeps it.
std::map<Prefix, int> model_of(const Entries& entries) {
  std::map<Prefix, int> model;
  for (const auto& [prefix, value] : entries) model[prefix] = value;
  return model;
}

// Brute-force reference: the value of the longest prefix of length
// <= max_length containing `a`, scanning every prefix linearly.
const int* brute_force(const std::map<Prefix, int>& model, const Address& a,
                       unsigned max_length) {
  const int* best = nullptr;
  int best_length = -1;
  for (const auto& [prefix, value] : model) {
    if (prefix.length() <= max_length && prefix.contains(a) &&
        static_cast<int>(prefix.length()) > best_length) {
      best_length = prefix.length();
      best = &value;
    }
  }
  return best;
}

void check_against_model(const PrefixIndex<int>& index,
                         const std::map<Prefix, int>& model, const Address& a,
                         unsigned max_length = 128) {
  const int* expected = brute_force(model, a, max_length);
  const int* got = index.longest_match(a, max_length);
  if (expected == nullptr) {
    CHECK(got == nullptr);
  } else {
    CHECK(got != nullptr && *got == *expected);
  }
}

// Every cap from 0 to 128, so caps at absent lengths are covered.
void check_all_caps(const PrefixIndex<int>& index,
                    const std::map<Prefix, int>& model, const Address& a) {
  for (unsigned cap = 0; cap <= 128; ++cap) {
    check_against_model(index, model, a, cap);
  }
}

void check_edge_cases(Lcg& lcg) {
  // --- empty index ---
  {
    const PrefixIndex<int> empty;
    CHECK(empty.longest_match(Address::from_u64(1, 2)) == nullptr);
    CHECK(empty.longest_match(Address{}, 0) == nullptr);
    const PrefixIndex<int> built_empty{Entries{}};
    CHECK(built_empty.longest_match(Address::from_u64(1, 2)) == nullptr);
  }

  // --- /0 and /128 ---
  {
    const Prefix root(Address{}, 0);  // matches every address
    const Address host = Address::from_u64(0xfe80ull << 48, 0x1234);
    const Entries entries{{root, 1}, {Prefix(host, 128), 2}};
    const PrefixIndex<int> index(entries);
    const auto model = model_of(entries);
    const int* on_host = index.longest_match(host);
    CHECK(on_host != nullptr && *on_host == 2);  // /128 beats /0
    const int* capped = index.longest_match(host, 127);
    CHECK(capped != nullptr && *capped == 1);
    const int* elsewhere = index.longest_match(Address::from_u64(1, 1));
    CHECK(elsewhere != nullptr && *elsewhere == 1);
    check_all_caps(index, model, host);
    // An address one bit off the /128 falls back to the /0.
    Address off = host;
    off.lo ^= 1;
    check_all_caps(index, model, off);
  }

  // --- a nested chain /48 ⊃ /96 ⊃ /112 ⊃ /120, listed both ways ---
  {
    const Address base =
        Address::from_u64(0x20010db800070000ULL, 0x12345678abcdef00ULL);
    Entries chain;
    int value = 0;
    for (const unsigned length : {48u, 96u, 112u, 120u}) {
      chain.emplace_back(Prefix(base, static_cast<std::uint8_t>(length)), ++value);
    }
    // A sibling /48 with nothing beneath it.
    const Address sibling = Address::from_u64(0x20010db800080000ULL, 0);
    chain.emplace_back(Prefix(sibling, 48), ++value);
    Entries reversed(chain.rbegin(), chain.rend());
    for (const Entries* entries : {&chain, &reversed}) {
      const PrefixIndex<int> index(*entries);
      const auto model = model_of(*entries);
      for (const auto& [prefix, v] : *entries) {
        check_all_caps(index, model, prefix.address());
        for (int k = 0; k < 4; ++k) {
          check_all_caps(index, model, prefix.random_address(lcg.next()));
        }
      }
      const int* deepest = index.longest_match(base);
      CHECK(deepest != nullptr && *deepest == 4);
      const int* at96 = index.longest_match(base, 111);
      CHECK(at96 != nullptr && *at96 == 2);
    }
  }

  // --- a short prefix listed after longer ones it holds, and a cap
  //     at a length no stored prefix has ---
  {
    const Entries entries{
        {Prefix(Address::from_u64(0x2001000100020000ULL, 0), 48), 1},
        {Prefix(Address::from_u64(0x2001000200030000ULL, 0), 48), 2},
        {Prefix(Address::from_u64(0x2001000100000000ULL, 0), 32), 3},
        {Prefix(Address::from_u64(0x2000000000000000ULL, 0), 8), 4},
    };
    const PrefixIndex<int> index(entries);
    const auto model = model_of(entries);
    const Address inside = Address::from_u64(0x2001000100020000ULL, 7);
    const int* hit = index.longest_match(inside);
    CHECK(hit != nullptr && *hit == 1);
    const int* capped = index.longest_match(inside, 40);  // no /40 stored
    CHECK(capped != nullptr && *capped == 3);
    // Under the second /48 no /32 is stored: the /32 probe finds only
    // a marker, yet the /48 is still reached.
    const Address other = Address::from_u64(0x2001000200030000ULL, 9);
    const int* marker_path = index.longest_match(other);
    CHECK(marker_path != nullptr && *marker_path == 2);
    for (const Address& a : {inside, other, Address::from_u64(0x20ff000000000000ULL, 1),
                             Address::from_u64(0x3000000000000000ULL, 1)}) {
      check_all_caps(index, model, a);
    }
  }

  // --- repeated prefixes: last value wins ---
  {
    const Prefix p(Address::from_u64(0x2001ull << 48, 0), 32);
    const Entries entries{{p, 7}, {Prefix(p.address(), 64), 8}, {p, 9}};
    const PrefixIndex<int> index(entries);
    const int* hit = index.longest_match(Address::from_u64(0x2001ull << 48 | 1, 5));
    CHECK(hit != nullptr && *hit == 9);
    check_all_caps(index, model_of(entries), Address::from_u64(0x2001ull << 48, 5));
  }
}

void run_tests() {
  Lcg lcg;
  check_edge_cases(lcg);

  // --- 10k random prefixes vs brute force ---
  Entries entries;
  for (int i = 0; i < 10000; ++i) {
    const Address a = Address::from_u64(lcg.next(), lcg.next());
    // Bias lengths toward the real hitlist range but cover 0..128.
    const unsigned pick = static_cast<unsigned>(lcg.next() % 100);
    unsigned length;
    if (pick < 5) {
      length = static_cast<unsigned>(lcg.next() % 9);  // 0..8
    } else if (pick < 15) {
      length = 120 + static_cast<unsigned>(lcg.next() % 9);  // 120..128
    } else {
      length = 16 + static_cast<unsigned>(lcg.next() % 104);  // 16..119
    }
    entries.emplace_back(Prefix(a, static_cast<std::uint8_t>(length)), i);
  }
  const PrefixIndex<int> index(entries);
  const auto model = model_of(entries);

  // Probe addresses: random, inside a random stored prefix, and one
  // bit outside a random stored prefix boundary; each uncapped and
  // under a random cap.
  std::vector<Address> probes;
  for (int i = 0; i < 400; ++i) {
    probes.push_back(Address::from_u64(lcg.next(), lcg.next()));
    const Prefix& in = entries[lcg.next() % entries.size()].first;
    probes.push_back(in.random_address(lcg.next()));
    const Prefix& near = entries[lcg.next() % entries.size()].first;
    Address edge = near.random_address(lcg.next());
    if (near.length() > 0 && near.length() < 128) {
      // Flip the bit just above the host part: leaves the prefix.
      const unsigned bit = near.length() - 1;
      if (bit < 64) {
        edge.hi ^= 1ull << (63 - bit);
      } else {
        edge.lo ^= 1ull << (127 - bit);
      }
    }
    probes.push_back(edge);
  }
  for (const auto& a : probes) {
    check_against_model(index, model, a);
    check_against_model(index, model, a, static_cast<unsigned>(lcg.next() % 129));
  }

  // Every prefix listed again with a new value: the index keeps the
  // last one.
  Entries twice = entries;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    twice.emplace_back(entries[i].first, static_cast<int>(i) + 1000000);
  }
  const PrefixIndex<int> relisted(twice);
  const auto relisted_model = model_of(twice);
  for (int i = 0; i < 200; ++i) {
    const Prefix& in = entries[lcg.next() % entries.size()].first;
    check_against_model(relisted, relisted_model, in.random_address(lcg.next()));
    check_against_model(relisted, relisted_model,
                        Address::from_u64(lcg.next(), lcg.next()));
  }
}

}  // namespace

TEST_MAIN()
