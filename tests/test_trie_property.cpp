// Randomized property test for ipv6::PrefixTrie: insert 10k random
// prefixes with a fixed-seed LCG and check longest_match against a
// brute-force linear scan, plus the /0, /128, and duplicate-insert
// edge cases and the size()/empty() bookkeeping. The cursor lookup
// (seek + longest_match_from) is checked against both, under prefixes
// the walk falls off above, stored prefixes, and prefixes with stored
// prefixes nested beneath.

#include <map>
#include <vector>

#include "ipv6/address.h"
#include "ipv6/prefix.h"
#include "ipv6/trie.h"
#include "test_main.h"

using namespace v6h;
using ipv6::Address;
using ipv6::Prefix;
using ipv6::PrefixTrie;

namespace {

// Classic 64-bit LCG (MMIX constants), fixed seed: the test is fully
// reproducible without util::Rng so a trie bug can't hide behind a
// shared hashing utility.
struct Lcg {
  std::uint64_t state = 0x123456789abcdef0ULL;
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state;
  }
};

// Brute-force reference: the value of the longest prefix containing
// `a`, scanning every inserted (prefix -> value) pair linearly.
const int* brute_force(const std::map<Prefix, int>& model, const Address& a) {
  const int* best = nullptr;
  int best_length = -1;
  for (const auto& [prefix, value] : model) {
    if (prefix.contains(a) && static_cast<int>(prefix.length()) > best_length) {
      best_length = prefix.length();
      best = &value;
    }
  }
  return best;
}

void check_against_model(const PrefixTrie<int>& trie,
                         const std::map<Prefix, int>& model,
                         const Address& a) {
  const int* expected = brute_force(model, a);
  const int* got = trie.longest_match(a);
  if (expected == nullptr) {
    CHECK(got == nullptr);
  } else {
    CHECK(got != nullptr && *got == *expected);
  }
}

// The cursor lookup under `p` must agree with the root lookup and the
// brute-force model for an address inside `p`.
void check_cursor(const PrefixTrie<int>& trie,
                  const std::map<Prefix, int>& model, const Prefix& p,
                  const Address& a) {
  CHECK(p.contains(a));
  const int* from = trie.longest_match_from(trie.seek(p), a);
  CHECK(from == trie.longest_match(a));
  check_against_model(trie, model, a);
}

// Random prefixes of every cursor class over `inserted`, each checked
// at a few addresses inside it.
void check_cursor_classes(const PrefixTrie<int>& trie,
                          const std::map<Prefix, int>& model,
                          const std::vector<Prefix>& inserted, Lcg& lcg) {
  for (int i = 0; i < 300; ++i) {
    // Random space: short prefixes stop on a node with children,
    // long ones fall off the trie above the prefix.
    const Prefix random(Address::from_u64(lcg.next(), lcg.next()),
                        static_cast<std::uint8_t>(lcg.next() % 129));
    // A stored prefix, and a shorter prefix with it nested beneath.
    const Prefix& stored = inserted[lcg.next() % inserted.size()];
    const Prefix above(stored.address(),
                       static_cast<std::uint8_t>(
                           lcg.next() % (stored.length() + 1u)));
    for (const Prefix& p : {random, stored, above}) {
      for (int k = 0; k < 4; ++k) {
        check_cursor(trie, model, p, p.random_address(lcg.next()));
      }
    }
    // Addresses inside the nested prefix, seen through the outer one.
    check_cursor(trie, model, above, stored.random_address(lcg.next()));
    check_cursor(trie, model, above, stored.address());
  }
}

void run_tests() {
  Lcg lcg;

  // --- size()/empty() bookkeeping ---
  {
    PrefixTrie<int> trie;
    CHECK(trie.empty());
    CHECK_EQ(trie.size(), 0u);
    CHECK(trie.longest_match(Address::from_u64(1, 2)) == nullptr);
    trie.insert(Prefix(Address::from_u64(0x2001ull << 48, 0), 32), 7);
    CHECK(!trie.empty());
    CHECK_EQ(trie.size(), 1u);
    // Duplicate insert overwrites the value without growing the trie.
    trie.insert(Prefix(Address::from_u64(0x2001ull << 48, 0), 32), 9);
    CHECK_EQ(trie.size(), 1u);
    const int* hit = trie.longest_match(Address::from_u64(0x2001ull << 48, 5));
    CHECK(hit != nullptr && *hit == 9);
  }

  // --- /0 and /128 edge cases ---
  {
    PrefixTrie<int> trie;
    std::map<Prefix, int> model;
    const Prefix root(Address{}, 0);  // matches every address
    trie.insert(root, 1);
    model.emplace(root, 1);
    const Address host = Address::from_u64(0xfe80ull << 48, 0x1234);
    const Prefix p128(host, 128);
    trie.insert(p128, 2);
    model.emplace(p128, 2);
    CHECK_EQ(trie.size(), 2u);

    const int* on_host = trie.longest_match(host);
    CHECK(on_host != nullptr && *on_host == 2);  // /128 beats /0
    const int* elsewhere = trie.longest_match(Address::from_u64(1, 1));
    CHECK(elsewhere != nullptr && *elsewhere == 1);
    const int* exact = trie.exact_match(p128);
    CHECK(exact != nullptr && *exact == 2);
    check_against_model(trie, model, host);
    // An address one bit off the /128 must fall back to the /0.
    Address off = host;
    off.lo ^= 1;
    check_against_model(trie, model, off);

    // Cursors at /0 (the root) and at the stored /128.
    check_cursor(trie, model, root, host);
    check_cursor(trie, model, root, off);
    check_cursor(trie, model, p128, host);
    const int* cursor_hit = trie.longest_match_from(trie.seek(p128), host);
    CHECK(cursor_hit != nullptr && *cursor_hit == 2);
    // A /128 beside the stored one: the walk falls off above it.
    check_cursor(trie, model, Prefix(off, 128), off);
    // An empty trie answers nothing from any cursor.
    const PrefixTrie<int> empty;
    CHECK(empty.longest_match_from(empty.seek(root), host) == nullptr);
    CHECK(empty.longest_match_from(empty.seek(p128), host) == nullptr);
  }

  // --- 10k random prefixes vs brute force ---
  PrefixTrie<int> trie;
  std::map<Prefix, int> model;
  std::vector<Prefix> inserted;
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
    const Prefix prefix(a, static_cast<std::uint8_t>(length));
    trie.insert(prefix, i);
    model[prefix] = i;  // duplicate insert == overwrite, same as trie
    inserted.push_back(prefix);
  }
  CHECK_EQ(trie.size(), model.size());

  // Probe addresses: random, inside a random inserted prefix, and one
  // bit below a random inserted prefix boundary.
  std::vector<Address> probes;
  for (int i = 0; i < 400; ++i) {
    probes.push_back(Address::from_u64(lcg.next(), lcg.next()));
    const Prefix& in = inserted[lcg.next() % inserted.size()];
    probes.push_back(in.random_address(lcg.next()));
    const Prefix& near = inserted[lcg.next() % inserted.size()];
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
  for (const auto& a : probes) check_against_model(trie, model, a);

  // Cursor lookups over the full random trie.
  check_cursor_classes(trie, model, inserted, lcg);

  // Duplicate re-insert of every prefix: size stays, values move.
  for (std::size_t i = 0; i < inserted.size(); ++i) {
    trie.insert(inserted[i], static_cast<int>(i) + 1000000);
    model[inserted[i]] = static_cast<int>(i) + 1000000;
  }
  CHECK_EQ(trie.size(), model.size());
  for (int i = 0; i < 200; ++i) {
    check_against_model(trie, model,
                        Address::from_u64(lcg.next(), lcg.next()));
  }
}

}  // namespace

TEST_MAIN()
