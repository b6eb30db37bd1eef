// Differential test for util::FlatMap / util::FlatSet, the open-
// addressing tables behind the APD candidate counter, the verdict
// state, and the source and store dedup sets. Long seed-driven
// sequences of try_emplace / operator[] / find / insert / contains /
// clear run against std::unordered_map / std::unordered_set through
// several growths, under a well-spread hash, a colliding hash, and
// the real Prefix and Address keys. After every phase, iterating the
// map must visit each live key exactly once with its model value. A
// second part pins the allocation contract the day loop relies on:
// reserve(n) followed by n distinct inserts allocates nothing.
//
// Usage: test_flat_hash [--seed S] [--iters N]. Without --seed it runs
// seeds 1..8; a divergence prints the seed and the operation index so
// `--seed S` replays exactly that sequence.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ipv6/address.h"
#include "ipv6/prefix.h"
#include "test_main.h"
#include "util/counting_allocator.h"
#include "util/flat_hash.h"
#include "util/rng.h"

using namespace v6h;

namespace {

struct IdentityHash {
  std::size_t operator()(std::uint64_t k) const { return k; }
};
using StdHash = std::hash<std::uint64_t>;  // the models' hash for u64 keys
// Every key lands in one of 7 buckets: long probe chains that wrap
// around the slot array and survive each rehash.
struct CollidingHash {
  std::size_t operator()(std::uint64_t k) const { return k % 7; }
};

// Keys drawn from a space a few times larger than the growth steps
// the sequence crosses, so inserts, hits and misses all stay common.
template <typename Key>
struct KeyGen;

template <>
struct KeyGen<std::uint64_t> {
  std::uint64_t operator()(util::Rng& rng, std::uint64_t space) const {
    return rng.uniform(space) * 0x9e3779b97f4a7c15ULL;
  }
};

template <>
struct KeyGen<ipv6::Address> {
  ipv6::Address operator()(util::Rng& rng, std::uint64_t space) const {
    const std::uint64_t k = rng.uniform(space);
    return ipv6::Address::from_u64(0x2001000000000000ULL | (k >> 4), k & 0xf);
  }
};

template <>
struct KeyGen<ipv6::Prefix> {
  ipv6::Prefix operator()(util::Rng& rng, std::uint64_t space) const {
    static constexpr std::uint8_t kLengths[] = {32, 48, 64, 96, 112};
    const std::uint64_t k = rng.uniform(space);
    const auto a = ipv6::Address::from_u64(0x2001000000000000ULL | (k << 16),
                                           k * 0x10001ULL);
    return ipv6::Prefix(a, kLengths[k % 5]);
  }
};

struct Failure {
  std::uint64_t seed;
  const char* table;
  std::size_t op;
  const char* what;
};

bool report(const Failure& f) {
  std::fprintf(stderr,
               "FAIL flat_hash seed=%llu table=%s op=%zu: %s "
               "(replay: test_flat_hash --seed %llu)\n",
               static_cast<unsigned long long>(f.seed), f.table, f.op, f.what,
               static_cast<unsigned long long>(f.seed));
  return false;
}

// FlatMap<Key, uint64_t> vs std::unordered_map over `iters` random
// operations; returns false (after printing the seed) on the first
// divergence.
template <typename Key, typename Hash, typename ModelHash>
bool map_matches_model(std::uint64_t seed, std::size_t iters,
                       const char* table) {
  util::Rng rng(seed);
  util::FlatMap<Key, std::uint64_t, Hash> map;
  std::unordered_map<Key, std::uint64_t, ModelHash> model;
  const KeyGen<Key> key_of;
  std::uint64_t space = 64;
  std::size_t op = 0;
  auto fail = [&](const char* what) { return report({seed, table, op, what}); };
  for (; op < iters; ++op) {
    // Widen the key space in steps so the table crosses several
    // growths between the rare clears.
    if (op % 2048 == 2047) space *= 2;
    const Key key = key_of(rng, space);
    const auto choice = rng.uniform(100);
    if (choice < 30) {
      const auto [entry, inserted] = map.try_emplace(key);
      const auto [it, model_inserted] = model.try_emplace(key, 0);
      if (inserted != model_inserted) return fail("try_emplace inserted");
      if (!(entry->first == key)) return fail("try_emplace key");
      if (entry->second != it->second) return fail("try_emplace value");
    } else if (choice < 60) {
      const std::uint64_t add = rng.uniform(1000) + 1;
      map[key] += add;
      model[key] += add;
    } else if (choice < 99) {
      const std::uint64_t* found = map.find(key);
      const auto it = model.find(key);
      if ((found != nullptr) != (it != model.end())) return fail("find presence");
      if (found != nullptr && *found != it->second) return fail("find value");
    } else if (rng.uniform(20) == 0) {
      map.clear();
      model.clear();
    }
    if (map.size() != model.size()) return fail("size");
    if (op % 1024 == 1023 || op + 1 == iters) {
      // Iteration visits each live key exactly once, with its value.
      std::set<Key> visited;
      for (const auto& [k, v] : map) {
        const auto it = model.find(k);
        if (it == model.end()) return fail("iterated a dead key");
        if (it->second != v) return fail("iterated value");
        if (!visited.insert(k).second) return fail("key visited twice");
      }
      if (visited.size() != model.size()) return fail("iteration missed a key");
    }
  }
  return true;
}

template <typename Key, typename Hash, typename ModelHash>
bool set_matches_model(std::uint64_t seed, std::size_t iters,
                       const char* table) {
  util::Rng rng(seed ^ 0x5e7);
  util::FlatSet<Key, Hash> set;
  std::unordered_set<Key, ModelHash> model;
  const KeyGen<Key> key_of;
  std::uint64_t space = 64;
  std::size_t op = 0;
  auto fail = [&](const char* what) { return report({seed, table, op, what}); };
  for (; op < iters; ++op) {
    if (op % 2048 == 2047) space *= 2;
    const Key key = key_of(rng, space);
    const auto choice = rng.uniform(100);
    if (choice < 50) {
      if (set.insert(key) != model.insert(key).second) return fail("insert");
    } else if (choice < 99) {
      if (set.contains(key) != (model.count(key) != 0)) return fail("contains");
    } else if (rng.uniform(20) == 0) {
      set.clear();
      model.clear();
      if (set.contains(key)) return fail("contains after clear");
    }
    if (set.size() != model.size()) return fail("size");
  }
  return true;
}

void run_differential(std::uint64_t seed, std::size_t iters) {
  CHECK((map_matches_model<std::uint64_t, IdentityHash, StdHash>(
      seed, iters, "FlatMap<u64, identity>")));
  CHECK((map_matches_model<std::uint64_t, CollidingHash, StdHash>(
      seed, iters / 4, "FlatMap<u64, colliding>")));
  CHECK((map_matches_model<ipv6::Prefix, ipv6::PrefixHash, ipv6::PrefixHash>(
      seed, iters, "FlatMap<Prefix>")));
  CHECK((set_matches_model<std::uint64_t, IdentityHash, StdHash>(
      seed, iters, "FlatSet<u64, identity>")));
  CHECK((set_matches_model<std::uint64_t, CollidingHash, StdHash>(
      seed, iters / 4, "FlatSet<u64, colliding>")));
  CHECK((set_matches_model<ipv6::Address, ipv6::AddressHash, ipv6::AddressHash>(
      seed, iters, "FlatSet<Address>")));
}

// reserve(n) then n distinct inserts: zero heap allocations.
void run_reserve_contract(std::uint64_t seed) {
  util::Rng rng(seed ^ 0xa110c);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{10},
                              std::size_t{11}, std::size_t{16},
                              std::size_t{1000}, std::size_t{4097},
                              static_cast<std::size_t>(rng.uniform(20000))}) {
    std::vector<std::uint64_t> keys(n);
    for (std::size_t i = 0; i < n; ++i) keys[i] = i * 0x9e3779b97f4a7c15ULL + seed;

    util::FlatMap<std::uint64_t, std::uint64_t, IdentityHash> map;
    map.reserve(n);
    std::uint64_t before = util::allocation_count();
    for (const auto k : keys) ++map[k];
    CHECK_EQ(util::allocation_count() - before, 0u);
    CHECK_EQ(map.size(), n);

    util::FlatSet<std::uint64_t, IdentityHash> set;
    set.reserve(n);
    before = util::allocation_count();
    for (const auto k : keys) set.insert(k);
    CHECK_EQ(util::allocation_count() - before, 0u);
    CHECK_EQ(set.size(), n);

    // clear() keeps capacity: the same n inserts stay quiet again.
    map.clear();
    set.clear();
    before = util::allocation_count();
    for (const auto k : keys) {
      map.try_emplace(k);
      set.insert(k);
    }
    CHECK_EQ(util::allocation_count() - before, 0u);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5, 6, 7, 8};
  std::size_t iters = 20000;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0) {
      seeds = {std::strtoull(argv[++i], nullptr, 10)};
    } else if (std::strcmp(argv[i], "--iters") == 0) {
      iters = std::strtoull(argv[++i], nullptr, 10);
    }
  }
  for (const auto seed : seeds) {
    run_differential(seed, iters);
    run_reserve_contract(seed);
  }
  std::printf("%zu seed(s) x %zu ops: %d checks, %d failures\n", seeds.size(),
              iters, v6h::test::checks, v6h::test::failures);
  return v6h::test::failures == 0 ? 0 : 1;
}
