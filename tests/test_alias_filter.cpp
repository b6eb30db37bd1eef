// Differential test for hitlist::AliasFilter, the exact-match member
// table probed once per present prefix length. Seeded sequences of
// insert / remove / re-insert over prefixes at lengths
// {0, 32, 48, 64, 96, 112, 128} (nested chains, so one address sits
// under several lengths at once) run against a std::set model. After
// every step:
//   - is_aliased(a) equals a brute-force Prefix::contains scan of the
//     model, for addresses inside, just outside, and far from the
//     pool's prefixes;
//   - prefixes() is sorted and equals the model's set;
//   - is_aliased_many equals is_aliased element for element.
// Two scripted cases pin that duplicate inserts and removes are
// no-ops, and that a length whose last prefix is removed stops
// answering and answers again once a prefix of it returns.
//
// Usage: test_alias_filter [--seed S] [--iters N]. Without --seed it
// runs seeds 1..8; a divergence prints the seed and the step so
// `--seed S` replays exactly that sequence.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <set>
#include <vector>

#include "hitlist/pipeline.h"
#include "ipv6/address.h"
#include "ipv6/prefix.h"
#include "test_main.h"
#include "util/rng.h"

using namespace v6h;
using ipv6::Address;
using ipv6::Prefix;

namespace {

constexpr std::uint8_t kLengths[] = {0, 32, 48, 64, 96, 112, 128};

// The address just outside `p`: `a` inside it with the last prefix
// bit flipped (no such address for /0).
Address just_outside(const Prefix& p, Address a) {
  if (p.length() == 0) return a;
  const unsigned bit = p.length() - 1;
  if (bit < 64) {
    a.hi ^= 1ULL << (63 - bit);
  } else {
    a.lo ^= 1ULL << (127 - bit);
  }
  return a;
}

// A pool of prefixes at every length in kLengths: a few nested chains
// (one base address cut at each length) plus prefixes from random
// bases. Probe addresses sit inside, just outside, and away from
// them.
struct Workload {
  std::vector<Prefix> pool;
  std::vector<Address> probes;

  explicit Workload(util::Rng& rng) {
    const auto random_address = [&] {
      return Address::from_u64(0x2001000000000000ULL | (rng.next_u64() >> 16),
                               rng.next_u64());
    };
    for (int chain = 0; chain < 4; ++chain) {
      const Address base = random_address();
      for (const auto length : kLengths) pool.emplace_back(base, length);
    }
    for (int extra = 0; extra < 24; ++extra) {
      pool.emplace_back(random_address(), kLengths[rng.uniform(7)]);
    }
    std::sort(pool.begin(), pool.end());
    pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
    while (probes.size() < 1200) {
      const Prefix& p = pool[rng.uniform(pool.size())];
      const Address inside = p.random_address(rng.next_u64());
      probes.push_back(inside);
      probes.push_back(just_outside(p, inside));
      probes.push_back(random_address());
    }
  }
};

struct Checker {
  std::uint64_t seed;
  const char* phase;
  const Workload& work;
  std::vector<char> many;

  // One full comparison of `filter` against `model` after `step`;
  // false (after printing the replay line) on the first divergence.
  bool operator()(const hitlist::AliasFilter& filter,
                  const std::set<Prefix>& model, std::size_t step) {
    const auto fail = [&](const char* what) {
      ++test::failures;
      std::fprintf(stderr,
                   "FAIL alias_filter seed=%llu phase=%s step=%zu: %s "
                   "(replay: test_alias_filter --seed %llu)\n",
                   static_cast<unsigned long long>(seed), phase, step, what,
                   static_cast<unsigned long long>(seed));
      return false;
    };
    ++test::checks;
    const auto& prefixes = filter.prefixes();
    if (!std::is_sorted(prefixes.begin(), prefixes.end())) {
      return fail("prefixes() not sorted");
    }
    if (!std::equal(prefixes.begin(), prefixes.end(), model.begin(),
                    model.end())) {
      return fail("prefixes() != model set");
    }
    for (const auto& a : work.probes) {
      bool expect = false;
      for (const auto& p : model) expect = expect || p.contains(a);
      if (filter.is_aliased(a) != expect) {
        return fail("is_aliased != brute-force contains scan");
      }
    }
    filter.is_aliased_many(work.probes.data(), work.probes.size(), &many);
    if (many.size() != work.probes.size()) {
      return fail("is_aliased_many output size");
    }
    for (std::size_t i = 0; i < many.size(); ++i) {
      if ((many[i] != 0) != filter.is_aliased(work.probes[i])) {
        return fail("is_aliased_many != is_aliased");
      }
    }
    return true;
  }
};

// Random insert / remove / re-insert over the pool. Removes pick a
// live prefix half the time (so lengths drain to zero and refill) and
// any pool prefix otherwise (absent removes must be no-ops).
void random_sequence(std::uint64_t seed, std::size_t iters) {
  util::Rng rng(seed);
  const Workload work(rng);
  Checker check{seed, "random", work, {}};
  hitlist::AliasFilter filter;
  std::set<Prefix> model;
  if (!check(filter, model, 0)) return;
  for (std::size_t step = 1; step <= iters; ++step) {
    const std::uint64_t op = rng.uniform(4);
    if (op < 2) {
      const Prefix& p = work.pool[rng.uniform(work.pool.size())];
      filter.insert(p);
      model.insert(p);
    } else if (op == 2 && !model.empty()) {
      auto it = model.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.uniform(model.size())));
      filter.remove(*it);
      model.erase(it);
    } else {
      const Prefix& p = work.pool[rng.uniform(work.pool.size())];
      filter.remove(p);
      model.erase(p);
    }
    if (!check(filter, model, step)) return;
  }
}

// Scripted: a duplicate insert and a duplicate or absent remove leave
// the filter as it was.
void duplicate_ops(std::uint64_t seed) {
  util::Rng rng(seed ^ 0xd0b1e);
  const Workload work(rng);
  Checker check{seed, "duplicates", work, {}};
  hitlist::AliasFilter filter;
  std::set<Prefix> model;
  std::size_t step = 0;
  for (const auto& p : work.pool) {
    filter.insert(p);
    filter.insert(p);
    model.insert(p);
    if (!check(filter, model, ++step)) return;
  }
  for (const auto& p : work.pool) {
    filter.remove(p);
    filter.remove(p);
    model.erase(p);
    if (!check(filter, model, ++step)) return;
    filter.remove(p);  // absent: still a no-op
    if (!check(filter, model, ++step)) return;
  }
  CHECK(filter.prefixes().empty());
}

// Scripted: every length of a nested chain appears, drains to zero
// while the others stay live, and comes back.
void length_round_trip(std::uint64_t seed) {
  util::Rng rng(seed ^ 0x1e9);
  const Workload work(rng);
  Checker check{seed, "length-round-trip", work, {}};
  hitlist::AliasFilter filter;
  std::set<Prefix> model;
  std::size_t step = 0;
  // The whole pool: every length, each from at least four chains.
  for (const auto& p : work.pool) {
    filter.insert(p);
    model.insert(p);
  }
  if (!check(filter, model, ++step)) return;
  for (const auto length : kLengths) {
    std::vector<Prefix> of_length;
    for (const auto& p : work.pool) {
      if (p.length() == length) of_length.push_back(p);
    }
    for (const auto& p : of_length) {
      filter.remove(p);
      model.erase(p);
      if (!check(filter, model, ++step)) return;
    }
    // The length has drained to zero; the check above held the
    // addresses only it covered to the model. Now it comes back.
    for (const auto& p : of_length) {
      filter.insert(p);
      model.insert(p);
      if (!check(filter, model, ++step)) return;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5, 6, 7, 8};
  std::size_t iters = 200;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0) {
      seeds = {std::strtoull(argv[++i], nullptr, 10)};
    } else if (std::strcmp(argv[i], "--iters") == 0) {
      iters = std::strtoull(argv[++i], nullptr, 10);
    }
  }
  for (const auto seed : seeds) {
    random_sequence(seed, iters);
    duplicate_ops(seed);
    length_round_trip(seed);
  }
  std::printf("%zu seed(s) x %zu ops: %d checks, %d failures\n", seeds.size(),
              iters, v6h::test::checks, v6h::test::failures);
  return v6h::test::failures == 0 ? 0 : 1;
}
