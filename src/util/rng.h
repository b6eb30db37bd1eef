#pragma once

// Deterministic hashing and a small counter-based PRNG. Everything in
// the simulation derives from these so that a Universe built twice
// from the same params is bit-identical.

#include <array>
#include <cstddef>
#include <cstdint>

namespace v6h::util {

/// The seed hash64 mixes its first word with. Callers that hash many
/// values under one fixed first word hoist splitmix64(a ^ kHashSeed).
inline constexpr std::uint64_t kHashSeed = 0x517cc1b727220a95ULL;

inline constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Mix up to three words into one well-distributed 64-bit hash.
inline constexpr std::uint64_t hash64(std::uint64_t a, std::uint64_t b = 0,
                                      std::uint64_t c = 0) {
  std::uint64_t h = splitmix64(a ^ kHashSeed);
  h = splitmix64(h ^ b);
  h = splitmix64(h ^ c);
  return h;
}

/// A 64-bit hash reduced to a probability in [0, 1).
inline constexpr double to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// hash64 reduced to a probability in [0, 1).
inline constexpr double hash_unit(std::uint64_t a, std::uint64_t b = 0,
                                  std::uint64_t c = 0) {
  return to_unit(hash64(a, b, c));
}

/// Counter-mode splitmix64 stream.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(splitmix64(seed ^ 0x6a09e667f3bcc908ULL)) {}

  std::uint64_t next_u64() {
    state_ += 0x9e3779b97f4a7c15ULL;
    return hash64(state_);
  }

  std::uint64_t uniform(std::uint64_t n) { return n == 0 ? 0 : next_u64() % n; }

  double uniform_real() { return to_unit(next_u64()); }

 private:
  std::uint64_t state_;
};

/// 4-round Feistel permutation over 64 bits. Used to turn a host slot
/// into a pseudo-random but invertible interface identifier.
///
/// Round r's function is F_r(x) = hash64(key, r, x), truncated to 32
/// bits. Its first two splitmix64 rounds depend on (key, r) alone, so
/// they are computed once per key as the round heads, and each round
/// then costs one splitmix64 of the half: F_r(x) =
/// splitmix64(head[r] ^ x). A caller inverting many values under one
/// key keeps the FeistelRounds; feistel64_encrypt/decrypt below are
/// the one-shot forms.
class FeistelRounds {
 public:
  explicit constexpr FeistelRounds(std::uint64_t key) {
    const std::uint64_t key_head = splitmix64(key ^ kHashSeed);
    for (std::size_t round = 0; round < 4; ++round) {
      head_[round] = splitmix64(key_head ^ round);
    }
  }

  constexpr std::uint64_t encrypt(std::uint64_t value) const {
    auto l = static_cast<std::uint32_t>(value >> 32);
    auto r = static_cast<std::uint32_t>(value);
    for (std::size_t round = 0; round < 4; ++round) {
      const std::uint32_t tmp = r;
      r = l ^ f(round, r);
      l = tmp;
    }
    return (static_cast<std::uint64_t>(l) << 32) | r;
  }

  constexpr std::uint64_t decrypt(std::uint64_t value) const {
    auto l = static_cast<std::uint32_t>(value >> 32);
    auto r = static_cast<std::uint32_t>(value);
    for (std::size_t round = 4; round-- > 0;) {
      const std::uint32_t tmp = l;
      l = r ^ f(round, l);
      r = tmp;
    }
    return (static_cast<std::uint64_t>(l) << 32) | r;
  }

 private:
  constexpr std::uint32_t f(std::size_t round, std::uint32_t half) const {
    return static_cast<std::uint32_t>(splitmix64(head_[round] ^ half));
  }

  std::array<std::uint64_t, 4> head_{};
};

inline std::uint64_t feistel64_encrypt(std::uint64_t key, std::uint64_t value) {
  return FeistelRounds(key).encrypt(value);
}

inline std::uint64_t feistel64_decrypt(std::uint64_t key, std::uint64_t value) {
  return FeistelRounds(key).decrypt(value);
}

}  // namespace v6h::util
