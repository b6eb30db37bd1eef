#pragma once

// Longest-prefix match over a fixed set of IPv6 prefixes as exact-match
// probes of one hash table, one per present prefix length, shortest
// first (Waldvogel et al., "Scalable High Speed IP Routing Lookups",
// SIGCOMM 1997, with markers and a linear walk over the lengths). Each
// stored prefix P leaves a marker Prefix(P.address(), l) at every
// present length l below its own, so a walk that meets no entry, or an
// entry with nothing longer beneath it, has seen its answer.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "ipv6/address.h"
#include "ipv6/prefix.h"
#include "util/flat_hash.h"

namespace v6h::ipv6 {

template <typename T>
class PrefixIndex {
 public:
  PrefixIndex() = default;

  /// Index `entries`. A repeated prefix keeps its last value.
  explicit PrefixIndex(const std::vector<std::pair<Prefix, T>>& entries) {
    for (const auto& entry : entries) lengths_.push_back(entry.first.length());
    std::sort(lengths_.begin(), lengths_.end());
    lengths_.erase(std::unique(lengths_.begin(), lengths_.end()), lengths_.end());
    // Every key the table will hold, so that it is sized exactly once.
    std::vector<Prefix> keys;
    for (const auto& entry : entries) {
      for_each_marker(entry.first, [&](const Prefix& m) { keys.push_back(m); });
      keys.push_back(entry.first);
    }
    std::sort(keys.begin(), keys.end());
    table_.reserve(static_cast<std::size_t>(
        std::unique(keys.begin(), keys.end()) - keys.begin()));

    for (const auto& [prefix, value] : entries) {
      for_each_marker(prefix, [&](const Prefix& m) { table_[m].longer = true; });
      Entry& stored = table_[prefix];
      stored.stored = true;
      stored.value = value;
    }
  }

  /// The value of the longest stored prefix of length <= max_length
  /// that contains `a`, or nullptr.
  const T* longest_match(const Address& a, unsigned max_length = 128) const {
    const T* best = nullptr;
    for (const std::uint8_t length : lengths_) {
      if (length > max_length) break;
      const Entry* entry = table_.find(Prefix(a, length));
      if (entry == nullptr) break;
      if (entry->stored) best = &entry->value;
      if (!entry->longer) break;
    }
    return best;
  }

 private:
  struct Entry {
    T value{};
    bool stored = false;  // a prefix was indexed here, not only a marker
    bool longer = false;  // some stored prefix below this one is longer
  };

  template <typename F>
  void for_each_marker(const Prefix& prefix, F&& f) const {
    for (const std::uint8_t length : lengths_) {
      if (length >= prefix.length()) break;
      f(Prefix(prefix.address(), length));
    }
  }

  util::FlatMap<Prefix, Entry, PrefixHash> table_;
  std::vector<std::uint8_t> lengths_;  // present lengths, ascending
};

}  // namespace v6h::ipv6
