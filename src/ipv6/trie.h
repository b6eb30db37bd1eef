#pragma once

// Binary longest-prefix-match trie over IPv6 prefixes. Nodes live in
// a flat vector (index links), so tries copy cheaply with their owner
// (BGP table, universe zones).

#include <cstdint>
#include <deque>
#include <vector>

#include "ipv6/address.h"
#include "ipv6/prefix.h"

namespace v6h::ipv6 {

template <typename T>
class PrefixTrie {
 public:
  PrefixTrie() { nodes_.emplace_back(); }

  void insert(const Prefix& prefix, T value) {
    std::size_t node = 0;
    for (unsigned depth = 0; depth < prefix.length(); ++depth) {
      const unsigned bit = prefix.address().bit(depth) ? 1 : 0;
      if (nodes_[node].child[bit] < 0) {
        nodes_[node].child[bit] = static_cast<std::int32_t>(nodes_.size());
        nodes_.emplace_back();
      }
      node = static_cast<std::size_t>(nodes_[node].child[bit]);
    }
    if (nodes_[node].value < 0) {
      nodes_[node].value = static_cast<std::int32_t>(values_.size());
      values_.push_back(std::move(value));
    } else {
      values_[static_cast<std::size_t>(nodes_[node].value)] = std::move(value);
    }
  }

  /// A position part-way down the trie, for many lookups under one
  /// prefix: the node seek() stopped at, its depth, and the best
  /// value on the path down to it. node < 0 means the walk cannot go
  /// deeper, so `best` already answers every address under the
  /// prefix. Valid until the next insert.
  struct Cursor {
    std::int32_t node = -1;
    std::int32_t best = -1;
    unsigned depth = 0;
  };

  /// Walk once toward `prefix`. The walk stops early where the trie
  /// has no deeper node on the prefix's path, and marks the cursor
  /// final when the node it reaches has no children.
  Cursor seek(const Prefix& prefix) const {
    Cursor at;
    std::int32_t node = 0;
    for (unsigned depth = 0;; ++depth) {
      const Node& n = nodes_[static_cast<std::size_t>(node)];
      if (n.value >= 0) at.best = n.value;
      if (depth == prefix.length()) {
        if (n.child[0] >= 0 || n.child[1] >= 0) {
          at.node = node;
          at.depth = depth;
        }
        return at;
      }
      node = n.child[prefix.address().bit(depth) ? 1 : 0];
      if (node < 0) return at;  // nothing stored below this depth
    }
  }

  /// longest_match(a) for an `a` inside the prefix `from` was seeked
  /// to: continues the walk from the cursor instead of the root.
  const T* longest_match_from(const Cursor& from, const Address& a) const {
    std::int32_t best = from.best;
    std::int32_t node = from.node;
    for (unsigned depth = from.depth; node >= 0 && depth < 128; ++depth) {
      node = nodes_[static_cast<std::size_t>(node)].child[a.bit(depth) ? 1 : 0];
      if (node >= 0 && nodes_[static_cast<std::size_t>(node)].value >= 0) {
        best = nodes_[static_cast<std::size_t>(node)].value;
      }
    }
    return best < 0 ? nullptr : &values_[static_cast<std::size_t>(best)];
  }

  /// Value of the most specific prefix containing `a`, or nullptr.
  const T* longest_match(const Address& a) const {
    return longest_match_from(seek(Prefix()), a);
  }

  /// Exact-prefix lookup, or nullptr if that exact prefix was never inserted.
  const T* exact_match(const Prefix& prefix) const {
    std::size_t node = 0;
    for (unsigned depth = 0; depth < prefix.length(); ++depth) {
      const unsigned bit = prefix.address().bit(depth) ? 1 : 0;
      const std::int32_t next = nodes_[node].child[bit];
      if (next < 0) return nullptr;
      node = static_cast<std::size_t>(next);
    }
    const std::int32_t v = nodes_[node].value;
    return v < 0 ? nullptr : &values_[static_cast<std::size_t>(v)];
  }

  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

 private:
  struct Node {
    std::int32_t child[2] = {-1, -1};
    std::int32_t value = -1;
  };
  std::vector<Node> nodes_;
  // deque, not vector: vector<bool>'s proxy references would break the
  // pointer-returning lookups.
  std::deque<T> values_;
};

}  // namespace v6h::ipv6
