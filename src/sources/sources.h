#pragma once

// The seven address sources of Section 3: each one accumulates
// addresses over the campaign with its own growth curve and AS bias
// (domain lists and CT live almost entirely inside one CDN AS, Atlas
// is balanced, scamper trawls ISP space along traceroute paths).
//
// Steady-state allocation discipline: per-source capacity is bounded
// by final_count (growth fractions never exceed 1), so the
// constructor pre-sizes every accumulator to its campaign-final size
// and collect() fills reused scratch — a warm collect allocates
// nothing, which the day loop's zero-alloc contract depends on.

#include <array>
#include <cstdint>
#include <vector>

#include "engine/engine.h"
#include "ipv6/address.h"
#include "netsim/network_sim.h"
#include "netsim/source_id.h"
#include "netsim/universe.h"
#include "util/flat_hash.h"

namespace v6h::sources {

struct CollectResult {
  std::vector<ipv6::Address> new_addresses;  // unique, first seen this call
  std::size_t cumulative_count = 0;
};

class SourceSimulator {
 public:
  explicit SourceSimulator(const netsim::Universe& universe);

  /// The network simulator and the engine are unused: draws need only
  /// the universe, and collect runs serially. The overload stays for
  /// perfbench's copy of the day loop (TracedAssembly), which calls
  /// this signature until ROADMAP item 1 deletes that copy.
  SourceSimulator(const netsim::Universe& universe, netsim::NetworkSim&,
                  engine::Engine* = nullptr)
      : SourceSimulator(universe) {}

  /// Advance the source to `day` and return the addresses that are
  /// new since the previous collect for this source, in draw order.
  /// Each draw is a pure function of (source key, draw index, day),
  /// deduplicated against everything the source emitted before as it
  /// is drawn. The returned reference is a reused scratch member:
  /// valid until the next collect call, so consume (or copy) it
  /// before collecting the next source.
  const CollectResult& collect(netsim::SourceId source, int day);

  /// Scamper overload: traceroute targets seed extra router-side
  /// discoveries near existing hitlist addresses.
  const CollectResult& collect(netsim::SourceId source, int day,
                               const std::vector<ipv6::Address>& targets);

  const std::vector<ipv6::Address>& cumulative(netsim::SourceId source) const {
    return states_[static_cast<std::size_t>(source)].cumulative;
  }

  /// Upper bound on unique addresses this simulator can ever emit
  /// (sum of campaign-final per-source counts). Downstream stages use
  /// it to pre-size their own accumulators.
  std::size_t max_unique_addresses() const;

 private:
  struct State {
    std::vector<ipv6::Address> cumulative;
    util::FlatSet<ipv6::Address, ipv6::AddressHash> seen;
    std::uint64_t drawn = 0;
  };

  struct Pool {
    std::vector<std::uint32_t> zones;
    std::vector<double> cumulative_weight;  // prefix sums over `zones`
    double total_weight = 0.0;
  };

  std::uint64_t final_count(netsim::SourceId source) const;
  double growth_fraction(netsim::SourceId source, int day) const;
  const netsim::Zone& pick_zone(const Pool& pool, std::uint64_t r) const;
  ipv6::Address draw(netsim::SourceId source, std::uint64_t src_key,
                     std::uint64_t n, int day, bool path_discovery,
                     const std::vector<ipv6::Address>& targets) const;

  const netsim::Universe* universe_;
  std::array<State, netsim::kAllSources.size()> states_;
  std::array<Pool, netsim::kAllSources.size()> pools_;
  // Per-collect result, reused across calls (capacity pre-sized to
  // the largest campaign-final source count in the constructor).
  CollectResult result_;
};

}  // namespace v6h::sources
