// The probe-kernel contract: NetworkSim's branchless columnar kernel
// (probe_resolved_mask) must be BIT-identical to the per-address
// NetworkSim::probe — same responded set for every address class the
// universe produces (honest live hosts, dead discoverable slots,
// aliased space, carve-out islands, rotating addresses, unrouted
// space), every protocol, across days and seq values, for batch
// shapes that cross the kernel's internal tile boundary and for
// sparse row subsets. Whole campaigns through the kernel are held to
// the per-probe reference model by tests/test_reference_model.cpp.

#include <string>
#include <vector>

#include "netsim/network_sim.h"
#include "netsim/universe.h"
#include "scan/resolved_table.h"
#include "test_main.h"
#include "util/rng.h"

using namespace v6h;

namespace {

// Addresses exercising every resolution class (the probe_targets
// recipe of tests/test_scan_engine.cpp, denser so one batch spans
// several 128-row kernel tiles plus a ragged tail).
std::vector<ipv6::Address> probe_targets(const netsim::Universe& universe,
                                         int day) {
  std::vector<ipv6::Address> out;
  util::Rng rng(0xfeed + static_cast<unsigned>(day));
  for (std::size_t z = 0; z < universe.zones().size(); z += 3) {
    const auto& zone = universe.zones()[z];
    const auto pool = zone.discoverable_count();
    out.push_back(zone.discoverable_address(0, day));
    out.push_back(zone.discoverable_address(pool - 1, day));
    out.push_back(zone.discoverable_address(
        static_cast<std::uint32_t>(rng.uniform(pool)), day));
    if (zone.config().lifetime_days > 0) {
      out.push_back(
          zone.discoverable_address(0, day + zone.config().lifetime_days));
    }
    out.push_back(zone.prefix().random_address(rng.next_u64()));
    out.push_back(zone.prefix().fanout_address(static_cast<unsigned>(z & 0xf),
                                               rng.next_u64()));
    if (zone.config().carveout) {
      out.push_back(zone.config().carveout->random_address(rng.next_u64()));
    }
  }
  for (int i = 0; i < 64; ++i) {
    out.push_back(ipv6::Address::from_u64(
        0xfd00000000000000ULL + rng.next_u64(), rng.next_u64()));
  }
  return out;
}

// One kernel sweep over `rows`; true when every row's scattered bit
// equals probe().responded for its address and every row outside the
// batch stays untouched.
bool kernel_matches_probe(netsim::NetworkSim& sim,
                          const netsim::ResolvedColumns& cols,
                          const std::vector<ipv6::Address>& targets,
                          const std::vector<std::uint32_t>& rows,
                          net::Protocol protocol, int day, unsigned seq) {
  std::vector<net::ProtocolMask> kernel(targets.size(), 0);
  sim.probe_resolved_mask(cols, rows.data(), rows.size(), protocol, day, seq,
                          kernel.data());
  std::vector<net::ProtocolMask> expected(targets.size(), 0);
  for (const auto row : rows) {
    if (sim.probe(targets[row], protocol, day, seq).responded) {
      expected[row] = net::mask_of(protocol);
    }
  }
  return kernel == expected;
}

void run_mask_equivalence() {
  netsim::UniverseParams params;
  params.seed = 7;
  params.scale = 0.05;
  params.tail_as_count = 200;
  const netsim::Universe universe(params);
  netsim::NetworkSim sim(universe);

  std::size_t batches = 0;
  std::size_t disagreements = 0;
  for (const int day : {0, 13, 61, 200}) {
    const auto targets = probe_targets(universe, day);
    // Several tiles plus a ragged tail, or the batch shapes below
    // stop meaning anything.
    CHECK(targets.size() > 300);
    scan::ResolvedTargetTable table(sim);
    table.extend(targets.data(), targets.size(), day);
    const auto cols = table.columns();

    std::vector<std::uint32_t> all_rows(targets.size());
    for (std::size_t i = 0; i < all_rows.size(); ++i) {
      all_rows[i] = static_cast<std::uint32_t>(i);
    }
    // Sparse subset (every 3rd row) — the kernel must honor an
    // arbitrary row list, not just dense spans.
    std::vector<std::uint32_t> sparse_rows;
    for (std::size_t i = 0; i < targets.size(); i += 3) {
      sparse_rows.push_back(static_cast<std::uint32_t>(i));
    }
    // Single-tile prefix: exactly one partial tile.
    std::vector<std::uint32_t> short_rows(all_rows.begin(),
                                          all_rows.begin() + 77);

    for (const auto protocol : net::kAllProtocols) {
      for (const unsigned seq : {0u, 3u}) {
        for (const auto* rows : {&all_rows, &sparse_rows, &short_rows}) {
          disagreements += !kernel_matches_probe(sim, cols, targets, *rows,
                                                 protocol, day, seq);
          ++batches;
        }
      }
    }
  }
  CHECK_EQ(disagreements, 0u);
  CHECK(batches == 4u * net::kAllProtocols.size() * 2u * 3u);
}

void run_tests() { run_mask_equivalence(); }

}  // namespace

TEST_MAIN()
