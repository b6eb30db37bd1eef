#pragma once

// A deliberately naive replay of the paper's daily campaign: the one
// equivalence oracle the production day loop (hitlist::Pipeline) is
// tested against. Every stage recomputes from scratch with the
// simplest containers and the per-address NetworkSim::probe path:
//
//  - collect through its own sources::SourceSimulator, dedup in a
//    std::set;
//  - recount APD candidates from the whole hitlist into a std::map
//    (/48, /64, /96, /112 plus the announced prefix);
//  - probe each candidate's 16 fan-out addresses one at a time and
//    smooth the outcome in an apd::SlidingVerdict per prefix;
//  - flag every row against the aliased set with Prefix::contains;
//  - scan every unaliased row x protocol with probe(..., seq 0).
//
// It is slow on purpose and shares no day-loop code with production
// beyond the probe function, the source draws and the window type.
// Both sides describe a day as a DayRecord, so a test can name the
// first field in which they diverge.

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "apd/apd.h"
#include "ipv6/address.h"
#include "ipv6/prefix.h"
#include "net/protocol.h"
#include "netsim/network_sim.h"
#include "netsim/universe.h"
#include "sources/sources.h"

namespace v6h::test {

/// One APD fan-out outcome: how many of the 16 probes answered and
/// the windowed verdict after today.
struct Fanout {
  ipv6::Prefix prefix;
  unsigned responded = 0;
  bool aliased = false;

  friend bool operator==(const Fanout&, const Fanout&) = default;
};

/// Everything one campaign day produces, in production's order.
struct DayRecord {
  int day = -1;
  std::vector<ipv6::Address> new_rows;  // appended to the hitlist today
  std::vector<Fanout> fanouts;          // candidate batch order (sorted)
  std::vector<ipv6::Prefix> became_aliased;
  std::vector<ipv6::Prefix> became_clean;
  std::vector<ipv6::Prefix> aliased;  // current aliased set, sorted
  std::vector<char> row_aliased;      // per hitlist row
  std::vector<std::uint32_t> scanned_rows;
  std::vector<net::ProtocolMask> masks;  // aligned with scanned_rows
  std::array<std::uint64_t, net::kProtocolCount> responsive{};
  std::uint64_t responsive_any = 0;
  std::uint64_t probes = 0;  // probes sent during the day
};

/// The first field in which two records differ, or nullptr when they
/// are equal.
const char* first_difference(const DayRecord& a, const DayRecord& b);

/// The same, restricted to what the hitlist stages produce (new rows,
/// fan-outs, verdict transitions, aliased set, row flags) ...
const char* first_hitlist_difference(const DayRecord& a, const DayRecord& b);

/// ... or to what the daily scan produces (scanned rows, masks,
/// tallies) plus the day's probe count.
const char* first_scan_difference(const DayRecord& a, const DayRecord& b);

class ReferenceModel {
 public:
  ReferenceModel(const netsim::Universe& universe, const apd::ApdOptions& apd,
                 std::vector<net::Protocol> protocols);

  DayRecord run_day(int day);

 private:
  const netsim::Universe* universe_;
  apd::ApdOptions apd_;
  std::vector<net::Protocol> protocols_;
  netsim::NetworkSim sim_;
  sources::SourceSimulator sources_;
  std::vector<ipv6::Address> rows_;  // the hitlist in first-seen order
  std::set<ipv6::Address> seen_;
  std::map<ipv6::Prefix, apd::SlidingVerdict> windows_;
};

}  // namespace v6h::test
