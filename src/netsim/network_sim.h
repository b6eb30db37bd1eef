#pragma once

// The simulated wire: deterministic probe responses with the TCP
// fingerprint surface (iTTL, options, wscale, MSS, wsize, timestamps)
// the alias-resolution analyses of Section 5.4 need.
//
// Three probe paths share one response predicate:
//  - probe(): resolve the target through the universe (zone trie, slot
//    inversion, service mask) on every call and, when it answers, fill
//    the machine image — the per-address path, and the only one that
//    reports the TCP fingerprint (Table 5's APD validation).
//  - resolve() + probe_resolved_mask(): the daily scan records only
//    whether each target answers, so resolve() hoists what the
//    predicate needs from the address alone (zone, slot, service mask)
//    into a ResolvedTarget once per rotation epoch, and the branchless
//    kernel of probe_kernel.h answers a batch of cached rows with the
//    genuinely day/seq-dependent rolls. Its responded bit equals
//    probe().responded (tests/test_probe_kernel.cpp,
//    tests/test_scan_engine.cpp); scan::ScanEngine runs it.
//  - resolve_fanout() + probe_fanout(): the alias detector's 16 probes
//    under one prefix. resolve_fanout() finds the prefix's zone once
//    per campaign (the universe never changes); probe_fanout() is a
//    16-lane kernel over that zone, with everything that depends only
//    on the day (FanoutDay), the zone or its rotation epoch computed
//    once per prefix, not per lane. It specialises by zone class —
//    lossless aliased zones answer without generating an address,
//    privacy-addressed zones invert each IID with pre-keyed Feistel
//    rounds — and its responder count equals a probe() loop over the
//    same 16 fan-out addresses with seq = nybble
//    (tests/test_scan_engine.cpp).

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "ipv6/address.h"
#include "ipv6/prefix.h"
#include "net/protocol.h"
#include "netsim/probe_kernel.h"
#include "netsim/universe.h"
#include "util/rng.h"

namespace v6h::netsim {

struct ProbeResult {
  bool responded = false;
  std::uint8_t ttl = 0;   // hop-decremented TTL as observed
  std::uint8_t ittl = 0;  // inferred initial TTL (64/128/255)
  std::uint8_t wscale = 0;
  std::uint16_t mss = 0;
  std::uint16_t wsize = 0;
  std::uint8_t options_id = 0;  // options-text equivalence class
  bool has_timestamp = false;
  std::uint32_t tsval = 0;
};

/// Abstract probe time used for the timestamp clocks: two probes of
/// the same day with different `seq` are minutes apart.
inline std::uint64_t probe_time(int day, unsigned seq) {
  return static_cast<std::uint64_t>(day) * 1000 + static_cast<std::uint64_t>(seq) * 10;
}

/// What the response predicate derives from the target address alone,
/// cached once per address: the zone, the inverted host slot and the
/// service mask. A zero service_mask row can never respond — unrouted
/// addresses, dead host slots, and alias carve-out members all
/// collapse into that one cheap check. Slot-derived fields are valid
/// for `epoch` only; zones with rotating addresses need a re-resolve
/// when the epoch advances (scan::ResolvedTargetTable::refresh).
struct ResolvedTarget {
  static constexpr std::uint32_t kNoZone = 0xffffffffu;
  static constexpr std::uint8_t kAliased = 1;  // aliased space, outside carve-out

  std::uint32_t zone = kNoZone;  // index into universe().zones()
  std::uint32_t slot = 0;
  std::int32_t epoch = 0;
  std::uint8_t flags = 0;
  std::uint8_t service_mask = 0;
};

/// Struct-of-arrays view over a table of ResolvedTarget rows (owned by
/// scan::ResolvedTargetTable): the scan kernel reads only the columns
/// its predicate needs instead of striding over full records. The
/// per-address hash (NetworkSim::alias_hash) is only read for aliased
/// rows, so it lives in a dense side table instead of a per-row
/// column: for rows with the kAliased flag, `slot[i]` indexes
/// `alias_hash`; honest rows carry their host slot there and no hash
/// at all.
struct ResolvedColumns {
  const std::uint32_t* zone = nullptr;
  const std::uint32_t* slot = nullptr;
  const std::uint64_t* alias_hash = nullptr;
  const std::uint8_t* flags = nullptr;
  const std::uint8_t* service_mask = nullptr;
};

/// The per-zone scalars the day/seq-dependent probe predicates read,
/// flattened out of ZoneConfig into one dense array indexed by zone so
/// the batch loop replaces a Zone pointer chase with one indexed load.
struct ZoneProbeParams {
  std::uint64_t key = 0;
  std::uint64_t key_head = 0;  // splitmix64(key ^ util::kHashSeed)
  double loss = 0.0;
  double stability = 1.0;  // host_transient_up threshold by zone kind
  bool quic_flaky = false;
  bool nodes = false;  // Bitnodes-style permanent churn applies
};

/// The day-only constants of the APD fan-out's 16 lanes (lane n
/// probes nybble n's address with seq = n): the address generator's
/// seed rounds and each lane's loss-roll salt hash64(day, n,
/// protocol). Built once per (day, protocol) batch from the day's 16
/// fan-out seeds and read-only afterwards, so engine workers share
/// one.
struct FanoutDay {
  FanoutDay(const std::array<std::uint64_t, 16>& seeds, int day,
            net::Protocol protocol);

  ipv6::FanoutLanes lanes;
  std::array<std::uint64_t, 16> loss_salt;
  int day;
  net::Protocol protocol;
};

class NetworkSim {
 public:
  /// resolve_fanout() codes other than a zone index.
  static constexpr std::int32_t kFanoutNoZone = -1;  // no zone holds it
  static constexpr std::int32_t kFanoutWalk = -2;    // zones below it

  explicit NetworkSim(const Universe& universe);

  /// One probe of `a` with `protocol` at (day, seq). Deterministic in
  /// all arguments plus the universe params, and safe to call from
  /// engine workers concurrently: the response is a pure function and
  /// the sent counter below is the only mutable state (relaxed adds;
  /// see the invariant comment at probes_sent_).
  ProbeResult probe(const ipv6::Address& a, net::Protocol protocol, int day,
                    unsigned seq = 0);

  /// Resolve an APD candidate prefix for probe_fanout(): the index of
  /// the zone holding every address under it, kFanoutNoZone when no
  /// zone does, or kFanoutWalk when zones are nested below the prefix
  /// (an announced /32 over its /48s), so each address needs its own
  /// lookup. The universe is immutable, so one code serves the whole
  /// campaign. Pure and thread-safe.
  std::int32_t resolve_fanout(const ipv6::Prefix& prefix) const;

  /// APD fan-out of `prefix`, resolved to `zone` by resolve_fanout():
  /// probe the 16 fan-out addresses of `day` and return how many
  /// responded — the responded bits of probe(prefix.
  /// fanout_address_seeded(n, seeds[n]), day.protocol, day.day, n)
  /// summed over n, for the seeds `day` was built from. Counts 16
  /// probes sent.
  unsigned probe_fanout(const ipv6::Prefix& prefix, std::int32_t zone,
                        const FanoutDay& day);

  /// Resolve `a` once at `day`'s rotation epoch. Pure and
  /// thread-safe; the record answers probes for any (day, seq) whose
  /// epoch matches.
  ResolvedTarget resolve(const ipv6::Address& a, int day) const;

  /// The per-address hash that keys an aliased address's loss and
  /// QUIC rolls, proxy window and path length: the one definition
  /// probe(), probe_fanout() and the resolution cache's alias_hash
  /// column share.
  static std::uint64_t alias_hash(const ipv6::Address& a) {
    return util::hash64(a.hi, a.lo, 0xAD);
  }

  /// Scan hot path: OR `mask_of(protocol)` into masks[rows[k]] when
  /// rows[k] responds — `masks` is a row-indexed column (e.g. a
  /// scan::ScanFrame's mask column), so retries and partial sweeps
  /// scatter into the same buffer without a position remap. The
  /// responded bit is identical to probe().responded
  /// (tests/test_probe_kernel.cpp). Runs the branchless SIMD kernel
  /// of probe_kernel.h.
  void probe_resolved_mask(const ResolvedColumns& t, const std::uint32_t* rows,
                           std::size_t count, net::Protocol protocol, int day,
                           unsigned seq, net::ProtocolMask* masks);

  std::uint64_t probes_sent() const {
    return probes_sent_.load(std::memory_order_relaxed);
  }

  const Universe& universe() const { return *universe_; }

  const std::vector<ZoneProbeParams>& zone_params() const { return zone_params_; }

 private:
  // Shared read-only with engine workers: both fields are fully
  // built in the constructor and never written again, so concurrent
  // probe calls need no synchronization to read them.
  const Universe* universe_;
  std::vector<ZoneProbeParams> zone_params_;
  // zone_params_ with thresholds in the kernel's integer form; same
  // construct-once / read-only-after discipline.
  std::vector<ZoneKernelParams> zone_kernel_;
  // Relaxed ordering is sufficient by invariant: this counter is the
  // sim's ONLY mutable state, no other memory is published through
  // it, and nothing branches on intermediate values — every reader
  // (probes_sent()) runs after the pool's run() barrier, whose
  // acquire/release on ThreadPool::remaining_ (each finished task's
  // decrement, the caller's load of zero) already orders the adds.
  // Atomicity alone keeps the total exact; the schedule-independent
  // sum is what keeps output byte-identical across thread counts.
  std::atomic<std::uint64_t> probes_sent_{0};
};

}  // namespace v6h::netsim
