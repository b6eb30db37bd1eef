// The production day loop against the naive reference model
// (reference_model.h): for seeds {1,2,3} x threads {1,4,8} over days
// 150..159, hitlist::Pipeline — incremental candidate counter,
// engine-routed APD fan-out, in-place alias filter, resolved scan
// engine with its branchless kernel — must reproduce the reference's
// DayRecord every day: the new rows, every fan-out outcome, the
// verdict transitions, the aliased set, every row's flag, every
// scanned row's mask, the tallies, and the probe count. A divergence
// names the first (seed, threads, day, field).
//
// The checks form two suites, registered as separate ctests:
//
//  - `--suite incremental` (ctest pipeline_incremental): the
//    delta-driven hitlist stages against the reference's from-scratch
//    recomputation — new rows, fan-outs, verdict transitions, aliased
//    set, row flags. Each day the DayDelta must match the report and
//    the row flags the filter; the run must exercise an age-out
//    (window_days = 1), and distinct seeds must differ.
//  - `--suite scan` (ctest scan_equivalence): the resolved scan engine
//    against the reference's per-address scan — scanned rows, masks,
//    tallies, probe count. Each day the ResultSink stream must match
//    the frame, and the run must cache rotating rows in a resolution
//    table that tracks the store.
//
// Without `--suite` both run. Accepts `--threads N` (repeatable) for
// extra thread counts.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "engine/engine.h"
#include "hitlist/pipeline.h"
#include "net/protocol.h"
#include "netsim/network_sim.h"
#include "netsim/universe.h"
#include "reference_model.h"
#include "test_main.h"

using namespace v6h;

namespace {

constexpr int kDays = 10;
constexpr int kFirstDay = 150;  // mid-campaign: real growth + flicker

struct Suites {
  bool incremental = true;
  bool scan = true;
};

// `--suite incremental|scan` narrows the run to one suite; exits 2 on
// any other value.
Suites suites_from_cli(int argc, char** argv) {
  Suites suites;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--suite") != 0) continue;
    const char* name = argv[i + 1];
    if (std::strcmp(name, "incremental") == 0) {
      suites.scan = false;
    } else if (std::strcmp(name, "scan") == 0) {
      suites.incremental = false;
    } else {
      std::fprintf(stderr, "unknown suite: %s\n", name);
      std::exit(2);
    }
  }
  return suites;
}

netsim::UniverseParams universe_params(std::uint64_t seed) {
  netsim::UniverseParams params;
  params.seed = seed;
  params.scale = 0.05;
  params.tail_as_count = 300;
  return params;
}

hitlist::PipelineOptions pipeline_options() {
  hitlist::PipelineOptions options;
  options.apd.window_days = 1;  // short window: age-outs happen in-run
  return options;
}

// Records what the pipeline streamed, for the DayRecord and for the
// sink-vs-frame check.
struct RecordingSink final : scan::ResultSink {
  std::vector<test::Fanout> fanouts;
  std::vector<std::pair<std::uint32_t, net::ProtocolMask>> rows;
  std::size_t day_ends = 0;
  void on_fanout(const ipv6::Prefix& prefix, unsigned responded,
                 bool aliased) override {
    fanouts.push_back({prefix, responded, aliased});
  }
  void on_target(std::uint32_t row, net::ProtocolMask mask) override {
    rows.emplace_back(row, mask);
  }
  void on_day_end(const scan::ScanFrame&) override { ++day_ends; }
};

std::vector<test::DayRecord> run_reference(std::uint64_t seed) {
  const netsim::Universe universe(universe_params(seed));
  const hitlist::PipelineOptions options = pipeline_options();
  test::ReferenceModel model(universe, options.apd, options.schedule.protocols);
  std::vector<test::DayRecord> days;
  for (int day = kFirstDay; day < kFirstDay + kDays; ++day) {
    days.push_back(model.run_day(day));
  }
  return days;
}

std::vector<test::DayRecord> run_production(std::uint64_t seed,
                                            unsigned threads,
                                            const Suites& suites) {
  engine::EngineOptions engine_options;
  engine_options.threads = threads;
  engine::Engine eng(engine_options);
  const netsim::Universe universe(universe_params(seed), &eng);
  netsim::NetworkSim sim(universe);
  hitlist::Pipeline pipeline(universe, sim, pipeline_options(), &eng);

  std::vector<test::DayRecord> days;
  std::size_t previous_aliased = 0;
  for (int day = kFirstDay; day < kFirstDay + kDays; ++day) {
    RecordingSink sink;
    const std::uint64_t probes_before = sim.probes_sent();
    const auto report = pipeline.run_day(day, &sink);
    const auto& store = pipeline.store();
    const auto& frame = report.scan();
    const auto& delta = pipeline.last_delta();

    test::DayRecord record;
    record.day = report.day;
    record.new_rows.assign(store.addresses().begin() + delta.first_new_row,
                           store.addresses().end());
    record.fanouts = sink.fanouts;
    record.became_aliased = delta.became_aliased;
    record.became_clean = delta.became_clean;
    record.aliased = pipeline.filter().prefixes();
    for (std::size_t row = 0; row < store.size(); ++row) {
      record.row_aliased.push_back(store.aliased(row) ? 1 : 0);
    }
    record.scanned_rows = frame.rows();
    for (const auto row : frame.rows()) record.masks.push_back(frame.mask_of_row(row));
    for (const auto protocol : net::kAllProtocols) {
      record.responsive[net::index_of(protocol)] = frame.responsive_count(protocol);
    }
    record.responsive_any = frame.responsive_any_count();
    record.probes = sim.probes_sent() - probes_before;

    if (suites.incremental) {
      // The delta accounts for the report exactly.
      CHECK_EQ(delta.new_addresses(), report.new_addresses);
      CHECK_EQ(record.new_rows.size(), report.new_addresses);
      CHECK_EQ(previous_aliased + delta.became_aliased.size() -
                   delta.became_clean.size(),
               report.aliased_prefixes);
      CHECK_EQ(record.aliased.size(), report.aliased_prefixes);
      previous_aliased = report.aliased_prefixes;
      // Row flags agree with the filter: exactly the unflagged rows
      // are scanned.
      std::size_t flagged = 0;
      std::size_t stale_flags = 0;
      for (std::size_t row = 0; row < store.size(); ++row) {
        flagged += store.aliased(row);
        stale_flags += store.aliased(row) !=
                       pipeline.filter().is_aliased(store.address(row));
      }
      CHECK_EQ(stale_flags, 0u);
      CHECK_EQ(flagged, store.size() - report.scanned_targets);
    }
    if (suites.scan) {
      CHECK_EQ(frame.rows().size(), report.scanned_targets);
      // Sink, frame and row order agree.
      CHECK_EQ(sink.day_ends, 1u);
      CHECK_EQ(sink.rows.size(), frame.rows().size());
      for (std::size_t k = 0; k < sink.rows.size() && k < frame.rows().size();
           ++k) {
        CHECK_EQ(sink.rows[k].first, frame.rows()[k]);
        CHECK_EQ(sink.rows[k].second, frame.mask_of_row(frame.rows()[k]));
      }
    }
    days.push_back(std::move(record));
  }
  if (suites.scan) {
    // The engine must have cached rotating rows, or the epoch-refresh
    // machinery went untested, and its table tracks the store.
    CHECK(pipeline.scan_engine().table().rotating_rows() > 0);
    CHECK_EQ(pipeline.scan_engine().table().size(), pipeline.store().size());
  }
  return days;
}

// Compare day by day, on the fields of the selected suites, and
// report only the first divergence: every later day inherits it.
void compare(std::uint64_t seed, unsigned threads, const Suites& suites,
             const std::vector<test::DayRecord>& reference,
             const std::vector<test::DayRecord>& production) {
  CHECK_EQ(production.size(), reference.size());
  for (std::size_t i = 0; i < reference.size() && i < production.size(); ++i) {
    const char* field =
        suites.incremental
            ? test::first_hitlist_difference(production[i], reference[i])
            : nullptr;
    if (field == nullptr && suites.scan) {
      field = test::first_scan_difference(production[i], reference[i]);
    }
    CHECK(field == nullptr);
    if (field != nullptr) {
      std::fprintf(stderr,
                   "  seed %llu threads %u: first divergence on day %d in "
                   "field '%s'\n",
                   static_cast<unsigned long long>(seed), threads,
                   reference[i].day, field);
      return;
    }
  }
}

void run_tests(const Suites& suites,
               const std::vector<unsigned>& thread_counts) {
  unsigned age_out_days = 0;
  std::vector<std::vector<test::DayRecord>> references;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto reference = run_reference(seed);
    std::uint64_t probes = 0;
    for (const auto& day : reference) {
      probes += day.probes;
      age_out_days += !day.became_clean.empty();
    }
    CHECK(probes > 0);
    CHECK(!reference.back().scanned_rows.empty());
    for (const unsigned threads : thread_counts) {
      compare(seed, threads, suites, reference,
              run_production(seed, threads, suites));
    }
    std::printf("seed %llu: %zu rows, %llu probes over %d days\n",
                static_cast<unsigned long long>(seed),
                reference.back().row_aliased.size(),
                static_cast<unsigned long long>(probes), kDays);
    references.push_back(reference);
  }
  if (suites.incremental) {
    // The scenario must exercise aging out (a prefix leaving the
    // aliased set mid-run), or the became_clean path went untested.
    CHECK(age_out_days > 0);
    // Distinct seeds must not collide — guards a constant model.
    CHECK(test::first_difference(references[0].back(),
                                 references[1].back()) != nullptr);
  }
}

}  // namespace

int main(int argc, char** argv) {
  run_tests(suites_from_cli(argc, argv),
            v6h::test::thread_counts_from_cli(argc, argv, {1, 4, 8}));
  std::printf("%d checks, %d failures\n", v6h::test::checks,
              v6h::test::failures);
  return v6h::test::failures == 0 ? 0 : 1;
}
