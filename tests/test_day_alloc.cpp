// The day-loop zero-allocation contract (ISSUE 8): once the pipeline
// is warm, an entire run_day — collect, candidate counting, APD
// verdicts and fan-out, alias filtering, resolution-cache extension,
// and the protocol scan — performs ZERO heap allocations, measured
// with the global counting allocator across ALL threads. Flip days
// (days whose APD verdicts move prefixes in or out of the alias
// filter, re-filtering the members) are explicitly required in the
// checked window: verdict application is the most tempting place to
// allocate, so a window without flips would prove nothing about it.
//
// The window runs at the default min_targets and again at
// min_targets 1, which makes every tracked prefix a candidate: the
// most candidates per hitlist address, so the closest a campaign gets
// to the 5 * N / min_targets bound the Pipeline constructor reserves
// the verdict table and candidate lists by.
//
// Static complement: tools/symlint.py --policy noalloc walks the
// machine-code call graph from Pipeline::run_day and the stage entry points and
// proves no allocation route exists outside the capacity-elastic
// allowlist; this test proves those elastic routes actually go quiet.

#include <cstdint>
#include <vector>

#include "engine/engine.h"
#include "hitlist/pipeline.h"
#include "netsim/network_sim.h"
#include "netsim/universe.h"
#include "test_main.h"
#include "util/counting_allocator.h"

using namespace v6h;

namespace {

void run_quiet_days(unsigned threads, std::size_t min_targets) {
  engine::EngineOptions engine_options;
  engine_options.threads = threads;
  engine::Engine eng(engine_options);

  netsim::UniverseParams params;
  params.seed = 5;
  params.scale = 0.05;
  params.tail_as_count = 300;
  const netsim::Universe universe(params, &eng);
  netsim::NetworkSim sim(universe);
  hitlist::PipelineOptions options;
  options.apd.min_targets = min_targets;
  hitlist::Pipeline pipeline(universe, sim, options, &eng);

  // Mid-campaign window: source growth has ramped, APD verdicts are
  // live. The first two days absorb the cold start (capacity
  // warm-up in the reserved-but-cold corners); every later day must
  // be allocation-quiet, flips included.
  const int first_day = 100;
  const int warmup_days = 2;
  const int total_days = 18;
  std::size_t flips_in_window = 0;
  std::size_t responsive_total = 0;
  std::vector<std::uint64_t> day_allocs;
  day_allocs.reserve(static_cast<std::size_t>(total_days));
  for (int d = 0; d < total_days; ++d) {
    const std::uint64_t before = util::allocation_count();
    const auto report = pipeline.run_day(first_day + d);
    responsive_total += report.scan().responsive_any_count();
    day_allocs.push_back(util::allocation_count() - before);
    if (d >= warmup_days) {
      flips_in_window += !pipeline.last_delta().became_aliased.empty() ||
                         !pipeline.last_delta().became_clean.empty();
    }
  }
  CHECK(responsive_total > 0);  // the days did real scan work
  // The window must contain at least one verdict-flip day, or the
  // claim below would silently skip the filter-mutation path.
  CHECK(flips_in_window > 0);
  for (int d = warmup_days; d < total_days; ++d) {
    const auto allocs = day_allocs[static_cast<std::size_t>(d)];
    CHECK_EQ(allocs, 0u);
    if (allocs != 0) {
      std::fprintf(stderr,
                   "  day %d (threads %u, min_targets %zu): %llu allocations\n",
                   first_day + d, threads, min_targets,
                   static_cast<unsigned long long>(allocs));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (const unsigned threads :
       v6h::test::thread_counts_from_cli(argc, argv, {1, 4})) {
    for (const std::size_t min_targets :
         {apd::ApdOptions{}.min_targets, std::size_t{1}}) {
      run_quiet_days(threads, min_targets);
    }
  }
  std::printf("%d checks, %d failures\n", v6h::test::checks,
              v6h::test::failures);
  return v6h::test::failures == 0 ? 0 : 1;
}
