// Engine chunking and pool dispatch regression tests: the
// parallel_for chunk count is derived from the range size and the
// worker count (at most 8 chunks per worker), every index of [0, n) is
// visited exactly once at any chunk/thread geometry, ThreadPool::run
// survives task counts of 1e5+ on its one claim cursor without losing
// or duplicating an index, and tens of thousands of back-to-back runs
// never let a worker still draining one run claim an index of the
// next (the hazard the cursor's epoch tag exists for).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "engine/thread_pool.h"
#include "obs/obs.h"
#include "test_main.h"
#include "util/function_ref.h"

using namespace v6h;

namespace {

// The >= 1e5 task regression: run() must execute every index exactly
// once however the claims interleave, and a second run on the same
// cursor must too.
void pool_large_run(unsigned threads) {
  engine::ThreadPool pool(threads);
  constexpr std::size_t kTasks = 120000;
  std::vector<std::atomic<std::uint8_t>> counts(kTasks);
  auto task = [&](std::size_t i) {
    counts[i].fetch_add(1, std::memory_order_relaxed);
  };
  for (int round = 0; round < 2; ++round) {
    pool.run(kTasks, util::FunctionRef<void(std::size_t)>(task));
  }
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < kTasks; ++i) {
    wrong += counts[i].load(std::memory_order_relaxed) != 2;
  }
  CHECK_EQ(wrong, 0u);
}

// Back-to-back runs with counts cycling over 1..64: each task records
// (run id, index), and a record arriving after its run returned, or an
// index outside its run's count, is a violation. Short runs make the
// race likely — a worker that loses the claim for a run's last index
// is still in its claim loop when the caller has returned and opened
// the next run, so an untagged cursor would let it take, skip or
// duplicate an index of that next run. A skipped index leaves its run
// waiting forever, so a watchdog fails the test when no run has
// returned for 30 s.
void pool_back_to_back(unsigned threads) {
  engine::ThreadPool pool(threads);
  constexpr std::size_t kRuns = 20000;
  constexpr std::size_t kMaxCount = 64;
  std::vector<std::atomic<std::uint8_t>> hits(kRuns * kMaxCount);
  std::atomic<std::size_t> returned{0};  // runs that have returned
  std::atomic<std::size_t> late{0};
  std::atomic<std::size_t> out_of_range{0};
  std::atomic<bool> finished{false};
  std::thread watchdog([&] {
    using Clock = std::chrono::steady_clock;
    std::size_t last = 0;
    auto since = Clock::now();
    while (!finished.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      const std::size_t now = returned.load(std::memory_order_acquire);
      if (now != last) {
        last = now;
        since = Clock::now();
      } else if (Clock::now() - since > std::chrono::seconds(30)) {
        std::fprintf(stderr,
                     "FAIL pool_back_to_back threads=%u: run %zu has not "
                     "returned after 30 s (an index was lost)\n",
                     threads, now);
        std::fflush(stderr);
        std::_Exit(1);
      }
    }
  });
  for (std::size_t run = 0; run < kRuns; ++run) {
    const std::size_t count = 1 + run % kMaxCount;
    auto task = [&, run, count](std::size_t i) {
      if (returned.load(std::memory_order_acquire) > run) {
        late.fetch_add(1, std::memory_order_relaxed);
      }
      if (i >= count) {
        out_of_range.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      hits[run * kMaxCount + i].fetch_add(1, std::memory_order_relaxed);
    };
    pool.run(count, util::FunctionRef<void(std::size_t)>(task));
    returned.store(run + 1, std::memory_order_release);
  }
  finished.store(true, std::memory_order_release);
  watchdog.join();
  std::size_t wrong = 0;
  for (std::size_t run = 0; run < kRuns; ++run) {
    const std::size_t count = 1 + run % kMaxCount;
    for (std::size_t i = 0; i < kMaxCount; ++i) {
      const unsigned expect = i < count ? 1 : 0;
      wrong += hits[run * kMaxCount + i].load(std::memory_order_relaxed) !=
               expect;
    }
  }
  CHECK_EQ(wrong, 0u);
  CHECK_EQ(late.load(), 0u);
  CHECK_EQ(out_of_range.load(), 0u);
}

// Full-range coverage at a large n with the smallest grain, plus the
// chunk count read back through the metrics registry (the same
// numbers the telemetry layer exports).
void parallel_for_coverage(unsigned threads) {
  engine::EngineOptions engine_options;
  engine_options.threads = threads;
  engine::Engine eng(engine_options);
  obs::ObsOptions obs_options;  // metrics only; no ring needed here
  obs::Observability observability(obs_options, eng.threads());
  eng.set_observability(&observability);

  constexpr std::size_t kRows = 2'000'000;
  std::vector<std::uint8_t> marks(kRows, 0);
  std::atomic<std::size_t> calls{0};
  std::atomic<std::size_t> covered{0};
  // The CHECK counters are plain ints (single-threaded by design), so
  // the concurrent callback records violations into an atomic and the
  // serial code below asserts on it.
  std::atomic<std::size_t> bad_ranges{0};
  eng.parallel_for(kRows, 1, [&](std::size_t begin, std::size_t end) {
    if (begin >= end || end > kRows) {
      bad_ranges.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    for (std::size_t i = begin; i < end; ++i) ++marks[i];
    calls.fetch_add(1, std::memory_order_relaxed);
    covered.fetch_add(end - begin, std::memory_order_relaxed);
  });
  eng.set_observability(nullptr);
  CHECK_EQ(bad_ranges.load(), 0u);
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < kRows; ++i) wrong += marks[i] != 1;
  CHECK_EQ(wrong, 0u);
  CHECK_EQ(covered.load(), kRows);
  // Never more than 8 chunks per worker.
  CHECK(calls.load() >= 1);
  CHECK(calls.load() <= static_cast<std::size_t>(threads) * 8);

  // The registry saw the same sweep the callback counted: one
  // parallel_for, `calls` chunks (parallel engines only — a serial
  // engine never dispatches through parallel_chunks).
  observability.registry().merge_day();
  const obs::Registry& registry = observability.registry();
  const obs::CoreMetrics& core = observability.core();
  if (eng.parallel()) {
    CHECK_EQ(registry.merged(core.parallel_fors), 1u);
    CHECK_EQ(registry.merged(core.chunks), calls.load());
    // chunk_rows records one sample per sweep (the uniform chunk
    // size); its buckets must sum to the sweep count.
    std::uint64_t samples = 0;
    for (std::uint32_t b = 0; b < registry.describe(core.chunk_rows).slots;
         ++b) {
      samples += registry.merged_bucket(core.chunk_rows, b);
    }
    CHECK_EQ(samples, 1u);
  } else {
    CHECK_EQ(registry.merged(core.parallel_fors), 0u);
    CHECK_EQ(registry.merged(core.chunks), 0u);
  }
}

// Geometry edge cases: empty ranges, grain 0, ranges below the grain,
// and a grain that does not divide n — all must cover exactly [0, n)
// with chunk sizes respecting the grain floor.
void parallel_for_edges(unsigned threads) {
  engine::EngineOptions engine_options;
  engine_options.threads = threads;
  engine::Engine eng(engine_options);

  {  // n == 0: no calls at all
    std::atomic<std::size_t> calls{0};
    eng.parallel_for(0, 4, [&](std::size_t, std::size_t) {
      calls.fetch_add(1, std::memory_order_relaxed);
    });
    CHECK_EQ(calls.load(), 0u);
  }
  {  // n <= grain: exactly one inline call covering everything
    std::atomic<std::size_t> calls{0};
    eng.parallel_for(7, 16, [&](std::size_t begin, std::size_t end) {
      CHECK_EQ(begin, 0u);
      CHECK_EQ(end, 7u);
      calls.fetch_add(1, std::memory_order_relaxed);
    });
    CHECK_EQ(calls.load(), 1u);
  }
  {  // grain 0 behaves like grain 1; odd n still covers exactly
    constexpr std::size_t kRows = 10007;  // prime: never divides evenly
    std::vector<std::atomic<std::uint8_t>> marks(kRows);
    std::atomic<std::size_t> min_len{kRows};
    eng.parallel_for(kRows, 0, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        marks[i].fetch_add(1, std::memory_order_relaxed);
      }
      std::size_t len = end - begin;
      std::size_t seen = min_len.load(std::memory_order_relaxed);
      while (len < seen &&
             !min_len.compare_exchange_weak(seen, len,
                                            std::memory_order_relaxed)) {
      }
    });
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < kRows; ++i) {
      wrong += marks[i].load(std::memory_order_relaxed) != 1;
    }
    CHECK_EQ(wrong, 0u);
    CHECK(min_len.load() >= 1);
  }
  {  // grain floor: every chunk but the tail is at least `grain` long
    constexpr std::size_t kRows = 1000;
    constexpr std::size_t kGrain = 30;
    std::vector<std::atomic<std::uint8_t>> marks(kRows);
    std::atomic<std::size_t> short_chunks{0};
    eng.parallel_for(kRows, kGrain, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        marks[i].fetch_add(1, std::memory_order_relaxed);
      }
      if (end - begin < kGrain) {
        short_chunks.fetch_add(1, std::memory_order_relaxed);
      }
    });
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < kRows; ++i) {
      wrong += marks[i].load(std::memory_order_relaxed) != 1;
    }
    CHECK_EQ(wrong, 0u);
    CHECK(short_chunks.load() <= 1);  // only the tail may run short
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (const unsigned threads :
       v6h::test::thread_counts_from_cli(argc, argv, {2, 4, 8})) {
    if (threads < 2) continue;  // the pool needs at least one worker
    pool_back_to_back(threads);
    pool_large_run(threads);
  }
  for (const unsigned threads :
       v6h::test::thread_counts_from_cli(argc, argv, {1, 2, 4, 8})) {
    parallel_for_coverage(threads);
    parallel_for_edges(threads);
  }
  std::printf("%d checks, %d failures\n", v6h::test::checks,
              v6h::test::failures);
  return v6h::test::failures == 0 ? 0 : 1;
}
