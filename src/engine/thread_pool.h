#pragma once

// Thread pool underneath engine::Engine. run() publishes one task and
// its index count; the caller and every worker then claim indices
// from one shared cursor until the count is used up.
//
// The cursor is one word, (epoch << 32) | next_index, and a claim is
// a compare-exchange that keeps the epoch. A worker still draining an
// earlier run sees a different epoch and stops, so it can never take,
// skip or duplicate an index of a later run, as it could with a plain
// fetch_add cursor reset to 0 by each run(). The epoch is the low 32
// bits of a run counter: it could alias only if one worker stalled
// between two loads while 2^32 runs completed.
//
// run() is driven from one thread at a time (the pipeline's main
// thread); a nested run() call degrades to inline execution on the
// caller instead of deadlocking.
//
// Allocation discipline: run() borrows a util::FunctionRef and a claim
// touches only the cursor, so a warm pool dispatches with zero heap
// allocations (tests/test_day_alloc.cpp relies on it).
//
// Locking discipline (checked by -Wthread-safety under Clang): mu_
// guards the epoch/count/stop wake protocol; the other cross-thread
// fields are atomics whose orderings are documented inline.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/function_ref.h"
#include "util/thread_annotations.h"

namespace v6h::obs {
class Observability;
}  // namespace v6h::obs

namespace v6h::engine {

class ThreadPool {
 public:
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;  // workers hold `this`
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Attach (or detach with nullptr) the observability layer; workers
  /// then count executed tasks into their own metric lanes. Called
  /// between runs only; relaxed is enough because run()'s
  /// publication/barrier protocol orders it for the workers.
  void set_observability(obs::Observability* obs) {
    obs_.store(obs, std::memory_order_relaxed);
  }

  /// Execute task(0) .. task(count - 1) across all workers and return
  /// once every call has finished. Which worker runs which index is
  /// unspecified — callers keep determinism by writing disjoint,
  /// index-addressed outputs. The referenced callable lives in the
  /// caller's frame across the full barrier, so borrowing it is safe.
  /// Precondition: count < 2^32 (the cursor's index half);
  /// Engine::parallel_for issues at most 8 per worker.
  void run(std::size_t count, util::FunctionRef<void(std::size_t)> task);

 private:
  // Claim and execute indices of the run tagged `epoch` (count
  // `count`) until the cursor is used up or has moved to another run.
  void drain(std::uint32_t epoch, std::uint32_t count);
  void worker_loop(unsigned self);

  // The current run()'s task, published with release before the
  // cursor opens the run and read with acquire by each claimer. Reset
  // to nullptr only after remaining_ has been observed at zero.
  std::atomic<const util::FunctionRef<void(std::size_t)>*> task_{nullptr};
  // Tasks not yet finished in the current run(). fetch_sub(acq_rel)
  // after each task body makes every task's writes visible to the
  // run() caller, whose predicate re-load under mu_ uses acquire: the
  // caller may resume only after it can see all worker output.
  std::atomic<std::size_t> remaining_{0};
  // (epoch << 32) | next unclaimed index, opened by a release store;
  // a claim's acq_rel compare-exchange sees task_ and remaining_.
  std::atomic<std::uint64_t> cursor_{0};
  util::Mutex mu_;
  util::CondVar wake_;
  util::CondVar done_;
  // Observability hook; null when disabled. Relaxed everywhere: it
  // only changes between runs, and the publication edge named here —
  // each run()'s release store of task_ and the workers' acquire
  // loads of it — already orders those writes for the workers.
  std::atomic<obs::Observability*> obs_ V6H_PUBLISHED_BY(task_ publication) = nullptr;
  std::uint64_t epoch_ V6H_GUARDED_BY(mu_) = 0;
  std::uint32_t count_ V6H_GUARDED_BY(mu_) = 0;  // the current run's count
  bool stop_ V6H_GUARDED_BY(mu_) = false;
  bool inside_run_ = false;  // caller-thread only, never shared
  std::vector<std::thread> workers_;
};

}  // namespace v6h::engine
