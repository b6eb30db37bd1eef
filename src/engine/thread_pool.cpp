#include "engine/thread_pool.h"

#include "obs/obs.h"

namespace v6h::engine {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads < 1) threads = 1;
  workers_.reserve(threads - 1);
  for (unsigned i = 1; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    util::MutexLock lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::drain(std::uint32_t epoch, std::uint32_t count) {
  std::uint64_t cursor = cursor_.load(std::memory_order_acquire);
  for (;;) {
    // Another run's epoch or a used-up count ends this thread's share.
    if (static_cast<std::uint32_t>(cursor >> 32) != epoch) return;
    const auto index = static_cast<std::uint32_t>(cursor);
    if (index >= count) return;
    if (!cursor_.compare_exchange_weak(cursor, cursor + 1,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      continue;  // `cursor` now holds the current word
    }
    if (obs::Observability* obs = obs_.load(std::memory_order_relaxed)) {
      // Lane-local relaxed store (this thread claimed its lane at
      // spawn); nondeterministic by nature — which thread claims an
      // index is scheduling-dependent.
      obs->registry().add(obs->core().pool_tasks, 1);
    }
    // A thread holding a claimed index owns one dereference of task_:
    // the acquire pairs with run()'s release store, and run() cannot
    // null the pointer before remaining_ (decremented below, after
    // the call) reaches zero.
    const auto* task = task_.load(std::memory_order_acquire);
    (*task)(index);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last task: take mu_ so the notify cannot slip between the
      // run() caller's predicate test and its wait.
      util::MutexLock lock(mu_);
      done_.notify_all();
    }
    cursor = cursor_.load(std::memory_order_acquire);
  }
}

void ThreadPool::worker_loop(unsigned self) {
  // Claim this thread's observability lane (the coordinator keeps the
  // default lane 0): metric updates and trace tids key off it, and the
  // one-writer-per-lane invariant of obs::Registry depends on slots
  // being distinct per pool thread.
  obs::set_lane(self);
  std::uint64_t seen = 0;
  for (;;) {
    std::uint32_t count = 0;
    {
      util::MutexLock lock(mu_);
      while (!stop_ && epoch_ == seen) wake_.wait(mu_);
      if (stop_) return;
      seen = epoch_;
      count = count_;
    }
    drain(static_cast<std::uint32_t>(seen), count);
  }
}

void ThreadPool::run(std::size_t count,
                     util::FunctionRef<void(std::size_t)> task) {
  if (count == 0) return;
  if (inside_run_) {
    for (std::size_t i = 0; i < count; ++i) task(i);
    return;
  }
  inside_run_ = true;
  // task_ and remaining_ are published before the cursor opens the
  // run, so any thread that claims an index observes both. `task`
  // lives in this frame until the barrier below completes, so
  // publishing its address is safe.
  task_.store(&task, std::memory_order_release);
  remaining_.store(count, std::memory_order_release);
  const auto count32 = static_cast<std::uint32_t>(count);
  std::uint32_t epoch = 0;
  {
    util::MutexLock lock(mu_);
    epoch = static_cast<std::uint32_t>(++epoch_);
    count_ = count32;
    cursor_.store(std::uint64_t{epoch} << 32, std::memory_order_release);
  }
  wake_.notify_all();
  drain(epoch, count32);
  {
    util::MutexLock lock(mu_);
    while (remaining_.load(std::memory_order_acquire) != 0) done_.wait(mu_);
  }
  // All dereferences of task_ happened-before the acquire load above
  // observed zero, so the reference can be safely retired.
  task_.store(nullptr, std::memory_order_relaxed);
  inside_run_ = false;
}

}  // namespace v6h::engine
