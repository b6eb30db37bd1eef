#include "engine/engine.h"

#include <algorithm>
#include <thread>

#include "obs/obs.h"

namespace v6h::engine {

Engine::Engine(EngineOptions options) {
  threads_ = options.threads != 0
                 ? options.threads
                 : std::max(1u, std::thread::hardware_concurrency());
  if (threads_ > 1) pool_ = std::make_unique<ThreadPool>(threads_);
}

void Engine::set_observability(obs::Observability* obs) {
  obs_ = obs;
  if (pool_ != nullptr) pool_->set_observability(obs);
}

void Engine::parallel_chunks(
    std::size_t n, std::size_t grain,
    util::FunctionRef<void(std::size_t, std::size_t)> fn) {
  // Chunk count derives from the range size (never split below grain)
  // and the worker count (~8 chunks per worker balances claim
  // overhead against tail imbalance). The borrowed `fn` is safe to
  // reference from the chunk lambda because ThreadPool::run is a full
  // barrier: no worker touches the task after run returns.
  const std::size_t by_grain = (n + grain - 1) / grain;
  const std::size_t want =
      std::min(by_grain, static_cast<std::size_t>(threads_) * 8);
  const std::size_t chunk = std::max(grain, (n + want - 1) / want);
  const std::size_t chunks = (n + chunk - 1) / chunk;
  if (obs_ != nullptr) {
    auto& registry = obs_->registry();
    const obs::CoreMetrics& core = obs_->core();
    registry.add(core.parallel_fors, 1);
    registry.add(core.chunks, chunks);
    registry.observe(core.chunk_rows, chunk);
  }
  obs::StageSpan span(obs_, obs::Stage::kPoolRun);
  pool_->run(chunks, [&](std::size_t c) {
    const std::size_t begin = c * chunk;
    fn(begin, std::min(n, begin + chunk));
  });
}

}  // namespace v6h::engine
