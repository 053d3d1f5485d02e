// Work-stealing thread pool for deterministic parallel pipelines.
//
// The pool exists to parallelize per-group/per-tenant work whose *results*
// are index-addressed: parallel_for(begin, end, body) guarantees body(i) runs
// exactly once for every i, but in no particular order and on no particular
// thread. Determinism is therefore a contract on the callers, not the pool:
// every body must (a) write only to slot i of pre-sized output, (b) draw
// randomness only from a stream derived from (seed, i) — see
// util::stream_rng — and (c) touch shared state only through commutative
// atomics whose effect is reconciled in a later, serial, in-order merge pass
// (see DESIGN.md §5). Under that contract the output is bit-identical at any
// thread count, including 1.
//
// Scheduling is classic range stealing (TBB/rayon style): the iteration
// space is split into one contiguous slice per executor; each executor pops
// from the front of its own slice and, when empty, steals the upper half of
// the largest remaining slice. The calling thread participates as executor 0,
// so ThreadPool(1) spawns no threads and runs strictly inline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace elmo::util {

// Worker count for benches and tools: ELMO_THREADS env if set (clamped to
// >= 1), else std::thread::hardware_concurrency().
std::size_t default_thread_count();

class ThreadPool {
 public:
  // `threads` counts executors including the caller; 0 means
  // default_thread_count(). ThreadPool(1) is a strictly-serial pool.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t threads() const noexcept { return executors_; }

  // Runs body(i) exactly once for every i in [begin, end). Blocks until all
  // iterations finished. The first exception thrown by any body is rethrown
  // here (remaining iterations may be skipped). Nested calls — body itself
  // calling parallel_for on the same or another pool — execute the inner
  // loop inline on the calling worker; correct, never deadlocks, and the
  // outer loop already saturates the pool.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

 private:
  struct Loop;

  void worker_main(std::size_t executor);
  static void run_loop(Loop& loop, std::size_t executor);

  std::size_t executors_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;                 // guards current_/generation_/stop_
  std::condition_variable work_cv_;  // workers wait for a new loop
  std::condition_variable done_cv_;  // caller waits for loop completion
  Loop* current_ = nullptr;
  std::uint64_t generation_ = 0;
  bool stop_ = false;

  std::mutex submit_mutex_;  // one top-level loop at a time
};

// Runs body(i) for every i in [begin, end): on `pool` when it is non-null,
// else inline in ascending order, calling `body` directly (no
// std::function), so a serial caller pays nothing for the option.
template <typename Body>
void parallel_for(ThreadPool* pool, std::size_t begin, std::size_t end,
                  Body&& body) {
  if (pool != nullptr) {
    pool->parallel_for(begin, end, body);
  } else {
    for (std::size_t i = begin; i < end; ++i) body(i);
  }
}

}  // namespace elmo::util
