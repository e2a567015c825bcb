// Minimal fixed-size thread pool for Monte-Carlo fan-out and per-node
// rounds.
//
// Two consumers (see DESIGN.md "Threading model"):
//  * eval/run_algorithm fans Monte-Carlo trials across workers via
//    parallel_for_index when RunOptions::threads > 1. Determinism is
//    preserved because every trial derives its own Rng substream from
//    (base seed, trial index), never from shared generator state, and the
//    harness folds per-trial results in trial order after the join.
//  * core/GridBncl splits its node-scaled work (the Jacobi belief update,
//    publish decisions, commit, level switches, kernel construction) across
//    workers via parallel_for_chunks (nodes are independent within a round
//    by construction). Its default `threads = 0` is a team of half the
//    hardware threads: the calling thread plus a pool of one worker fewer.
//
// Nesting rule: parallel at top level, inline inside any pool worker. A
// parallel_for_* called from a thread that is already some pool's worker
// (or that is running chunks alongside a pool) runs every index/chunk on
// that thread, in order, and never touches the pool it was handed. An
// engine solved inside a BatchService worker or a trial worker therefore
// runs its rounds serially — the outer fan-out is the parallelism, nothing
// oversubscribes, and a nested call can never deadlock on a pool whose
// workers are all waiting.
//
// Idle workers spin for a short, fixed budget before they block, and so
// does a parallel_for_chunks caller waiting for the last chunks. A round
// of the grid engine is a few regions separated by short serial steps;
// blocking between them would put every core to sleep and make each
// region start pay a wake-up, whose latency on a shared or virtualized
// host is long and erratic.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bnloc {

class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// True on a thread owned by any ThreadPool, and on a caller inside
  /// run_and_wait (the nesting rule above).
  [[nodiscard]] static bool on_worker_thread() noexcept;

  /// Enqueue one task. Tasks must not throw; exceptions terminate.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.
  void wait_idle();

  /// Run `work`, then any tasks still queued, on the calling thread, and
  /// wait until every submitted task has finished. All of it sees
  /// on_worker_thread() true, so regions nested in it run inline.
  void run_and_wait(const std::function<void()>& work);

 private:
  void worker_loop();
  /// Pop the front task; mutex_ held and queue non-empty.
  std::function<void()> pop_locked();
  /// Account one finished task; wakes wait_idle at zero.
  void finish_one();

  std::mutex mutex_;
  /// FIFO of pending tasks from queue_[head_]; rewound when drained so it
  /// never frees or reallocates on a worker thread. Guarded by mutex_.
  std::vector<std::function<void()>> queue_;
  std::size_t head_ = 0;
  std::size_t sleepers_ = 0;  // workers blocked on cv_task_; mutex_
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  /// Queue length and unfinished tasks, written under mutex_ and polled
  /// without it while spinning.
  std::atomic<std::size_t> queued_{0};
  std::atomic<std::size_t> in_flight_{0};
  std::atomic<bool> stopping_{false};
  /// Last member: the workers use everything above.
  std::vector<std::thread> workers_;
};

/// Run body(i) for i in [0, count) across the pool; blocks until done.
/// Inline, in index order, when called from a pool worker.
void parallel_for_index(ThreadPool& pool, std::size_t count,
                        const std::function<void(std::size_t)>& body);

/// Run body(begin, end) over a contiguous partition of [0, count) across
/// the pool's workers and the calling thread; blocks until done. Chunking
/// lets the body reuse one scratch buffer per chunk instead of allocating
/// per index (the grid engine's message buffer). The partition depends
/// only on count and pool.size(), never on timing. Inline, chunk by chunk
/// in order, when called from a pool worker.
void parallel_for_chunks(ThreadPool& pool, std::size_t count,
                         const std::function<void(std::size_t, std::size_t)>& body);

/// Same over an optional pool: null runs body(0, count) on the caller.
void parallel_for_chunks(ThreadPool* pool, std::size_t count,
                         const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace bnloc
