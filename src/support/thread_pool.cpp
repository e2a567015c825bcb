#include "support/thread_pool.hpp"

#include <algorithm>
#include <chrono>

namespace bnloc {
namespace {

/// Set for the lifetime of every pool's worker threads, and on a caller
/// inside run_and_wait.
thread_local bool tls_on_worker = false;

/// How long an idle worker, or a caller waiting for the last chunks, polls
/// before it blocks: longer than the serial steps between the grid
/// engine's regions, short enough that an idle pool is soon asleep.
constexpr std::chrono::microseconds kSpinBudget{1000};

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Poll `ready` for up to kSpinBudget; returns its last value.
template <class Pred>
bool spin_until(Pred ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  for (unsigned i = 1;; ++i) {
    if (ready()) return true;
    cpu_relax();
    if (i % 64 == 0 && std::chrono::steady_clock::now() >= deadline)
      return ready();
  }
}

}  // namespace

bool ThreadPool::on_worker_thread() noexcept { return tls_on_worker; }

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0)
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  bool wake = false;
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(task));
    queued_.fetch_add(1, std::memory_order_release);
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    wake = sleepers_ > 0;
  }
  if (wake) cv_task_.notify_one();
}

std::function<void()> ThreadPool::pop_locked() {
  std::function<void()> task = std::move(queue_[head_++]);
  queued_.fetch_sub(1, std::memory_order_relaxed);
  if (head_ == queue_.size()) {  // drained: rewind, keep the capacity
    queue_.clear();
    head_ = 0;
  }
  return task;
}

void ThreadPool::finish_one() {
  std::lock_guard lock(mutex_);
  if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1)
    cv_idle_.notify_all();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
}

void ThreadPool::run_and_wait(const std::function<void()>& work) {
  const bool was_on_worker = tls_on_worker;
  tls_on_worker = true;
  work();
  for (;;) {
    std::function<void()> task;
    {
      std::lock_guard lock(mutex_);
      if (head_ == queue_.size()) break;
      task = pop_locked();
    }
    task();
    finish_one();
  }
  tls_on_worker = was_on_worker;
  if (!spin_until([this] {
        return in_flight_.load(std::memory_order_acquire) == 0;
      }))
    wait_idle();
}

void ThreadPool::worker_loop() {
  tls_on_worker = true;
  for (;;) {
    spin_until([this] {
      return queued_.load(std::memory_order_acquire) != 0 ||
             stopping_.load(std::memory_order_acquire);
    });
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      if (head_ == queue_.size() &&
          !stopping_.load(std::memory_order_relaxed)) {
        ++sleepers_;
        cv_task_.wait(lock, [this] {
          return stopping_.load(std::memory_order_relaxed) ||
                 head_ < queue_.size();
        });
        --sleepers_;
      }
      if (head_ == queue_.size()) return;  // stopping_ and drained
      task = pop_locked();
    }
    task();
    finish_one();
  }
}

void parallel_for_index(ThreadPool& pool, std::size_t count,
                        const std::function<void(std::size_t)>& body) {
  if (ThreadPool::on_worker_thread()) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  for (std::size_t i = 0; i < count; ++i) {
    pool.submit([i, &body] { body(i); });
  }
  pool.wait_idle();
}

void parallel_for_chunks(
    ThreadPool& pool, std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (count == 0) return;
  // Over-decompose 4x relative to the threads taking part (the workers
  // and the caller) so uneven per-index cost (e.g. node degree) still
  // load-balances, while keeping chunks large enough that one scratch
  // buffer per chunk amortizes.
  const std::size_t chunks = std::min(count, (pool.size() + 1) * 4);
  const std::size_t base = count / chunks, extra = count % chunks;
  const auto run = [&](std::size_t c) {
    const std::size_t begin = c * base + std::min(c, extra);
    body(begin, begin + base + (c < extra ? 1 : 0));
  };
  if (ThreadPool::on_worker_thread()) {
    for (std::size_t c = 0; c < chunks; ++c) run(c);
    return;
  }
  // Every thread taking part claims chunks from one counter until none is
  // left, so the queue is touched once per worker rather than per chunk.
  // run_and_wait returns only after every claimer has, which keeps this
  // frame alive for them.
  std::atomic<std::size_t> next{0};
  const auto claim = [&] {
    for (;;) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      run(c);
    }
  };
  const std::size_t helpers = std::min(pool.size(), chunks - 1);
  // One-word capture: fits std::function's inline buffer, so submitting
  // allocates nothing and no caller-heap block is freed on a worker.
  const std::function<void()> task = [&claim] { claim(); };
  for (std::size_t w = 0; w < helpers; ++w) pool.submit(task);
  pool.run_and_wait(task);
}

void parallel_for_chunks(
    ThreadPool* pool, std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (pool != nullptr)
    parallel_for_chunks(*pool, count, body);
  else if (count > 0)
    body(0, count);
}

}  // namespace bnloc
