// Unit tests for the thread pool (support/thread_pool.hpp).
#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

namespace bnloc {
namespace {

TEST(ThreadPool, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, SizeRespectsRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ZeroSelectsHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForIndexCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  parallel_for_index(pool, hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForProducesSameResultAsSerial) {
  ThreadPool pool(4);
  std::vector<double> out(1000, 0.0);
  parallel_for_index(pool, out.size(), [&](std::size_t i) {
    out[i] = static_cast<double>(i) * 0.5;
  });
  double sum = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_DOUBLE_EQ(sum, 0.5 * (999.0 * 1000.0 / 2.0));
}

TEST(ThreadPool, ParallelForChunksCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1003);
  parallel_for_chunks(pool, hits.size(),
                      [&](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i)
                          hits[i].fetch_add(1);
                      });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForChunksHandlesFewerItemsThanWorkers) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  parallel_for_chunks(pool, hits.size(),
                      [&](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i)
                          hits[i].fetch_add(1);
                      });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForChunksZeroCountIsNoop) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  parallel_for_chunks(pool, 0, [&](std::size_t, std::size_t) {
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 5; ++batch) {
    for (int i = 0; i < 20; ++i)
      pool.submit([&counter] { counter.fetch_add(1); });
    pool.wait_idle();
    EXPECT_EQ(counter.load(), (batch + 1) * 20);
  }
}

TEST(ThreadPool, OnWorkerThreadOnlyInsidePoolTasks) {
  EXPECT_FALSE(ThreadPool::on_worker_thread());
  ThreadPool pool(2);
  std::atomic<int> on_worker{0};
  parallel_for_index(pool, 8, [&](std::size_t) {
    if (ThreadPool::on_worker_thread()) on_worker.fetch_add(1);
  });
  EXPECT_EQ(on_worker.load(), 8);
  EXPECT_FALSE(ThreadPool::on_worker_thread());
  // Chunks run on the workers and on the caller; the caller counts as a
  // worker only while it runs them.
  on_worker = 0;
  parallel_for_chunks(pool, 64, [&](std::size_t begin, std::size_t end) {
    if (ThreadPool::on_worker_thread())
      on_worker.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(on_worker.load(), 64);
  EXPECT_FALSE(ThreadPool::on_worker_thread());
}

TEST(ThreadPool, NestedChunksRunInlineOnTheCallingWorker) {
  // A parallel region started from inside a pool task runs every chunk on
  // the calling worker's thread, in order. On a 1-worker pool this must
  // complete: waiting for the pool to go idle from its only worker would
  // wait on the caller's own task forever.
  ThreadPool pool(1);
  std::thread::id caller;
  std::vector<std::thread::id> ran_on;
  std::vector<std::size_t> begins;
  std::vector<int> hits(37, 0);
  parallel_for_index(pool, 1, [&](std::size_t) {
    caller = std::this_thread::get_id();
    parallel_for_chunks(pool, hits.size(),
                        [&](std::size_t begin, std::size_t end) {
                          ran_on.push_back(std::this_thread::get_id());
                          begins.push_back(begin);
                          for (std::size_t i = begin; i < end; ++i) ++hits[i];
                        });
  });
  EXPECT_EQ(ran_on.size(), 8u);  // 1 worker + the caller: 4 chunks each
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, caller);
  EXPECT_TRUE(std::is_sorted(begins.begin(), begins.end()));
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, NestedRegionOnAnotherPoolAlsoRunsInline) {
  ThreadPool outer(2);
  ThreadPool inner(4);
  std::vector<int> mismatched(2, 0);
  parallel_for_index(outer, 2, [&](std::size_t t) {
    const std::thread::id caller = std::this_thread::get_id();
    parallel_for_index(inner, 16, [&](std::size_t) {
      if (std::this_thread::get_id() != caller) ++mismatched[t];
    });
  });
  EXPECT_EQ(mismatched[0], 0);
  EXPECT_EQ(mismatched[1], 0);
}

TEST(ThreadPool, BlockedWorkersWakeForLaterWork) {
  // Idle workers spin briefly, then block; work submitted after that must
  // still wake them and run.
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 3; ++batch) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    for (int i = 0; i < 6; ++i)
      pool.submit([&counter] { counter.fetch_add(1); });
    pool.wait_idle();
    EXPECT_EQ(counter.load(), (batch + 1) * 6);
  }
}

TEST(ThreadPool, ChunksOutlastingTheCallersSpinStillJoin) {
  // Chunks on the workers run past the caller's spin wait: the caller
  // falls back to blocking and still sees every chunk's write.
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> out(12, 0);
  parallel_for_chunks(pool, out.size(),
                      [&](std::size_t begin, std::size_t end) {
                        if (std::this_thread::get_id() != caller)
                          std::this_thread::sleep_for(
                              std::chrono::milliseconds(20));
                        for (std::size_t i = begin; i < end; ++i)
                          out[i] = static_cast<int>(i) + 1;
                      });
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], static_cast<int>(i) + 1);
}

TEST(ThreadPool, NullPoolRunsOneChunkOnTheCaller) {
  std::vector<std::pair<std::size_t, std::size_t>> calls;
  parallel_for_chunks(static_cast<ThreadPool*>(nullptr), 10,
                      [&](std::size_t begin, std::size_t end) {
                        calls.emplace_back(begin, end);
                      });
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], std::make_pair(std::size_t{0}, std::size_t{10}));
  parallel_for_chunks(static_cast<ThreadPool*>(nullptr), 0,
                      [&](std::size_t, std::size_t) { calls.clear(); });
  EXPECT_EQ(calls.size(), 1u);
}

}  // namespace
}  // namespace bnloc
