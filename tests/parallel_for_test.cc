// Tests for src/util/parallel_for.h: chunking contract, determinism of the
// partition, exception propagation, and deadlock safety when kernels are
// invoked from inside other parallel regions or foreign ThreadPool tasks
// (the hpo::TuneService / core::AltSystem pattern).

#include "src/util/parallel_for.h"

#include <atomic>
#include <algorithm>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/util/thread_pool.h"

namespace alt {
namespace {

struct ThreadOverrideGuard {
  ~ThreadOverrideGuard() { SetComputeThreads(0); }
};

TEST(ParallelForTest, ComputeThreadsIsPositive) {
  ThreadOverrideGuard guard;
  EXPECT_GE(ComputeThreads(), 1);
  SetComputeThreads(3);
  EXPECT_EQ(ComputeThreads(), 3);
  SetComputeThreads(0);
  EXPECT_GE(ComputeThreads(), 1);
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ThreadOverrideGuard guard;
  for (int threads : {1, 2, 5}) {
    SetComputeThreads(threads);
    for (int64_t n : {0, 1, 7, 64, 1000}) {
      for (int64_t grain : {1, 3, 32, 2000}) {
        std::vector<std::atomic<int>> hits(static_cast<size_t>(n) + 1);
        for (auto& h : hits) h.store(0);
        ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
          ASSERT_LE(0, lo);
          ASSERT_LT(lo, hi);
          ASSERT_LE(hi, n);
          for (int64_t i = lo; i < hi; ++i) hits[static_cast<size_t>(i)]++;
        });
        for (int64_t i = 0; i < n; ++i) {
          ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1)
              << "n=" << n << " grain=" << grain << " threads=" << threads;
        }
      }
    }
  }
}

TEST(ParallelForTest, ChunkBoundariesAreGrainAlignedAndThreadIndependent) {
  ThreadOverrideGuard guard;
  const int64_t begin = 5, end = 103, grain = 16;
  std::set<std::pair<int64_t, int64_t>> reference;
  SetComputeThreads(1);
  ParallelFor(begin, end, grain, [&](int64_t lo, int64_t hi) {
    reference.insert({lo, hi});
  });
  for (const auto& chunk : reference) {
    EXPECT_EQ((chunk.first - begin) % grain, 0);
    EXPECT_LE(chunk.second - chunk.first, grain);
  }
  for (int threads : {2, 4, 9}) {
    SetComputeThreads(threads);
    std::mutex mu;
    std::set<std::pair<int64_t, int64_t>> got;
    ParallelFor(begin, end, grain, [&](int64_t lo, int64_t hi) {
      std::lock_guard<std::mutex> lock(mu);
      got.insert({lo, hi});
    });
    EXPECT_EQ(got, reference) << "threads=" << threads;
  }
}

TEST(ParallelForTest, EmptyAndReversedRangesAreNoOps) {
  ThreadOverrideGuard guard;
  int calls = 0;
  ParallelFor(0, 0, 4, [&](int64_t, int64_t) { calls++; });
  ParallelFor(10, 10, 4, [&](int64_t, int64_t) { calls++; });
  ParallelFor(10, 3, 4, [&](int64_t, int64_t) { calls++; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, PropagatesExceptionFromWorkerShard) {
  ThreadOverrideGuard guard;
  SetComputeThreads(4);
  // Many chunks so shards land on pool workers, not only the caller.
  EXPECT_THROW(
      ParallelFor(0, 1000, 1,
                  [&](int64_t lo, int64_t) {
                    if (lo >= 900) throw std::runtime_error("late shard");
                  }),
      std::runtime_error);
}

TEST(ParallelForTest, PropagatesExceptionFromCallerShard) {
  ThreadOverrideGuard guard;
  SetComputeThreads(4);
  // The caller runs the first shard, which owns chunk 0.
  EXPECT_THROW(
      ParallelFor(0, 1000, 1,
                  [&](int64_t lo, int64_t) {
                    if (lo == 0) throw std::runtime_error("first chunk");
                  }),
      std::runtime_error);
}

TEST(ParallelForTest, UsableAfterException) {
  ThreadOverrideGuard guard;
  SetComputeThreads(4);
  try {
    ParallelFor(0, 100, 1, [&](int64_t, int64_t) {
      throw std::runtime_error("boom");
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error&) {
  }
  // The region must be fully unwound: later calls run all chunks again.
  std::atomic<int64_t> sum{0};
  ParallelFor(0, 100, 7, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) sum += i;
  });
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  ThreadOverrideGuard guard;
  SetComputeThreads(4);
  std::atomic<int64_t> total{0};
  std::atomic<int> nested_inline{0};
  ParallelFor(0, 16, 1, [&](int64_t, int64_t) {
    EXPECT_TRUE(InParallelRegion());
    ParallelFor(0, 64, 4, [&](int64_t lo, int64_t hi) {
      if (InParallelRegion()) nested_inline++;
      total += hi - lo;
    });
  });
  EXPECT_EQ(total.load(), 16 * 64);
  EXPECT_GT(nested_inline.load(), 0);
  EXPECT_FALSE(InParallelRegion());
}

TEST(ParallelForTest, SingleChunkDoesNotMarkRegion) {
  // A range that fits in one chunk runs directly on the caller without
  // claiming the parallel region, so a nested kernel can still fan out
  // (e.g. BatchedMatMul with batch == 1 dispatching a parallel GEMM).
  ThreadOverrideGuard guard;
  SetComputeThreads(4);
  bool outer_marked = true;
  ParallelFor(0, 4, 8, [&](int64_t, int64_t) {
    outer_marked = InParallelRegion();
  });
  EXPECT_FALSE(outer_marked);
}

TEST(ParallelForTest, SafeInsideForeignThreadPoolTask) {
  // hpo::TuneService and core::AltSystem run model code on their own private
  // ThreadPools; kernels called there must complete without deadlocking
  // against the global compute pool.
  ThreadOverrideGuard guard;
  SetComputeThreads(4);
  ThreadPool pool(3);
  std::vector<std::future<int64_t>> futures;
  for (int task = 0; task < 6; ++task) {
    futures.push_back(pool.Submit([]() {
      std::atomic<int64_t> sum{0};
      ParallelFor(0, 500, 8, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) sum += i;
      });
      return sum.load();
    }));
  }
  for (auto& f : futures) {
    EXPECT_EQ(f.get(), 499 * 500 / 2);
  }
}

TEST(ParallelForTest, ConcurrentCallersFromDistinctThreads) {
  // Two plain threads issuing ParallelFor at the same time share the global
  // pool; both must finish with full coverage.
  ThreadOverrideGuard guard;
  SetComputeThreads(4);
  std::atomic<int64_t> sums[2] = {{0}, {0}};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t]() {
      for (int rep = 0; rep < 20; ++rep) {
        ParallelFor(0, 300, 5, [&](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) sums[t] += i;
        });
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(sums[0].load(), 20 * (299 * 300 / 2));
  EXPECT_EQ(sums[1].load(), 20 * (299 * 300 / 2));
}

TEST(ParallelForTest, ParallelForWorkCoversRange) {
  ThreadOverrideGuard guard;
  SetComputeThreads(3);
  for (int64_t n : {0, 1, 100, 50000}) {
    for (int64_t work : {1, 16, 100000}) {
      std::atomic<int64_t> count{0};
      ParallelForWork(n, work, [&](int64_t lo, int64_t hi) {
        count += hi - lo;
      });
      EXPECT_EQ(count.load(), n) << "n=" << n << " work=" << work;
    }
  }
}

TEST(ParallelForTest, ParallelForWorkChunksIndependentOfThreads) {
  ThreadOverrideGuard guard;
  const int64_t n = 200000, work = 64;
  SetComputeThreads(1);
  std::set<std::pair<int64_t, int64_t>> reference;
  ParallelForWork(n, work, [&](int64_t lo, int64_t hi) {
    reference.insert({lo, hi});
  });
  // Several chunks, and every chunk but the last carries the minimum work.
  ASSERT_GT(reference.size(), 1u);
  for (const auto& [lo, hi] : reference) {
    if (hi < n) {
      EXPECT_GE((hi - lo) * work, kMinParallelWork);
    }
  }
  SetComputeThreads(7);
  std::mutex mu;
  std::set<std::pair<int64_t, int64_t>> got;
  ParallelForWork(n, work, [&](int64_t lo, int64_t hi) {
    std::lock_guard<std::mutex> lock(mu);
    got.insert({lo, hi});
  });
  EXPECT_EQ(got, reference);
}

TEST(ParallelForTest, ComputePoolGrowsOnDemand) {
  ThreadPool* pool = ComputePool(2);
  ASSERT_NE(pool, nullptr);
  EXPECT_GE(pool->num_threads(), 2u);
  ThreadPool* same = ComputePool(4);
  EXPECT_EQ(pool, same);
  EXPECT_GE(same->num_threads(), 4u);
}

TEST(ParallelForTest, ThreadPoolEnsureWorkersGrowsButNeverShrinks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  pool.EnsureWorkers(3);
  EXPECT_EQ(pool.num_threads(), 3u);
  pool.EnsureWorkers(2);
  EXPECT_EQ(pool.num_threads(), 3u);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 8; ++i) {
    futs.push_back(pool.Submit([&]() { ran++; }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(ran.load(), 8);
}

}  // namespace
}  // namespace alt
