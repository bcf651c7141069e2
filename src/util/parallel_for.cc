#include "src/util/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <future>
#include <thread>
#include <vector>

#include "src/util/thread_pool.h"

namespace alt {

namespace {

// > 0 while the current thread runs inside a parallel region body.
thread_local int tls_parallel_depth = 0;

struct ParallelRegionGuard {
  ParallelRegionGuard() { ++tls_parallel_depth; }
  ~ParallelRegionGuard() { --tls_parallel_depth; }
};

int DefaultThreads() {
  static const int resolved = []() {
    if (const char* env = std::getenv("ALT_THREADS")) {
      const int parsed = std::atoi(env);
      if (parsed > 0) return std::min(parsed, 1024);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
  }();
  return resolved;
}

std::atomic<int> g_thread_override{0};

std::atomic<ParallelForObserver> g_parallel_for_observer{nullptr};

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int ComputeThreads() {
  const int override_n = g_thread_override.load(std::memory_order_relaxed);
  return override_n > 0 ? override_n : DefaultThreads();
}

void SetComputeThreads(int n) {
  g_thread_override.store(n > 0 ? std::min(n, 1024) : 0,
                          std::memory_order_relaxed);
}

ThreadPool* ComputePool(size_t min_workers) {
  // Function-local static: created on first demand, joined cleanly at exit.
  static ThreadPool pool(1);
  pool.EnsureWorkers(min_workers);
  return &pool;
}

bool InParallelRegion() { return tls_parallel_depth > 0; }

void SetParallelForObserver(ParallelForObserver observer) {
  g_parallel_for_observer.store(observer, std::memory_order_relaxed);
}

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& body) {
  if (end <= begin) return;
  grain = std::max<int64_t>(1, grain);
  const int64_t n = end - begin;
  const int64_t num_chunks = (n + grain - 1) / grain;

  auto run_chunks = [&](int64_t chunk_begin, int64_t chunk_end) {
    for (int64_t c = chunk_begin; c < chunk_end; ++c) {
      const int64_t lo = begin + c * grain;
      const int64_t hi = std::min<int64_t>(end, lo + grain);
      body(lo, hi);
    }
  };

  if (num_chunks == 1) {
    // Single chunk: no concurrency, and deliberately no region marker so a
    // nested kernel (e.g. the GEMM inside a batch-of-1 BatchedMatMul) can
    // still parallelize.
    run_chunks(0, 1);
    return;
  }

  const int threads = ComputeThreads();
  if (threads <= 1 || InParallelRegion()) {
    ParallelRegionGuard guard;
    run_chunks(0, num_chunks);
    return;
  }

  const int64_t shards = std::min<int64_t>(threads, num_chunks);
  ThreadPool* pool = ComputePool(static_cast<size_t>(shards - 1));

  // Contiguous chunk shards: shard s covers [s*per + min(s, extra), ...).
  const int64_t per = num_chunks / shards;
  const int64_t extra = num_chunks % shards;
  auto shard_begin = [per, extra](int64_t s) {
    return s * per + std::min<int64_t>(s, extra);
  };

  // Shard-imbalance observability: only time shards when an observer is
  // installed (i.e. when obs is enabled), so the default path has no clock
  // reads. Each shard writes its own slot; the join orders the reads.
  const ParallelForObserver observer =
      g_parallel_for_observer.load(std::memory_order_relaxed);
  std::vector<double> shard_seconds(
      observer != nullptr ? static_cast<size_t>(shards) : 0, 0.0);
  auto run_shard = [&run_chunks, &shard_seconds, observer](
                       int64_t shard, int64_t cb, int64_t ce) {
    ParallelRegionGuard guard;
    if (observer == nullptr) {
      run_chunks(cb, ce);
      return;
    }
    const double t0 = NowSeconds();
    run_chunks(cb, ce);
    shard_seconds[static_cast<size_t>(shard)] = NowSeconds() - t0;
  };

  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<size_t>(shards - 1));
  for (int64_t s = 1; s < shards; ++s) {
    const int64_t cb = shard_begin(s);
    const int64_t ce = shard_begin(s + 1);
    futures.push_back(
        pool->Submit([&run_shard, s, cb, ce]() { run_shard(s, cb, ce); }));
  }

  std::exception_ptr first_error;
  try {
    run_shard(0, shard_begin(0), shard_begin(1));
  } catch (...) {
    first_error = std::current_exception();
  }
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  if (observer != nullptr) {
    double max_s = 0.0;
    double total_s = 0.0;
    for (double s : shard_seconds) {
      max_s = std::max(max_s, s);
      total_s += s;
    }
    observer(shards, max_s, total_s);
  }
}

void ParallelForWork(int64_t n, int64_t work_per_item,
                     const std::function<void(int64_t, int64_t)>& body) {
  const int64_t per_item = std::max<int64_t>(1, work_per_item);
  ParallelFor(0, n, (kMinParallelWork + per_item - 1) / per_item, body);
}

}  // namespace alt
