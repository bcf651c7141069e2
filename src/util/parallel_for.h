#ifndef ALT_SRC_UTIL_PARALLEL_FOR_H_
#define ALT_SRC_UTIL_PARALLEL_FOR_H_

#include <cstdint>
#include <functional>

namespace alt {

class ThreadPool;

/// Thread-count configuration for the compute-kernel layer --------------------
///
/// The number of compute threads resolves, in priority order, to:
///   1. the last value passed to SetComputeThreads (if > 0),
///   2. the ALT_THREADS environment variable (read once, at first use),
///   3. std::thread::hardware_concurrency().
/// The result is always >= 1. A value of 1 makes every ParallelFor run inline
/// on the calling thread with no pool involvement at all.
int ComputeThreads();

/// Overrides the compute thread count; `n <= 0` clears the override so the
/// environment/hardware default applies again. Intended for tests and
/// benchmarks; call between (not during) parallel regions.
void SetComputeThreads(int n);

/// The lazily created process-wide pool backing ParallelFor. Grows on demand
/// to `min_workers` workers. Exposed mainly for diagnostics; kernels should
/// go through ParallelFor instead of submitting to the pool directly.
ThreadPool* ComputePool(size_t min_workers);

/// True while the current thread is executing the body of a parallel region.
/// Nested ParallelFor calls detect this and run inline, so a kernel invoked
/// from inside another parallel kernel (or from a ComputePool task) can never
/// deadlock waiting for pool capacity.
bool InParallelRegion();

/// Data-parallel loop over [begin, end) -----------------------------------
///
/// The range is split into fixed chunks of `grain` iterations whose
/// boundaries are `begin + i * grain` — they depend only on (begin, end,
/// grain), never on the thread count. `body(chunk_begin, chunk_end)` is
/// invoked exactly once per chunk; chunks may run concurrently and in any
/// order. Because a given chunk always covers the same sub-range, a body
/// whose per-chunk computation is deterministic produces bit-identical
/// results for every thread count, including the threads == 1 inline path
/// (which walks the same chunks sequentially).
///
/// Scheduling: chunks are sharded contiguously over min(ComputeThreads(),
/// num_chunks) workers; the calling thread executes the first shard itself.
/// If the whole range fits in one chunk, `body` runs directly on the caller
/// (without marking a parallel region, so nested kernels may still fan out).
///
/// Exceptions thrown by `body` are captured; the first one is rethrown on
/// the calling thread after all chunks have finished.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& body);

/// Observability hook ------------------------------------------------------
///
/// When an observer is installed, each multi-shard ParallelFor times its
/// shards and reports (shard count, slowest shard seconds, summed shard
/// seconds) after the join — the raw material for shard-imbalance metrics.
/// With no observer installed (the default, and always when ALT_OBS=off)
/// the per-shard clock reads are skipped entirely, so the hook costs one
/// relaxed atomic load per parallel region. Installed by
/// obs::MetricsRegistry::Global(); src/util stays independent of src/obs.
using ParallelForObserver = void (*)(int64_t shards,
                                     double max_shard_seconds,
                                     double total_shard_seconds);
void SetParallelForObserver(ParallelForObserver observer);

/// The least work, in scalar ops (a multiply-add counts 2), that one chunk
/// handed to the compute pool must carry: 2^22, ~4.2 MFLOP. It is the
/// measured inline-vs-pool crossover (bench_kernels `gemm_crossover_*`;
/// DESIGN.md "Compute-kernel layer"): below it a GEMM split over the pool
/// loses to running inline, so no chunk smaller than it pays a hand-off.
/// ParallelForWork and the GEMM, batched matmul and conv kernels size their
/// chunks from this one constant.
inline constexpr int64_t kMinParallelWork = int64_t{1} << 22;

/// Convenience wrapper deriving the grain from the approximate number of
/// scalar operations each item costs, so every chunk carries at least
/// kMinParallelWork. The grain depends only on `work_per_item`, keeping
/// chunk boundaries — and therefore results — independent of the thread
/// count. Ranges cheaper than two chunks run inline.
void ParallelForWork(int64_t n, int64_t work_per_item,
                     const std::function<void(int64_t, int64_t)>& body);

}  // namespace alt

#endif  // ALT_SRC_UTIL_PARALLEL_FOR_H_
