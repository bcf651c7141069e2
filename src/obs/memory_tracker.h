#ifndef ALT_SRC_OBS_MEMORY_TRACKER_H_
#define ALT_SRC_OBS_MEMORY_TRACKER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/util/json.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace alt {
namespace obs {

class MetricsRegistry;

/// Tensor memory accounting --------------------------------------------------
///
/// The FLOPs budget of Eq. 4 bounds compute; this layer gives RAM the same
/// treatment. Every tensor storage allocation in the library flows through
/// `TrackingAllocator` (the allocator of `Tensor`'s buffer, see
/// src/tensor/tensor.h), which reports to the process-wide `MemoryTracker`:
///   - live bytes / peak live bytes / allocation + free counts, globally;
///   - per-phase attribution: a `ScopedMemoryTag` names the current pipeline
///     phase ("train", "nas", "meta", "serving", ...) on the calling thread,
///     and allocations made while the tag is active are charged to it.
///
/// Per-phase semantics: a tag accumulates the bytes and allocation count of
/// allocations performed under it, plus `peak_bytes` — the maximum *global*
/// live size observed while the tag was current. Frees are accounted
/// globally only (a buffer may outlive the phase that allocated it), so tag
/// byte counts are cumulative allocation volume, not live set.
///
/// Overhead: one relaxed atomic load per alloc/free when disabled
/// (ALT_OBS=off at startup; the switch is latched once so alloc/free
/// accounting stays symmetric), a handful of relaxed atomics when enabled,
/// plus one uncontended mutex when a phase tag is active. Compiling with
/// -DALT_OBS_DISABLED removes the accounting calls from the allocator
/// entirely.
class MemoryTracker {
 public:
  MemoryTracker();
  MemoryTracker(const MemoryTracker&) = delete;
  MemoryTracker& operator=(const MemoryTracker&) = delete;

  /// The process-wide tracker fed by TrackingAllocator. Enabled unless the
  /// ALT_OBS environment variable is off at first use (latched; not
  /// runtime-togglable so alloc/free pairs always balance).
  static MemoryTracker& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void RecordAlloc(size_t bytes);
  void RecordFree(size_t bytes);

  int64_t live_bytes() const {
    return live_bytes_.load(std::memory_order_relaxed);
  }
  int64_t peak_bytes() const {
    return peak_bytes_.load(std::memory_order_relaxed);
  }
  int64_t alloc_count() const {
    return alloc_count_.load(std::memory_order_relaxed);
  }
  int64_t free_count() const {
    return free_count_.load(std::memory_order_relaxed);
  }
  /// Cumulative bytes ever allocated (monotone).
  int64_t allocated_bytes_total() const {
    return allocated_bytes_.load(std::memory_order_relaxed);
  }

  /// Accounting of one phase tag.
  struct TagUsage {
    int64_t allocated_bytes = 0;  // Cumulative bytes allocated under the tag.
    int64_t allocs = 0;
    int64_t peak_bytes = 0;  // Max global live bytes seen under the tag.
  };
  /// Snapshot of every tag seen so far (empty when no tag was ever active).
  std::vector<std::pair<std::string, TagUsage>> TagSnapshot() const;

  /// Tensor storage recycling (see ScopedTensorRecycling): bytes the
  /// recyclers of every thread keep right now, the most they ever kept at
  /// once, and the requests of kRecycleMinBytes or more served from them
  /// (hits) or from the heap (misses) inside a scope.
  int64_t recycled_bytes() const {
    return recycled_bytes_.load(std::memory_order_relaxed);
  }
  int64_t recycled_bytes_peak() const {
    return recycled_peak_.load(std::memory_order_relaxed);
  }
  int64_t recycle_hits() const {
    return recycle_hits_.load(std::memory_order_relaxed);
  }
  int64_t recycle_misses() const {
    return recycle_misses_.load(std::memory_order_relaxed);
  }
  void RecordRecycleKeep(size_t bytes);
  void RecordRecycleHit(size_t bytes);
  void RecordRecycleMiss();
  void RecordRecycleRelease(size_t bytes);

  /// Resets the peak to the current live size (bench/test epoch marker).
  void ResetPeak();

  /// Writes the current totals (and per-tag usage) into `registry` as
  /// `memory/*` gauges, which the exposition layer renders as
  /// `alt_memory_*`. Call before snapshotting the registry.
  void PublishTo(MetricsRegistry* registry) const;

  /// {"live_bytes": ..., "peak_bytes": ..., "allocs": ..., "frees": ...,
  ///  "allocated_bytes_total": ..., "tags": {tag: {...}}} — embedded into
  /// checkpoint meta and BENCH_*.json documents.
  Json ToJson() const;

 private:
  friend class ScopedMemoryTag;

  std::atomic<bool> enabled_{true};
  std::atomic<int64_t> live_bytes_{0};
  std::atomic<int64_t> peak_bytes_{0};
  std::atomic<int64_t> alloc_count_{0};
  std::atomic<int64_t> free_count_{0};
  std::atomic<int64_t> allocated_bytes_{0};
  std::atomic<int64_t> recycled_bytes_{0};
  std::atomic<int64_t> recycled_peak_{0};
  std::atomic<int64_t> recycle_hits_{0};
  std::atomic<int64_t> recycle_misses_{0};

  mutable Mutex tags_mu_;
  std::map<std::string, TagUsage> tags_ ALT_GUARDED_BY(tags_mu_);
};

/// RAII phase tag: allocations on this thread are attributed to `tag` until
/// the scope ends. Nests; the innermost tag wins. Tags must be string
/// literals or otherwise outlive the scope.
class ScopedMemoryTag {
 public:
  explicit ScopedMemoryTag(const char* tag);
  ~ScopedMemoryTag();
  ScopedMemoryTag(const ScopedMemoryTag&) = delete;
  ScopedMemoryTag& operator=(const ScopedMemoryTag&) = delete;

  /// The tag active on the calling thread (null when none).
  static const char* CurrentTag();

 private:
  const char* previous_;
};

/// Tensor storage recycling --------------------------------------------------
///
/// A training loop allocates the same tensors every step: the batch, the
/// forward's activations, the backward's gradients. glibc returns the
/// pages of a large freed buffer to the OS (it trims the top of the heap
/// and unmaps big chunks), so the next step faults them in again; that was
/// a quarter of f0's training CPU (DESIGN.md, "Tensor memory").
///
/// While a ScopedTensorRecycling is open on a thread, a TrackingAllocator
/// buffer of at least kRecycleMinBytes freed on that thread is kept by its
/// exact byte size and handed to the next request of that size on that
/// thread. A request of at least that size that finds no kept buffer of its
/// size first releases every kept buffer to the heap, and closing the
/// outermost scope releases the rest. So kept plus live bytes never exceed
/// the largest live size seen inside the scope, and no cap is needed.
/// Smaller buffers, and every buffer outside a scope, go to and from the
/// heap as before, for the cost of one thread-local load. MemoryTracker
/// still counts a kept buffer as freed and a reused one as allocated, and a
/// reused buffer is handed out as is: Tensor zero-fills its storage either
/// way. Under AddressSanitizer a kept buffer is poisoned until it is reused.
inline constexpr size_t kRecycleMinBytes = 4096;

/// Nests: only the outermost scope on a thread creates and releases.
class ScopedTensorRecycling {
 public:
  ScopedTensorRecycling();
  ~ScopedTensorRecycling();
  ScopedTensorRecycling(const ScopedTensorRecycling&) = delete;
  ScopedTensorRecycling& operator=(const ScopedTensorRecycling&) = delete;

  /// Whether a scope is open on the calling thread.
  static bool active();

 private:
  bool outermost_;
};

namespace internal {
/// TrackingAllocator's halves, out of line: account with MemoryTracker,
/// then take the buffer from the calling thread's recycler while a scope is
/// open, else from the heap (operator new / sized operator delete, as
/// std::allocator does). The attributes tell callers what an inlined
/// operator new told them: the storage is fresh and aliases nothing.
[[gnu::malloc, gnu::returns_nonnull, gnu::alloc_size(1)]] void*
TrackedAllocate(size_t bytes);
void TrackedDeallocate(void* p, size_t bytes);
}  // namespace internal

/// std::vector allocator that routes every allocation through the global
/// MemoryTracker and, inside a ScopedTensorRecycling, the thread's
/// recycler. Stateless; interchangeable with std::allocator.
template <typename T>
struct TrackingAllocator {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "buffers come from plain operator new");
  using value_type = T;

  TrackingAllocator() = default;
  template <typename U>
  TrackingAllocator(const TrackingAllocator<U>&) {}  // NOLINT

  T* allocate(size_t n) {
    return static_cast<T*>(internal::TrackedAllocate(n * sizeof(T)));
  }

  void deallocate(T* p, size_t n) {
    internal::TrackedDeallocate(p, n * sizeof(T));
  }

  bool operator==(const TrackingAllocator&) const { return true; }
  bool operator!=(const TrackingAllocator&) const { return false; }
};

}  // namespace obs
}  // namespace alt

#endif  // ALT_SRC_OBS_MEMORY_TRACKER_H_
