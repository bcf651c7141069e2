#include "src/obs/memory_tracker.h"

#include <algorithm>
#include <new>
#include <unordered_map>
#include <utility>

#include "src/obs/metrics.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define ALT_POISON_KEPT(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define ALT_UNPOISON_KEPT(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define ALT_POISON_KEPT(p, n) ((void)(p), (void)(n))
#define ALT_UNPOISON_KEPT(p, n) ((void)(p), (void)(n))
#endif

namespace alt {
namespace obs {

namespace internal {
bool ObsEnabledFromEnv();  // metrics.cc
}  // namespace internal

namespace {

/// Innermost active phase tag of the calling thread.
thread_local const char* g_current_tag = nullptr;

}  // namespace

MemoryTracker::MemoryTracker() = default;

MemoryTracker& MemoryTracker::Global() {
  // Heap-allocated and never destroyed: tensor buffers may be freed during
  // static destruction and still report here.
  static MemoryTracker* global = []() {
    auto* tracker = new MemoryTracker();
    tracker->enabled_.store(internal::ObsEnabledFromEnv(),
                            std::memory_order_relaxed);
    return tracker;
  }();
  return *global;
}

void MemoryTracker::RecordAlloc(size_t bytes) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  const int64_t delta = static_cast<int64_t>(bytes);
  const int64_t live =
      live_bytes_.fetch_add(delta, std::memory_order_relaxed) + delta;
  alloc_count_.fetch_add(1, std::memory_order_relaxed);
  allocated_bytes_.fetch_add(delta, std::memory_order_relaxed);
  int64_t peak = peak_bytes_.load(std::memory_order_relaxed);
  while (live > peak &&
         !peak_bytes_.compare_exchange_weak(peak, live,
                                            std::memory_order_relaxed)) {
  }
  const char* tag = g_current_tag;
  if (tag != nullptr) {
    MutexLock lock(tags_mu_);
    TagUsage& usage = tags_[tag];
    usage.allocated_bytes += delta;
    ++usage.allocs;
    usage.peak_bytes = std::max(usage.peak_bytes, live);
  }
}

void MemoryTracker::RecordFree(size_t bytes) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  live_bytes_.fetch_sub(static_cast<int64_t>(bytes),
                        std::memory_order_relaxed);
  free_count_.fetch_add(1, std::memory_order_relaxed);
}

void MemoryTracker::RecordRecycleKeep(size_t bytes) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  const int64_t delta = static_cast<int64_t>(bytes);
  const int64_t kept =
      recycled_bytes_.fetch_add(delta, std::memory_order_relaxed) + delta;
  int64_t peak = recycled_peak_.load(std::memory_order_relaxed);
  while (kept > peak &&
         !recycled_peak_.compare_exchange_weak(peak, kept,
                                               std::memory_order_relaxed)) {
  }
}

void MemoryTracker::RecordRecycleHit(size_t bytes) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  recycle_hits_.fetch_add(1, std::memory_order_relaxed);
  recycled_bytes_.fetch_sub(static_cast<int64_t>(bytes),
                            std::memory_order_relaxed);
}

void MemoryTracker::RecordRecycleMiss() {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  recycle_misses_.fetch_add(1, std::memory_order_relaxed);
}

void MemoryTracker::RecordRecycleRelease(size_t bytes) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  recycled_bytes_.fetch_sub(static_cast<int64_t>(bytes),
                            std::memory_order_relaxed);
}

std::vector<std::pair<std::string, MemoryTracker::TagUsage>>
MemoryTracker::TagSnapshot() const {
  MutexLock lock(tags_mu_);
  return {tags_.begin(), tags_.end()};
}

void MemoryTracker::ResetPeak() {
  peak_bytes_.store(live_bytes_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
}

void MemoryTracker::PublishTo(MetricsRegistry* registry) const {
  if (registry == nullptr || !registry->enabled()) return;
  registry->gauge("memory/live_bytes")->Set(
      static_cast<double>(live_bytes()));
  registry->gauge("memory/peak_bytes")->Set(
      static_cast<double>(peak_bytes()));
  registry->gauge("memory/alloc_count")->Set(
      static_cast<double>(alloc_count()));
  registry->gauge("memory/free_count")->Set(
      static_cast<double>(free_count()));
  registry->gauge("memory/allocated_bytes_total")
      ->Set(static_cast<double>(allocated_bytes_total()));
  registry->gauge("memory/tensor/recycled_bytes")
      ->Set(static_cast<double>(recycled_bytes_peak()));
  registry->gauge("memory/tensor/recycle_hits_total")
      ->Set(static_cast<double>(recycle_hits()));
  registry->gauge("memory/tensor/recycle_misses_total")
      ->Set(static_cast<double>(recycle_misses()));
  // Four segments so the tag lands in the exposition `id` label
  // (alt_memory_phase_allocated_bytes{id="train"}), one family per metric
  // rather than one per tag.
  for (const auto& [tag, usage] : TagSnapshot()) {
    registry->gauge("memory/phase/allocated_bytes/" + tag)
        ->Set(static_cast<double>(usage.allocated_bytes));
    registry->gauge("memory/phase/peak_bytes/" + tag)
        ->Set(static_cast<double>(usage.peak_bytes));
    registry->gauge("memory/phase/allocs/" + tag)
        ->Set(static_cast<double>(usage.allocs));
  }
}

Json MemoryTracker::ToJson() const {
  Json doc = Json::Object{};
  doc["enabled"] = enabled();
  doc["live_bytes"] = live_bytes();
  doc["peak_bytes"] = peak_bytes();
  doc["alloc_count"] = alloc_count();
  doc["free_count"] = free_count();
  doc["allocated_bytes_total"] = allocated_bytes_total();
  Json tags = Json::Object{};
  for (const auto& [tag, usage] : TagSnapshot()) {
    Json entry = Json::Object{};
    entry["allocated_bytes"] = usage.allocated_bytes;
    entry["allocs"] = usage.allocs;
    entry["peak_bytes"] = usage.peak_bytes;
    tags[tag] = entry;
  }
  doc["tags"] = tags;
  return doc;
}

ScopedMemoryTag::ScopedMemoryTag(const char* tag) : previous_(g_current_tag) {
  g_current_tag = tag;
}

ScopedMemoryTag::~ScopedMemoryTag() { g_current_tag = previous_; }

const char* ScopedMemoryTag::CurrentTag() { return g_current_tag; }

namespace {

/// The buffers one thread's open scope keeps, by exact byte size. Only its
/// own thread touches it.
class TensorRecycler {
 public:
  TensorRecycler() = default;
  TensorRecycler(const TensorRecycler&) = delete;
  TensorRecycler& operator=(const TensorRecycler&) = delete;
  ~TensorRecycler() { ReleaseAll(); }

  void* Allocate(size_t bytes) {
    if (bytes < kRecycleMinBytes) return ::operator new(bytes);
    auto it = kept_.find(bytes);
    if (it != kept_.end() && !it->second.empty()) {
      void* p = it->second.back();
      it->second.pop_back();
      ALT_UNPOISON_KEPT(p, bytes);
      MemoryTracker::Global().RecordRecycleHit(bytes);
      return p;
    }
    MemoryTracker::Global().RecordRecycleMiss();
    ReleaseAll();
    return ::operator new(bytes);
  }

  void Free(void* p, size_t bytes) {
    if (bytes < kRecycleMinBytes) {
      ::operator delete(p, bytes);
      return;
    }
    kept_[bytes].push_back(p);
    ALT_POISON_KEPT(p, bytes);
    MemoryTracker::Global().RecordRecycleKeep(bytes);
  }

 private:
  void ReleaseAll() {
    size_t released = 0;
    for (auto& [bytes, buffers] : kept_) {
      for (void* p : buffers) {
        ALT_UNPOISON_KEPT(p, bytes);
        ::operator delete(p, bytes);
      }
      released += bytes * buffers.size();
      buffers.clear();
    }
    if (released > 0) MemoryTracker::Global().RecordRecycleRelease(released);
  }

  std::unordered_map<size_t, std::vector<void*>> kept_;
};

/// The calling thread's recycler while a scope is open, else null.
constinit thread_local TensorRecycler* t_recycler = nullptr;

}  // namespace

namespace internal {

void* TrackedAllocate(size_t bytes) {
#if !defined(ALT_OBS_DISABLED)
  MemoryTracker::Global().RecordAlloc(bytes);
#endif
  if (TensorRecycler* recycler = t_recycler) return recycler->Allocate(bytes);
  return ::operator new(bytes);
}

void TrackedDeallocate(void* p, size_t bytes) {
  if (TensorRecycler* recycler = t_recycler) {
    recycler->Free(p, bytes);
  } else {
    ::operator delete(p, bytes);
  }
#if !defined(ALT_OBS_DISABLED)
  MemoryTracker::Global().RecordFree(bytes);
#endif
}

}  // namespace internal

ScopedTensorRecycling::ScopedTensorRecycling()
    : outermost_(t_recycler == nullptr) {
  if (outermost_) t_recycler = new TensorRecycler();
}

ScopedTensorRecycling::~ScopedTensorRecycling() {
  if (!outermost_) return;
  TensorRecycler* recycler = t_recycler;
  t_recycler = nullptr;
  delete recycler;
}

bool ScopedTensorRecycling::active() { return t_recycler != nullptr; }

}  // namespace obs
}  // namespace alt
