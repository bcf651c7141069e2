#include "src/tensor/scratch.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "src/obs/memory_tracker.h"
#include "src/obs/metrics.h"
#include "src/util/logging.h"

namespace alt {

namespace {

constexpr size_t kAlignFloats = 8;           // 32 bytes.
// The first block a thread's arena takes. A thread's arena ends as one
// block of its peak need (see Arena::Restore), so the minimum only sets
// what a thread with small needs reserves.
constexpr size_t kMinBlockFloats = 1 << 12;  // 16 KiB.

std::atomic<int64_t> g_peak_bytes{0};
std::atomic<int64_t> g_reserved_bytes{0};

void RaisePeak(int64_t used_bytes) {
  int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (used_bytes > peak &&
         !g_peak_bytes.compare_exchange_weak(peak, used_bytes,
                                             std::memory_order_relaxed)) {
  }
  if (used_bytes > peak) {
    ALT_OBS_GAUGE_SET("memory/scratch/peak_bytes",
                      static_cast<double>(used_bytes));
  }
}

using Block = std::vector<float, obs::TrackingAllocator<float>>;

/// One arena per thread. Blocks are append-only while any frame is live, so
/// handed-out spans never move; when the last frame closes, a fragmented
/// arena is consolidated into a single block for the next user, sized to
/// the most floats ever live at once rather than to the blocks it
/// replaces (a small nested span after an exactly-sized one would
/// otherwise double the arena).
struct Arena {
  std::vector<Block> blocks;
  size_t active = 0;     // Block currently being carved.
  size_t offset = 0;     // Float offset within blocks[active].
  int depth = 0;         // Live frames on this thread.
  size_t live = 0;       // Floats the live spans need in one block.
  size_t peak_live = 0;  // Largest `live` so far.

  ~Arena() {
    g_reserved_bytes.fetch_sub(CapacityBytes(), std::memory_order_relaxed);
  }

  int64_t CapacityBytes() const {
    int64_t total = 0;
    for (const Block& b : blocks) {
      total += static_cast<int64_t>(b.size() * sizeof(float));
    }
    return total;
  }

  int64_t UsedBytes() const {
    int64_t used = 0;
    for (size_t i = 0; i < active && i < blocks.size(); ++i) {
      used += static_cast<int64_t>(blocks[i].size() * sizeof(float));
    }
    return used + static_cast<int64_t>(offset * sizeof(float));
  }

  /// No geometric growth: the consolidation at the next top-level frame
  /// exit sizes the arena, so a block holds just what asked for it. Sizes
  /// are whole alignment units, so an aligned offset never passes the end.
  void AppendBlock(size_t floats) {
    const size_t size =
        std::max(kMinBlockFloats,
                 (floats + kAlignFloats - 1) & ~(kAlignFloats - 1));
    blocks.emplace_back(size);
    g_reserved_bytes.fetch_add(
        static_cast<int64_t>(size * sizeof(float)),
        std::memory_order_relaxed);
    ALT_OBS_GAUGE_SET(
        "memory/scratch/reserved_bytes",
        static_cast<double>(g_reserved_bytes.load(std::memory_order_relaxed)));
  }

  float* Take(size_t floats) {
    ALT_CHECK_GT(depth, 0) << "scratch Take outside any ScratchFrame";
    offset = (offset + kAlignFloats - 1) & ~(kAlignFloats - 1);
    while (active < blocks.size() &&
           blocks[active].size() - offset < floats) {
      ++active;
      offset = 0;
    }
    if (active == blocks.size()) AppendBlock(floats);
    float* p = blocks[active].data() + offset;
    offset += floats;
    live = ((live + kAlignFloats - 1) & ~(kAlignFloats - 1)) + floats;
    if (live > peak_live) peak_live = live;
    RaisePeak(UsedBytes());
    return p;
  }

  void Restore(size_t block, size_t off, size_t live_before) {
    active = block;
    offset = off;
    live = live_before;
    --depth;
    // Between top-level frames nothing is live: collapse a multi-block
    // arena into one block that holds the largest set of spans seen, so
    // later frames stop block-hopping.
    if (depth == 0 && blocks.size() > 1) {
      g_reserved_bytes.fetch_sub(CapacityBytes(), std::memory_order_relaxed);
      blocks.clear();
      active = 0;
      offset = 0;
      AppendBlock(peak_live);
    }
  }
};

Arena& ThreadArena() {
  thread_local Arena arena;
  return arena;
}

}  // namespace

ScratchFrame::ScratchFrame() {
  Arena& arena = ThreadArena();
  saved_block_ = arena.active;
  saved_offset_ = arena.offset;
  saved_live_ = arena.live;
  ++arena.depth;
}

ScratchFrame::~ScratchFrame() {
  ThreadArena().Restore(saved_block_, saved_offset_, saved_live_);
}

float* ScratchFrame::Floats(int64_t n) {
  return ThreadArena().Take(static_cast<size_t>(n));
}

int32_t* ScratchFrame::Int32(int64_t n) {
  return reinterpret_cast<int32_t*>(
      ThreadArena().Take(static_cast<size_t>(n)));
}

int8_t* ScratchFrame::Int8(int64_t n) {
  const size_t floats =
      (static_cast<size_t>(n) + sizeof(float) - 1) / sizeof(float);
  return reinterpret_cast<int8_t*>(ThreadArena().Take(floats));
}

int64_t ScratchPeakBytes() {
  return g_peak_bytes.load(std::memory_order_relaxed);
}

int64_t ScratchReservedBytes() {
  return g_reserved_bytes.load(std::memory_order_relaxed);
}

}  // namespace alt
