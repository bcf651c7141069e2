#ifndef ALT_SRC_TENSOR_SCRATCH_H_
#define ALT_SRC_TENSOR_SCRATCH_H_

#include <cstddef>
#include <cstdint>

namespace alt {

/// Thread-local scratch arena for kernel-layer temporaries ------------------
///
/// The GEMM pack buffer, the Conv1D im2col matrix, and the int8 activation
/// buffers are per-call temporaries that used to live in ad-hoc
/// `thread_local std::vector<float>`s — invisible to the obs::MemoryTracker
/// and re-zeroed/reallocated per call. A ScratchFrame carves them out of one
/// per-thread arena instead:
///
///   ScratchFrame frame;
///   float* x2 = frame.Floats(seq * cols);
///   int8_t* xq = frame.Int8(m * k);
///
/// Frames nest (LIFO); destroying a frame releases its allocations back to
/// the arena without freeing memory, so steady-state kernels allocate
/// nothing. When the last frame on a thread closes, an arena that grew
/// extra blocks becomes one block holding the most floats ever live at
/// once, so it reserves what its heaviest caller needs and no more. The arena's backing store uses obs::TrackingAllocator, so
/// scratch bytes appear in the global tensor-memory accounting, and the
/// high-water marks are published as gauges (`memory/scratch/peak_bytes`,
/// `memory/scratch/reserved_bytes` — exported as `alt_memory_scratch_*`).
///
/// Pointer stability: every span handed out by a live frame stays valid for
/// the frame's lifetime (growth appends blocks; it never moves old ones).
/// Spans are 32-byte aligned for the AVX2 kernels. Thread safety: arenas are
/// strictly per-thread; a ParallelFor worker that needs scratch opens its
/// own frame inside the worker body.
class ScratchFrame {
 public:
  ScratchFrame();
  ~ScratchFrame();
  ScratchFrame(const ScratchFrame&) = delete;
  ScratchFrame& operator=(const ScratchFrame&) = delete;

  /// Uninitialized spans; contents are whatever a previous frame left there.
  float* Floats(int64_t n);
  int32_t* Int32(int64_t n);
  int8_t* Int8(int64_t n);

 private:
  size_t saved_block_;
  size_t saved_offset_;
  size_t saved_live_;
};

/// Largest bytes-in-use observed in any single thread's arena, process-wide.
int64_t ScratchPeakBytes();
/// Total backing-store bytes currently reserved across all live threads.
int64_t ScratchReservedBytes();

}  // namespace alt

#endif  // ALT_SRC_TENSOR_SCRATCH_H_
