#ifndef ALT_SRC_OBS_TRACE_H_
#define ALT_SRC_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/util/json.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace alt {
namespace obs {

/// Trace layer ----------------------------------------------------------------
///
/// `TraceSpan` is an RAII scope that records a named wall-time interval into
/// a `TraceRecorder`. Spans are cheap and thread-safe: each thread appends
/// completed spans to its own buffer (one short uncontended lock per span),
/// and export merges the per-thread buffers. Exports:
///   - `ToChromeJson()`: Chrome `trace_event` format (load in
///     chrome://tracing or Perfetto) — {"traceEvents": [{ph:"X", ...}]};
///   - `ToTextTree()`: indented per-thread text tree via util/table_printer.
///
/// The recorder obeys the same switch as the metrics layer: `ALT_OBS=off`
/// disables the global recorder at startup, `set_enabled(false)` per
/// instance; a span against a disabled recorder never reads the clock.
/// Per-thread buffers are capped (kMaxEventsPerThread); beyond the cap
/// events are counted as dropped instead of recorded.

/// One completed span. Timestamps are microseconds since the recorder's
/// construction (its epoch), as required by the Chrome trace format.
struct TraceEvent {
  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;
  int tid = 0;
  int depth = 0;
  /// Request-scoped causality (all 0 for spans outside a sampled request).
  /// Export uses these to attach ids and emit Chrome flow events so Perfetto
  /// renders one causal lane per request across threads.
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
};

class RequestTrace;  // src/obs/request_trace.h

/// Identity of one request as it crosses threads: caller → coordinator →
/// shard dispatcher → batch flush. Copied by value; the shared_ptr keeps the
/// per-request segment accumulator alive on every thread the request visits.
/// A default-constructed context is unsampled and makes every tracing hook
/// along the path a no-op.
struct RequestContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;  // The span that currently owns the request.
  uint64_t parent_span_id = 0;
  /// Microseconds (MonotonicMicros epoch) at StartRequest; 0 when request
  /// timing is disabled entirely (registry off).
  double start_us = 0.0;
  std::shared_ptr<RequestTrace> trace;  // Null = unsampled.
  bool sampled() const { return trace != nullptr; }
};

/// Process-unique span id, mixed from the parent id so ids stay deterministic
/// for a deterministic span sequence. Never returns 0 (0 = "no span").
uint64_t NextSpanId(uint64_t parent_span_id);

/// The context of a new request-linked span under `parent`: a fresh span id
/// parented on parent.span_id, as TraceSpan::context() hands downstream.
/// For spans that begin and end on different threads; record them with
/// TraceRecorder::RecordSpan.
RequestContext ChildContext(const RequestContext& parent);

/// Microseconds on the process steady clock (arbitrary but fixed epoch).
/// Segment timing helper for serving code, which must not read raw chrono
/// clocks (lint L006).
double MonotonicMicros();

class TraceRecorder {
 public:
  TraceRecorder();
  ~TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// The process-wide recorder used by ALT_TRACE_SPAN and the wired
  /// subsystems. Enabled unless ALT_OBS is off (same env switch as
  /// MetricsRegistry::Global).
  static TraceRecorder& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Appends one completed event to the calling thread's buffer.
  void Record(TraceEvent event);

  /// Records request-linked span `span` (from ChildContext) as one event
  /// from `start_us` (NowMicros) to now: the explicit form of a
  /// request-linked TraceSpan, for work that crosses threads. No-op when
  /// disabled.
  void RecordSpan(std::string name, const RequestContext& span,
                  double start_us);

  /// Total events currently buffered / dropped over the cap.
  size_t event_count() const;
  int64_t dropped_count() const;

  /// Removes all buffered events (keeps thread buffer registrations).
  void Clear();

  /// Chrome trace_event JSON: {"traceEvents": [...], "displayTimeUnit":
  /// "ms"}. Events are sorted by start time (ties: longer span first, so a
  /// parent precedes the children it encloses). `limit` > 0 keeps only the
  /// most recent `limit` X events (the tail of the sorted stream). Events
  /// that belong to a sampled request additionally carry `id` + `args`
  /// (trace/span/parent) and parent→child pairs emit Chrome flow events
  /// (ph "s"/"f") so Perfetto draws one causal lane per request.
  Json ToChromeJson(size_t limit = 0) const;

  /// Indented per-thread span tree (depth = nesting at record time).
  std::string ToTextTree() const;

  /// Microseconds since this recorder's epoch.
  double NowMicros() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  static constexpr size_t kMaxEventsPerThread = size_t{1} << 16;

 private:
  struct ThreadBuffer {
    Mutex mu;
    std::vector<TraceEvent> events ALT_GUARDED_BY(mu);
    int64_t dropped ALT_GUARDED_BY(mu) = 0;
    int tid = 0;  // Written once before the buffer is published.
  };

  ThreadBuffer* BufferForThisThread();
  std::vector<TraceEvent> SortedEvents() const;

  const uint64_t id_;  // Unique per recorder; keys the thread-local cache.
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> enabled_{true};
  std::atomic<int> next_tid_{1};
  mutable Mutex mu_;  // Guards buffers_ (the list, not the contents).
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_ ALT_GUARDED_BY(mu_);
};

/// RAII trace scope. Records into `recorder` (default: the global recorder)
/// when that recorder is enabled at construction time; otherwise the span is
/// inactive and free of clock reads.
class TraceSpan {
 public:
  explicit TraceSpan(std::string name, TraceRecorder* recorder = nullptr);
  /// Request-linked span: active only when the recorder is enabled AND `ctx`
  /// is sampled. The recorded event carries the request's trace id plus a
  /// fresh span id parented on ctx.span_id; hand `context()` to downstream
  /// work so its spans nest under this one in the request's causal lane.
  TraceSpan(std::string name, const RequestContext& ctx,
            TraceRecorder* recorder = nullptr);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool active() const { return recorder_ != nullptr; }
  /// Wall time since construction; 0 when inactive.
  double ElapsedMillis() const;

  /// The context downstream work should propagate: this span's child context
  /// when active, else the construction-time context unchanged (so segment
  /// attribution still flows when only the recorder is disabled).
  RequestContext context() const;

 private:
  std::string name_;
  TraceRecorder* recorder_;  // Null when inactive.
  double start_us_ = 0.0;
  int depth_ = 0;
  RequestContext ctx_;       // Construction-time context (may be unsampled).
  uint64_t span_id_ = 0;     // This span's id; 0 unless request-linked.
};

}  // namespace obs
}  // namespace alt

/// Convenience macro: `ALT_TRACE_SPAN(span, "layer/component/what");`
/// declares an RAII span named `span` against the global recorder. Compiles
/// away entirely under -DALT_OBS_DISABLED.
#if defined(ALT_OBS_DISABLED)
#define ALT_TRACE_SPAN(var, name)
#else
#define ALT_TRACE_SPAN(var, name) ::alt::obs::TraceSpan var(name)
#endif

#endif  // ALT_SRC_OBS_TRACE_H_
