#ifndef ALT_SRC_OBS_METRICS_H_
#define ALT_SRC_OBS_METRICS_H_

#include <atomic>
#include <chrono>
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

/// Process-wide metrics layer ------------------------------------------------
///
/// One canonical instrumentation API for every subsystem (ISSUE 3): named
/// counters, gauges, and fixed-bucket histograms registered in a
/// `MetricsRegistry`. Metric names follow the `layer/component/metric`
/// scheme (e.g. `serving/coordinator/broadcast_ms`); per-instance
/// metrics append an instance segment (`serving/request/latency_ms/<scenario>`).
///
/// Concurrency model:
///   - counters and gauges are single atomics (relaxed; values are
///     monotone or last-writer-wins, no cross-metric ordering is promised);
///   - histograms shard their buckets over a small fixed set of mutexes
///     keyed by the calling thread, so concurrent `Observe` calls rarely
///     contend and snapshots merge the shards under all shard locks.
///
/// Disabling: the `ALT_OBS` environment variable (`off`/`0`/`false`) turns
/// the process-global registry off at startup; `set_enabled(false)` does the
/// same per registry (used by tests). A disabled registry records nothing —
/// every record call is one relaxed atomic load and an early return, so
/// instrumented hot paths stay at full speed. Compiling with
/// `-DALT_OBS_DISABLED` additionally removes the `ALT_OBS_*` macro call
/// sites entirely.
///
/// Lifetime: metric handles (`Counter*`, `Gauge*`, `Histogram*`) are owned
/// by their registry and stay valid for the registry's lifetime; they are
/// never deleted or re-created, so call sites may cache them.

class MetricsRegistry;

/// Monotonically increasing integer metric.
class Counter {
 public:
  void Add(int64_t delta = 1) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  bool enabled() const { return enabled_->load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  const std::atomic<bool>* enabled_;
  std::atomic<int64_t> value_{0};
};

/// Last-writer-wins floating point level (queue depth, current loss, ...).
class Gauge {
 public:
  void Set(double v) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void Add(double delta);
  double value() const { return value_.load(std::memory_order_relaxed); }
  bool enabled() const { return enabled_->load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  const std::atomic<bool>* enabled_;
  std::atomic<double> value_{0.0};
};

/// Read-only roll-up of one histogram at snapshot time. Count and sum are
/// exact; percentiles are linearly interpolated within the fixed buckets
/// (the top percentile is capped at the exact observed max).
struct HistogramSummary {
  int64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Raw merged bucket state of one histogram, the exposition layer's view
/// (Prometheus `_bucket`/`_sum`/`_count` series, see src/obs/export.h).
struct HistogramBuckets {
  std::vector<double> bounds;   // Upper bounds; the overflow bucket is +Inf.
  std::vector<int64_t> counts;  // Per-bucket counts, size bounds.size() + 1.
  int64_t count = 0;
  double sum = 0.0;
};

/// Fixed-bucket histogram with exact count/sum/min/max tracking. Bucket `i`
/// counts observations `v <= bounds[i]` (first matching bound); values above
/// the last bound land in an overflow bucket whose upper edge is the
/// observed max.
class Histogram {
 public:
  void Observe(double v);
  HistogramSummary Summarize() const;
  /// Merged per-bucket counts (non-cumulative; exposition accumulates).
  HistogramBuckets SnapshotBuckets() const;
  double Percentile(double q) const { return SummarizePercentile(q); }
  const std::vector<double>& bounds() const { return bounds_; }
  bool enabled() const { return enabled_->load(std::memory_order_relaxed); }

  /// 1-2-5 decade bounds from 1e-3 to 1e4, the default for *_ms metrics.
  static std::vector<double> DefaultLatencyBoundsMs();

  static constexpr int kShards = 8;

 private:
  friend class MetricsRegistry;
  Histogram(const std::atomic<bool>* enabled, std::vector<double> bounds);
  struct Shard {
    mutable Mutex mu;
    // bounds.size() + 1 entries (overflow last).
    std::vector<int64_t> bucket_counts ALT_GUARDED_BY(mu);
    int64_t count ALT_GUARDED_BY(mu) = 0;
    double sum ALT_GUARDED_BY(mu) = 0.0;
    double min ALT_GUARDED_BY(mu) = 0.0;
    double max ALT_GUARDED_BY(mu) = 0.0;
  };

  double SummarizePercentile(double q) const;

  const std::atomic<bool>* enabled_;
  std::vector<double> bounds_;  // Strictly increasing upper bounds.
  Shard shards_[kShards];
};

/// Named metric registry. `Global()` is the canonical process-wide instance
/// every layer reports through; tests construct private registries for
/// isolation. Creating a metric is idempotent: the first call registers it,
/// later calls return the same handle (a histogram's bounds are fixed by the
/// first call).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry. Enabled unless the ALT_OBS environment
  /// variable is `off`/`0`/`false` at first use; when enabled, also installs
  /// the ParallelFor shard-timing observer (util/parallel_for.h) feeding
  /// `util/parallel_for/*` metrics.
  static MetricsRegistry& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  /// `bounds` must be strictly increasing; empty selects
  /// Histogram::DefaultLatencyBoundsMs().
  Histogram* histogram(const std::string& name,
                       std::vector<double> bounds = {});

  /// Snapshot reads; zero-valued defaults when the metric does not exist.
  int64_t counter_value(const std::string& name) const;
  double gauge_value(const std::string& name) const;
  HistogramSummary histogram_summary(const std::string& name) const;

  /// Typed full-registry snapshot (name-sorted), the input of the
  /// Prometheus exposition renderer (src/obs/export.h).
  struct Snapshot {
    bool enabled = true;
    std::vector<std::pair<std::string, int64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, HistogramBuckets>> histograms;
  };
  Snapshot TakeSnapshot() const;

  /// Serializes a full snapshot:
  ///   {"counters": {...}, "gauges": {...}, "histograms": {name: summary}}.
  Json ToJson() const;

  /// Human-readable snapshot (util/table_printer tables).
  std::string ToString() const;

 private:
  std::atomic<bool> enabled_{true};
  mutable Mutex mu_;  // Guards the maps, not the metric values.
  std::map<std::string, std::unique_ptr<Counter>> counters_
      ALT_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ ALT_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      ALT_GUARDED_BY(mu_);
};

/// RAII wall-time recorder: observes the elapsed milliseconds into `h` on
/// destruction. When the owning registry is disabled (or `h` is null) the
/// clock is never read, keeping disabled instrumentation near-free.
class ScopedTimerMs {
 public:
  explicit ScopedTimerMs(Histogram* h)
      : hist_(h != nullptr && h->enabled() ? h : nullptr) {
    if (hist_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimerMs() {
    if (hist_ != nullptr) hist_->Observe(ElapsedMillis());
  }
  ScopedTimerMs(const ScopedTimerMs&) = delete;
  ScopedTimerMs& operator=(const ScopedTimerMs&) = delete;

  double ElapsedMillis() const {
    if (hist_ == nullptr) return 0.0;
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace alt

/// Call-site macros: cache the metric handle in a function-local static so
/// steady-state cost is one pointer read plus the record call. Compiling
/// with -DALT_OBS_DISABLED removes the call sites entirely (the
/// compile-time switch of the observability layer).
#if defined(ALT_OBS_DISABLED)
#define ALT_OBS_COUNTER_ADD(name, delta) \
  do {                                   \
  } while (false)
#define ALT_OBS_GAUGE_SET(name, v) \
  do {                             \
  } while (false)
#define ALT_OBS_HISTOGRAM_OBSERVE(name, v) \
  do {                                     \
  } while (false)
#define ALT_OBS_HISTOGRAM_HANDLE(name) \
  (static_cast<::alt::obs::Histogram*>(nullptr))
#else
#define ALT_OBS_COUNTER_ADD(name, delta)                          \
  do {                                                            \
    static ::alt::obs::Counter* alt_obs_counter_ =                \
        ::alt::obs::MetricsRegistry::Global().counter(name);      \
    alt_obs_counter_->Add(delta);                                 \
  } while (false)
#define ALT_OBS_GAUGE_SET(name, v)                                \
  do {                                                            \
    static ::alt::obs::Gauge* alt_obs_gauge_ =                    \
        ::alt::obs::MetricsRegistry::Global().gauge(name);        \
    alt_obs_gauge_->Set(v);                                       \
  } while (false)
#define ALT_OBS_HISTOGRAM_OBSERVE(name, v)                        \
  do {                                                            \
    static ::alt::obs::Histogram* alt_obs_hist_ =                 \
        ::alt::obs::MetricsRegistry::Global().histogram(name);    \
    alt_obs_hist_->Observe(v);                                    \
  } while (false)
/// Expression form: the cached global-registry histogram handle for `name`
/// (null when compiled out), for use with obs::ScopedTimerMs.
#define ALT_OBS_HISTOGRAM_HANDLE(name)                            \
  ([]() -> ::alt::obs::Histogram* {                               \
    static ::alt::obs::Histogram* alt_obs_hist_ =                 \
        ::alt::obs::MetricsRegistry::Global().histogram(name);    \
    return alt_obs_hist_;                                         \
  }())
#endif  // ALT_OBS_DISABLED

#endif  // ALT_SRC_OBS_METRICS_H_
