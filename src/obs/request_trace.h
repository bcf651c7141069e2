#ifndef ALT_SRC_OBS_REQUEST_TRACE_H_
#define ALT_SRC_OBS_REQUEST_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/json.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace alt {
namespace obs {

/// Request-scoped tracing --------------------------------------------------
///
/// `RequestTracer` mints a `RequestContext` per serving request (sampled
/// deterministically at `ALT_TRACE_SAMPLE` rate) and, when the request
/// completes, folds its per-segment wall-time decomposition into
///   - per-segment histograms (`serving/trace/segment_ms/<segment>`, exported as
///     `alt_serving_trace_segment_ms{id="<segment>"}`), and
///   - a bounded ring of the N slowest completed request traces, served at
///     `/trace/slow`.
/// The context propagates by value through ServingClient → ShardCoordinator
/// → WorkerShard; an unsampled context costs zero clock reads anywhere
/// along that path.

/// Canonical segment taxonomy of the serving path. Segment sums are designed
/// to account for a request's end-to-end latency:
///   route + [failover|shed_requeue]* + queue_wait + compute
/// Every request books its own segments, also when the shard worker merged
/// it with others into one engine call: its queue_wait ends where that call
/// starts, and the call is its compute.
namespace segment {
inline constexpr const char* kRoute = "route";          // p2c replica ranking
inline constexpr const char* kQueueWait = "queue_wait";  // shard queue
inline constexpr const char* kCompute = "compute";       // engine call
inline constexpr const char* kFailover = "failover";  // failed attempts + rebalance
inline constexpr const char* kShedRequeue = "shed_requeue";  // shed attempts
}  // namespace segment

/// Per-request segment accumulator, shared (via the RequestContext's
/// shared_ptr) by every thread a sampled request crosses. Same-named
/// segments merge by accumulation (e.g. route once per failover round).
class RequestTrace {
 public:
  RequestTrace(uint64_t trace_id, std::string scenario, double start_us);

  void AddSegment(const char* name, double ms);
  std::vector<std::pair<std::string, double>> Segments() const;

  uint64_t trace_id() const { return trace_id_; }
  const std::string& scenario() const { return scenario_; }
  double start_us() const { return start_us_; }

 private:
  const uint64_t trace_id_;
  const std::string scenario_;
  const double start_us_;  // MonotonicMicros at StartRequest.
  mutable Mutex mu_;
  std::vector<std::pair<std::string, double>> segments_ ALT_GUARDED_BY(mu_);
};

class RequestTracer {
 public:
  struct Options {
    /// Sampling probability in [0,1]. Negative means: read ALT_TRACE_SAMPLE
    /// from the environment, defaulting to 0.01.
    double sample_rate = -1.0;
    /// Seeds both the deterministic sampling decision and trace-id minting:
    /// the same seed and request order sample the same requests.
    uint64_t seed = 42;
    /// Capacity of the slowest-completed-traces ring.
    int slow_ring_size = 32;
    MetricsRegistry* registry = nullptr;  // Null: the global registry.
    TraceRecorder* recorder = nullptr;    // Null: the global recorder.
  };

  RequestTracer();  // Default options.
  explicit RequestTracer(Options options);
  RequestTracer(const RequestTracer&) = delete;
  RequestTracer& operator=(const RequestTracer&) = delete;

  /// True when the tracer's registry is enabled; when false, StartRequest
  /// returns an inert context and CompleteRequest returns 0.
  bool enabled() const;

  /// Ticks the request counter and returns the request's context: always
  /// carries start_us for end-to-end timing (when enabled); additionally
  /// carries a trace id + accumulator when this request is sampled.
  RequestContext StartRequest(const std::string& scenario);

  /// Completes a request started by StartRequest. Returns the end-to-end
  /// latency in ms (0 when the tracer was disabled at start). For sampled
  /// requests, also feeds segment histograms and the slow-trace ring.
  double CompleteRequest(const RequestContext& ctx, const Status& status);

  struct CompletedTrace {
    uint64_t trace_id = 0;
    std::string scenario;
    double total_ms = 0.0;
    bool ok = true;
    std::string status = "OK";
    std::vector<std::pair<std::string, double>> segments;
    double SegmentSumMs() const;
    /// ms of `name` across merged segments (0 when absent).
    double SegmentMs(const std::string& name) const;
  };

  /// The retained slowest completed traces, slowest first.
  std::vector<CompletedTrace> SlowTraces() const;
  /// The `/trace/slow` document.
  Json ToJson() const;

  int64_t traced_requests() const;
  double slowest_ms() const;

  /// Runtime-adjustable sampling (e.g. burst to 1.0 around an incident).
  double sample_rate() const;
  void set_sample_rate(double rate);

  TraceRecorder* recorder() const { return recorder_; }

 private:
  Histogram* SegmentHistogram(const std::string& name) ALT_EXCLUDES(mu_);

  MetricsRegistry* registry_;
  TraceRecorder* recorder_;
  uint64_t seed_;
  size_t slow_ring_size_;
  std::atomic<uint64_t> ticket_{0};
  std::atomic<double> sample_rate_;
  Counter* completed_ = nullptr;      // serving/trace/completed
  Gauge* slowest_gauge_ = nullptr;    // serving/trace/slowest_ms
  mutable Mutex mu_;
  std::map<std::string, Histogram*> segment_hists_ ALT_GUARDED_BY(mu_);
  std::vector<CompletedTrace> slow_ ALT_GUARDED_BY(mu_);  // Unordered ring.
};

/// Stopwatch that attributes wall time to a named segment of a sampled
/// request. Inactive (zero clock reads) for unsampled contexts.
///
///   SegmentTimer t(ctx, segment::kRoute);   // records on destruction
///   SegmentTimer t(ctx); ... t.RecordAs(segment::kFailover);  // per attempt
///
/// RecordAs restarts the stopwatch, so one timer can meter consecutive
/// attempts; time not claimed by RecordAs before destruction is discarded
/// unless a destructor segment was given.
class SegmentTimer {
 public:
  explicit SegmentTimer(const RequestContext& ctx);
  SegmentTimer(const RequestContext& ctx, const char* segment);
  ~SegmentTimer();
  SegmentTimer(const SegmentTimer&) = delete;
  SegmentTimer& operator=(const SegmentTimer&) = delete;

  /// Records time since construction (or the previous RecordAs) against
  /// `segment`, then restarts.
  void RecordAs(const char* segment);

 private:
  std::shared_ptr<RequestTrace> trace_;  // Null when inactive.
  const char* on_destroy_;               // Null: discard unclaimed time.
  double start_us_ = 0.0;
};

}  // namespace obs
}  // namespace alt

#endif  // ALT_SRC_OBS_REQUEST_TRACE_H_
