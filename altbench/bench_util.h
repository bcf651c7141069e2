// Arithmetic and bookkeeping shared by the altbench workloads: order
// statistics with the percentile-support rule, the seeded open-loop
// schedule, open-loop pacing and backlog detection, span self time, the
// output digest and the host record. Everything here is free of the ALT
// library so the self-tests exercise it in isolation.

#ifndef ALTBENCH_BENCH_UTIL_H_
#define ALTBENCH_BENCH_UTIL_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace altbench {

/// Seconds on the steady clock (arbitrary fixed epoch).
double NowSeconds();
/// Sleeps until NowSeconds() >= t.
void SleepUntil(double t);
/// CPU seconds used by the whole process, and by the calling thread. CPU
/// time excludes the time a busy host steals from this guest, so costs
/// measured in it repeat where wall-clock tails do not.
double ProcessCpuSeconds();
double ThreadCpuSeconds();
/// Wall and process-CPU seconds of one interval, from construction.
struct Cost {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};
class CostTimer {
 public:
  CostTimer() : wall0_(NowSeconds()), cpu0_(ProcessCpuSeconds()) {}
  Cost Elapsed() const {
    return {NowSeconds() - wall0_, ProcessCpuSeconds() - cpu0_};
  }

 private:
  double wall0_;
  double cpu0_;
};
/// printf-style formatting of up to four doubles.
std::string Fmt(const char* format, double a, double b = 0.0, double c = 0.0,
                double d = 0.0);

// ---------------------------------------------------------------------------
// Order statistics.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it: p99 needs 1000 samples, p90 needs 100.
inline constexpr int64_t kMinBeyond = 10;

struct Percentile {
  double value = 0.0;
  double q = 0.0;
  int64_t n = 0;
  /// Samples strictly after the nearest-rank position.
  int64_t beyond = 0;
  bool supported = false;
};

/// Nearest-rank percentile q in (0, 1): sorted[ceil(q * n) - 1].
Percentile TailPercentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
double Sum(const std::vector<double>& values);

/// Rate at which p99 reaches `limit`, interpolated in log-log space between
/// a passing ladder step (rate_lo, p99_lo <= limit) and the failing step
/// after it. A failing step whose p99 is within the limit (it failed on
/// errors or a backlog) gives rate_lo.
double InterpolateLimitCrossing(double rate_lo, double p99_lo, double rate_hi,
                                double p99_hi, double limit);

// ---------------------------------------------------------------------------
// Seeded schedule. A pure function of its arguments: the same seed always
// yields the same arrivals, on any host.

uint64_t SplitMix64(uint64_t* state);
/// Uniform double in (0, 1).
double UnitDouble(uint64_t* state);

/// Cumulative Zipf(s) distribution over ranks 0..n-1.
std::vector<double> ZipfCdf(int n, double s);
int SampleCdf(const std::vector<double>& cdf, double u);

struct Arrival {
  double at_s = 0.0;  // Intended send time, offset from the phase start.
  int scenario = 0;   // Zipf rank.
  int row = 0;        // Request-pool row.
};

/// Poisson arrivals at `rate` per second over `duration_s`, each with a
/// Zipf-ranked scenario and a uniform pool row.
std::vector<Arrival> PoissonZipfSchedule(uint64_t seed, double rate,
                                         double duration_s,
                                         const std::vector<double>& zipf_cdf,
                                         int rows);

// ---------------------------------------------------------------------------
// Open-loop pacing.

/// Calls send(i, intended_abs_s) for every offset in `intended`, never
/// before t0 + intended[i]. Returns how late each send started (ms), which
/// is the generator lateness: a stall inside send(i) makes every later
/// send late until the schedule catches up.
std::vector<double> PaceSends(const std::vector<double>& intended, double t0,
                              const std::function<void(size_t, double)>& send);

/// Open-loop latency of one request, timed from when it was due to be
/// sent, so a stall that delays later sends counts against them.
inline double IntendedLatencyMs(double intended_abs_s, double done_s) {
  return (done_s - intended_abs_s) * 1e3;
}

/// A ladder step's backlog grows when the step ends with more requests in
/// flight than the latency limit allows at that rate (Little's law), or
/// when the last quarter of the step (in send order) waited markedly longer
/// than the first quarter.
bool BacklogGrows(const std::vector<double>& latency_in_send_order_ms,
                  int64_t in_flight_at_end, double rate, double limit_ms);

// ---------------------------------------------------------------------------
// Spans.

struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: a root.
  double start_us = 0.0;
  double end_us = 0.0;
};

/// A span's self time: its duration minus the part of its interval that
/// the given child intervals cover (overlaps counted once, parts outside
/// the parent ignored).
double SelfTimeUs(double start_us, double end_us,
                  std::vector<std::pair<double, double>> children);

/// Thread-safe in-memory span store; written out when the run ends.
class SpanLog {
 public:
  uint64_t NextId();
  void Add(Span span);
  std::vector<Span> Spans() const;
  /// Self time of every span named `name`, with its children being the
  /// spans of this log whose parent it is.
  std::vector<double> SelfTimesUs(const std::string& name) const;

 private:
  mutable std::mutex mu_;
  uint64_t next_id_ = 0;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Output digest (FNV-1a, 64 bit) over exact bit patterns.

class Digest {
 public:
  void AddBytes(const void* data, size_t n);
  void AddU64(uint64_t v) { AddBytes(&v, sizeof(v)); }
  void AddFloat(float v) { AddBytes(&v, sizeof(v)); }
  void AddDouble(double v) { AddBytes(&v, sizeof(v)); }
  void AddString(const std::string& s);
  std::string Hex() const;

 private:
  uint64_t h_ = 1469598103934665603ull;
};

// ---------------------------------------------------------------------------
// Host record.

struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};
/// Aggregate jiffies from the first line of /proc/stat.
bool ReadCpuTimes(CpuTimes* out);
double StealShare(const CpuTimes& begin, const CpuTimes& end);
/// Process peak resident set (VmHWM), in MB.
double PeakRssMb();
int HostCpus();

/// Runs the self-tests of everything above; false with a message on the
/// first failure.
bool RunSelfTests(std::string* failure);

}  // namespace altbench

#endif  // ALTBENCH_BENCH_UTIL_H_
