#ifndef ALT_SRC_OBS_SLO_H_
#define ALT_SRC_OBS_SLO_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/json.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace alt {
namespace obs {

/// Per-scenario SLO objectives + multi-window burn-rate tracking ------------
///
/// A request is "bad" when it fails, or when it exceeds the scenario's
/// latency target. Burn rate is the SRE error-budget derivative:
///
///   burn = (bad fraction over window) / (1 - availability objective)
///
/// burn > 1 means the scenario is consuming error budget faster than the
/// objective allows; the short window (default 60 s) catches incidents, the
/// long window (default 600 s) smooths recovery. Time comes from an
/// injectable `now_ms` function so tests drive the windows on a FakeClock
/// (the obs layer cannot depend on src/resilience — callers wrap their
/// Clock into the std::function).

struct SloObjective {
  /// Latency target in ms; requests slower than this are budget-burning
  /// even when they succeed. 0 disables the latency objective.
  double target_latency_ms = 0.0;
  /// Availability objective in [0,1); 0.999 allows 0.1% bad requests.
  double availability = 0.999;
};

class SloTracker {
 public:
  struct Options {
    MetricsRegistry* registry = nullptr;  // Null: the global registry.
    /// Monotonic milliseconds; null uses the process steady clock.
    std::function<double()> now_ms;
    double bucket_ms = 1000.0;
    double short_window_ms = 60'000.0;
    double long_window_ms = 600'000.0;
    /// Objective for scenarios that never had SetObjective called.
    SloObjective default_objective;
  };

  SloTracker();  // Default options.
  explicit SloTracker(Options options);
  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  /// Installs/overwrites a scenario's objective (DeployOptions::slo lands
  /// here on deploy).
  void SetObjective(const std::string& scenario, const SloObjective& objective);

  /// Records one request outcome. No-op when the registry is disabled
  /// (ALT_OBS=off turns the whole SLO plane off).
  void Record(const std::string& scenario, double latency_ms, bool ok);

  struct ScenarioSlo {
    SloObjective objective;
    int64_t total = 0;  // Lifetime counts.
    int64_t bad = 0;
    double burn_short = 0.0;
    double burn_long = 0.0;
    /// Long-window error budget still unspent, in [0,1].
    double budget_remaining = 1.0;
    bool burning() const { return burn_short > 1.0; }
  };

  /// Burn rates evaluated at now_ms() for every known scenario.
  std::map<std::string, ScenarioSlo> Snapshot() const;

  /// Scenarios whose short-window burn exceeds 1, sorted by name.
  std::vector<std::string> Burning() const;

  /// Writes `slo/burn/short/<s>`, `slo/burn/long/<s>`, and
  /// `slo/budget/remaining/<s>` gauges (exported as alt_slo_* families with
  /// the scenario in the `id` label) into this tracker's registry.
  void PublishGauges();

  /// The `/slo` document.
  Json ToJson() const;

  double NowMs() const;

  /// Sentinel burn rate for a zero error budget (availability >= 1) that is
  /// being violated.
  static constexpr double kInfiniteBurn = 1e9;

 private:
  /// One bucket_ms of one scenario's requests. 32-bit counts keep a bucket
  /// at 16 bytes, so the default 601-bucket ring is 9.6 KiB per scenario;
  /// they would wrap only past 4e9 requests in one bucket. Lifetime totals
  /// and window sums stay 64-bit.
  struct Bucket {
    int64_t index = -1;  // now_ms / bucket_ms; -1 = empty slot.
    uint32_t total = 0;
    uint32_t bad = 0;
  };
  struct Scenario {
    SloObjective objective;
    int64_t total = 0;
    int64_t bad = 0;
    std::vector<Bucket> ring;
  };

  Scenario& ScenarioLocked(const std::string& name)
      ALT_REQUIRES(mu_);
  static void WindowCounts(const Scenario& scenario, int64_t now_index,
                           int64_t window_buckets, int64_t* total,
                           int64_t* bad);
  static double Burn(int64_t total, int64_t bad, const SloObjective& objective);

  MetricsRegistry* registry_;
  std::function<double()> now_ms_;
  double bucket_ms_;
  int64_t short_buckets_;
  int64_t long_buckets_;
  size_t ring_size_;
  SloObjective default_objective_;
  mutable Mutex mu_;
  std::map<std::string, Scenario> scenarios_ ALT_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace alt

#endif  // ALT_SRC_OBS_SLO_H_
