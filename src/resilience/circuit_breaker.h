#ifndef ALT_SRC_RESILIENCE_CIRCUIT_BREAKER_H_
#define ALT_SRC_RESILIENCE_CIRCUIT_BREAKER_H_

#include <cstdint>
#include <string>

#include "src/obs/metrics.h"
#include "src/resilience/clock.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace alt {
namespace resilience {

/// Breaker lifecycle: kClosed (normal traffic) -> kOpen (failing fast)
/// after `failure_threshold` consecutive failures -> kHalfOpen (probing)
/// once `open_cooldown_ms` elapsed -> kClosed after `close_successes`
/// consecutive probe successes, or straight back to kOpen on any probe
/// failure.
enum class BreakerState { kClosed = 0, kHalfOpen = 1, kOpen = 2 };

const char* BreakerStateName(BreakerState state);

struct CircuitBreakerOptions {
  /// Consecutive failures that trip the breaker open.
  int64_t failure_threshold = 5;
  /// How long the breaker fails fast before letting probes through.
  double open_cooldown_ms = 1000.0;
  /// Consecutive half-open successes required to close again.
  int64_t close_successes = 2;
};

/// Thread-safe consecutive-failure circuit breaker. Callers ask
/// AllowRequest() before the protected operation and report the outcome
/// with RecordSuccess()/RecordFailure(); when AllowRequest() returns false
/// the caller should serve its fallback instead of touching the failing
/// dependency.
///
/// Time flows through the injected Clock (cooldown), so state transitions
/// are unit-testable with a FakeClock.
///
/// Obs wiring (under `resilience/circuit_breaker/`, instance-labelled by
/// `name`):
///   state/<name>   gauge: 0 closed, 1 half-open, 2 open
///   opens/<name>   counter: closed/half-open -> open transitions
class CircuitBreaker {
 public:
  /// `clock == nullptr` selects RealClock(); `registry == nullptr` selects
  /// the process-global obs registry.
  CircuitBreaker(std::string name, CircuitBreakerOptions options,
                 Clock* clock = nullptr,
                 obs::MetricsRegistry* registry = nullptr);

  /// True when a request may proceed. An open breaker whose cooldown has
  /// elapsed transitions to half-open and admits the probe.
  bool AllowRequest();

  void RecordSuccess();
  void RecordFailure();

  BreakerState state() const;
  const std::string& name() const { return name_; }

 private:
  /// Sets state + gauge; callers hold mu_.
  void TransitionLocked(BreakerState next) ALT_REQUIRES(mu_);

  const std::string name_;
  const CircuitBreakerOptions options_;
  Clock* clock_;
  obs::Gauge* state_gauge_;    // Owned by the registry.
  obs::Counter* opens_total_;  // Owned by the registry.

  mutable Mutex mu_;
  BreakerState state_ ALT_GUARDED_BY(mu_) = BreakerState::kClosed;
  int64_t consecutive_failures_ ALT_GUARDED_BY(mu_) = 0;
  int64_t half_open_successes_ ALT_GUARDED_BY(mu_) = 0;
  double opened_at_ms_ ALT_GUARDED_BY(mu_) = 0.0;
};

}  // namespace resilience
}  // namespace alt

#endif  // ALT_SRC_RESILIENCE_CIRCUIT_BREAKER_H_
