#include "src/resilience/circuit_breaker.h"

namespace alt {
namespace resilience {

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kHalfOpen:
      return "half-open";
    case BreakerState::kOpen:
      return "open";
  }
  return "unknown";
}

CircuitBreaker::CircuitBreaker(std::string name,
                               CircuitBreakerOptions options, Clock* clock,
                               obs::MetricsRegistry* registry)
    : name_(std::move(name)),
      options_(options),
      clock_(clock != nullptr ? clock : RealClock()) {
  obs::MetricsRegistry& reg =
      registry != nullptr ? *registry : obs::MetricsRegistry::Global();
  state_gauge_ = reg.gauge("resilience/circuit_breaker/state/" + name_);
  opens_total_ = reg.counter("resilience/circuit_breaker/opens/" + name_);
  state_gauge_->Set(static_cast<double>(state_));
}

void CircuitBreaker::TransitionLocked(BreakerState next) {
  if (next == BreakerState::kOpen && state_ != BreakerState::kOpen) {
    opens_total_->Add(1);
    opened_at_ms_ = clock_->NowMs();
  }
  state_ = next;
  state_gauge_->Set(static_cast<double>(next));
}

bool CircuitBreaker::AllowRequest() {
  MutexLock lock(mu_);
  switch (state_) {
    case BreakerState::kClosed:
    case BreakerState::kHalfOpen:
      return true;
    case BreakerState::kOpen:
      if (clock_->NowMs() - opened_at_ms_ >= options_.open_cooldown_ms) {
        half_open_successes_ = 0;
        TransitionLocked(BreakerState::kHalfOpen);
        return true;
      }
      return false;
  }
  return true;
}

void CircuitBreaker::RecordSuccess() {
  MutexLock lock(mu_);
  switch (state_) {
    case BreakerState::kClosed:
      consecutive_failures_ = 0;
      break;
    case BreakerState::kHalfOpen:
      if (++half_open_successes_ >= options_.close_successes) {
        consecutive_failures_ = 0;
        TransitionLocked(BreakerState::kClosed);
      }
      break;
    case BreakerState::kOpen:
      // A late success from a request admitted before the trip; ignored.
      break;
  }
}

void CircuitBreaker::RecordFailure() {
  MutexLock lock(mu_);
  switch (state_) {
    case BreakerState::kClosed:
      if (++consecutive_failures_ >= options_.failure_threshold) {
        TransitionLocked(BreakerState::kOpen);
      }
      break;
    case BreakerState::kHalfOpen:
      // A failing probe re-opens immediately (fresh cooldown).
      TransitionLocked(BreakerState::kOpen);
      break;
    case BreakerState::kOpen:
      break;
  }
}

BreakerState CircuitBreaker::state() const {
  MutexLock lock(mu_);
  return state_;
}

}  // namespace resilience
}  // namespace alt
