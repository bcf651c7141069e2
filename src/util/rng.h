#ifndef ALT_SRC_UTIL_RNG_H_
#define ALT_SRC_UTIL_RNG_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/util/logging.h"

namespace alt {

/// Deterministic random number generator used everywhere in the library so
/// experiments are reproducible from a single seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) : engine_(seed) {}

  /// A new generator derived from this one; lets sub-components own
  /// independent deterministic streams.
  Rng Fork() { return Rng(engine_()); }

  /// Uniform in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    ALT_CHECK_LE(lo, hi);
    std::uniform_int_distribution<int64_t> dist(lo, hi);
    return dist(engine_);
  }

  /// Standard normal scaled to N(mean, stddev^2).
  double Normal(double mean = 0.0, double stddev = 1.0) {
    std::normal_distribution<double> dist(mean, stddev);
    return dist(engine_);
  }

  /// Gumbel(0, 1) noise, used by the GDAS sampler (Eq. 7 in the paper).
  double Gumbel() {
    double u = Uniform(1e-12, 1.0);
    return -std::log(-std::log(u));
  }

  /// Bernoulli(p).
  bool Bernoulli(double p) { return Uniform() < p; }

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// `k` distinct indices from [0, n) in random order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k) {
    ALT_CHECK_LE(k, n);
    std::vector<size_t> idx(n);
    for (size_t i = 0; i < n; ++i) idx[i] = i;
    Shuffle(&idx);
    idx.resize(k);
    return idx;
  }

  std::mt19937_64& engine() { return engine_; }

  /// Serialized engine state (text), for checkpoint/resume: restoring the
  /// state continues the exact random stream of the saved run.
  std::string SaveState() const {
    std::ostringstream out;
    out << engine_;
    return out.str();
  }

  /// Restores a SaveState() snapshot. Returns false (engine untouched on
  /// parse failure is not guaranteed; reseed on false) for malformed input.
  bool LoadState(const std::string& state) {
    std::istringstream in(state);
    in >> engine_;
    return !in.fail();
  }

 private:
  std::mt19937_64 engine_;
};

/// Index sampler over fixed non-negative weights. The running sums are
/// built once, in index order; a draw is one Uniform(0, total) and a binary
/// search for the first sum above it, the index a linear scan of the same
/// sums would stop at. All-zero weights draw an index uniformly.
class CategoricalTable {
 public:
  explicit CategoricalTable(const std::vector<double>& weights) {
    ALT_CHECK(!weights.empty());
    cumulative_.reserve(weights.size());
    double total = 0.0;
    for (double w : weights) {
      ALT_CHECK_GE(w, 0.0);
      total += w;
      cumulative_.push_back(total);
    }
  }

  size_t Sample(Rng* rng) const {
    const int64_t n = static_cast<int64_t>(cumulative_.size());
    const double total = cumulative_.back();
    if (total <= 0.0) return static_cast<size_t>(rng->UniformInt(0, n - 1));
    const double r = rng->Uniform(0.0, total);
    const auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), r);
    return static_cast<size_t>(it == cumulative_.end()
                                   ? n - 1
                                   : it - cumulative_.begin());
  }

 private:
  std::vector<double> cumulative_;
};

}  // namespace alt

#endif  // ALT_SRC_UTIL_RNG_H_
