#include "bench_util.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

namespace altbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntil(double t) {
  const double wait = t - NowSeconds();
  if (wait > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

namespace {
double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

std::string Fmt(const char* format, double a, double b, double c, double d) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), format, a, b, c, d);
  return buf;
}

Percentile TailPercentile(std::vector<double> values, double q) {
  Percentile p;
  p.q = q;
  p.n = static_cast<int64_t>(values.size());
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  int64_t rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(p.n)));
  rank = std::clamp<int64_t>(rank, 1, p.n);
  p.value = values[static_cast<size_t>(rank - 1)];
  p.beyond = p.n - rank;
  p.supported = p.beyond >= kMinBeyond;
  return p;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : Sum(values) / static_cast<double>(values.size());
}

double InterpolateLimitCrossing(double rate_lo, double p99_lo, double rate_hi,
                                double p99_hi, double limit) {
  if (!(p99_hi > limit) || !(p99_lo > 0.0) || !std::isfinite(p99_hi)) {
    return rate_lo;
  }
  const double f = std::clamp((std::log(limit) - std::log(p99_lo)) /
                                  (std::log(p99_hi) - std::log(p99_lo)),
                              0.0, 1.0);
  return rate_lo * std::pow(rate_hi / rate_lo, f);
}

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double UnitDouble(uint64_t* state) {
  // 53 random bits, shifted off zero so log(u) is finite.
  return (static_cast<double>(SplitMix64(state) >> 11) + 0.5) * 0x1.0p-53;
}

std::vector<double> ZipfCdf(int n, double s) {
  std::vector<double> cdf(static_cast<size_t>(n));
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[static_cast<size_t>(i)] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

int SampleCdf(const std::vector<double>& cdf, double u) {
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return static_cast<int>(
      std::min<std::ptrdiff_t>(it - cdf.begin(),
                               static_cast<std::ptrdiff_t>(cdf.size()) - 1));
}

std::vector<Arrival> PoissonZipfSchedule(uint64_t seed, double rate,
                                         double duration_s,
                                         const std::vector<double>& zipf_cdf,
                                         int rows) {
  uint64_t state = seed ^ 0x5DEECE66Dull;
  std::vector<Arrival> out;
  double t = 0.0;
  while (true) {
    t += -std::log(UnitDouble(&state)) / rate;
    if (t >= duration_s) break;
    Arrival a;
    a.at_s = t;
    a.scenario = SampleCdf(zipf_cdf, UnitDouble(&state));
    a.row = static_cast<int>(SplitMix64(&state) % static_cast<uint64_t>(rows));
    out.push_back(a);
  }
  return out;
}

std::vector<double> PaceSends(const std::vector<double>& intended, double t0,
                              const std::function<void(size_t, double)>& send) {
  std::vector<double> late_ms(intended.size());
  for (size_t i = 0; i < intended.size(); ++i) {
    const double due = t0 + intended[i];
    SleepUntil(due);
    late_ms[i] = (NowSeconds() - due) * 1e3;
    send(i, due);
  }
  return late_ms;
}

bool BacklogGrows(const std::vector<double>& latency_in_send_order_ms,
                  int64_t in_flight_at_end, double rate, double limit_ms) {
  const double allowed_in_flight = std::max(16.0, rate * limit_ms * 1e-3);
  if (static_cast<double>(in_flight_at_end) > allowed_in_flight) return true;
  const size_t n = latency_in_send_order_ms.size();
  if (n < 8) return false;
  const std::vector<double> first(latency_in_send_order_ms.begin(),
                                  latency_in_send_order_ms.begin() +
                                      static_cast<std::ptrdiff_t>(n / 4));
  const std::vector<double> last(latency_in_send_order_ms.end() -
                                     static_cast<std::ptrdiff_t>(n / 4),
                                 latency_in_send_order_ms.end());
  return Median(last) > 2.0 * Median(first) + limit_ms;
}

double SelfTimeUs(double start_us, double end_us,
                  std::vector<std::pair<double, double>> children) {
  for (auto& c : children) {
    c.first = std::max(c.first, start_us);
    c.second = std::min(c.second, end_us);
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double cursor = start_us;
  for (const auto& [b, e] : children) {
    const double from = std::max(b, cursor);
    if (e > from) {
      covered += e - from;
      cursor = e;
    }
  }
  return (end_us - start_us) - covered;
}

uint64_t SpanLog::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++next_id_;
}

void SpanLog::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanLog::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> SpanLog::SelfTimesUs(const std::string& name) const {
  const std::vector<Span> spans = Spans();
  std::map<uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_us, s.end_us});
  }
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name != name) continue;
    const auto it = children.find(s.id);
    out.push_back(SelfTimeUs(s.start_us, s.end_us,
                             it == children.end()
                                 ? std::vector<std::pair<double, double>>{}
                                 : it->second));
  }
  return out;
}

void Digest::AddBytes(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

void Digest::AddString(const std::string& s) {
  AddU64(s.size());
  AddBytes(s.data(), s.size());
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

bool ReadCpuTimes(CpuTimes* out) {
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return false;
  uint64_t v = 0;
  CpuTimes t;
  for (int field = 0; field < 8 && (in >> v); ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  *out = t;
  return true;
}

double StealShare(const CpuTimes& begin, const CpuTimes& end) {
  const double total = static_cast<double>(end.total - begin.total);
  return total > 0.0 ? static_cast<double>(end.steal - begin.steal) / total
                     : 0.0;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

int HostCpus() { return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)); }

namespace {

#define ALTBENCH_EXPECT(cond)                                   \
  do {                                                          \
    if (!(cond)) {                                              \
      *failure = std::string("self-test failed: ") + #cond;     \
      return false;                                             \
    }                                                           \
  } while (0)

bool TestPercentileSupport(std::string* failure) {
  std::vector<double> v(1000);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i + 1);
  const Percentile p99 = TailPercentile(v, 0.99);
  ALTBENCH_EXPECT(p99.value == 990.0);
  ALTBENCH_EXPECT(p99.beyond == 10);
  ALTBENCH_EXPECT(p99.supported);
  v.pop_back();
  const Percentile short99 = TailPercentile(v, 0.99);
  ALTBENCH_EXPECT(short99.beyond == 9);
  ALTBENCH_EXPECT(!short99.supported);
  std::vector<double> hundred(100);
  for (size_t i = 0; i < hundred.size(); ++i) hundred[i] = 100.0 - i;
  const Percentile p90 = TailPercentile(hundred, 0.90);
  ALTBENCH_EXPECT(p90.value == 90.0 && p90.beyond == 10 && p90.supported);
  ALTBENCH_EXPECT(Median({3.0, 1.0, 2.0}) == 2.0);
  ALTBENCH_EXPECT(std::abs(InterpolateLimitCrossing(1000, 10, 2000, 40, 20) -
                           1000 * std::sqrt(2.0)) < 1e-9);
  ALTBENCH_EXPECT(InterpolateLimitCrossing(1000, 10, 2000, 15, 20) == 1000);
  ALTBENCH_EXPECT(InterpolateLimitCrossing(1000, 10, 2000, INFINITY, 20) == 1000);
  ALTBENCH_EXPECT(Median({4.0, 1.0, 2.0, 3.0}) == 2.5);
  return true;
}

bool TestSchedulePurity(std::string* failure) {
  const std::vector<double> cdf = ZipfCdf(120, 1.07);
  const auto a = PoissonZipfSchedule(7, 1000.0, 2.0, cdf, 64);
  const auto b = PoissonZipfSchedule(7, 1000.0, 2.0, cdf, 64);
  const auto c = PoissonZipfSchedule(8, 1000.0, 2.0, cdf, 64);
  ALTBENCH_EXPECT(a.size() == b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ALTBENCH_EXPECT(a[i].at_s == b[i].at_s && a[i].scenario == b[i].scenario &&
                    a[i].row == b[i].row);
  }
  bool differs = a.size() != c.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].at_s != c[i].at_s || a[i].scenario != c[i].scenario;
  }
  ALTBENCH_EXPECT(differs);
  // 2000 expected arrivals: a Poisson count stays within ±5 sigma.
  ALTBENCH_EXPECT(a.size() > 1776 && a.size() < 2224);
  for (size_t i = 1; i < a.size(); ++i) ALTBENCH_EXPECT(a[i].at_s > a[i - 1].at_s);
  // Zipf head: rank 0 is the most frequent scenario.
  std::vector<int> counts(120, 0);
  for (const Arrival& x : a) ++counts[static_cast<size_t>(x.scenario)];
  ALTBENCH_EXPECT(*std::max_element(counts.begin(), counts.end()) == counts[0]);
  return true;
}

bool TestInjectedStall(std::string* failure) {
  // 100 sends 0.5 ms apart; send 20 stalls 30 ms (an in-process stall of
  // the generator itself). Requests complete the moment they are sent.
  constexpr double kStallS = 0.030;
  std::vector<double> intended(100);
  for (size_t i = 0; i < intended.size(); ++i) intended[i] = 0.0005 * i;
  std::vector<double> latency_ms(intended.size());
  const double t0 = NowSeconds() + 0.002;
  const std::vector<double> late = PaceSends(
      intended, t0, [&](size_t i, double due) {
        if (i == 20) SleepUntil(NowSeconds() + kStallS);
        latency_ms[i] = IntendedLatencyMs(due, NowSeconds());
      });
  // The stalled request and the ones queued behind it: intended-time
  // latency and lateness both carry the stall.
  ALTBENCH_EXPECT(latency_ms[20] >= kStallS * 1e3);
  ALTBENCH_EXPECT(late[21] >= kStallS * 1e3 - 0.5 - 0.1);
  ALTBENCH_EXPECT(latency_ms[21] >= kStallS * 1e3 - 0.5 - 0.1);
  ALTBENCH_EXPECT(TailPercentile(late, 0.5).value < late[21]);
  std::vector<double> growing(400);
  for (size_t i = 0; i < growing.size(); ++i) growing[i] = 1.0 + 0.5 * i;
  ALTBENCH_EXPECT(BacklogGrows(growing, 0, 1000.0, 20.0));
  ALTBENCH_EXPECT(!BacklogGrows(std::vector<double>(400, 2.0), 3, 1000.0, 20.0));
  ALTBENCH_EXPECT(BacklogGrows(std::vector<double>(400, 2.0), 500, 1000.0, 20.0));
  return true;
}

bool TestSelfTime(std::string* failure) {
  // Children [10,30] and [20,50] overlap; [90,120] sticks out of the parent.
  ALTBENCH_EXPECT(SelfTimeUs(0, 100, {{10, 30}, {20, 50}, {90, 120}}) == 50.0);
  ALTBENCH_EXPECT(SelfTimeUs(0, 100, {}) == 100.0);
  ALTBENCH_EXPECT(SelfTimeUs(0, 100, {{-5, 200}}) == 0.0);
  SpanLog log;
  const uint64_t root = log.NextId();
  log.Add({"root", root, 0, 0, 100});
  log.Add({"child", log.NextId(), root, 10, 40});
  log.Add({"child", log.NextId(), root, 60, 70});
  const std::vector<double> self = log.SelfTimesUs("root");
  ALTBENCH_EXPECT(self.size() == 1 && self[0] == 60.0);
  return true;
}

bool TestDigest(std::string* failure) {
  Digest a, b, c;
  a.AddFloat(0.25f);
  b.AddFloat(0.25f);
  c.AddFloat(std::nextafter(0.25f, 1.0f));
  ALTBENCH_EXPECT(a.Hex() == b.Hex());
  ALTBENCH_EXPECT(a.Hex() != c.Hex());
  return true;
}

}  // namespace

bool RunSelfTests(std::string* failure) {
  return TestPercentileSupport(failure) && TestSchedulePurity(failure) &&
         TestInjectedStall(failure) && TestSelfTime(failure) &&
         TestDigest(failure);
}

}  // namespace altbench
