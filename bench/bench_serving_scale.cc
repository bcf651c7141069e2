// Scale benchmark of the sharded serving plane (ServingClient over
// ShardCoordinator + WorkerShards).
//
// Drives >= 1M Zipf-distributed single-row EnqueuePredict requests over
// >= 200 deployed scenarios on >= 4 worker shards (replication 2, hot head
// scenarios at 3), in same-scenario bursts that each shard worker merges
// into engine calls of up to 16 requests. A third of the way in, one shard
// is killed: the run asserts the rebalance on its death fires
// (serving/rebalance_events >= 1) while replicas absorb its traffic. At two
// thirds, the shard warm re-joins (models re-deployed from the
// coordinator's scenario table, then its vnodes back onto the ring): the run asserts the rejoined shard is
// back in the replica groups of >= 90% of the pre-kill requests it was a
// replica for, and that it serves again. ZERO requests may be lost anywhere
// — every future must resolve ok across kill, failover, and re-join.
//
// The share the rejoined shard actually serves is reported, not gated:
// power-of-two-choices spreads each scenario over its replicas by queue
// depth, so a shard's served share follows the CPU its worker gets (0.85 to
// 1.09 of the pre-kill share, under 0.9 in 4 of 94 full runs on a 4-core
// host) rather than anything the re-join decides.
//
// Results go to BENCH_serving.json as a "results" array of
// {name, threads, requests, throughput_rps} entries consumed by
// tools/bench_compare (--metric=throughput_rps), plus the contract figures
// in "derived". This is a saturating closed-window flood, so it reports
// throughput only; latency at a stated offered load is altbench
// serve_tail's. check.sh's serving-scale stage runs this in --smoke mode
// twice and gates head against base, and the serving-elastic stage runs the
// lifecycle test binaries.
//
// Flags:
//   --smoke        CI mode: 20k requests over 24 scenarios (still runs the
//                  kill -> rejoin cycle and enforces every contract).
//   --out=PATH     output JSON path (default BENCH_serving.json).
//   --shards=N     worker shards (default 4).
//   --scenarios=N  deployed scenarios (default 200).
//   --requests=N   total requests (default 1000000).
//   --burst=N      consecutive same-scenario requests (default 16).
//   --trace_sample=R  steady-state request-trace sampling rate (default
//                  0.01). The kill window bursts to 1.0 so the failover
//                  decomposition is guaranteed to be captured, then falls
//                  back to R.
//
// Tracing contract, enforced post-run: the slow-trace ring must retain at
// least one completed (ok) request whose segment decomposition contains a
// `failover` segment and whose segments sum to within 5% of its end-to-end
// latency. A separate probe measures the throughput cost of 1% sampling
// against tracing disabled in kProbeArms pairs of arms (untraced, then
// traced, each on a fresh client); derived records the overhead of the
// median arms as trace_overhead_frac and the number of pairs whose traced
// arm was the slower as trace_overhead_slower_pairs. In full mode the run
// fails only when the overhead exceeds 3% and the traced arm lost every
// pair: with no real overhead each pair is a coin flip, so that happens by
// chance 1 time in 2^kProbeArms. The smoke probe is too short to be stable.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/obs/metrics.h"
#include "src/obs/request_trace.h"
#include "src/serving/serving_client.h"
#include "src/util/json.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace alt {
namespace {

std::unique_ptr<models::BaseModel> ScenarioModel(uint64_t seed) {
  Rng rng(seed);
  models::ModelConfig config = models::ModelConfig::Light(
      models::EncoderKind::kLstm, 4, 5, 8);
  config.encoder_layers = 1;
  auto model = models::BuildBaseModel(config, &rng);
  ALT_CHECK(model.ok()) << model.status().ToString();
  return std::move(model).value();
}

/// Zipf(s = 1.07) cumulative distribution over `n` ranks; sampled by binary
/// search so the head scenarios dominate the traffic like production long
/// tails do.
std::vector<double> ZipfCdf(int n) {
  std::vector<double> cdf(static_cast<size_t>(n));
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), 1.07);
    cdf[static_cast<size_t>(i)] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

struct PhaseStats {
  int64_t requests = 0;
  double seconds = 0.0;
  double throughput() const {
    return seconds > 0.0 ? static_cast<double>(requests) / seconds : 0.0;
  }
};

/// One arm of the tracing-overhead probe: a fresh 2-shard client driving
/// `requests` enqueued predicts at the given sampling rate; returns req/s.
double ProbeArm(int64_t requests, double sample_rate) {
  obs::MetricsRegistry registry;
  serving::ServingClient::Options options;
  options.num_shards = 2;
  options.replication = 2;
  options.trace.sample_rate = sample_rate;
  serving::ServingClient client(options, &registry);
  constexpr int kProbeScenarios = 8;
  for (int i = 0; i < kProbeScenarios; ++i) {
    ALT_CHECK(client
                  .Deploy("probe_" + std::to_string(i),
                          ScenarioModel(7000 + static_cast<uint64_t>(i)))
                  .ok());
  }
  Rng rng(77);
  std::vector<Tensor> profiles;
  for (int i = 0; i < 16; ++i) profiles.push_back(Tensor::Randn({1, 4}, &rng));
  const std::vector<int64_t> behavior = {0, 1, 2, 3, 4};
  std::vector<std::future<Result<float>>> window;
  const double start = bench::MonotonicSeconds();
  for (int64_t i = 0; i < requests; ++i) {
    window.push_back(client.EnqueuePredict(
        "probe_" + std::to_string(i % kProbeScenarios),
        profiles[static_cast<size_t>(i) % profiles.size()], behavior));
    if (window.size() >= 4096) {
      for (auto& f : window) ALT_CHECK(f.get().ok());
      window.clear();
    }
  }
  for (auto& f : window) ALT_CHECK(f.get().ok());
  const double seconds = bench::MonotonicSeconds() - start;
  return seconds > 0.0 ? static_cast<double>(requests) / seconds : 0.0;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

int Run(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  const std::string out_path =
      flags.GetString("out", "BENCH_serving.json");
  const int shards = static_cast<int>(flags.GetInt("shards", 4));
  const int scenarios =
      static_cast<int>(flags.GetInt("scenarios", smoke ? 24 : 200));
  const int64_t requests = flags.GetInt("requests", smoke ? 20000 : 1000000);
  const int burst = static_cast<int>(flags.GetInt("burst", 16));
  const double trace_sample = flags.GetDouble("trace_sample", 0.01);
  ALT_CHECK_GE(shards, 2);  // The run kills one shard and keeps serving.

  obs::MetricsRegistry registry;
  serving::ServingClient::Options options;
  options.num_shards = shards;
  options.replication = 2;
  options.hot_replication = 3;
  options.trace.sample_rate = trace_sample;
  options.trace.slow_ring_size = 64;
  serving::ServingClient client(options, &registry);

  std::printf("deploying %d scenarios over %d shards (replication 2)...\n",
              scenarios, shards);
  for (int s = 0; s < scenarios; ++s) {
    serving::DeployOptions deploy;
    deploy.hot = s < 4;  // Zipf head: wider replica group.
    // SLO objectives the /slo burn windows measure against during the
    // kill/rejoin cycle.
    deploy.slo.target_latency_ms = 50.0;
    deploy.slo.availability = 0.999;
    const Status status =
        client.Deploy("scenario_" + std::to_string(s),
                      ScenarioModel(1000 + static_cast<uint64_t>(s)), deploy);
    ALT_CHECK(status.ok()) << status.ToString();
  }

  // Request pool: a handful of distinct inputs is enough — the bench
  // measures the serving plane, not the model.
  Rng rng(2023);
  std::vector<Tensor> profiles;
  for (int i = 0; i < 64; ++i) {
    profiles.push_back(Tensor::Randn({1, 4}, &rng));
  }
  const std::vector<int64_t> behavior = {0, 1, 2, 3, 4};
  const std::vector<double> cdf = ZipfCdf(scenarios);

  const std::string victim = "shard-" + std::to_string(shards - 1);
  const int64_t kill_at = requests / 3;
  const int64_t rejoin_at = 2 * requests / 3;
  constexpr int64_t kWindow = 8192;  // Outstanding-futures bound.

  std::printf("driving %lld Zipf requests in bursts of %d "
              "(killing %s at %lld, rejoining at %lld)...\n",
              static_cast<long long>(requests), burst, victim.c_str(),
              static_cast<long long>(kill_at),
              static_cast<long long>(rejoin_at));
  std::vector<std::future<Result<float>>> window;
  window.reserve(static_cast<size_t>(kWindow));
  int64_t sent = 0, completed = 0, lost = 0, captive_sent = 0;
  bool killed = false, rejoined = false;
  PhaseStats pre, degraded, recovered, total;
  double phase_start = bench::MonotonicSeconds();
  const double run_start = phase_start;
  // The victim's request share before the kill is the steady-state baseline
  // the rejoined shard is compared with.
  int64_t victim_served_pre = 0, victim_served_at_rejoin = 0;
  // Pre-kill requests per scenario, and whether the victim replicated each
  // scenario then: the traffic the rejoined shard must be a replica for
  // again.
  std::vector<int64_t> prekill_requests(static_cast<size_t>(scenarios), 0);
  std::vector<bool> victim_replica_pre(static_cast<size_t>(scenarios), false);
  auto victim_replicates = [&](int s) {
    const std::vector<std::string> replicas =
        client.coordinator()->ReplicasOf("scenario_" + std::to_string(s));
    return std::find(replicas.begin(), replicas.end(), victim) !=
           replicas.end();
  };

  auto drain = [&]() {
    for (auto& future : window) {
      if (future.get().ok()) {
        completed++;
      } else {
        lost++;
      }
    }
    window.clear();
  };

  while (sent < requests) {
    if (!killed && sent >= kill_at) {
      // Phase boundary: drain so pre-kill numbers are clean, then pull the
      // shard out from under the live traffic.
      drain();
      const double now = bench::MonotonicSeconds();
      pre.requests = sent;
      pre.seconds = now - run_start;
      victim_served_pre =
          client.coordinator()->shard(victim)->RequestsServed();
      for (int s = 0; s < scenarios; ++s) {
        victim_replica_pre[static_cast<size_t>(s)] = victim_replicates(s);
      }
      // Burst sampling around the incident: capture every request while the
      // failover storm is live, fall back to the steady rate once the
      // window has turned over twice.
      client.tracer()->set_sample_rate(1.0);
      // Captive failover cohort: park the dispatch of every replica of a
      // scenario the victim owns, queue one cohort against it (p2c splits
      // it between the replicas), and kill the victim mid-wait. The
      // victim's share blocks on the dead queue until its worker releases
      // it with Unavailable and the coordinator fails it over to a parked
      // replica — a guaranteed, genuinely slow trace whose decomposition
      // carries the failover segment (the /trace/slow contract asserted
      // below).
      std::string captive_scenario;
      std::vector<std::string> captive_replicas;
      for (int c = 0; c < scenarios; ++c) {
        const std::string name = "scenario_" + std::to_string(c);
        const std::vector<std::string> replicas =
            client.coordinator()->ReplicasOf(name);
        if (!replicas.empty() && replicas.front() == victim) {
          captive_scenario = name;
          captive_replicas = replicas;
          break;
        }
      }
      ALT_CHECK(!captive_scenario.empty())
          << "no scenario owned by " << victim;
      for (const std::string& id : captive_replicas) {
        client.coordinator()->shard(id)->PauseDispatchForTesting(true);
      }
      std::vector<std::future<Result<float>>> captive;
      for (int c = 0; c < 32; ++c) {
        captive.push_back(client.EnqueuePredict(
            captive_scenario, profiles[static_cast<size_t>(c)], behavior));
      }
      // Hold long enough that the captive traces outrank ordinary deep-queue
      // waits in the slow ring even on a loaded machine.
      std::this_thread::sleep_for(std::chrono::milliseconds(180));
      ALT_CHECK(client.KillShard(victim).ok());
      for (const std::string& id : captive_replicas) {
        client.coordinator()->shard(id)->PauseDispatchForTesting(false);
      }
      for (auto& future : captive) {
        // Cohort requests fail over to live replicas — none may be lost.
        if (future.get().ok()) { completed++; } else { lost++; }
      }
      captive_sent += 32;
      killed = true;
      phase_start = bench::MonotonicSeconds();
    }
    if (killed && sent >= kill_at + 2 * kWindow &&
        client.tracer()->sample_rate() == 1.0) {
      client.tracer()->set_sample_rate(trace_sample);
    }
    if (!rejoined && sent >= rejoin_at) {
      // Warm re-join under live traffic: the table's models deploy first,
      // then the shard's vnodes re-enter the ring.
      drain();
      const double now = bench::MonotonicSeconds();
      degraded.requests = sent - pre.requests;
      degraded.seconds = now - phase_start;
      const Status status = client.RejoinShard(victim);
      ALT_CHECK(status.ok()) << status.ToString();
      victim_served_at_rejoin =
          client.coordinator()->shard(victim)->RequestsServed();
      rejoined = true;
      phase_start = now;
    }
    const double u = rng.Uniform(0.0, 1.0);
    const int scenario_rank = std::min(
        static_cast<int>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                         cdf.begin()),
        scenarios - 1);
    const std::string scenario = "scenario_" + std::to_string(scenario_rank);
    for (int b = 0; b < burst && sent < requests; ++b, ++sent) {
      if (!killed) prekill_requests[static_cast<size_t>(scenario_rank)]++;
      window.push_back(client.EnqueuePredict(
          scenario, profiles[static_cast<size_t>(sent) % profiles.size()],
          behavior));
      if (static_cast<int64_t>(window.size()) >= kWindow) drain();
    }
  }
  drain();
  client.DrainRequests();
  const double run_end = bench::MonotonicSeconds();
  recovered.requests = sent - pre.requests - degraded.requests;
  recovered.seconds = run_end - phase_start;
  total.requests = sent;
  total.seconds = run_end - run_start;

  // The pre-kill requests for scenarios the victim replicated before the
  // kill, and for those it replicates after the re-join: p2c cannot move
  // either, only the re-join's ring and replica tables can.
  int64_t replica_requests_pre = 0, replica_requests_rejoined = 0;
  for (int s = 0; s < scenarios; ++s) {
    const int64_t n = prekill_requests[static_cast<size_t>(s)];
    if (victim_replica_pre[static_cast<size_t>(s)]) replica_requests_pre += n;
    if (victim_replicates(s)) replica_requests_rejoined += n;
  }
  const double replica_share_pre =
      pre.requests > 0 ? static_cast<double>(replica_requests_pre) /
                             static_cast<double>(pre.requests)
                       : 0.0;
  const double replica_share_rejoined =
      pre.requests > 0 ? static_cast<double>(replica_requests_rejoined) /
                             static_cast<double>(pre.requests)
                       : 0.0;
  // Served share pre-kill vs over the post-rejoin phase (reported only).
  const int64_t victim_served_recovered =
      client.coordinator()->shard(victim)->RequestsServed() -
      victim_served_at_rejoin;
  const double victim_share_pre =
      pre.requests > 0 ? static_cast<double>(victim_served_pre) /
                             static_cast<double>(pre.requests)
                       : 0.0;
  const double victim_share_recovered =
      recovered.requests > 0
          ? static_cast<double>(victim_served_recovered) /
                static_cast<double>(recovered.requests)
          : 0.0;

  const int64_t rebalances =
      registry.counter_value("serving/rebalance_events");
  const int64_t failovers =
      registry.counter_value("serving/coordinator/failovers");
  const int64_t rejoins =
      registry.counter_value("serving/coordinator/rejoins");
  const serving::ServingClient::Stats stats = client.GetStats();

  // Slow-trace contract: the kill window must have produced at least one
  // retained ok trace whose decomposition shows the failover, and whose
  // segments account for its end-to-end wall time (within 5%).
  const std::vector<obs::RequestTracer::CompletedTrace> slow =
      client.tracer()->SlowTraces();
  int64_t failover_traces = 0;
  double best_failover_gap = 1.0;  // Relative |sum - total| / total.
  for (const auto& trace : slow) {
    if (!trace.ok || trace.SegmentMs(obs::segment::kFailover) <= 0.0) continue;
    ++failover_traces;
    if (trace.total_ms > 0.0) {
      best_failover_gap = std::min(
          best_failover_gap,
          std::abs(trace.SegmentSumMs() - trace.total_ms) / trace.total_ms);
    }
  }

  // Tracing-overhead probe: untraced and 1%-sampled arms in pairs, so a
  // drift in host speed hits both arms of a pair alike, each on a fresh
  // small client.
  constexpr int kProbeArms = 5;
  const int64_t probe_requests = smoke ? 8000 : 120000;
  std::printf("probing tracing overhead (%d x 2 arms of %lld requests)...\n",
              kProbeArms, static_cast<long long>(probe_requests));
  std::vector<double> untraced_rps, traced_rps;
  for (int arm = 0; arm < kProbeArms; ++arm) {
    untraced_rps.push_back(ProbeArm(probe_requests, 0.0));
    traced_rps.push_back(ProbeArm(probe_requests, 0.01));
  }
  const double rps_untraced = Median(untraced_rps);
  const double rps_traced = Median(traced_rps);
  const double trace_overhead =
      rps_untraced > 0.0 ? 1.0 - rps_traced / rps_untraced : 0.0;
  int slower_pairs = 0;
  for (int arm = 0; arm < kProbeArms; ++arm) {
    if (traced_rps[arm] < untraced_rps[arm]) ++slower_pairs;
  }

  std::printf("total:     %lld requests in %.2fs -> %.0f req/s\n",
              static_cast<long long>(total.requests), total.seconds,
              total.throughput());
  std::printf("pre-kill:  %.0f req/s, degraded: %.0f req/s, "
              "recovered: %.0f req/s\n",
              pre.throughput(), degraded.throughput(),
              recovered.throughput());
  std::printf("failover:  rebalance_events=%lld failovers=%lld "
              "live_shards=%d/%d imbalance=%.3f lost=%lld\n",
              static_cast<long long>(rebalances),
              static_cast<long long>(failovers), stats.live_shards,
              stats.num_shards, stats.routing_imbalance,
              static_cast<long long>(lost));
  std::printf("rejoin:    rejoins=%lld victim replica share pre-kill %.3f "
              "-> rejoined %.3f; served share pre-kill %.3f -> post-rejoin "
              "%.3f\n",
              static_cast<long long>(rejoins), replica_share_pre,
              replica_share_rejoined, victim_share_pre,
              victim_share_recovered);
  std::printf("tracing:   traced=%lld slow_ring=%zu failover_traces=%lld "
              "best_gap=%.3f slowest=%.3f ms\n",
              static_cast<long long>(stats.traced_requests), slow.size(),
              static_cast<long long>(failover_traces), best_failover_gap,
              stats.slowest_request_ms);
  std::printf("overhead:  untraced %.0f req/s vs 1%%-sampled %.0f req/s "
              "(medians of %d arms) -> %.2f%%, traced slower in %d of %d "
              "pairs\n",
              rps_untraced, rps_traced, kProbeArms, 100.0 * trace_overhead,
              slower_pairs, kProbeArms);
  for (int arm = 0; arm < kProbeArms; ++arm) {
    std::printf("  pair %d:  untraced %.0f req/s, traced %.0f req/s, "
                "traced/untraced %.4f\n",
                arm, untraced_rps[arm], traced_rps[arm],
                untraced_rps[arm] > 0.0 ? traced_rps[arm] / untraced_rps[arm]
                                        : 0.0);
  }

  Json::Array results;
  auto add = [&](const std::string& name, const PhaseStats& phase) {
    Json entry = Json::Object{};
    entry["name"] = name;
    entry["threads"] = shards;
    entry["requests"] = phase.requests;
    entry["throughput_rps"] = phase.throughput();
    results.push_back(entry);
  };
  add("serving_scale_e2e", total);
  add("serving_scale_prekill", pre);
  add("serving_scale_postkill", degraded);
  add("serving_scale_postrejoin", recovered);

  Json doc = Json::Object{};
  doc["bench"] = "serving_scale";
  doc["smoke"] = smoke;
  doc["shards"] = shards;
  doc["scenarios"] = scenarios;
  doc["results"] = results;
  Json derived = Json::Object{};
  derived["lost_requests"] = lost;
  derived["completed_requests"] = completed;
  derived["rebalance_events"] = rebalances;
  derived["failovers"] = failovers;
  derived["rejoins"] = rejoins;
  derived["victim_replica_share_prekill"] = replica_share_pre;
  derived["victim_replica_share_rejoined"] = replica_share_rejoined;
  derived["victim_share_prekill"] = victim_share_pre;
  derived["victim_share_postrejoin"] = victim_share_recovered;
  derived["routing_imbalance"] = stats.routing_imbalance;
  derived["live_shards"] = stats.live_shards;
  derived["traced_requests"] = stats.traced_requests;
  derived["slow_traces"] = static_cast<int64_t>(slow.size());
  derived["failover_traces"] = failover_traces;
  derived["failover_trace_gap"] = best_failover_gap;
  derived["slowest_request_ms"] = stats.slowest_request_ms;
  derived["trace_overhead_frac"] = trace_overhead;
  derived["trace_overhead_slower_pairs"] = slower_pairs;
  derived["scenarios_burning_at_end"] = stats.scenarios_burning;
  doc["derived"] = derived;

  std::ofstream out(out_path);
  ALT_CHECK(out.good()) << "cannot open " << out_path;
  out << doc.DumpPretty() << "\n";
  out.close();
  std::printf("wrote %s\n", out_path.c_str());

  // The scale contract, enforced: the kill must have triggered the
  // rebalance, no request may be lost anywhere in the kill -> rejoin
  // cycle, and the rejoined shard must be back in its replica groups and
  // serving.
  if (lost != 0) {
    std::printf("FAIL: %lld requests lost across the kill/rejoin cycle\n",
                static_cast<long long>(lost));
    return 1;
  }
  if (rebalances < 1) {
    std::printf("FAIL: shard kill did not trigger a rebalance event\n");
    return 1;
  }
  if (completed != requests + captive_sent) {
    std::printf("FAIL: completed %lld of %lld requests\n",
                static_cast<long long>(completed),
                static_cast<long long>(requests + captive_sent));
    return 1;
  }
  if (rejoins < 1) {
    std::printf("FAIL: warm re-join did not register\n");
    return 1;
  }
  if (stats.live_shards != shards) {
    std::printf("FAIL: %d of %d shards live after the re-join\n",
                stats.live_shards, shards);
    return 1;
  }
  if (replica_share_rejoined < 0.9 * replica_share_pre) {
    std::printf("FAIL: rejoined shard is a replica for %.3f of the pre-kill "
                "traffic vs %.3f before the kill (< 90%%)\n",
                replica_share_rejoined, replica_share_pre);
    return 1;
  }
  if (victim_served_recovered <= 0) {
    std::printf("FAIL: rejoined shard served no request after the re-join\n");
    return 1;
  }
  if (failover_traces < 1) {
    std::printf("FAIL: no retained slow trace carries a failover segment\n");
    return 1;
  }
  if (best_failover_gap > 0.05) {
    std::printf("FAIL: best failover-trace segment sum is %.1f%% off its "
                "end-to-end latency (want <= 5%%)\n",
                100.0 * best_failover_gap);
    return 1;
  }
  if (!smoke && trace_overhead > 0.03 && slower_pairs == kProbeArms) {
    std::printf("FAIL: 1%% trace sampling costs %.2f%% throughput, above 3%%, "
                "and the traced arm was slower in all %d pairs\n",
                100.0 * trace_overhead, kProbeArms);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace alt

int main(int argc, char** argv) { return alt::Run(argc, argv); }
