#ifndef ALT_SRC_OBS_EXPORT_H_
#define ALT_SRC_OBS_EXPORT_H_

#include <string>

#include "src/obs/metrics.h"

namespace alt {
namespace obs {

/// Prometheus/OpenMetrics text exposition ------------------------------------
///
/// Renders a MetricsRegistry into the Prometheus text format (version
/// 0.0.4), the lingua franca of pull-based monitoring: one `# HELP` and
/// `# TYPE` line per metric family followed by its samples, histograms as
/// cumulative `_bucket{le="..."}` series plus `_sum`/`_count`.
///
/// Naming scheme. Registry names are hierarchical
/// (`layer/component/metric[/instance...]`); exposition maps them to flat
/// Prometheus names with an `alt_` prefix:
///   serving/request/latency_ms/s3
///     -> alt_serving_request_latency_ms{id="s3"}
/// The first three path segments form the family name (fewer segments: all
/// of them); any remaining segments become the `id` label value, so
/// per-scenario instances of one metric share a family (one HELP/TYPE
/// block, one series per instance). Characters outside [a-zA-Z0-9_:] are
/// sanitized to '_'; label values are escaped per the format (backslash,
/// double quote, newline).
std::string RenderPrometheus(const MetricsRegistry::Snapshot& snapshot);

/// Snapshot-and-render convenience; publishes the global MemoryTracker into
/// `registry` first so `alt_memory_*` gauges are always current.
std::string RenderPrometheus(MetricsRegistry* registry);

/// The flat Prometheus family name of a registry metric name (no labels),
/// e.g. "serving/request/latency_ms/s3" ->
/// "alt_serving_request_latency_ms". Exposed for tests and tooling.
std::string PrometheusFamilyName(const std::string& registry_name);

/// Escapes a label value per the exposition format: `\` -> `\\`,
/// `"` -> `\"`, newline -> `\n`.
std::string EscapeLabelValue(const std::string& value);

}  // namespace obs
}  // namespace alt

#endif  // ALT_SRC_OBS_EXPORT_H_
