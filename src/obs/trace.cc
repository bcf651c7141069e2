#include "src/obs/trace.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/obs/metrics.h"
#include "src/util/table_printer.h"

namespace alt {
namespace obs {

namespace {

std::atomic<uint64_t> g_next_recorder_id{1};
std::atomic<uint64_t> g_next_span_seq{1};

/// Nesting depth of active spans on the current thread. A single counter is
/// enough: spans are strictly scoped, so interleaved recorders still nest.
thread_local int tls_span_depth = 0;

/// splitmix64 finalizer: full-avalanche 64-bit mix.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string HexId(uint64_t id) {
  static const char* kDigits = "0123456789abcdef";
  std::string out = "0x";
  bool leading = true;
  for (int shift = 60; shift >= 0; shift -= 4) {
    const int nibble = static_cast<int>((id >> shift) & 0xf);
    if (leading && nibble == 0 && shift != 0) continue;
    leading = false;
    out.push_back(kDigits[nibble]);
  }
  return out;
}

}  // namespace

uint64_t NextSpanId(uint64_t parent_span_id) {
  const uint64_t seq =
      g_next_span_seq.fetch_add(1, std::memory_order_relaxed);
  const uint64_t id = Mix64(parent_span_id ^ (seq * 0x9e3779b97f4a7c15ULL));
  return id == 0 ? 1 : id;
}

RequestContext ChildContext(const RequestContext& parent) {
  RequestContext child = parent;
  child.parent_span_id = parent.span_id;
  child.span_id = NextSpanId(parent.span_id);
  return child;
}

double MonotonicMicros() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

namespace internal {
bool ObsEnabledFromEnv();  // Defined in metrics.cc.
}  // namespace internal

TraceRecorder::TraceRecorder()
    : id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()) {}

TraceRecorder& TraceRecorder::Global() {
  // Never destroyed: threads may finish spans during static destruction.
  static TraceRecorder* global = []() {
    auto* recorder = new TraceRecorder();
    recorder->set_enabled(internal::ObsEnabledFromEnv());
    return recorder;
  }();
  return *global;
}

TraceRecorder::ThreadBuffer* TraceRecorder::BufferForThisThread() {
  struct Entry {
    uint64_t recorder_id;
    std::shared_ptr<ThreadBuffer> buffer;
  };
  // Per-thread cache over all recorders this thread has recorded into.
  // Recorder ids are never reused, so a stale entry can never alias a new
  // recorder; the shared_ptr keeps the buffer alive independently of the
  // recorder's own lifetime.
  thread_local std::vector<Entry> cache;
  for (const Entry& entry : cache) {
    if (entry.recorder_id == id_) return entry.buffer.get();
  }
  auto buffer = std::make_shared<ThreadBuffer>();
  buffer->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock lock(mu_);
    buffers_.push_back(buffer);
  }
  cache.push_back({id_, buffer});
  return buffer.get();
}

void TraceRecorder::Record(TraceEvent event) {
  ThreadBuffer* buffer = BufferForThisThread();
  event.tid = buffer->tid;
  MutexLock lock(buffer->mu);
  if (buffer->events.size() >= kMaxEventsPerThread) {
    ++buffer->dropped;
    return;
  }
  buffer->events.push_back(std::move(event));
}

void TraceRecorder::RecordSpan(std::string name, const RequestContext& span,
                               double start_us) {
  if (!enabled()) return;
  TraceEvent event;
  event.name = std::move(name);
  event.ts_us = start_us;
  event.dur_us = NowMicros() - start_us;
  event.trace_id = span.trace_id;
  event.span_id = span.span_id;
  event.parent_span_id = span.parent_span_id;
  Record(std::move(event));
}

size_t TraceRecorder::event_count() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    MutexLock lock(mu_);
    buffers = buffers_;
  }
  size_t total = 0;
  for (const auto& buffer : buffers) {
    MutexLock lock(buffer->mu);
    total += buffer->events.size();
  }
  return total;
}

int64_t TraceRecorder::dropped_count() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    MutexLock lock(mu_);
    buffers = buffers_;
  }
  int64_t total = 0;
  for (const auto& buffer : buffers) {
    MutexLock lock(buffer->mu);
    total += buffer->dropped;
  }
  return total;
}

void TraceRecorder::Clear() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    MutexLock lock(mu_);
    buffers = buffers_;
  }
  for (const auto& buffer : buffers) {
    MutexLock lock(buffer->mu);
    buffer->events.clear();
    buffer->dropped = 0;
  }
}

std::vector<TraceEvent> TraceRecorder::SortedEvents() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    MutexLock lock(mu_);
    buffers = buffers_;
  }
  std::vector<TraceEvent> events;
  for (const auto& buffer : buffers) {
    MutexLock lock(buffer->mu);
    events.insert(events.end(), buffer->events.begin(), buffer->events.end());
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              return a.dur_us > b.dur_us;  // Parent before its children.
            });
  return events;
}

Json TraceRecorder::ToChromeJson(size_t limit) const {
  std::vector<TraceEvent> events = SortedEvents();
  const size_t total = events.size();
  if (limit > 0 && events.size() > limit) {
    // Keep the most recent `limit` events; the sort is by start time, so
    // this is the tail of the stream.
    events.erase(events.begin(),
                 events.begin() + static_cast<ptrdiff_t>(events.size() - limit));
  }

  // span id → position in `events`, for flow-event endpoints. Only spans
  // whose parent is also in the emitted slice get a flow edge.
  std::map<uint64_t, size_t> span_index;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].span_id != 0) span_index[events[i].span_id] = i;
  }

  Json::Array trace_events;
  for (const TraceEvent& event : events) {
    Json entry = Json::Object{};
    entry["name"] = event.name;
    entry["cat"] = "alt";
    entry["ph"] = "X";
    entry["ts"] = event.ts_us;
    entry["dur"] = event.dur_us;
    entry["pid"] = 1;
    entry["tid"] = event.tid;
    if (event.trace_id != 0) {
      entry["id"] = HexId(event.trace_id);
      Json args = Json::Object{};
      args["trace"] = HexId(event.trace_id);
      args["span"] = HexId(event.span_id);
      args["parent"] = HexId(event.parent_span_id);
      entry["args"] = std::move(args);
    }
    trace_events.push_back(std::move(entry));
  }
  // Flow events: one s→f pair per parent→child span edge, keyed by the
  // child's span id, binding to the enclosing slices ("bp":"e") so Perfetto
  // draws arrows across threads.
  for (const TraceEvent& event : events) {
    if (event.parent_span_id == 0) continue;
    auto it = span_index.find(event.parent_span_id);
    if (it == span_index.end()) continue;
    const TraceEvent& parent = events[it->second];
    Json start = Json::Object{};
    start["name"] = "request";
    start["cat"] = "alt_flow";
    start["ph"] = "s";
    start["id"] = HexId(event.span_id);
    start["ts"] = parent.ts_us;
    start["pid"] = 1;
    start["tid"] = parent.tid;
    trace_events.push_back(std::move(start));
    Json finish = Json::Object{};
    finish["name"] = "request";
    finish["cat"] = "alt_flow";
    finish["ph"] = "f";
    finish["bp"] = "e";
    finish["id"] = HexId(event.span_id);
    finish["ts"] = event.ts_us;
    finish["pid"] = 1;
    finish["tid"] = event.tid;
    trace_events.push_back(std::move(finish));
  }
  Json doc = Json::Object{};
  doc["traceEvents"] = std::move(trace_events);
  doc["displayTimeUnit"] = "ms";
  doc["droppedEvents"] = dropped_count();
  doc["totalEvents"] = static_cast<int64_t>(total);
  return doc;
}

std::string TraceRecorder::ToTextTree() const {
  std::map<int, std::vector<TraceEvent>> by_tid;
  for (TraceEvent& event : SortedEvents()) {
    by_tid[event.tid].push_back(std::move(event));
  }
  if (by_tid.empty()) return "(no spans recorded)\n";
  TablePrinter table({"tid", "span", "start_ms", "dur_ms"});
  for (const auto& [tid, events] : by_tid) {
    for (const TraceEvent& event : events) {
      table.AddRow({std::to_string(tid),
                    std::string(static_cast<size_t>(event.depth) * 2, ' ') +
                        event.name,
                    TablePrinter::Num(event.ts_us / 1e3),
                    TablePrinter::Num(event.dur_us / 1e3)});
    }
  }
  return table.ToString();
}

TraceSpan::TraceSpan(std::string name, TraceRecorder* recorder)
    : name_(std::move(name)),
      recorder_(recorder != nullptr ? recorder : &TraceRecorder::Global()) {
  if (!recorder_->enabled()) {
    recorder_ = nullptr;  // Inactive: no clock reads, nothing recorded.
    return;
  }
  depth_ = tls_span_depth++;
  start_us_ = recorder_->NowMicros();
}

TraceSpan::TraceSpan(std::string name, const RequestContext& ctx,
                     TraceRecorder* recorder)
    : name_(std::move(name)),
      recorder_(recorder != nullptr ? recorder : &TraceRecorder::Global()),
      ctx_(ctx) {
  if (!recorder_->enabled() || !ctx_.sampled()) {
    recorder_ = nullptr;  // Inactive; context() still forwards ctx_.
    return;
  }
  span_id_ = NextSpanId(ctx_.span_id);
  depth_ = tls_span_depth++;
  start_us_ = recorder_->NowMicros();
}

RequestContext TraceSpan::context() const {
  if (span_id_ == 0) return ctx_;
  RequestContext child = ctx_;
  child.parent_span_id = ctx_.span_id;
  child.span_id = span_id_;
  return child;
}

TraceSpan::~TraceSpan() {
  if (recorder_ == nullptr) return;
  --tls_span_depth;
  TraceEvent event;
  event.name = std::move(name_);
  event.ts_us = start_us_;
  event.dur_us = recorder_->NowMicros() - start_us_;
  event.depth = depth_;
  if (span_id_ != 0) {
    event.trace_id = ctx_.trace_id;
    event.span_id = span_id_;
    event.parent_span_id = ctx_.span_id;
  }
  recorder_->Record(std::move(event));
}

double TraceSpan::ElapsedMillis() const {
  if (recorder_ == nullptr) return 0.0;
  return (recorder_->NowMicros() - start_us_) / 1e3;
}

}  // namespace obs
}  // namespace alt
