#ifndef SC_OBS_TRACE_H_
#define SC_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sc::obs {

/// One recorded span or instant. `track` is the logical timeline the
/// event belongs to ("lane-0", "worker-2", "materializer-1"), captured
/// from the emitting thread's registered track name — in Chrome's trace
/// viewer each track renders as one thread row, which is what turns a
/// multi-tenant run into a lane-occupancy timeline.
struct TraceEvent {
  std::string category;  // "node", "job", "budget"… (short: fits SSO)
  std::string name;
  std::string track;
  double start_seconds = 0.0;  // common/clock monotonic seconds
  double dur_seconds = 0.0;    // 0 for instants
  bool instant = false;
  /// Pre-rendered JSON object body (`"job":4,"stage":1` — no braces).
  std::string args_json;
};

struct TraceRecorderOptions {
  /// Ring capacity per emitting thread; the oldest events are dropped
  /// (and counted) once a thread wraps its ring.
  std::size_t per_thread_capacity = 1 << 14;
  bool enabled = true;
};

/// Lock-cheap span/event recorder behind every runtime boundary span
/// (job admission, budget wait, per-node execute/publish, catalog
/// pin/evict, materializer writes). Each emitting thread appends to its
/// own ring buffer guarded by a per-thread mutex that only the export
/// path ever contends on, so concurrent lanes never serialize against
/// each other to record spans.
///
/// The enabled flag is one relaxed atomic: when off, Complete/Instant
/// return before touching any buffer, and callers are expected to guard
/// span-name construction behind enabled() so a disabled recorder costs
/// a load and a branch per boundary — the zero-overhead-when-off
/// contract benchmarked by bench_service_throughput's trace section.
class TraceRecorder {
 public:
  explicit TraceRecorder(TraceRecorderOptions options = {});
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Records a completed span [start, start + dur) on the calling
  /// thread's track. No-op when disabled.
  void Complete(const char* category, std::string name,
                double start_seconds, double dur_seconds,
                std::string args_json = {});

  /// Complete() with an explicit track instead of the calling thread's.
  /// For work whose logical timeline is not the executing thread: the
  /// Materializer's drain task runs on whichever lane picks it up but
  /// its writes belong on the "materializer-<k>" track.
  void CompleteOnTrack(std::string track, const char* category,
                       std::string name, double start_seconds,
                       double dur_seconds, std::string args_json = {});

  /// Records an instant event at now (or `at_seconds` if >= 0).
  void Instant(const char* category, std::string name,
               std::string args_json = {}, double at_seconds = -1.0);

  /// All recorded events, sorted by start time. Safe to call while
  /// other threads keep emitting (their in-flight events may or may not
  /// be included).
  std::vector<TraceEvent> Events() const;

  /// Events overwritten after a thread wrapped its ring.
  std::int64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::size_t event_count() const;

 private:
  struct ThreadBuffer {
    std::mutex mutex;
    std::vector<TraceEvent> ring;
    std::size_t next = 0;
    bool wrapped = false;
  };

  ThreadBuffer* BufferForThisThread();
  void Append(TraceEvent event);

  const TraceRecorderOptions options_;
  std::atomic<bool> enabled_;
  std::atomic<std::int64_t> dropped_{0};
  const std::uint64_t id_;  // process-unique; keys the thread-local cache
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// Names the calling thread's trace track ("lane-3", "worker-0").
/// Threads that never set one record on "thread-<n>". The name is
/// thread-local and recorder-independent: pool lanes name themselves
/// once at spawn, whatever recorder later observes them.
void SetThreadTrack(std::string name);
const std::string& ThreadTrack();

/// `s` as the body of a JSON string literal: quotes, backslashes and
/// control characters escaped. Callers building TraceEvent::args_json
/// escape every string value with it.
std::string JsonEscape(const std::string& s);

/// Serializes every recorded event as Chrome/Perfetto `trace_event`
/// JSON (one event per line inside "traceEvents"): load the file in
/// chrome://tracing or ui.perfetto.dev to see the run as a per-track
/// timeline. Timestamps are rebased to the earliest event.
void WriteChromeTrace(const TraceRecorder& recorder, std::ostream& out);
void WriteChromeTrace(const std::vector<TraceEvent>& events,
                      std::ostream& out);
bool WriteChromeTraceFile(const TraceRecorder& recorder,
                          const std::string& path);

/// Parses a trace produced by WriteChromeTrace back into events (track
/// names are restored from the thread_name metadata). Returns false on
/// malformed input. Only the subset of the trace_event format this
/// module emits is understood.
bool LoadChromeTrace(std::istream& in, std::vector<TraceEvent>* events,
                     std::string* error = nullptr);
bool LoadChromeTraceFile(const std::string& path,
                         std::vector<TraceEvent>* events,
                         std::string* error = nullptr);

/// Per-job time-in-state totals reconstructed from job/publish spans.
struct JobPhaseBreakdown {
  std::string tenant;
  double queued_seconds = 0.0;
  double budget_wait_seconds = 0.0;
  double executing_seconds = 0.0;
  double publishing_seconds = 0.0;
};

struct NodeSpanInfo {
  std::string name;
  std::string track;
  double start_seconds = 0.0;
  double dur_seconds = 0.0;
};

/// Aggregate view of one trace: wall span, per-track busy time (lane
/// utilization = busy / wall on lane-* tracks), span counts per
/// category, per-job queued / waiting-budget / executing / publishing
/// breakdown, and the longest node executions (the critical-path
/// suspects on a saturated run).
struct TraceAnalysis {
  double wall_seconds = 0.0;
  std::map<std::string, double> track_busy_seconds;
  std::map<std::string, std::int64_t> category_counts;
  std::map<std::uint64_t, JobPhaseBreakdown> jobs;
  std::vector<NodeSpanInfo> longest_nodes;  // descending, capped at 10

  double TrackUtilization(const std::string& track) const;
};

TraceAnalysis AnalyzeTrace(const std::vector<TraceEvent>& events);

/// Human-readable analysis report (examples/trace_inspect.cpp).
std::string FormatTraceAnalysis(const TraceAnalysis& analysis);

}  // namespace sc::obs

#endif  // SC_OBS_TRACE_H_
