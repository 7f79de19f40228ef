#include "obs/trace.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/clock.h"
#include "common/str_util.h"

namespace sc::obs {

// ---------------------------------------------------------------------------
// Thread tracks
// ---------------------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> next_recorder_id{1};
std::atomic<std::uint64_t> next_anonymous_track{0};

std::string& ThreadTrackStorage() {
  thread_local std::string track;
  return track;
}

}  // namespace

void SetThreadTrack(std::string name) {
  ThreadTrackStorage() = std::move(name);
}

const std::string& ThreadTrack() {
  std::string& track = ThreadTrackStorage();
  if (track.empty()) {
    track = "thread-" + std::to_string(next_anonymous_track.fetch_add(
                            1, std::memory_order_relaxed));
  }
  return track;
}

// ---------------------------------------------------------------------------
// TraceRecorder
// ---------------------------------------------------------------------------

TraceRecorder::TraceRecorder(TraceRecorderOptions options)
    : options_([&] {
        TraceRecorderOptions o = options;
        o.per_thread_capacity = std::max<std::size_t>(16,
                                                      o.per_thread_capacity);
        return o;
      }()),
      enabled_(options.enabled),
      id_(next_recorder_id.fetch_add(1, std::memory_order_relaxed)) {}

TraceRecorder::~TraceRecorder() = default;

TraceRecorder::ThreadBuffer* TraceRecorder::BufferForThisThread() {
  // Per-thread cache keyed by process-unique recorder id: a destroyed
  // recorder's id never recurs, so a stale cached pointer can never be
  // matched (and is never dereferenced).
  thread_local std::vector<std::pair<std::uint64_t, ThreadBuffer*>> cache;
  for (const auto& [id, buffer] : cache) {
    if (id == id_) return buffer;
  }
  auto owned = std::make_unique<ThreadBuffer>();
  owned->ring.reserve(std::min<std::size_t>(options_.per_thread_capacity,
                                            1024));
  ThreadBuffer* buffer = owned.get();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::move(owned));
  }
  cache.emplace_back(id_, buffer);
  return buffer;
}

void TraceRecorder::Append(TraceEvent event) {
  ThreadBuffer* buffer = BufferForThisThread();
  std::lock_guard<std::mutex> lock(buffer->mutex);
  if (buffer->ring.size() < options_.per_thread_capacity) {
    buffer->ring.push_back(std::move(event));
    return;
  }
  // Ring wrap: overwrite the oldest slot.
  buffer->ring[buffer->next] = std::move(event);
  buffer->next = (buffer->next + 1) % options_.per_thread_capacity;
  buffer->wrapped = true;
  dropped_.fetch_add(1, std::memory_order_relaxed);
}

void TraceRecorder::Complete(const char* category, std::string name,
                             double start_seconds, double dur_seconds,
                             std::string args_json) {
  if (!enabled()) return;
  TraceEvent event;
  event.category = category;
  event.name = std::move(name);
  event.track = ThreadTrack();
  event.start_seconds = start_seconds;
  event.dur_seconds = std::max(0.0, dur_seconds);
  event.args_json = std::move(args_json);
  Append(std::move(event));
}

void TraceRecorder::CompleteOnTrack(std::string track,
                                    const char* category,
                                    std::string name,
                                    double start_seconds,
                                    double dur_seconds,
                                    std::string args_json) {
  if (!enabled()) return;
  TraceEvent event;
  event.category = category;
  event.name = std::move(name);
  event.track = std::move(track);
  event.start_seconds = start_seconds;
  event.dur_seconds = std::max(0.0, dur_seconds);
  event.args_json = std::move(args_json);
  Append(std::move(event));
}

void TraceRecorder::Instant(const char* category, std::string name,
                            std::string args_json, double at_seconds) {
  if (!enabled()) return;
  TraceEvent event;
  event.category = category;
  event.name = std::move(name);
  event.track = ThreadTrack();
  event.start_seconds = at_seconds >= 0.0 ? at_seconds : MonotonicSeconds();
  event.instant = true;
  event.args_json = std::move(args_json);
  Append(std::move(event));
}

std::vector<TraceEvent> TraceRecorder::Events() const {
  std::vector<TraceEvent> events;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> inner(buffer->mutex);
    // In wrap order: oldest surviving event first.
    if (buffer->wrapped) {
      for (std::size_t i = 0; i < buffer->ring.size(); ++i) {
        events.push_back(
            buffer->ring[(buffer->next + i) % buffer->ring.size()]);
      }
    } else {
      events.insert(events.end(), buffer->ring.begin(),
                    buffer->ring.end());
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_seconds < b.start_seconds;
                   });
  return events;
}

std::size_t TraceRecorder::event_count() const {
  std::size_t count = 0;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> inner(buffer->mutex);
    count += buffer->ring.size();
  }
  return count;
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string JsonUnescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    const char next = s[++i];
    switch (next) {
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'u':
        if (i + 4 < s.size()) {
          out += static_cast<char>(
              std::strtol(s.substr(i + 1, 4).c_str(), nullptr, 16));
          i += 4;
        }
        break;
      default: out += next;
    }
  }
  return out;
}

}  // namespace

void WriteChromeTrace(const std::vector<TraceEvent>& events,
                      std::ostream& out) {
  // Stable tid assignment per track name, ordered lanes → workers →
  // everything else so the viewer lists the occupancy rows first.
  std::vector<std::string> tracks;
  for (const TraceEvent& event : events) {
    if (std::find(tracks.begin(), tracks.end(), event.track) ==
        tracks.end()) {
      tracks.push_back(event.track);
    }
  }
  const auto rank = [](const std::string& track) {
    if (StartsWith(track, "lane-")) return 0;
    if (StartsWith(track, "worker-")) return 1;
    if (StartsWith(track, "materializer")) return 2;
    return 3;
  };
  std::stable_sort(tracks.begin(), tracks.end(),
                   [&](const std::string& a, const std::string& b) {
                     return rank(a) < rank(b);
                   });
  std::map<std::string, int> tids;
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    tids[tracks[i]] = static_cast<int>(i + 1);
  }

  double base = 0.0;
  for (const TraceEvent& event : events) {
    if (base == 0.0 || event.start_seconds < base) {
      base = event.start_seconds;
    }
  }

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const auto& [track, tid] : tids) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
        << JsonEscape(track) << "\"}}";
    // Sort index pins the lane/worker ordering in the viewer.
    out << ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":"
        << tid << "}}";
  }
  for (const TraceEvent& event : events) {
    if (!first) out << ",\n";
    first = false;
    const double ts = (event.start_seconds - base) * 1e6;  // microseconds
    out << "{\"ph\":\"" << (event.instant ? 'i' : 'X')
        << "\",\"pid\":1,\"tid\":" << tids[event.track] << ",\"cat\":\""
        << JsonEscape(event.category) << "\",\"name\":\""
        << JsonEscape(event.name) << "\",\"ts\":" << StrFormat("%.3f", ts);
    if (!event.instant) {
      out << ",\"dur\":" << StrFormat("%.3f", event.dur_seconds * 1e6);
    } else {
      out << ",\"s\":\"t\"";
    }
    out << ",\"args\":{" << event.args_json << "}}";
  }
  out << "\n]}\n";
}

void WriteChromeTrace(const TraceRecorder& recorder, std::ostream& out) {
  WriteChromeTrace(recorder.Events(), out);
}

bool WriteChromeTraceFile(const TraceRecorder& recorder,
                          const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  WriteChromeTrace(recorder, out);
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Chrome trace import (the subset WriteChromeTrace emits)
// ---------------------------------------------------------------------------

namespace {

/// Extracts the string value of `"key":"..."` handling the escapes
/// JsonEscape produces. Returns false if the key is absent.
bool ExtractString(const std::string& line, const std::string& key,
                   std::string* value) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t start = line.find(needle);
  if (start == std::string::npos) return false;
  std::size_t pos = start + needle.size();
  std::string raw;
  while (pos < line.size()) {
    const char c = line[pos];
    if (c == '\\' && pos + 1 < line.size()) {
      raw += c;
      raw += line[pos + 1];
      pos += 2;
      continue;
    }
    if (c == '"') break;
    raw += c;
    ++pos;
  }
  *value = JsonUnescape(raw);
  return true;
}

bool ExtractNumber(const std::string& line, const std::string& key,
                   double* value) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t start = line.find(needle);
  if (start == std::string::npos) return false;
  *value = std::strtod(line.c_str() + start + needle.size(), nullptr);
  return true;
}

/// The args object body: everything between `"args":{` and the matching
/// brace (args is the last field on each emitted line, with no nested
/// objects inside).
std::string ExtractArgs(const std::string& line) {
  const std::string needle = "\"args\":{";
  const std::size_t start = line.find(needle);
  if (start == std::string::npos) return "";
  const std::size_t body = start + needle.size();
  const std::size_t end = line.rfind('}');
  if (end == std::string::npos || end <= body) return "";
  // line ends with ...}} or ...}}, — strip the event's own closing brace.
  const std::size_t close = line.rfind('}', end - 1);
  if (close == std::string::npos || close < body) return "";
  return line.substr(body, close - body);
}

}  // namespace

bool LoadChromeTrace(std::istream& in, std::vector<TraceEvent>* events,
                     std::string* error) {
  events->clear();
  std::map<int, std::string> track_names;
  std::string line;
  bool saw_header = false;
  while (std::getline(in, line)) {
    if (!saw_header) {
      if (line.find("\"traceEvents\"") == std::string::npos) {
        if (error != nullptr) *error = "missing traceEvents header";
        return false;
      }
      saw_header = true;
      continue;
    }
    std::string ph;
    if (!ExtractString(line, "ph", &ph)) continue;  // closing bracket
    double tid = 0.0;
    ExtractNumber(line, "tid", &tid);
    if (ph == "M") {
      std::string name;
      if (ExtractString(line, "name", &name) && name == "thread_name") {
        // The args object holds the track: "args":{"name":"lane-0"}.
        const std::string args = ExtractArgs(line);
        std::string track;
        if (ExtractString(args, "name", &track)) {
          track_names[static_cast<int>(tid)] = track;
        }
      }
      continue;
    }
    if (ph != "X" && ph != "i") continue;
    TraceEvent event;
    event.instant = ph == "i";
    std::string cat;
    ExtractString(line, "cat", &cat);
    event.category = cat;
    ExtractString(line, "name", &event.name);
    double ts = 0.0;
    ExtractNumber(line, "ts", &ts);
    event.start_seconds = ts / 1e6;
    double dur = 0.0;
    if (!event.instant && ExtractNumber(line, "dur", &dur)) {
      event.dur_seconds = dur / 1e6;
    }
    event.args_json = ExtractArgs(line);
    event.track = track_names.count(static_cast<int>(tid))
                      ? track_names[static_cast<int>(tid)]
                      : "tid-" + std::to_string(static_cast<int>(tid));
    events->push_back(std::move(event));
  }
  if (!saw_header) {
    if (error != nullptr) *error = "empty input";
    return false;
  }
  return true;
}

bool LoadChromeTraceFile(const std::string& path,
                         std::vector<TraceEvent>* events,
                         std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  return LoadChromeTrace(in, events, error);
}

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

namespace {

bool ExtractArgNumber(const std::string& args, const std::string& key,
                      double* value) {
  return ExtractNumber(args, key, value);
}

}  // namespace

double TraceAnalysis::TrackUtilization(const std::string& track) const {
  const auto it = track_busy_seconds.find(track);
  if (it == track_busy_seconds.end() || wall_seconds <= 0.0) return 0.0;
  return it->second / wall_seconds;
}

TraceAnalysis AnalyzeTrace(const std::vector<TraceEvent>& events) {
  TraceAnalysis analysis;
  if (events.empty()) return analysis;
  double min_start = events.front().start_seconds;
  double max_end = min_start;
  for (const TraceEvent& event : events) {
    min_start = std::min(min_start, event.start_seconds);
    max_end = std::max(max_end, event.start_seconds + event.dur_seconds);
    ++analysis.category_counts[event.category];
    if (!event.instant) {
      analysis.track_busy_seconds[event.track] += event.dur_seconds;
    }
    double job = 0.0;
    const bool has_job =
        ExtractArgNumber(event.args_json, "job", &job);
    if (has_job) {
      JobPhaseBreakdown& breakdown =
          analysis.jobs[static_cast<std::uint64_t>(job)];
      if (event.category == "job") {
        std::string tenant;
        if (ExtractString(event.args_json, "tenant", &tenant)) {
          breakdown.tenant = tenant;
        }
        if (event.name == "queued") {
          breakdown.queued_seconds += event.dur_seconds;
        } else if (event.name == "wait-budget") {
          breakdown.budget_wait_seconds += event.dur_seconds;
        } else if (event.name == "execute") {
          breakdown.executing_seconds += event.dur_seconds;
        }
      } else if (event.category == "publish") {
        breakdown.publishing_seconds += event.dur_seconds;
      }
    }
    if (event.category == "node" && !event.instant) {
      NodeSpanInfo info;
      info.name = event.name;
      info.track = event.track;
      info.start_seconds = event.start_seconds;
      info.dur_seconds = event.dur_seconds;
      analysis.longest_nodes.push_back(std::move(info));
    }
  }
  analysis.wall_seconds = max_end - min_start;
  std::stable_sort(analysis.longest_nodes.begin(),
                   analysis.longest_nodes.end(),
                   [](const NodeSpanInfo& a, const NodeSpanInfo& b) {
                     return a.dur_seconds > b.dur_seconds;
                   });
  if (analysis.longest_nodes.size() > 10) {
    analysis.longest_nodes.resize(10);
  }
  return analysis;
}

std::string FormatTraceAnalysis(const TraceAnalysis& analysis) {
  std::ostringstream out;
  out << StrFormat("trace wall span: %.3fs\n", analysis.wall_seconds);
  out << "\nspans per category:\n";
  for (const auto& [category, count] : analysis.category_counts) {
    out << StrFormat("  %-12s %lld\n", category.c_str(),
                     static_cast<long long>(count));
  }
  out << "\nper-track busy time (lane occupancy):\n";
  for (const auto& [track, busy] : analysis.track_busy_seconds) {
    out << StrFormat("  %-16s %.3fs  (%.1f%% of wall)\n", track.c_str(),
                     busy, 100.0 * analysis.TrackUtilization(track));
  }
  if (!analysis.jobs.empty()) {
    out << "\nper-job time in state (s):\n";
    out << StrFormat("  %-6s %-10s %8s %12s %9s %10s\n", "job", "tenant",
                     "queued", "wait-budget", "execute", "publish");
    for (const auto& [job, b] : analysis.jobs) {
      out << StrFormat("  %-6llu %-10s %8.4f %12.4f %9.4f %10.4f\n",
                       static_cast<unsigned long long>(job),
                       b.tenant.c_str(), b.queued_seconds,
                       b.budget_wait_seconds, b.executing_seconds,
                       b.publishing_seconds);
    }
  }
  if (!analysis.longest_nodes.empty()) {
    out << "\nlongest node executions (critical-path suspects):\n";
    for (const NodeSpanInfo& node : analysis.longest_nodes) {
      out << StrFormat("  %-24s %.4fs  on %s\n", node.name.c_str(),
                       node.dur_seconds, node.track.c_str());
    }
  }
  return out.str();
}

}  // namespace sc::obs
