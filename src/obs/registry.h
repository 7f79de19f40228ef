#ifndef SC_OBS_REGISTRY_H_
#define SC_OBS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace sc::obs {

/// Monotonically increasing count (events, bytes, completed jobs).
/// Lock-free; safe to bump from any thread.
class Counter {
 public:
  void Increment(std::int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Point-in-time value (queue depth, resident bytes). Lock-free.
class Gauge {
 public:
  void Set(double v) { bits_.store(Encode(v), std::memory_order_relaxed); }
  void Add(double v) {
    // Monitoring-grade CAS loop: contention on a gauge is rare.
    std::uint64_t expected = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(
        expected, Encode(Decode(expected) + v), std::memory_order_relaxed,
        std::memory_order_relaxed)) {
    }
  }
  /// Raises the value to `v` when `v` is larger (high-water marks).
  void SetMax(double v) {
    std::uint64_t expected = bits_.load(std::memory_order_relaxed);
    while (Decode(expected) < v &&
           !bits_.compare_exchange_weak(expected, Encode(v),
                                        std::memory_order_relaxed,
                                        std::memory_order_relaxed)) {
    }
  }
  double value() const {
    return Decode(bits_.load(std::memory_order_relaxed));
  }

 private:
  static std::uint64_t Encode(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    return bits;
  }
  static double Decode(std::uint64_t bits) {
    double v;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::atomic<std::uint64_t> bits_{0};
};

/// Cumulative histogram with fixed upper bounds (Prometheus `le`
/// semantics: bucket i counts observations <= bounds[i], plus an
/// implicit +Inf bucket). Observation is one relaxed fetch_add per
/// bucket walk — cheap enough for per-job latency recording.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Cumulative count of observations <= bounds()[i]; index bounds().
  /// size() is the +Inf bucket (== count()).
  std::int64_t cumulative(std::size_t i) const;
  std::int64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Default latency bounds: 100us .. ~105s, sqrt(2) apart (41 bounds),
  /// so a quantile interpolated by HistogramQuantile lies in the bucket
  /// of the true value.
  static std::vector<double> LatencyBounds();

 private:
  const std::vector<double> bounds_;
  // Non-cumulative per-bucket counts; cumulated at read time.
  std::vector<std::atomic<std::int64_t>> buckets_;
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Prometheus `histogram_quantile` over Histogram::cumulative-style
/// counts (index bounds.size() is the total): linear interpolation in the
/// bucket holding rank q * total, from 0 in the lowest bucket; the
/// highest finite bound for a rank in +Inf; 0 when empty.
double HistogramQuantile(double q, const std::vector<double>& bounds,
                         const std::vector<std::int64_t>& cumulative);

/// Prometheus-style label set, rendered as {k="v",...} sorted by key,
/// with `\`, `"` and newline escaped in values.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Unified metrics registry (ROADMAP observability layer): one namespace
/// of counters / gauges / histograms across service, runtime, and
/// storage, with Prometheus text exposition and point-in-time snapshots
/// for bench deltas.
///
/// Get* returns a stable pointer owned by the registry — call once at
/// wiring time, then bump the primitive lock-free from any thread.
/// Repeated Get* with the same (name, labels) returns the same object.
/// Callback gauges mirror values that already live elsewhere (LanePool
/// counters, SharedCatalog bytes): the callback runs at exposition /
/// snapshot time only, so mirroring costs nothing on the hot path.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* GetCounter(const std::string& name, const std::string& help,
                      Labels labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  Labels labels = {});
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          Labels labels = {},
                          std::vector<double> bounds = {});
  /// Registers (or replaces) a gauge whose value is read through `fn` at
  /// exposition time.
  void RegisterCallbackGauge(const std::string& name,
                             const std::string& help, Labels labels,
                             std::function<double()> fn);

  /// Prometheus text exposition format: families sorted by name, one
  /// # HELP / # TYPE header per family, histogram buckets with `le`
  /// labels plus _sum and _count series.
  std::string ToPrometheusText() const;

  /// Flat point-in-time view (histograms contribute _count and _sum):
  /// series name with rendered labels -> value. Benches diff two
  /// snapshots to report per-segment deltas.
  std::map<std::string, double> Snapshot() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram, kCallback };
  struct Series {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<double()> callback;
  };
  struct Family {
    std::string help;
    Kind kind = Kind::kCounter;
    // Keyed by rendered label string for stable exposition order.
    std::map<std::string, Series> series;
  };

  static std::string RenderLabels(const Labels& labels);
  static double ScalarValue(const Series& series);
  Series* GetSeriesLocked(const std::string& name,
                          const std::string& help, Kind kind,
                          Labels labels);

  mutable std::mutex mutex_;
  std::map<std::string, Family> families_;
};

/// Convenience: `registry.ToPrometheusText()` as a free function (the
/// exposition entry point named by the ROADMAP).
std::string ToPrometheusText(const Registry& registry);

/// Per-key difference `after - before` of two Registry snapshots; keys
/// present only in `after` are reported at their full value.
std::map<std::string, double> SnapshotDelta(
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after);

}  // namespace sc::obs

#endif  // SC_OBS_REGISTRY_H_
