#include "obs/registry.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/str_util.h"

namespace sc::obs {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_([&] {
        std::sort(bounds.begin(), bounds.end());
        bounds.erase(std::unique(bounds.begin(), bounds.end()),
                     bounds.end());
        return bounds;
      }()),
      buckets_(bounds_.size()) {}

void Histogram::Observe(double v) {
  // First bucket whose upper bound admits v; past-the-end = +Inf bucket,
  // which is implicit (count_).
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  if (it != bounds_.end()) {
    buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
        1, std::memory_order_relaxed);
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

std::int64_t Histogram::cumulative(std::size_t i) const {
  if (i >= bounds_.size()) return count();
  std::int64_t total = 0;
  for (std::size_t b = 0; b <= i; ++b) {
    total += buckets_[b].load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<double> Histogram::LatencyBounds() {
  std::vector<double> bounds;
  for (int k = 0; k <= 40; ++k) {
    bounds.push_back(1e-4 * std::pow(2.0, k / 2.0));
  }
  return bounds;
}

double HistogramQuantile(double q, const std::vector<double>& bounds,
                         const std::vector<std::int64_t>& cumulative) {
  if (cumulative.back() == 0) return 0.0;
  const double rank = q * static_cast<double>(cumulative.back());
  double lower = 0.0;
  double below = 0.0;  // observations under `lower`
  for (std::size_t b = 0; b < bounds.size(); ++b) {
    const double count = static_cast<double>(cumulative[b]);
    if (count >= rank && count > below) {
      return lower + (bounds[b] - lower) * (rank - below) / (count - below);
    }
    lower = bounds[b];
    below = count;
  }
  return lower;  // rank in the +Inf bucket: the highest finite bound
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

std::string Registry::RenderLabels(const Labels& labels) {
  if (labels.empty()) return "";
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string out = "{";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) out += ",";
    out += sorted[i].first + "=\"";
    for (const char c : sorted[i].second) {
      if (c == '\\' || c == '"' || c == '\n') out += '\\';
      out += c == '\n' ? 'n' : c;
    }
    out += "\"";
  }
  out += "}";
  return out;
}

double Registry::ScalarValue(const Series& series) {
  if (series.counter != nullptr) {
    return static_cast<double>(series.counter->value());
  }
  if (series.gauge != nullptr) return series.gauge->value();
  return series.callback ? series.callback() : 0.0;
}

Registry::Series* Registry::GetSeriesLocked(const std::string& name,
                                            const std::string& help,
                                            Kind kind, Labels labels) {
  Family& family = families_[name];
  if (family.series.empty()) {
    family.help = help;
    family.kind = kind;
  }
  Series& series = family.series[RenderLabels(labels)];
  if (series.labels.empty() && !labels.empty()) {
    series.labels = std::move(labels);
  }
  return &series;
}

Counter* Registry::GetCounter(const std::string& name,
                              const std::string& help, Labels labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Series* series =
      GetSeriesLocked(name, help, Kind::kCounter, std::move(labels));
  if (series->counter == nullptr) {
    series->counter = std::make_unique<Counter>();
  }
  return series->counter.get();
}

Gauge* Registry::GetGauge(const std::string& name, const std::string& help,
                          Labels labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Series* series =
      GetSeriesLocked(name, help, Kind::kGauge, std::move(labels));
  if (series->gauge == nullptr) series->gauge = std::make_unique<Gauge>();
  return series->gauge.get();
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  const std::string& help, Labels labels,
                                  std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  Series* series =
      GetSeriesLocked(name, help, Kind::kHistogram, std::move(labels));
  if (series->histogram == nullptr) {
    if (bounds.empty()) bounds = Histogram::LatencyBounds();
    series->histogram = std::make_unique<Histogram>(std::move(bounds));
  }
  return series->histogram.get();
}

void Registry::RegisterCallbackGauge(const std::string& name,
                                     const std::string& help,
                                     Labels labels,
                                     std::function<double()> fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  Series* series =
      GetSeriesLocked(name, help, Kind::kCallback, std::move(labels));
  series->callback = std::move(fn);
}

namespace {

/// %g-style but locale-independent and integer-friendly: counters print
/// without a fractional tail so golden texts stay stable.
std::string FormatValue(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  return StrFormat("%g", v);
}

}  // namespace

std::string Registry::ToPrometheusText() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  for (const auto& [name, family] : families_) {
    const char* type = family.kind == Kind::kCounter     ? "counter"
                       : family.kind == Kind::kHistogram ? "histogram"
                                                         : "gauge";
    if (!family.help.empty()) {
      out << "# HELP " << name << " " << family.help << "\n";
    }
    out << "# TYPE " << name << " " << type << "\n";
    for (const auto& [rendered, series] : family.series) {
      if (series.histogram != nullptr) {
        const Histogram& h = *series.histogram;
        // Re-render bucket labels with `le` appended to the series
        // labels (inside one brace set).
        std::string prefix = rendered.empty()
                                 ? "{"
                                 : rendered.substr(0, rendered.size() - 1) +
                                       ",";
        for (std::size_t b = 0; b < h.bounds().size(); ++b) {
          out << name << "_bucket" << prefix << "le=\""
              << FormatValue(h.bounds()[b]) << "\"} " << h.cumulative(b)
              << "\n";
        }
        out << name << "_bucket" << prefix << "le=\"+Inf\"} " << h.count()
            << "\n";
        out << name << "_sum" << rendered << " " << FormatValue(h.sum())
            << "\n";
        out << name << "_count" << rendered << " " << h.count() << "\n";
        continue;
      }
      out << name << rendered << " " << FormatValue(ScalarValue(series))
          << "\n";
    }
  }
  return out.str();
}

std::map<std::string, double> Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, double> snapshot;
  for (const auto& [name, family] : families_) {
    for (const auto& [rendered, series] : family.series) {
      if (series.histogram != nullptr) {
        snapshot[name + "_count" + rendered] =
            static_cast<double>(series.histogram->count());
        snapshot[name + "_sum" + rendered] = series.histogram->sum();
      } else {
        snapshot[name + rendered] = ScalarValue(series);
      }
    }
  }
  return snapshot;
}

std::string ToPrometheusText(const Registry& registry) {
  return registry.ToPrometheusText();
}

std::map<std::string, double> SnapshotDelta(
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after) {
  std::map<std::string, double> delta;
  for (const auto& [key, value] : after) {
    const auto it = before.find(key);
    delta[key] = it == before.end() ? value : value - it->second;
  }
  return delta;
}

}  // namespace sc::obs
