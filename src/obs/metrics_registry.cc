#include "obs/metrics_registry.h"

#include <bit>
#include <sstream>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"

namespace aggcache {

size_t Histogram::BucketIndex(uint64_t value) {
  if (value <= 1) return 0;
  // Smallest i with value <= 2^i is the bit width of value - 1.
  size_t index = static_cast<size_t>(std::bit_width(value - 1));
  return index < kNumBuckets - 1 ? index : kNumBuckets - 1;
}

uint64_t Histogram::BucketUpperBound(size_t index) {
  AGGCACHE_CHECK_LT(index, kNumBuckets - 1) << "overflow bucket has no bound";
  return uint64_t{1} << index;
}

double Histogram::ValueAtQuantile(double q) const {
  uint64_t counts[kNumBuckets];
  uint64_t total = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    counts[i] = BucketCount(i);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  double target = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    if (counts[i] == 0) continue;
    double before = cumulative;
    cumulative += static_cast<double>(counts[i]);
    if (cumulative < target) continue;
    // The +Inf bucket has no finite upper edge to interpolate toward;
    // report the last finite bound (the estimate is a lower bound there).
    if (i + 1 == kNumBuckets) return BucketUpperBound(kNumBuckets - 2);
    double lower = i == 0 ? 0.0 : static_cast<double>(BucketUpperBound(i - 1));
    double upper = static_cast<double>(BucketUpperBound(i));
    double fraction = (target - before) / static_cast<double>(counts[i]);
    if (fraction < 0.0) fraction = 0.0;
    if (fraction > 1.0) fraction = 1.0;
    return lower + fraction * (upper - lower);
  }
  return static_cast<double>(BucketUpperBound(kNumBuckets - 2));
}

void Histogram::Reset() {
  for (std::atomic<uint64_t>& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  sum_.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Metric& MetricsRegistry::GetOrCreate(const std::string& name,
                                                      const std::string& help,
                                                      Kind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Metric metric;
    metric.kind = kind;
    metric.help = help;
    switch (kind) {
      case Kind::kCounter:
        metric.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        metric.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        metric.histogram = std::make_unique<Histogram>();
        break;
    }
    it = metrics_.emplace(name, std::move(metric)).first;
  }
  AGGCACHE_CHECK(it->second.kind == kind)
      << "metric '" << name << "' re-registered as a different kind";
  return it->second;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  return GetOrCreate(name, help, Kind::kCounter).counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  return GetOrCreate(name, help, Kind::kGauge).gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help) {
  return GetOrCreate(name, help, Kind::kHistogram).histogram.get();
}

Gauge* MetricsRegistry::GetInfoGauge(
    const std::string& name, const std::string& help,
    const std::vector<std::pair<std::string, std::string>>& labels) {
  Metric& metric = GetOrCreate(name, help, Kind::kGauge);
  std::lock_guard<std::mutex> lock(mu_);
  if (metric.labels.empty()) metric.labels = labels;
  return metric.gauge.get();
}

size_t MetricsRegistry::num_metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.size();
}

std::map<std::string, MetricsRegistry::MetricSnapshot>
MetricsRegistry::SnapshotValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, MetricSnapshot> snapshot;
  for (const auto& [name, metric] : metrics_) {
    MetricSnapshot value;
    value.kind = metric.kind;
    switch (metric.kind) {
      case Kind::kCounter:
        value.value = static_cast<int64_t>(metric.counter->Value());
        break;
      case Kind::kGauge:
        value.value = metric.gauge->Value();
        break;
      case Kind::kHistogram:
        value.count = metric.histogram->TotalCount();
        value.sum = metric.histogram->Sum();
        break;
    }
    snapshot.emplace(name, value);
  }
  return snapshot;
}

void MetricsRegistry::ResetAllForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, metric] : metrics_) {
    switch (metric.kind) {
      case Kind::kCounter:
        metric.counter->Reset();
        break;
      case Kind::kGauge:
        metric.gauge->Reset();
        break;
      case Kind::kHistogram:
        metric.histogram->Reset();
        break;
    }
  }
}

namespace {

const char* KindName(bool is_counter, bool is_gauge) {
  return is_counter ? "counter" : (is_gauge ? "gauge" : "histogram");
}

/// {k="v",...} for the Prometheus value line; "" when unlabeled. Label
/// value escaping (backslash, quote, newline) matches the exposition
/// format's rules, which JsonEscape's subset covers.
std::string PromLabelBlock(
    const std::vector<std::pair<std::string, std::string>>& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += "=\"";
    out += JsonEscape(value);
    out += '"';
  }
  out += '}';
  return out;
}

std::string JsonLabelObject(
    const std::vector<std::pair<std::string, std::string>>& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += JsonEscape(key);
    out += "\":\"";
    out += JsonEscape(value);
    out += '"';
  }
  out += '}';
  return out;
}

}  // namespace

std::string MetricsRegistry::Render(Format format) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  if (format == Format::kPrometheus) {
    for (const auto& [name, metric] : metrics_) {
      out << "# HELP " << name << " " << metric.help << "\n";
      out << "# TYPE " << name << " "
          << KindName(metric.kind == Kind::kCounter,
                      metric.kind == Kind::kGauge)
          << "\n";
      switch (metric.kind) {
        case Kind::kCounter:
          out << name << " " << metric.counter->Value() << "\n";
          break;
        case Kind::kGauge:
          out << name << PromLabelBlock(metric.labels) << " "
              << metric.gauge->Value() << "\n";
          break;
        case Kind::kHistogram: {
          const Histogram& h = *metric.histogram;
          uint64_t cumulative = 0;
          for (size_t i = 0; i + 1 < Histogram::kNumBuckets; ++i) {
            cumulative += h.BucketCount(i);
            out << name << "_bucket{le=\"" << Histogram::BucketUpperBound(i)
                << "\"} " << cumulative << "\n";
          }
          cumulative += h.BucketCount(Histogram::kNumBuckets - 1);
          out << name << "_bucket{le=\"+Inf\"} " << cumulative << "\n";
          out << name << "_sum " << h.Sum() << "\n";
          out << name << "_count " << h.TotalCount() << "\n";
          break;
        }
      }
    }
    return out.str();
  }

  out << "{";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    if (!first) out << ",";
    first = false;
    out << "\"" << JsonEscape(name) << "\":{\"type\":\""
        << KindName(metric.kind == Kind::kCounter,
                    metric.kind == Kind::kGauge)
        << "\",";
    switch (metric.kind) {
      case Kind::kCounter:
        out << "\"value\":" << metric.counter->Value();
        break;
      case Kind::kGauge:
        if (!metric.labels.empty()) {
          out << "\"labels\":" << JsonLabelObject(metric.labels) << ",";
        }
        out << "\"value\":" << metric.gauge->Value();
        break;
      case Kind::kHistogram: {
        const Histogram& h = *metric.histogram;
        out << "\"count\":" << h.TotalCount() << ",\"sum\":" << h.Sum()
            << ",\"buckets\":[";
        uint64_t cumulative = 0;
        for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
          cumulative += h.BucketCount(i);
          if (i > 0) out << ",";
          out << "{\"le\":";
          if (i + 1 < Histogram::kNumBuckets) {
            out << "\"" << Histogram::BucketUpperBound(i) << "\"";
          } else {
            out << "\"+Inf\"";
          }
          out << ",\"count\":" << cumulative << "}";
        }
        out << "]";
        break;
      }
    }
    out << "}";
  }
  out << "}";
  return out.str();
}

}  // namespace aggcache
