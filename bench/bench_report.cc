#include "bench/bench_report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/string_util.h"

namespace aggcache {

namespace {

/// JSON number formatting for doubles: integral values print without a
/// fraction, others with enough digits to round-trip benchmark precision.
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    return StrFormat("%.0f", value);
  }
  return StrFormat("%.6g", value);
}

std::string LabelsJson(const std::map<std::string, std::string>& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(key) + "\":\"" + JsonEscape(value) + "\"";
  }
  out += "}";
  return out;
}

}  // namespace

LatencyStats SummarizeLatencies(std::vector<double> times_ms) {
  LatencyStats stats;
  if (times_ms.empty()) return stats;
  std::sort(times_ms.begin(), times_ms.end());
  size_t n = times_ms.size();
  auto nearest_rank = [&](double q) {
    size_t index = static_cast<size_t>(
        std::lround(q * static_cast<double>(n - 1)));
    return times_ms[std::min(index, n - 1)];
  };
  stats.p5_ms = nearest_rank(0.05);
  stats.median_ms = times_ms[n / 2];
  stats.p95_ms = nearest_rank(0.95);
  stats.reps = static_cast<int>(n);
  return stats;
}

BenchReport::BenchReport(std::string scenario)
    : scenario_(std::move(scenario)) {}

void BenchReport::SetConfig(const std::string& key, const std::string& value) {
  config_[key] = value;
}

void BenchReport::SetConfig(const std::string& key, int64_t value) {
  config_[key] = std::to_string(value);
}

void BenchReport::SetConfig(const std::string& key, double value) {
  config_[key] = JsonNumber(value);
}

void BenchReport::SetConfig(const std::string& key, bool value) {
  config_[key] = value ? "true" : "false";
}

void BenchReport::AddLatency(const std::string& name,
                             const std::map<std::string, std::string>& labels,
                             const LatencyStats& stats) {
  Sample sample;
  sample.name = name;
  sample.labels = labels;
  sample.is_latency = true;
  sample.latency = stats;
  samples_.push_back(std::move(sample));
}

void BenchReport::AddScalar(const std::string& name,
                            const std::map<std::string, std::string>& labels,
                            double value, const std::string& unit) {
  Sample sample;
  sample.name = name;
  sample.labels = labels;
  sample.is_latency = false;
  sample.value = value;
  sample.unit = unit;
  samples_.push_back(std::move(sample));
}

void BenchReport::SnapshotMetricsBaseline() {
  baseline_ = MetricsRegistry::Global().SnapshotValues();
  have_baseline_ = true;
}

void BenchReport::CaptureMetricsDelta() {
  std::map<std::string, MetricsRegistry::MetricSnapshot> now =
      MetricsRegistry::Global().SnapshotValues();
  delta_.clear();
  for (const auto& [name, current] : now) {
    MetricsRegistry::MetricSnapshot d = current;
    if (have_baseline_) {
      auto it = baseline_.find(name);
      if (it != baseline_.end()) {
        switch (current.kind) {
          case MetricsRegistry::Kind::kCounter:
            d.value = current.value - it->second.value;
            break;
          case MetricsRegistry::Kind::kGauge:
            // Gauges are instantaneous; report the final value, not a delta.
            break;
          case MetricsRegistry::Kind::kHistogram:
            d.count = current.count - it->second.count;
            d.sum = current.sum - it->second.sum;
            break;
        }
      }
    }
    bool is_zero = false;
    switch (d.kind) {
      case MetricsRegistry::Kind::kCounter:
      case MetricsRegistry::Kind::kGauge:
        is_zero = d.value == 0;
        break;
      case MetricsRegistry::Kind::kHistogram:
        is_zero = d.count == 0 && d.sum == 0;
        break;
    }
    if (!is_zero) delta_.emplace(name, d);
  }
  have_delta_ = true;
}

std::string BenchReport::ToJson() const {
  std::string out;
  out.reserve(1024 + samples_.size() * 160);
  out += "{\"schema_version\":1,\"scenario\":\"";
  out += JsonEscape(scenario_);
  out += "\",\"config\":{";
  bool first = true;
  for (const auto& [key, value] : config_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(key) + "\":\"" + JsonEscape(value) + "\"";
  }
  out += "},\"samples\":[";
  first = true;
  for (const Sample& sample : samples_) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + JsonEscape(sample.name) + "\",\"labels\":";
    out += LabelsJson(sample.labels);
    if (sample.is_latency) {
      out += ",\"kind\":\"latency\",\"reps\":";
      out += std::to_string(sample.latency.reps);
      out += ",\"p5_ms\":" + JsonNumber(sample.latency.p5_ms);
      out += ",\"median_ms\":" + JsonNumber(sample.latency.median_ms);
      out += ",\"p95_ms\":" + JsonNumber(sample.latency.p95_ms);
    } else {
      out += ",\"kind\":\"scalar\",\"value\":" + JsonNumber(sample.value);
      if (!sample.unit.empty()) {
        out += ",\"unit\":\"" + JsonEscape(sample.unit) + "\"";
      }
    }
    out += "}";
  }
  out += "],\"metrics_delta\":{";
  first = true;
  for (const auto& [name, d] : delta_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":{";
    switch (d.kind) {
      case MetricsRegistry::Kind::kCounter:
        out += "\"kind\":\"counter\",\"delta\":" + std::to_string(d.value);
        break;
      case MetricsRegistry::Kind::kGauge:
        out += "\"kind\":\"gauge\",\"value\":" + std::to_string(d.value);
        break;
      case MetricsRegistry::Kind::kHistogram:
        out += "\"kind\":\"histogram\",\"count\":" + std::to_string(d.count) +
               ",\"sum\":" + std::to_string(d.sum);
        break;
    }
    out += "}";
  }
  out += "}}";
  return out;
}

bool BenchReport::WriteToFile(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "bench_report: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  std::string json = ToJson();
  bool ok = std::fwrite(json.data(), 1, json.size(), file) == json.size();
  ok = std::fputc('\n', file) != EOF && ok;
  ok = std::fclose(file) == 0 && ok;
  if (!ok) {
    std::fprintf(stderr, "bench_report: short write to %s\n", path.c_str());
  }
  return ok;
}

namespace {

/// Resolves a --json[=value] spec to the output path for `scenario`:
/// empty value → cwd; a value ending in '/' → that directory; anything
/// else → the exact file path.
std::string ResolveJsonPath(const std::string& value,
                            const std::string& scenario) {
  std::string file = "BENCH_" + scenario + ".json";
  if (value.empty()) return file;
  if (value.back() == '/') return value + file;
  return value;
}

}  // namespace

BenchContext::BenchContext(int argc, char** argv, std::string scenario)
    : report_(std::move(scenario)) {
  const char* env_json = std::getenv("AGGCACHE_BENCH_JSON");
  if (env_json != nullptr && *env_json != '\0' &&
      std::strcmp(env_json, "off") != 0) {
    json_path_ = ResolveJsonPath(env_json, report_.scenario());
  }
  const char* env_quick = std::getenv("AGGCACHE_BENCH_QUICK");
  if (env_quick != nullptr && *env_quick != '\0' &&
      std::strcmp(env_quick, "0") != 0) {
    quick_ = true;
  }
  const char* env_reps = std::getenv("AGGCACHE_BENCH_REPS");
  if (env_reps != nullptr && *env_reps != '\0') {
    char* end = nullptr;
    long reps = std::strtol(env_reps, &end, 10);
    if (end == env_reps || *end != '\0' || reps < 1 || reps > 100000) {
      std::fprintf(stderr,
                   "FATAL BenchContext: AGGCACHE_BENCH_REPS='%s' is not a "
                   "positive rep count\n",
                   env_reps);
      std::abort();
    }
    reps_override_ = static_cast<int>(reps);
  }
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--json") == 0) {
      json_path_ = ResolveJsonPath("", report_.scenario());
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      json_path_ = ResolveJsonPath(arg + 7, report_.scenario());
    } else if (std::strcmp(arg, "--quick") == 0) {
      quick_ = true;
    }
  }
  report_.SetConfig("quick", quick_);
  report_.SnapshotMetricsBaseline();
}

int BenchContext::Reps(int quick_reps, int full_reps) const {
  if (quick_reps < 1 || full_reps < 1) {
    std::fprintf(stderr,
                 "FATAL BenchContext::Reps: repetition counts must be >= 1 "
                 "(quick=%d, full=%d)\n",
                 quick_reps, full_reps);
    std::abort();
  }
  if (reps_override_ > 0) return reps_override_;
  return quick_ ? quick_reps : full_reps;
}

bool BenchContext::Finish() {
  if (finished_) return true;
  finished_ = true;
  report_.CaptureMetricsDelta();
  if (json_path_.empty()) return true;
  if (!report_.WriteToFile(json_path_)) return false;
  std::fprintf(stderr, "wrote %s\n", json_path_.c_str());
  return true;
}

}  // namespace aggcache
