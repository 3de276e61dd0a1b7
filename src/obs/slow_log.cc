#include "obs/slow_log.h"

#include <cstdlib>
#include <fstream>

#include "common/string_util.h"
#include "obs/engine_metrics.h"

namespace aggcache {

SlowQueryLog& SlowQueryLog::Global() {
  static SlowQueryLog* log = new SlowQueryLog();
  return *log;
}

void SlowQueryLog::ConfigureFromEnv() {
  const char* env = std::getenv("AGGCACHE_SLOW_QUERY_MS");
  if (env == nullptr || *env == '\0') return;
  Options options;
  // Spec: "<ms>[,dir=<path>][,files=<n>][,keep=<records>]".
  std::string spec(env);
  size_t comma = spec.find(',');
  std::string head = spec.substr(0, comma);
  char* end = nullptr;
  options.threshold_ms = std::strtod(head.c_str(), &end);
  if (end == head.c_str() || options.threshold_ms <= 0) return;
  std::string rest = comma == std::string::npos ? "" : spec.substr(comma + 1);
  for (const auto& [key, value] : SplitKeyValueSpec(rest)) {
    if (key == "dir") {
      options.dir = value;
    } else if (key == "files") {
      long n = std::strtol(value.c_str(), nullptr, 10);
      if (n > 0) options.max_files = static_cast<size_t>(n);
    } else if (key == "keep") {
      long n = std::strtol(value.c_str(), nullptr, 10);
      if (n > 0) options.keep = static_cast<size_t>(n);
    }
  }
  Configure(options);
}

void SlowQueryLog::Configure(const Options& options) {
  std::lock_guard<std::mutex> lock(mu_);
  options_ = options;
  enabled_.store(options.threshold_ms > 0, std::memory_order_relaxed);
}

double SlowQueryLog::threshold_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_.threshold_ms;
}

void SlowQueryLog::Record(const std::string& record_json) {
  std::string file_path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!enabled_.load(std::memory_order_relaxed)) return;
    records_.push_back(record_json);
    while (records_.size() > options_.keep) records_.pop_front();
    if (!options_.dir.empty()) {
      file_path = options_.dir + "/slowlog-" +
                  std::to_string(total_ % options_.max_files) + ".json";
    }
    ++total_;
  }
  EngineMetrics::Get().slow_queries->Increment();
  if (!file_path.empty()) {
    // Outside the lock: disk latency must not stall /slowlog readers.
    std::ofstream out(file_path, std::ios::trunc);
    if (out) out << record_json << "\n";
  }
}

std::string SlowQueryLog::DumpJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = StrFormat(
      "{\"schema\":\"aggcache-slowlog-v1\",\"enabled\":%s,"
      "\"threshold_ms\":%.3f,\"total\":%llu,\"records\":[",
      enabled_.load(std::memory_order_relaxed) ? "true" : "false",
      options_.threshold_ms, static_cast<unsigned long long>(total_));
  bool first = true;
  for (const std::string& record : records_) {
    if (!first) out += ',';
    first = false;
    out += record;  // Already a JSON object.
  }
  out += "]}";
  return out;
}

size_t SlowQueryLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

uint64_t SlowQueryLog::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

void SlowQueryLog::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  options_ = Options{};
  records_.clear();
  total_ = 0;
  enabled_.store(false, std::memory_order_relaxed);
}

}  // namespace aggcache
