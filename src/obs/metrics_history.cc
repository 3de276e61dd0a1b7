#include "obs/metrics_history.h"

#include <chrono>
#include <cstdlib>

#include "common/string_util.h"

namespace aggcache {

namespace {

int64_t SteadyMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

MetricsHistory& MetricsHistory::Global() {
  static MetricsHistory* history = new MetricsHistory();
  return *history;
}

MetricsHistory::Options MetricsHistory::OptionsFromEnv() {
  Options options;
  const char* env = std::getenv("AGGCACHE_METRICS_HISTORY");
  if (env == nullptr || *env == '\0') return options;
  // Spec: "<period_ms>[,capacity=<n>]".
  std::string spec(env);
  size_t comma = spec.find(',');
  std::string head = spec.substr(0, comma);
  char* end = nullptr;
  long period = std::strtol(head.c_str(), &end, 10);
  if (end != head.c_str() && period > 0) options.period_ms = period;
  if (comma == std::string::npos) return options;
  for (const auto& [key, value] : SplitKeyValueSpec(spec.substr(comma + 1))) {
    if (key == "capacity") {
      long n = std::strtol(value.c_str(), nullptr, 10);
      if (n > 0) options.capacity = static_cast<size_t>(n);
    }
  }
  return options;
}

void MetricsHistory::Start(const Options& options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_.load(std::memory_order_relaxed)) return;
  options_ = options;
  stop_requested_ = false;
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> thread_lock(mu_);
    std::chrono::milliseconds period(options_.period_ms);
    while (!cv_.wait_for(thread_lock, period,
                         [this] { return stop_requested_; })) {
      thread_lock.unlock();
      SampleOnce();
      thread_lock.lock();
    }
  });
}

void MetricsHistory::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_.load(std::memory_order_relaxed)) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_.store(false, std::memory_order_relaxed);
}

void MetricsHistory::SampleOnce() {
  Sample sample;
  sample.t_ms = SteadyMillis();
  sample.values = MetricsRegistry::Global().SnapshotValues();
  std::lock_guard<std::mutex> lock(mu_);
  samples_.push_back(std::move(sample));
  while (samples_.size() > options_.capacity) samples_.pop_front();
}

std::string MetricsHistory::DumpJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = StrFormat(
      "{\"schema\":\"aggcache-metrics-history-v1\",\"period_ms\":%lld,"
      "\"capacity\":%zu,\"samples\":[",
      static_cast<long long>(options_.period_ms), options_.capacity);
  bool first_sample = true;
  for (const Sample& sample : samples_) {
    if (!first_sample) out += ',';
    first_sample = false;
    out += StrFormat("{\"t_ms\":%lld,\"values\":{",
                     static_cast<long long>(sample.t_ms));
    bool first_value = true;
    for (const auto& [name, snapshot] : sample.values) {
      if (!first_value) out += ',';
      first_value = false;
      out += '"';
      out += name;  // Metric names are exposition-safe by construction.
      out += "\":";
      if (snapshot.kind == MetricsRegistry::Kind::kHistogram) {
        out += StrFormat("{\"count\":%llu,\"sum\":%llu}",
                         static_cast<unsigned long long>(snapshot.count),
                         static_cast<unsigned long long>(snapshot.sum));
      } else {
        out += std::to_string(snapshot.value);
      }
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

size_t MetricsHistory::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_.size();
}

void MetricsHistory::ResetForTest() {
  Stop();
  std::lock_guard<std::mutex> lock(mu_);
  samples_.clear();
  options_ = Options{};
}

}  // namespace aggcache
