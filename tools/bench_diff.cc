// bench_diff — schema validator and perf-regression checker for the
// BENCH_*.json files emitted by the benchmark harness (bench/bench_report.h).
//
// Two modes:
//
//   bench_diff --schema-only FILE...
//       Validates each file against the BENCH schema (schema_version 1).
//       Exit 1 on the first malformed file.
//
//   bench_diff BASELINE_DIR CURRENT_DIR [--threshold=0.30] [--warn-only]
//       Pairs BENCH_*.json files by name, pairs samples by (name, labels),
//       and flags every latency sample whose median regressed by more than
//       the scenario's relative threshold. Exit 1 on any regression unless
//       --warn-only.
//
// Self-contained: ships its own minimal JSON reader so the checker can run
// in CI images that have nothing but a C++ toolchain.

#include <dirent.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser. Only what the BENCH schema
// needs: objects, arrays, strings, numbers, booleans, null. Numbers are kept
// as double (the harness never emits integers beyond 2^53).
// ---------------------------------------------------------------------------

struct Json;
using JsonPtr = std::shared_ptr<Json>;

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<JsonPtr> array_items;
  std::vector<std::pair<std::string, JsonPtr>> object_items;  // in file order

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_string() const { return type == Type::kString; }
  bool is_number() const { return type == Type::kNumber; }

  const Json* Find(const std::string& key) const {
    for (const auto& [k, v] : object_items) {
      if (k == key) return v.get();
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonPtr Parse(std::string* error) {
    JsonPtr value = ParseValue();
    SkipWhitespace();
    if (value == nullptr) {
      *error = error_.empty() ? "parse error" : error_;
      return nullptr;
    }
    if (pos_ != text_.size()) {
      *error = "trailing characters at offset " + std::to_string(pos_);
      return nullptr;
    }
    return value;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Fail(const std::string& message) {
    if (error_.empty()) {
      error_ = message + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  JsonPtr ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      Fail("unexpected end of input");
      return nullptr;
    }
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"': {
        auto value = std::make_shared<Json>();
        value->type = Json::Type::kString;
        if (!ParseString(&value->string_value)) return nullptr;
        return value;
      }
      case 't':
      case 'f': {
        auto value = std::make_shared<Json>();
        value->type = Json::Type::kBool;
        const char* word = c == 't' ? "true" : "false";
        size_t len = std::strlen(word);
        if (text_.compare(pos_, len, word) != 0) {
          Fail("bad literal");
          return nullptr;
        }
        value->bool_value = c == 't';
        pos_ += len;
        return value;
      }
      case 'n': {
        if (text_.compare(pos_, 4, "null") != 0) {
          Fail("bad literal");
          return nullptr;
        }
        pos_ += 4;
        return std::make_shared<Json>();
      }
      default:
        return ParseNumber();
    }
  }

  JsonPtr ParseObject() {
    auto value = std::make_shared<Json>();
    value->type = Json::Type::kObject;
    ++pos_;  // '{'
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return value;
    }
    for (;;) {
      SkipWhitespace();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !ParseString(&key)) {
        Fail("expected object key");
        return nullptr;
      }
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        Fail("expected ':'");
        return nullptr;
      }
      ++pos_;
      JsonPtr member = ParseValue();
      if (member == nullptr) return nullptr;
      value->object_items.emplace_back(std::move(key), std::move(member));
      SkipWhitespace();
      if (pos_ >= text_.size()) {
        Fail("unterminated object");
        return nullptr;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return value;
      }
      Fail("expected ',' or '}'");
      return nullptr;
    }
  }

  JsonPtr ParseArray() {
    auto value = std::make_shared<Json>();
    value->type = Json::Type::kArray;
    ++pos_;  // '['
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return value;
    }
    for (;;) {
      JsonPtr item = ParseValue();
      if (item == nullptr) return nullptr;
      value->array_items.push_back(std::move(item));
      SkipWhitespace();
      if (pos_ >= text_.size()) {
        Fail("unterminated array");
        return nullptr;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return value;
      }
      Fail("expected ',' or ']'");
      return nullptr;
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Fail("bad \\u escape");
          }
          // The harness only escapes control characters and ASCII; decode
          // BMP code points as UTF-8 so round-trips stay lossless.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  JsonPtr ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      Fail("expected value");
      return nullptr;
    }
    auto value = std::make_shared<Json>();
    value->type = Json::Type::kNumber;
    try {
      value->number_value = std::stod(text_.substr(start, pos_ - start));
    } catch (...) {
      Fail("bad number");
      return nullptr;
    }
    return value;
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::string error_;
};

// ---------------------------------------------------------------------------
// Schema validation (BENCH schema v1, DESIGN.md §7).
// ---------------------------------------------------------------------------

bool SchemaError(const std::string& file, const std::string& message) {
  std::fprintf(stderr, "bench_diff: %s: schema violation: %s\n", file.c_str(),
               message.c_str());
  return false;
}

bool ValidateLabels(const std::string& file, const Json* labels) {
  if (labels == nullptr || !labels->is_object()) {
    return SchemaError(file, "sample 'labels' must be an object");
  }
  for (const auto& [key, value] : labels->object_items) {
    if (!value->is_string()) {
      return SchemaError(file, "label '" + key + "' must be a string");
    }
  }
  return true;
}

bool ValidateReport(const std::string& file, const Json& root) {
  if (!root.is_object()) return SchemaError(file, "root must be an object");
  const Json* version = root.Find("schema_version");
  if (version == nullptr || !version->is_number() ||
      version->number_value != 1.0) {
    return SchemaError(file, "'schema_version' must be 1");
  }
  const Json* scenario = root.Find("scenario");
  if (scenario == nullptr || !scenario->is_string() ||
      scenario->string_value.empty()) {
    return SchemaError(file, "'scenario' must be a non-empty string");
  }
  const Json* config = root.Find("config");
  if (config == nullptr || !config->is_object()) {
    return SchemaError(file, "'config' must be an object");
  }
  for (const auto& [key, value] : config->object_items) {
    if (!value->is_string()) {
      return SchemaError(file, "config '" + key + "' must be a string");
    }
  }
  const Json* samples = root.Find("samples");
  if (samples == nullptr || !samples->is_array()) {
    return SchemaError(file, "'samples' must be an array");
  }
  for (const JsonPtr& sample : samples->array_items) {
    if (!sample->is_object()) {
      return SchemaError(file, "every sample must be an object");
    }
    const Json* name = sample->Find("name");
    if (name == nullptr || !name->is_string() || name->string_value.empty()) {
      return SchemaError(file, "sample 'name' must be a non-empty string");
    }
    if (!ValidateLabels(file, sample->Find("labels"))) return false;
    const Json* kind = sample->Find("kind");
    if (kind == nullptr || !kind->is_string()) {
      return SchemaError(file, "sample 'kind' must be a string");
    }
    if (kind->string_value == "latency") {
      for (const char* field : {"reps", "p5_ms", "median_ms", "p95_ms"}) {
        const Json* v = sample->Find(field);
        if (v == nullptr || !v->is_number()) {
          return SchemaError(file, std::string("latency sample '") +
                                       name->string_value + "' needs number '" +
                                       field + "'");
        }
      }
    } else if (kind->string_value == "scalar") {
      const Json* v = sample->Find("value");
      if (v == nullptr || !v->is_number()) {
        return SchemaError(file, "scalar sample '" + name->string_value +
                                     "' needs number 'value'");
      }
    } else {
      return SchemaError(file, "unknown sample kind '" + kind->string_value +
                                   "'");
    }
  }
  const Json* metrics = root.Find("metrics_delta");
  if (metrics == nullptr || !metrics->is_object()) {
    return SchemaError(file, "'metrics_delta' must be an object");
  }
  for (const auto& [metric, entry] : metrics->object_items) {
    if (!entry->is_object()) {
      return SchemaError(file, "metric '" + metric + "' must be an object");
    }
    const Json* kind = entry->Find("kind");
    if (kind == nullptr || !kind->is_string() ||
        (kind->string_value != "counter" && kind->string_value != "gauge" &&
         kind->string_value != "histogram")) {
      return SchemaError(file, "metric '" + metric + "' has a bad 'kind'");
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Regression diff.
// ---------------------------------------------------------------------------

/// Per-scenario relative regression thresholds. Microbenchmark-shaped
/// scenarios tolerate less noise than stress runs on a loaded CI machine;
/// anything not listed uses the default (or the --threshold override).
constexpr double kDefaultThreshold = 0.30;

double ScenarioThreshold(const std::string& scenario) {
  static const std::map<std::string, double> kThresholds = {
      {"stress_concurrent", 0.60},    // load-dependent end-to-end latencies
      {"parallel_scaling", 0.50},     // scheduler-noise sensitive
      {"sec63_insert_overhead", 0.40},// ns-scale microbenchmark jitter
      {"recovery", 0.60},             // fsync-latency sensitive
  };
  auto it = kThresholds.find(scenario);
  return it == kThresholds.end() ? kDefaultThreshold : it->second;
}

std::string SampleKey(const Json& sample) {
  std::string key = sample.Find("name")->string_value;
  const Json* labels = sample.Find("labels");
  std::map<std::string, std::string> sorted;
  for (const auto& [k, v] : labels->object_items) sorted[k] = v->string_value;
  for (const auto& [k, v] : sorted) key += "{" + k + "=" + v + "}";
  return key;
}

JsonPtr LoadReport(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "bench_diff: cannot open %s\n", path.c_str());
    return nullptr;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  std::string error;
  JsonPtr root = JsonParser(text).Parse(&error);
  if (root == nullptr) {
    std::fprintf(stderr, "bench_diff: %s: %s\n", path.c_str(), error.c_str());
    return nullptr;
  }
  if (!ValidateReport(path, *root)) return nullptr;
  return root;
}

std::vector<std::string> ListBenchFiles(const std::string& dir) {
  std::vector<std::string> files;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) {
    std::fprintf(stderr, "bench_diff: cannot open directory %s\n",
                 dir.c_str());
    return files;
  }
  while (dirent* entry = readdir(d)) {
    std::string name = entry->d_name;
    if (name.rfind("BENCH_", 0) == 0 && name.size() > 5 &&
        name.compare(name.size() - 5, 5, ".json") == 0) {
      files.push_back(name);
    }
  }
  closedir(d);
  std::sort(files.begin(), files.end());
  return files;
}

struct DiffStats {
  int compared = 0;
  int regressions = 0;
  int missing = 0;
};

/// One compared latency sample, kept for the --summary markdown table.
struct SummaryRow {
  std::string scenario;
  std::string key;
  double base_ms = 0.0;
  double cur_ms = 0.0;
};

void DiffReports(const std::string& name, const Json& baseline,
                 const Json& current, double threshold_override,
                 DiffStats* stats, std::vector<SummaryRow>* summary) {
  const std::string scenario = current.Find("scenario")->string_value;
  const double threshold = threshold_override > 0.0
                               ? threshold_override
                               : ScenarioThreshold(scenario);
  std::map<std::string, const Json*> base_samples;
  for (const JsonPtr& sample : baseline.Find("samples")->array_items) {
    base_samples[SampleKey(*sample)] = sample.get();
  }
  for (const JsonPtr& sample : current.Find("samples")->array_items) {
    // Only latency medians gate: scalars mix directions (bytes, speedups,
    // error counts) and are judged by their own benchmarks, not by diff.
    if (sample->Find("kind")->string_value != "latency") continue;
    std::string key = SampleKey(*sample);
    auto it = base_samples.find(key);
    if (it == base_samples.end()) {
      std::printf("  NEW       %s (no baseline sample)\n", key.c_str());
      ++stats->missing;
      continue;
    }
    const Json* base_median = it->second->Find("median_ms");
    if (base_median == nullptr) {
      ++stats->missing;
      continue;
    }
    double base = base_median->number_value;
    double cur = sample->Find("median_ms")->number_value;
    ++stats->compared;
    if (summary != nullptr) {
      summary->push_back(SummaryRow{scenario, key, base, cur});
    }
    if (base <= 0.0) continue;  // degenerate baseline, nothing to gate on
    double ratio = cur / base;
    if (ratio > 1.0 + threshold) {
      ++stats->regressions;
      std::printf("  REGRESSED %s: %.3f ms -> %.3f ms (%.0f%% > %.0f%%)\n",
                  key.c_str(), base, cur, (ratio - 1.0) * 100.0,
                  threshold * 100.0);
    } else if (ratio < 1.0 - threshold) {
      std::printf("  improved  %s: %.3f ms -> %.3f ms (-%.0f%%)\n",
                  key.c_str(), base, cur, (1.0 - ratio) * 100.0);
    }
  }
  std::printf("%s: scenario=%s threshold=%.0f%%\n", name.c_str(),
              scenario.c_str(), threshold * 100.0);
}

/// Writes the compared samples as a GitHub-flavored markdown table — the
/// shape CI pastes into the job summary. Deltas are median-vs-median; a
/// row with no baseline never reaches here (it is counted as unmatched).
bool WriteSummary(const std::string& path,
                  const std::vector<SummaryRow>& rows) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_diff: cannot write summary file %s\n",
                 path.c_str());
    return false;
  }
  out << "| scenario | sample | baseline median (ms) | current median (ms) "
         "| delta |\n";
  out << "|---|---|---:|---:|---:|\n";
  char line[512];
  for (const SummaryRow& row : rows) {
    double delta_pct =
        row.base_ms > 0.0 ? (row.cur_ms / row.base_ms - 1.0) * 100.0 : 0.0;
    std::snprintf(line, sizeof(line),
                  "| %s | %s | %.3f | %.3f | %+.1f%% |\n",
                  row.scenario.c_str(), row.key.c_str(), row.base_ms,
                  row.cur_ms, delta_pct);
    out << line;
  }
  return true;
}

/// Parses a comma-separated --scenarios value into its entries.
std::vector<std::string> SplitScenarios(const std::string& value) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream stream(value);
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

void PrintUsage() {
  std::fprintf(stderr,
               "usage: bench_diff --schema-only FILE...\n"
               "       bench_diff BASELINE_DIR CURRENT_DIR"
               " [--threshold=0.30] [--warn-only]"
               " [--scenarios=fig7_join_pruning,...]"
               " [--summary=summary.md]\n"
               "\n"
               "--scenarios restricts the diff to the named scenarios and\n"
               "additionally fails when any of them is missing from\n"
               "CURRENT_DIR — a gated scenario whose benchmark silently\n"
               "produced no report must not pass the gate.\n"
               "--summary writes the compared medians as a markdown table.\n"
               "Without --scenarios, every baseline scenario must also be\n"
               "present in CURRENT_DIR (a silently vanished benchmark is an\n"
               "error, downgraded to a warning by --warn-only).\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool schema_only = false;
  bool warn_only = false;
  double threshold_override = 0.0;
  std::string summary_path;
  std::vector<std::string> scenario_filter;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--schema-only") {
      schema_only = true;
    } else if (arg == "--warn-only") {
      warn_only = true;
    } else if (arg.rfind("--summary=", 0) == 0) {
      summary_path = arg.substr(10);
      if (summary_path.empty()) {
        std::fprintf(stderr, "bench_diff: empty --summary value\n");
        return 2;
      }
    } else if (arg.rfind("--scenarios=", 0) == 0) {
      scenario_filter = SplitScenarios(arg.substr(12));
      if (scenario_filter.empty()) {
        std::fprintf(stderr, "bench_diff: empty --scenarios value\n");
        return 2;
      }
    } else if (arg.rfind("--threshold=", 0) == 0) {
      threshold_override = std::atof(arg.c_str() + 12);
      if (threshold_override <= 0.0) {
        std::fprintf(stderr, "bench_diff: bad --threshold value '%s'\n",
                     arg.c_str() + 12);
        return 2;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "bench_diff: unknown flag %s\n", arg.c_str());
      PrintUsage();
      return 2;
    } else {
      positional.push_back(arg);
    }
  }

  if (schema_only) {
    if (positional.empty()) {
      PrintUsage();
      return 2;
    }
    for (const std::string& file : positional) {
      if (LoadReport(file) == nullptr) return 1;
      std::printf("ok %s\n", file.c_str());
    }
    return 0;
  }

  if (positional.size() != 2) {
    PrintUsage();
    return 2;
  }
  const std::string& baseline_dir = positional[0];
  const std::string& current_dir = positional[1];
  std::vector<std::string> current_files = ListBenchFiles(current_dir);
  if (current_files.empty()) {
    std::fprintf(stderr, "bench_diff: no BENCH_*.json files in %s\n",
                 current_dir.c_str());
    return 2;
  }

  if (!scenario_filter.empty()) {
    std::vector<std::string> filtered;
    for (const std::string& wanted : scenario_filter) {
      std::string file = "BENCH_" + wanted + ".json";
      if (std::find(current_files.begin(), current_files.end(), file) ==
          current_files.end()) {
        std::fprintf(stderr,
                     "bench_diff: gated scenario '%s' has no %s in %s\n",
                     wanted.c_str(), file.c_str(), current_dir.c_str());
        return 1;
      }
      filtered.push_back(file);
    }
    current_files = std::move(filtered);
  } else {
    // Completeness gate: every scenario the baseline knows about must have
    // produced a report in this run. A benchmark that crashed or was
    // dropped from the harness would otherwise pass by absence.
    int vanished = 0;
    for (const std::string& name : ListBenchFiles(baseline_dir)) {
      if (std::find(current_files.begin(), current_files.end(), name) ==
          current_files.end()) {
        std::fprintf(stderr,
                     "bench_diff: baseline scenario %s produced no report "
                     "in %s\n",
                     name.c_str(), current_dir.c_str());
        ++vanished;
      }
    }
    if (vanished > 0 && !warn_only) return 1;
  }

  DiffStats stats;
  std::vector<SummaryRow> summary;
  for (const std::string& name : current_files) {
    JsonPtr current = LoadReport(current_dir + "/" + name);
    if (current == nullptr) return 1;
    JsonPtr baseline = LoadReport(baseline_dir + "/" + name);
    if (baseline == nullptr) {
      std::printf("%s: no baseline file, skipping comparison\n", name.c_str());
      ++stats.missing;
      continue;
    }
    DiffReports(name, *baseline, *current, threshold_override, &stats,
                summary_path.empty() ? nullptr : &summary);
  }
  if (!summary_path.empty() && !WriteSummary(summary_path, summary)) {
    return 2;
  }
  std::printf(
      "bench_diff: %d latency samples compared, %d regressed, %d unmatched\n",
      stats.compared, stats.regressions, stats.missing);
  if (stats.regressions > 0) {
    return warn_only ? 0 : 1;
  }
  return 0;
}
