#include "obs/span.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/string_util.h"
#include "obs/active_queries.h"
#include "obs/query_trace.h"

namespace aggcache {

namespace {

int64_t SteadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The innermost active span on this thread. Plain (non-atomic) TLS: only
/// this thread reads or writes it.
thread_local SpanLink t_current_span;

/// The global recorder once constructed — read by the CHECK-failure chain
/// without forcing construction mid-crash.
std::atomic<SpanRecorder*> g_global_recorder{nullptr};

SpanRecorder::Options ParseSpanEnv() {
  SpanRecorder::Options options;
  const char* env = std::getenv("AGGCACHE_SPANS");
  if (env == nullptr) return options;
  std::string spec(env);
  if (spec == "off" || spec == "0" || spec.empty()) return options;
  options.enabled = true;
  if (spec == "on" || spec == "1") return options;
  for (const auto& [key, text] : SplitKeyValueSpec(spec)) {
    long value = std::strtol(text.c_str(), nullptr, 10);
    if (key == "sample" && value > 0) {
      options.sample_every = static_cast<uint64_t>(value);
    } else if (key == "spans" && value > 0) {
      options.spans_per_segment = static_cast<size_t>(value);
    } else if (key == "threads" && value > 0) {
      options.max_segments = static_cast<size_t>(value);
    }
  }
  return options;
}

void CopyDetail(char (&dst)[16], const char* detail) {
  if (detail == nullptr) return;
  std::strncpy(dst, detail, sizeof(dst) - 1);
}

}  // namespace

const char* SpanKindToString(SpanKind kind) {
  switch (kind) {
    case SpanKind::kQuery:
      return "query";
    case SpanKind::kAdmissionWait:
      return "admission_wait";
    case SpanKind::kCacheLookup:
      return "cache_lookup";
    case SpanKind::kSingleFlightWait:
      return "singleflight_wait";
    case SpanKind::kEntryBuild:
      return "entry_build";
    case SpanKind::kMainCorrection:
      return "main_correction";
    case SpanKind::kDeltaCompensation:
      return "delta_compensation";
    case SpanKind::kUncachedExec:
      return "uncached_exec";
    case SpanKind::kSubjoinTask:
      return "subjoin_task";
    case SpanKind::kMerge:
      return "merge";
    case SpanKind::kCheckpoint:
      return "checkpoint";
    case SpanKind::kWalSync:
      return "wal_sync";
    case SpanKind::kRecoveryReplay:
      return "recovery_replay";
  }
  return "unknown";
}

SpanRecorder::SpanRecorder(Options options)
    : ring_(options.spans_per_segment, options.max_segments, options.enabled),
      sample_every_(std::max<uint64_t>(options.sample_every, 1)),
      t0_us_(static_cast<uint64_t>(SteadyNanos() / 1000)) {}

uint64_t SpanRecorder::NowMicros() const { return MicrosAt(SteadyNanos()); }

uint64_t SpanRecorder::MicrosAt(int64_t steady_ns) const {
  uint64_t us = static_cast<uint64_t>(steady_ns / 1000);
  return us > t0_us_ ? us - t0_us_ : 0;
}

bool SpanRecorder::SampleTick() {
  if (sample_every_ == 1) return true;
  return sample_tick_.fetch_add(1, std::memory_order_relaxed) %
             sample_every_ ==
         0;
}

void SpanRecorder::Record(SpanKind kind, uint64_t span_id,
                          uint64_t parent_id, uint64_t query_id,
                          uint64_t start_us, uint64_t end_us,
                          const char* detail, uint64_t cycles,
                          uint64_t instructions, uint64_t llc_misses) {
  if (!ring_.enabled()) return;
  Ring::Payload p = {start_us, end_us >= start_us ? end_us - start_us : 0,
                     static_cast<uint64_t>(kind), span_id, parent_id,
                     query_id, cycles, instructions, llc_misses};
  PackText<2>(detail, &p[9]);
  ring_.Record(p);
}

std::vector<SpanRecorder::Span> SpanRecorder::Collect(
    size_t max_spans) const {
  std::vector<Span> spans;
  for (const Ring::Entry& entry : ring_.Collect(max_spans)) {
    Span& span = spans.emplace_back();
    span.seq = entry.seq;
    span.thread = entry.thread;
    span.start_us = entry.words[0];
    span.dur_us = entry.words[1];
    span.kind = static_cast<SpanKind>(entry.words[2]);
    span.span_id = entry.words[3];
    span.parent_id = entry.words[4];
    span.query_id = entry.words[5];
    span.cycles = entry.words[6];
    span.instructions = entry.words[7];
    span.llc_misses = entry.words[8];
    UnpackText<2>(&entry.words[9], span.detail);
  }
  return spans;
}

std::string SpanRecorder::DumpJson(size_t max_spans) const {
  std::vector<Span> spans = Collect(max_spans);
  std::string out;
  out.reserve(160 + spans.size() * 128);
  out += "{\"schema\":\"aggcache-spans-v1\",\"recorded\":";
  out += std::to_string(recorded_spans());
  out += ",\"lost\":";
  out += std::to_string(lost_spans());
  out += ",\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& span : spans) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    out += SpanKindToString(span.kind);
    out += "\",\"cat\":\"aggcache\",\"ph\":\"X\",\"ts\":";
    out += std::to_string(span.start_us);
    out += ",\"dur\":";
    out += std::to_string(span.dur_us);
    out += ",\"pid\":";
    out += std::to_string(span.query_id);
    out += ",\"tid\":";
    out += std::to_string(span.thread);
    out += ",\"args\":{\"id\":";
    out += std::to_string(span.span_id);
    out += ",\"parent\":";
    out += std::to_string(span.parent_id);
    out += ",\"detail\":\"";
    AppendJsonEscaped(&out, span.detail);
    out += '"';
    // Perf fields only when the region was measured, so traces from hosts
    // without counters (and the byte-exact golden test) are unchanged.
    if (span.cycles > 0) {
      out += StrFormat(",\"ipc\":%.2f,\"llc_miss\":%llu",
                       static_cast<double>(span.instructions) /
                           static_cast<double>(span.cycles),
                       static_cast<unsigned long long>(span.llc_misses));
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

void SpanRecorder::DumpToStderr(size_t max_spans) const {
  std::string dump = DumpJson(max_spans);
  std::fprintf(stderr, "--- aggcache span recorder dump ---\n%s\n",
               dump.c_str());
  std::fflush(stderr);
}

SpanRecorder& SpanRecorder::Global() {
  static SpanRecorder* recorder = [] {
    SpanRecorder* r = new SpanRecorder(ParseSpanEnv());
    g_global_recorder.store(r, std::memory_order_release);
    return r;
  }();
  return *recorder;
}

void DumpSpansOnCheckFailureIfEnabled() {
  SpanRecorder* recorder = g_global_recorder.load(std::memory_order_acquire);
  if (recorder != nullptr && recorder->enabled()) {
    recorder->DumpToStderr();
  }
}

SpanLink CurrentSpanLink() { return t_current_span; }

void ScopedSpan::Begin(SpanKind kind, uint64_t query_id, uint64_t parent_id,
                       const char* detail) {
  SpanRecorder& recorder = SpanRecorder::Global();
  active_ = true;
  kind_ = kind;
  query_id_ = query_id;
  parent_id_ = parent_id;
  span_id_ = recorder.NextSpanId();
  start_us_ = recorder.NowMicros();
  CopyDetail(detail_, detail);
  saved_ = t_current_span;
  t_current_span = SpanLink{query_id_, span_id_};
  installed_ = true;
}

ScopedSpan::ScopedSpan(SpanKind kind, const char* detail) {
  SpanLink parent = t_current_span;
  if (!parent.sampled()) return;
  if (!SpanRecorder::Global().enabled()) return;
  Begin(kind, parent.query_id, parent.span_id, detail);
}

ScopedSpan::ScopedSpan(SpanKind kind, const SpanLink& parent,
                       const char* detail) {
  if (!parent.sampled()) return;
  if (!SpanRecorder::Global().enabled()) return;
  Begin(kind, parent.query_id, parent.span_id, detail);
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  if (installed_) t_current_span = saved_;
  SpanRecorder& recorder = SpanRecorder::Global();
  recorder.Record(kind_, span_id_, parent_id_, query_id_, start_us_,
                  recorder.NowMicros(), detail_);
}

Phase::Phase(SpanKind kind) : kind_(kind) {
  ActiveQueryGuard::CurrentSetPhase(SpanKindToString(kind));
  SpanRecorder& recorder = SpanRecorder::Global();
  SpanLink parent = t_current_span;
  bool span_on = parent.sampled() && recorder.enabled();
  // Sample counters only when someone will consume the delta: the
  // thread-local EXPLAIN trace or the live span. With neither, the phase
  // costs its two clock readings and a few branches.
  if (span_on || TraceContext::Current() != nullptr) {
    perf_begin_ = PerfCounters::Read();
    perf_armed_ = perf_begin_.valid;
  }
  if (span_on) {
    parent_ = parent;
    span_id_ = recorder.NextSpanId();
    t_current_span = SpanLink{parent.query_id, span_id_};
  }
  begin_ns_ = SteadyNanos();
}

void Phase::End() {
  if (!open_) return;
  open_ = false;
  int64_t end_ns = SteadyNanos();
  elapsed_ns_ = end_ns - begin_ns_;
  PerfDelta perf;
  if (perf_armed_) {
    perf = PerfCounters::Delta(perf_begin_, PerfCounters::Read());
  }
  QueryTrace* trace = TraceContext::Current();
  if (perf.valid && trace != nullptr) {
    trace->perf_phases.push_back(
        QueryTrace::PhasePerf{SpanKindToString(kind_), perf});
  }
  if (span_id_ == 0) return;
  t_current_span = parent_;
  SpanRecorder& recorder = SpanRecorder::Global();
  recorder.Record(kind_, span_id_, parent_.span_id, parent_.query_id,
                  recorder.MicrosAt(begin_ns_), recorder.MicrosAt(end_ns),
                  nullptr, perf.cycles, perf.instructions, perf.llc_misses);
}

QueryRootSpan::QueryRootSpan(const char* detail) {
  SpanRecorder& recorder = SpanRecorder::Global();
  if (recorder.enabled() && recorder.SampleTick()) {
    active_ = true;
    query_id_ = recorder.NextQueryId();
    span_id_ = recorder.NextSpanId();
    CopyDetail(detail_, detail);
    saved_ = t_current_span;
    t_current_span = SpanLink{query_id_, span_id_};
  }
  begin_ns_ = SteadyNanos();
}

void QueryRootSpan::End() {
  if (!open_) return;
  open_ = false;
  int64_t end_ns = SteadyNanos();
  elapsed_ns_ = end_ns - begin_ns_;
  if (!active_) return;
  t_current_span = saved_;
  SpanRecorder& recorder = SpanRecorder::Global();
  recorder.Record(SpanKind::kQuery, span_id_, 0, query_id_,
                  recorder.MicrosAt(begin_ns_), recorder.MicrosAt(end_ns),
                  detail_);
}

BackgroundSpan::BackgroundSpan(SpanKind kind, const char* detail) {
  SpanRecorder& recorder = SpanRecorder::Global();
  if (!recorder.enabled()) return;
  active_ = true;
  kind_ = kind;
  query_id_ = recorder.NextQueryId();
  span_id_ = recorder.NextSpanId();
  start_us_ = recorder.NowMicros();
  CopyDetail(detail_, detail);
  saved_ = t_current_span;
  t_current_span = SpanLink{query_id_, span_id_};
}

BackgroundSpan::~BackgroundSpan() {
  if (!active_) return;
  t_current_span = saved_;
  SpanRecorder& recorder = SpanRecorder::Global();
  recorder.Record(kind_, span_id_, 0, query_id_, start_us_,
                  recorder.NowMicros(), detail_);
}

void RecordSpanSince(SpanKind kind, uint64_t start_us, const char* detail) {
  SpanLink parent = t_current_span;
  if (!parent.sampled()) return;
  SpanRecorder& recorder = SpanRecorder::Global();
  if (!recorder.enabled()) return;
  recorder.Record(kind, recorder.NextSpanId(), parent.span_id,
                  parent.query_id, start_us, recorder.NowMicros(), detail);
}

}  // namespace aggcache
