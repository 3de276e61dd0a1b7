#include "obs/query_trace.h"

#include <sstream>

#include "common/string_util.h"

namespace aggcache {

namespace {

thread_local QueryTrace* t_current_trace = nullptr;

std::string RenderTidRange(const SubjoinTrace::TidRange& range) {
  if (range.empty) return range.column + " tid=[empty]";
  return StrFormat("%s tid=[%lld,%lld]", range.column.c_str(),
                   static_cast<long long>(range.min),
                   static_cast<long long>(range.max));
}

}  // namespace

const char* VerdictToString(SubjoinTrace::Verdict verdict) {
  switch (verdict) {
    case SubjoinTrace::Verdict::kExecuted:
      return "executed";
    case SubjoinTrace::Verdict::kPushdown:
      return "pushdown";
    case SubjoinTrace::Verdict::kPruned:
      return "pruned";
  }
  return "?";
}

size_t QueryTrace::CountVerdict(SubjoinTrace::Verdict verdict) const {
  size_t n = 0;
  for (const SubjoinTrace& subjoin : subjoins) {
    if (subjoin.verdict == verdict) ++n;
  }
  return n;
}

std::string QueryTrace::ToText() const {
  std::ostringstream out;
  out << "EXPLAIN AGGREGATE\n";
  out << "  statement: " << statement << "\n";
  out << "  strategy: " << strategy << "  pushdown: "
      << (use_pushdown ? "on" : "off") << "\n";
  out << "  snapshot tid: " << snapshot_tid << "\n";
  out << "  cache: " << cache_outcome << "\n";
  if (!memo_verdict.empty()) {
    out << "  delta memo: " << memo_verdict;
    if (!memo_reason.empty()) out << " (" << memo_reason << ")";
    for (size_t i = 0; i < memo_prefixes.size(); ++i) {
      out << (i == 0 ? ", prefix " : ", ") << memo_prefixes[i].first << " "
          << memo_prefixes[i].second << " rows";
    }
    out << "\n";
  }
  out << StrFormat(
      "  phases: build %.3f ms, main-comp %.3f ms, delta-comp %.3f ms, "
      "total %.3f ms\n",
      build_ms, main_comp_ms, delta_comp_ms, total_ms);
  out << "  governance: admission-wait " << admission_wait_us
      << " us, mem-peak " << mem_peak_bytes << " B";
  if (!abort_cause.empty()) out << ", abort: " << abort_cause;
  out << "\n";
  if (perf_available) {
    out << StrFormat(
        "  perf: %llu cycles, %llu instr (ipc %.2f), %llu llc-miss, "
        "%llu branch-miss, task-clock %.3f ms\n",
        static_cast<unsigned long long>(perf_total.cycles),
        static_cast<unsigned long long>(perf_total.instructions),
        perf_total.Ipc(),
        static_cast<unsigned long long>(perf_total.llc_misses),
        static_cast<unsigned long long>(perf_total.branch_misses),
        static_cast<double>(perf_total.task_clock_ns) / 1e6);
    for (const PhasePerf& phase : perf_phases) {
      out << StrFormat(
          "    [%s] %llu cycles, %llu instr (ipc %.2f), %llu llc-miss\n",
          phase.phase, static_cast<unsigned long long>(phase.delta.cycles),
          static_cast<unsigned long long>(phase.delta.instructions),
          phase.delta.Ipc(),
          static_cast<unsigned long long>(phase.delta.llc_misses));
    }
  }
  out << "  subjoins: " << subjoins.size() << " considered = "
      << CountVerdict(SubjoinTrace::Verdict::kExecuted) << " executed + "
      << CountVerdict(SubjoinTrace::Verdict::kPushdown) << " pushdown + "
      << CountVerdict(SubjoinTrace::Verdict::kPruned) << " pruned\n";
  for (const SubjoinTrace& subjoin : subjoins) {
    out << "    [" << subjoin.phase << "] " << subjoin.combination << " "
        << VerdictToString(subjoin.verdict);
    if (!subjoin.prune_reason.empty()) {
      out << " (" << subjoin.prune_reason << ")";
    }
    out << "\n";
    if (!subjoin.tid_ranges.empty()) {
      std::vector<std::string> parts;
      parts.reserve(subjoin.tid_ranges.size());
      for (const SubjoinTrace::TidRange& range : subjoin.tid_ranges) {
        parts.push_back(RenderTidRange(range));
      }
      out << "        " << StrJoin(parts, "  ") << "\n";
    }
    for (const std::string& filter : subjoin.pushdown_filters) {
      out << "        pushdown: " << filter << "\n";
    }
  }
  return out.str();
}

std::string QueryTrace::ToJson() const {
  std::ostringstream out;
  out << "{\"statement\":\"" << JsonEscape(statement) << "\""
      << ",\"strategy\":\"" << JsonEscape(strategy) << "\""
      << ",\"pushdown\":" << (use_pushdown ? "true" : "false")
      << ",\"snapshot_tid\":" << snapshot_tid << ",\"cache\":\""
      << JsonEscape(cache_outcome) << "\"";
  if (!memo_verdict.empty()) {
    out << ",\"delta_memo\":{\"verdict\":\"" << JsonEscape(memo_verdict)
        << "\",\"reason\":\"" << JsonEscape(memo_reason)
        << "\",\"prefix_rows\":{";
    for (size_t i = 0; i < memo_prefixes.size(); ++i) {
      if (i > 0) out << ",";
      out << "\"" << JsonEscape(memo_prefixes[i].first)
          << "\":" << memo_prefixes[i].second;
    }
    out << "}}";
  }
  out << StrFormat(
      ",\"phases\":{\"build_ms\":%.3f,\"main_comp_ms\":%.3f,"
      "\"delta_comp_ms\":%.3f,\"total_ms\":%.3f}",
      build_ms, main_comp_ms, delta_comp_ms, total_ms);
  out << ",\"governance\":{\"admission_wait_us\":" << admission_wait_us
      << ",\"mem_peak_bytes\":" << mem_peak_bytes << ",\"abort\":\""
      << JsonEscape(abort_cause) << "\"}";
  // Counter fields appear only when the host could read them, so traces
  // from perf-denied environments carry no misleading zeros.
  if (perf_available) {
    auto render_delta = [&out](const PerfDelta& delta) {
      out << StrFormat(
          "{\"cycles\":%llu,\"instructions\":%llu,\"ipc\":%.2f,"
          "\"llc_misses\":%llu,\"branch_misses\":%llu,"
          "\"task_clock_ns\":%llu}",
          static_cast<unsigned long long>(delta.cycles),
          static_cast<unsigned long long>(delta.instructions), delta.Ipc(),
          static_cast<unsigned long long>(delta.llc_misses),
          static_cast<unsigned long long>(delta.branch_misses),
          static_cast<unsigned long long>(delta.task_clock_ns));
    };
    out << ",\"perf\":{\"total\":";
    render_delta(perf_total);
    out << ",\"phases\":[";
    for (size_t i = 0; i < perf_phases.size(); ++i) {
      if (i > 0) out << ",";
      out << "{\"phase\":\"" << perf_phases[i].phase << "\",\"delta\":";
      render_delta(perf_phases[i].delta);
      out << "}";
    }
    out << "]}";
  }
  out << ",\"subjoins\":[";
  for (size_t i = 0; i < subjoins.size(); ++i) {
    const SubjoinTrace& subjoin = subjoins[i];
    if (i > 0) out << ",";
    out << "{\"phase\":\"" << JsonEscape(subjoin.phase) << "\""
        << ",\"combination\":\"" << JsonEscape(subjoin.combination) << "\""
        << ",\"verdict\":\"" << VerdictToString(subjoin.verdict) << "\""
        << ",\"reason\":\"" << JsonEscape(subjoin.prune_reason) << "\""
        << ",\"tid_ranges\":[";
    for (size_t t = 0; t < subjoin.tid_ranges.size(); ++t) {
      const SubjoinTrace::TidRange& range = subjoin.tid_ranges[t];
      if (t > 0) out << ",";
      out << "{\"column\":\"" << JsonEscape(range.column) << "\""
          << ",\"empty\":" << (range.empty ? "true" : "false");
      if (!range.empty) {
        out << ",\"min\":" << range.min << ",\"max\":" << range.max;
      }
      out << "}";
    }
    out << "],\"pushdown_filters\":[";
    for (size_t f = 0; f < subjoin.pushdown_filters.size(); ++f) {
      if (f > 0) out << ",";
      out << "\"" << JsonEscape(subjoin.pushdown_filters[f]) << "\"";
    }
    out << "]}";
  }
  out << "]}";
  return out.str();
}

TraceContext::TraceContext(QueryTrace* trace) : prev_(t_current_trace) {
  t_current_trace = trace;
}

TraceContext::~TraceContext() { t_current_trace = prev_; }

QueryTrace* TraceContext::Current() { return t_current_trace; }

}  // namespace aggcache
