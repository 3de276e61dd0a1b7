#include "obs/active_queries.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/string_util.h"
#include "obs/engine_metrics.h"
#include "runtime/query_context.h"

namespace aggcache {

namespace {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

thread_local ActiveQueryGuard* tls_guard = nullptr;

/// Copies `src` into the fixed buffer, truncating with "..." when it does
/// not fit. Always NUL-terminates.
void FillTruncated(char* dst, size_t cap, const std::string& src) {
  if (src.size() < cap) {
    std::memcpy(dst, src.data(), src.size());
    dst[src.size()] = '\0';
    return;
  }
  std::memcpy(dst, src.data(), cap - 4);
  std::memcpy(dst + cap - 4, "...", 4);
}

}  // namespace

ActiveQueryRegistry& ActiveQueryRegistry::Global() {
  static ActiveQueryRegistry* registry = new ActiveQueryRegistry();
  return *registry;
}

ActiveQueryRegistry::Slot* ActiveQueryRegistry::Register(
    const std::string& statement, const char* strategy, QueryContext* context,
    uint64_t* id_out) {
  size_t hint = claim_hint_.fetch_add(1, std::memory_order_relaxed);
  for (size_t probe = 0; probe < kMaxSlots; ++probe) {
    Slot& slot = slots_[(hint + probe) % kMaxSlots];
    bool expected = false;
    if (!slot.used.compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel)) {
      continue;
    }
    uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    {
      std::lock_guard<std::mutex> lock(slot.mu);
      slot.id = id;
      slot.context = context;
      slot.start_ns = NowNanos();
      FillTruncated(slot.statement, kStatementBytes, statement);
      FillTruncated(slot.strategy, sizeof(slot.strategy),
                    strategy != nullptr ? strategy : "");
    }
    slot.phase.store("queued", std::memory_order_relaxed);
    slot.admission_wait_us.store(0, std::memory_order_relaxed);
    active_.fetch_add(1, std::memory_order_relaxed);
    EngineMetrics::Get().active_queries->Set(
        static_cast<double>(active_.load(std::memory_order_relaxed)));
    EngineMetrics::Get().query_registrations->Increment();
    *id_out = id;
    return &slot;
  }
  return nullptr;  // Table full: query runs unregistered.
}

void ActiveQueryRegistry::Unregister(Slot* slot) {
  {
    std::lock_guard<std::mutex> lock(slot->mu);
    slot->id = 0;
    slot->context = nullptr;
  }
  slot->phase.store(nullptr, std::memory_order_relaxed);
  slot->used.store(false, std::memory_order_release);
  active_.fetch_sub(1, std::memory_order_relaxed);
  EngineMetrics::Get().active_queries->Set(
      static_cast<double>(active_.load(std::memory_order_relaxed)));
}

std::vector<ActiveQueryRegistry::Info> ActiveQueryRegistry::List() const {
  std::vector<Info> out;
  int64_t now = NowNanos();
  for (const Slot& slot : slots_) {
    if (!slot.used.load(std::memory_order_acquire)) continue;
    Info info;
    {
      std::lock_guard<std::mutex> lock(slot.mu);
      if (slot.id == 0) continue;  // Claimed but not yet (or no longer) live.
      info.id = slot.id;
      info.statement = slot.statement;
      info.strategy = slot.strategy;
      info.elapsed_ms =
          static_cast<double>(now - slot.start_ns) / 1e6;
      if (slot.context != nullptr) {
        // Safe: context stays valid until Unregister, which also takes mu.
        info.memory_bytes = slot.context->memory_used();
        info.rows_scanned = slot.context->rows_scanned();
        info.aborting = slot.context->IsAborted();
      }
    }
    const char* phase = slot.phase.load(std::memory_order_relaxed);
    info.phase = phase != nullptr ? phase : "unknown";
    info.admission_wait_us =
        slot.admission_wait_us.load(std::memory_order_relaxed);
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(),
            [](const Info& a, const Info& b) { return a.id < b.id; });
  return out;
}

std::string ActiveQueryRegistry::ListJson() const {
  std::vector<Info> infos = List();
  std::string out = "{\"schema\":\"aggcache-queries-v1\",\"active\":";
  out += std::to_string(infos.size());
  out += ",\"queries\":[";
  bool first = true;
  for (const Info& info : infos) {
    if (!first) out += ',';
    first = false;
    out += StrFormat(
        "{\"id\":%llu,\"statement\":\"%s\",\"strategy\":\"%s\","
        "\"phase\":\"%s\",\"elapsed_ms\":%.3f,\"admission_wait_us\":%llu,"
        "\"memory_bytes\":%zu,\"rows_scanned\":%llu,\"aborting\":%s}",
        static_cast<unsigned long long>(info.id),
        JsonEscape(info.statement).c_str(), JsonEscape(info.strategy).c_str(),
        JsonEscape(info.phase).c_str(), info.elapsed_ms,
        static_cast<unsigned long long>(info.admission_wait_us),
        info.memory_bytes, static_cast<unsigned long long>(info.rows_scanned),
        info.aborting ? "true" : "false");
  }
  out += "]}";
  return out;
}

std::string ActiveQueryRegistry::ListText() const {
  std::vector<Info> infos = List();
  if (infos.empty()) return "no active queries\n";
  std::string out = StrFormat("%-6s %-20s %-10s %10s %12s %10s  %s\n", "id",
                              "phase", "strategy", "elapsed", "memory",
                              "rows", "statement");
  for (const Info& info : infos) {
    out += StrFormat(
        "%-6llu %-20s %-10s %8.1fms %10zuB %10llu  %s%s\n",
        static_cast<unsigned long long>(info.id), info.phase.c_str(),
        info.strategy.c_str(), info.elapsed_ms, info.memory_bytes,
        static_cast<unsigned long long>(info.rows_scanned),
        info.statement.c_str(), info.aborting ? "  [cancelling]" : "");
  }
  return out;
}

bool ActiveQueryRegistry::Cancel(uint64_t id) {
  if (id == 0) return false;
  for (Slot& slot : slots_) {
    if (!slot.used.load(std::memory_order_acquire)) continue;
    std::lock_guard<std::mutex> lock(slot.mu);
    if (slot.id != id || slot.context == nullptr) continue;
    slot.context->Cancel();
    EngineMetrics::Get().remote_cancellations->Increment();
    return true;
  }
  return false;
}

ActiveQueryGuard::ActiveQueryGuard(const std::string& statement,
                                   const char* strategy,
                                   QueryContext* context) {
  slot_ = ActiveQueryRegistry::Global().Register(statement, strategy, context,
                                                 &id_);
  previous_ = tls_guard;
  tls_guard = this;
}

ActiveQueryGuard::~ActiveQueryGuard() {
  tls_guard = previous_;
  if (slot_ != nullptr) ActiveQueryRegistry::Global().Unregister(slot_);
}

void ActiveQueryGuard::SetAdmissionWait(uint64_t wait_us) {
  if (slot_ != nullptr) {
    slot_->admission_wait_us.store(wait_us, std::memory_order_relaxed);
  }
}

ActiveQueryGuard* ActiveQueryGuard::Current() { return tls_guard; }

void ActiveQueryGuard::CurrentSetPhase(const char* phase) {
  if (tls_guard != nullptr && tls_guard->slot_ != nullptr) {
    tls_guard->slot_->phase.store(phase, std::memory_order_relaxed);
  }
}

}  // namespace aggcache
