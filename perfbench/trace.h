#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Spans recorded by the benchmark around each public call it makes into the
// engine. They stay in memory and are written out once, at exit, so tracing
// adds no I/O to the measured loop. A traced run is separate from the timed
// run: end-to-end metrics always come from an untraced run.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Public calls the benchmark makes, one span name each. The prefix is the
/// engine module the call enters.
enum class Call : uint8_t {
  kOpRead,          // client: one cached read (parse + begin + execute)
  kOpAdhoc,         // client: one uncached ad-hoc read
  kOpWrite,         // client: one business-object write scope
  kOpUpdate,        // client: one header update
  kParse,           // sql: ParseStatement
  kBegin,           // txn: Database::Begin
  kBeginAtomic,     // txn: Database::BeginAtomic
  kScopeCommit,     // txn: ~ScopedTransaction (scope end, WAL commit)
  kExecute,         // cache: AggregateCacheManager::Execute
  kPrewarm,         // cache: AggregateCacheManager::Prewarm
  kInsert,          // storage: Table::Insert
  kUpdate,          // storage: Table::UpdateColumnByPk
  kMerge,           // storage: Database::MergeTables
  kCheckpoint,      // storage: DurabilityManager::Checkpoint
  kSync,            // storage: DurabilityManager::Sync
  kRecover,         // storage: DurabilityManager::Open on an existing dir
  kCount,
};

inline const char* CallName(Call call) {
  static const char* const kNames[] = {
      "op.read",       "op.adhoc",     "op.write",        "op.update",
      "sql.parse",     "txn.begin",    "txn.begin_atomic", "txn.scope_commit",
      "cache.execute", "cache.prewarm", "storage.insert",  "storage.update",
      "storage.merge", "storage.checkpoint", "storage.sync",
      "storage.recover"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<size_t>(Call::kCount));
  return kNames[static_cast<size_t>(call)];
}

/// What a span's operation was: lets per-layer metrics separate, e.g., the
/// first read after a write from later reads of the same entry.
enum class OpTag : uint8_t {
  kNone,
  kRead,
  kReadAfterWrite,
  kAdhoc,
  kWrite,
  kUpdate,
  kMaintenance,  // client-triggered merge / checkpoint / sync / recovery
};

enum class Phase : uint8_t { kSetup, kLoop, kPost };

struct SpanRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t op = 0;      // operation id; spans of one operation share it
  int32_t parent = -1;  // index of the enclosing span, -1 for a root
  Call call = Call::kOpRead;
  OpTag tag = OpTag::kNone;
  Phase phase = Phase::kSetup;
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void Enable(size_t reserve) {
    enabled_ = true;
    spans_.reserve(reserve);
  }

  /// Starts a new operation: later spans carry its id and tag.
  void BeginOp(OpTag tag) {
    ++op_;
    tag_ = tag;
  }
  void SetPhase(Phase phase) { phase_ = phase; }

  int32_t Open(Call call) {
    SpanRecord record;
    record.call = call;
    record.op = op_;
    record.tag = tag_;
    record.phase = phase_;
    record.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(record);
    int32_t index = static_cast<int32_t>(spans_.size() - 1);
    open_.push_back(index);
    spans_[index].start_ns = NowNs();
    return index;
  }
  void Close(int32_t index) {
    spans_[index].end_ns = NowNs();
    open_.pop_back();
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Writes every span as one tab-separated line:
  /// index, name, op, parent, phase, tag, start_ns, end_ns.
  bool WriteTsv(const std::string& path) const {
    FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "index\tname\top\tparent\tphase\ttag\tstart_ns\tend_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(out, "%zu\t%s\t%llu\t%d\t%d\t%d\t%lld\t%lld\n", i,
                   CallName(s.call), static_cast<unsigned long long>(s.op),
                   s.parent, static_cast<int>(s.phase),
                   static_cast<int>(s.tag), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(out) == 0;
  }

 private:
  bool enabled_ = false;
  uint64_t op_ = 0;
  OpTag tag_ = OpTag::kNone;
  Phase phase_ = Phase::kSetup;
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> open_;
};

/// The process's tracer; the benchmark is single-threaded.
inline Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

/// Runs `fn`, wrapped in a span named `call` when tracing is on.
template <typename Fn>
decltype(auto) Traced(Call call, Fn&& fn) {
  Tracer& tracer = GlobalTracer();
  if (!tracer.enabled()) return std::forward<Fn>(fn)();
  int32_t span = tracer.Open(call);
  if constexpr (std::is_void_v<decltype(fn())>) {
    std::forward<Fn>(fn)();
    tracer.Close(span);
  } else {
    decltype(auto) result = std::forward<Fn>(fn)();
    tracer.Close(span);
    return result;
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
