#ifndef AGGCACHE_OBS_ACTIVE_QUERIES_H_
#define AGGCACHE_OBS_ACTIVE_QUERIES_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace aggcache {

class QueryContext;

/// Process-wide table of the queries running RIGHT NOW: who they are
/// (truncated canonical statement + strategy), where they are (current
/// phase from the span taxonomy), and what they are consuming (elapsed
/// wall time, admission wait, reserved memory, rows scanned) — the live
/// complement to the post-hoc views (EXPLAIN, spans, ledger). Serves
/// GET /queries, the shell's \queries, and remote cancellation via
/// GET /queries/cancel?id=N.
///
/// Concurrency: a fixed array of slots. Registration CAS-claims a slot's
/// `used` flag (lock-free, round-robin hint), then fills the payload under
/// the slot's mutex; List() and Cancel() take the same per-slot mutex for
/// their short copy/cancel, so a reader can never observe a half-written
/// statement and Cancel() can never race the owner's Unregister into a
/// dangling QueryContext — the context pointer is only dereferenced while
/// the slot mutex proves the registration is still live. Owner-side cost
/// is two uncontended lock/unlock pairs per query plus one relaxed store
/// per phase change.
///
/// When every slot is taken the query runs unregistered (introspection
/// degrades; execution never blocks on observability).
class ActiveQueryRegistry {
 public:
  static constexpr size_t kMaxSlots = 256;
  /// Statement text kept per slot; longer statements are truncated with a
  /// trailing ellipsis.
  static constexpr size_t kStatementBytes = 160;

  static ActiveQueryRegistry& Global();

  /// One active query's snapshot, as List() copies it out.
  struct Info {
    uint64_t id = 0;
    std::string statement;
    std::string strategy;
    std::string phase;
    double elapsed_ms = 0.0;
    uint64_t admission_wait_us = 0;
    size_t memory_bytes = 0;
    uint64_t rows_scanned = 0;
    bool aborting = false;  ///< Cancellation/abort already requested.
  };

  /// Registered queries, registration order (oldest first).
  std::vector<Info> List() const;

  /// {"schema":"aggcache-queries-v1","active":N,"queries":[...]}.
  std::string ListJson() const;

  /// Human-readable table for the shell's \queries.
  std::string ListText() const;

  /// Trips query `id`'s cancellation token (typed kCancelled unwind).
  /// False when no such query is registered (already finished, or never
  /// got a slot).
  bool Cancel(uint64_t id);

  size_t active_count() const {
    return active_.load(std::memory_order_relaxed);
  }

 private:
  friend class ActiveQueryGuard;

  struct Slot {
    /// Lock-free claim token; payload below is valid only under mu while
    /// id != 0.
    std::atomic<bool> used{false};
    /// Phase name (static storage duration — span-kind strings). Atomic so
    /// the owner updates it without re-taking the slot mutex.
    std::atomic<const char*> phase{nullptr};
    std::atomic<uint64_t> admission_wait_us{0};
    mutable std::mutex mu;
    uint64_t id = 0;                  // under mu; 0 = claimed but unpublished
    QueryContext* context = nullptr;  // under mu
    int64_t start_ns = 0;             // under mu
    char statement[kStatementBytes] = {};  // under mu
    char strategy[24] = {};                // under mu
  };

  ActiveQueryRegistry() = default;

  /// Claims and fills a slot; returns nullptr when the table is full.
  Slot* Register(const std::string& statement, const char* strategy,
                 QueryContext* context, uint64_t* id_out);
  void Unregister(Slot* slot);

  Slot slots_[kMaxSlots];
  std::atomic<uint64_t> next_id_{0};
  std::atomic<size_t> claim_hint_{0};
  std::atomic<size_t> active_{0};
};

/// RAII registration of one query execution, owned by the cache manager's
/// Execute() frame. Installs itself as the thread-current guard so each
/// Phase deeper in the engine (build, compensation, uncached exec) can
/// report its transition without threading a handle through every
/// signature — the same thread-locality discipline as TraceContext.
class ActiveQueryGuard {
 public:
  /// `strategy` must have static storage duration. `context` must outlive
  /// the guard (it does: both live in the same Execute frame, context
  /// declared first).
  ActiveQueryGuard(const std::string& statement, const char* strategy,
                   QueryContext* context);
  ~ActiveQueryGuard();
  ActiveQueryGuard(const ActiveQueryGuard&) = delete;
  ActiveQueryGuard& operator=(const ActiveQueryGuard&) = delete;

  void SetAdmissionWait(uint64_t wait_us);

  /// Registry id of this query; 0 when the slot table was full.
  uint64_t id() const { return id_; }

  /// The guard installed on this thread (nullptr outside Execute).
  static ActiveQueryGuard* Current();

 private:
  friend class Phase;

  /// Sets the thread-current guard's phase name, if any (`phase` has static
  /// storage duration). One TLS read + one relaxed store.
  static void CurrentSetPhase(const char* phase);

  ActiveQueryRegistry::Slot* slot_ = nullptr;
  uint64_t id_ = 0;
  ActiveQueryGuard* previous_ = nullptr;
};

}  // namespace aggcache

#endif  // AGGCACHE_OBS_ACTIVE_QUERIES_H_
