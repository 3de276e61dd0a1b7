#include "storage/merge_daemon.h"

#include <algorithm>
#include <cstdlib>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/engine_metrics.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "runtime/memory_tracker.h"
#include "storage/database.h"
#include "storage/recovery.h"

namespace aggcache {

MergeDaemon::MergeDaemon(Database& db, MergeDaemonOptions options)
    : db_(db), options_(options) {}

MergeDaemon::~MergeDaemon() { Stop(); }

void MergeDaemon::Start() {
  AGGCACHE_CHECK(!db_.restoring())
      << "merge daemon started while recovery is replaying the WAL";
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  stop_requested_ = false;
  running_ = true;
  thread_ = std::thread([this] { Loop(); });
}

void MergeDaemon::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

void MergeDaemon::Pause() {
  // Synchronous: once Pause returns, no merge is in flight — callers
  // (quiesce barriers) may then read storage without table locks.
  std::unique_lock<std::mutex> lock(mu_);
  paused_ = true;
  cv_.wait(lock, [this] { return !merging_; });
}

void MergeDaemon::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
    nudged_ = true;
  }
  cv_.notify_all();
}

void MergeDaemon::Nudge() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    nudged_ = true;
  }
  cv_.notify_all();
}

bool MergeDaemon::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

bool MergeDaemon::paused() const {
  std::lock_guard<std::mutex> lock(mu_);
  return paused_;
}

MergeDaemonStats MergeDaemon::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void MergeDaemon::SetDurability(DurabilityManager* durability) {
  std::lock_guard<std::mutex> lock(mu_);
  AGGCACHE_CHECK(!running_) << "set durability before starting the daemon";
  durability_ = durability;
}

bool MergeDaemon::InterruptibleSleep(std::chrono::milliseconds delay) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, delay, [this] { return stop_requested_ || nudged_; });
  nudged_ = false;
  return !stop_requested_;
}

void MergeDaemon::MergeGroupWithRetry(const std::vector<std::string>& tables) {
  const char* group_label = tables.empty() ? "" : tables.front().c_str();
  std::chrono::milliseconds backoff = options_.initial_backoff;
  for (int attempt = 0; attempt <= options_.max_retries_per_tick; ++attempt) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_requested_ || paused_) return;
      ++stats_.merges_attempted;
      EngineMetrics::Get().merge_attempts->Increment();
      merging_ = true;
    }
    RecordFlightEvent(FlightEventType::kMergeStart,
                      static_cast<uint64_t>(attempt), tables.size(),
                      group_label);
    Status merged = [&] {
      BackgroundSpan merge_span(SpanKind::kMerge, group_label);
      return db_.MergeTables(tables, options_.merge_options);
    }();
    RecordFlightEvent(merged.ok() ? FlightEventType::kMergeCommit
                                  : FlightEventType::kMergeAbort,
                      static_cast<uint64_t>(attempt), tables.size(),
                      group_label);
    {
      std::lock_guard<std::mutex> lock(mu_);
      merging_ = false;
      cv_.notify_all();  // Wake a Pause() waiting for the merge to finish.
      if (merged.ok()) {
        ++stats_.merges_succeeded;
        EngineMetrics::Get().merge_commits->Increment();
        return;
      }
      ++stats_.merges_aborted;
      EngineMetrics::Get().merge_aborts->Increment();
      // Aborts are expected under fault injection: observers have already
      // run their OnMergeAborted recovery and the group's storage is
      // untouched, so a backed-off retry is safe.
      if (attempt == options_.max_retries_per_tick) {
        ++stats_.groups_given_up;
        return;  // re-evaluated next tick
      }
    }
    std::chrono::milliseconds delay = backoff;
    backoff = std::min(backoff * 2, options_.max_backoff);
    EngineMetrics::Get().merge_backoff_ms->Increment(
        static_cast<uint64_t>(delay.count()));
    RecordFlightEvent(FlightEventType::kMergeBackoff,
                      static_cast<uint64_t>(delay.count()),
                      static_cast<uint64_t>(attempt), group_label);
    if (!InterruptibleSleep(delay)) return;
  }
}

void MergeDaemon::Loop() {
  while (true) {
    if (!InterruptibleSleep(options_.poll_interval)) break;
    bool skip;
    {
      std::lock_guard<std::mutex> lock(mu_);
      skip = paused_;
      ++stats_.ticks;
      EngineMetrics::Get().merge_ticks->Increment();
    }
    if (skip) continue;
    // Yield to memory pressure: a merge materializes a new main partition
    // alongside the old one, the worst possible moment to allocate. Skip
    // the tick and let eviction/query unwinding free headroom first; the
    // deltas stay mergeable and are picked up by a later tick.
    MemoryTracker& process = MemoryTracker::Process();
    if (process.UnderPressure()) {
      EngineMetrics::Get().merge_pressure_yields->Increment();
      RecordFlightEvent(FlightEventType::kPressureYield,
                        static_cast<uint64_t>(process.used() >> 20),
                        static_cast<uint64_t>(process.limit() >> 20));
      continue;
    }
    for (const std::vector<std::string>& group : db_.DueMergeGroups()) {
      MergeGroupWithRetry(group);
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_requested_) return;
    }
    // Reclaim storage retired by earlier merges whose readers have drained.
    db_.epochs().Collect();
    // Opportunistic checkpoint: merges just shrank the deltas, so the
    // snapshot part of the segment is near its minimum size, and enough
    // WAL may have accumulated to be worth truncating.
    if (durability_ != nullptr &&
        durability_->options().checkpoint_on_merge) {
      durability_->MaybeCheckpoint();
    }
  }
}

MergeDaemonOptions MergeDaemon::OptionsFromEnv(bool* enabled) {
  MergeDaemonOptions options;
  *enabled = true;
  const char* env = std::getenv("AGGCACHE_MERGE_DAEMON");
  if (env == nullptr) return options;
  std::string spec(env);
  if (spec == "off" || spec == "0") {
    *enabled = false;
    return options;
  }
  for (const auto& [key, text] : SplitKeyValueSpec(spec)) {
    long value = std::strtol(text.c_str(), nullptr, 10);
    if (value < 0) continue;
    if (key == "poll_ms") {
      options.poll_interval = std::chrono::milliseconds(value);
    } else if (key == "backoff_ms") {
      options.initial_backoff = std::chrono::milliseconds(value);
    } else if (key == "max_backoff_ms") {
      options.max_backoff = std::chrono::milliseconds(value);
    } else if (key == "retries") {
      options.max_retries_per_tick = static_cast<int>(value);
    }
  }
  return options;
}

}  // namespace aggcache
