#ifndef AGGCACHE_STORAGE_WAL_H_
#define AGGCACHE_STORAGE_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <istream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "txn/types.h"

namespace aggcache {

/// Durability policy for the write-ahead log, selected via AGGCACHE_WAL:
///
///   off    no logging at all — restarts recover checkpoints only
///   async  records are written immediately, fdatasync'd by a background
///          flusher (bounded loss on power failure, none on process kill)
///   sync   every statement group-commits: it returns only once its record
///          is fdatasync'd (a leader syncs for all concurrent appenders)
enum class WalSyncPolicy : uint8_t { kOff = 0, kAsync = 1, kSync = 2 };

const char* WalSyncPolicyToString(WalSyncPolicy policy);
StatusOr<WalSyncPolicy> ParseWalSyncPolicy(const std::string& text);

/// Logical record types. The WAL logs *statements* against the delta, not
/// physical pages: replaying them through the normal Table APIs at their
/// original tids reproduces row visibility exactly (DESIGN.md §8). Merges
/// and splits of *data placement* are deliberately not logged — except
/// SplitHotCold, which changes the logical group layout the optimizer sees.
enum class WalRecordType : uint8_t {
  kInsert = 1,
  kUpdate = 2,
  kDelete = 3,
  kScopeBegin = 4,   ///< tid = the atomic write scope's tid; empty payload
  kScopeCommit = 5,  ///< scope ended; replay keeps its records
  kCreateTable = 6,  ///< payload = schema text (snapshot schema format)
  kSplitHotCold = 7,
  kAgingGroup = 8,
  kMergeGroup = 9,
};

const char* WalRecordTypeToString(WalRecordType type);

/// One decoded record.
struct WalRecord {
  uint64_t lsn = 0;
  Tid tid = 0;
  WalRecordType type = WalRecordType::kInsert;
  std::string payload;
};

/// Outcome of scanning a log directory. `clean` is false when the scan
/// stopped early — torn tail, checksum mismatch, or a sequence break
/// (duplicate / out-of-order lsn). Records before the stop point are valid
/// and returned; everything at and after it is discarded, never imported.
struct WalReadResult {
  std::vector<WalRecord> records;
  bool clean = true;
  std::string tail_error;
  /// File containing the stop point and the byte offset of the last valid
  /// record boundary in it; recovery truncates the file there so future
  /// appends extend a provably-clean prefix.
  std::string tail_file;
  uint64_t tail_valid_bytes = 0;
};

/// CRC-32 (IEEE 802.3 polynomial, bit-reflected) over `n` bytes.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

// --- Value text codec --------------------------------------------------------
// Shared by WAL payloads, cache descriptors and the snapshot format. Strings
// are double-quoted with backslash escapes for quote, backslash, newline and
// CR, so a record always fits one line; a number must fill its whole token.

/// Appends `s` quoted and escaped to `out`.
void AppendQuotedString(std::string* out, std::string_view s);
/// Reads one quoted string; the next non-space character must open it.
StatusOr<std::string> ReadQuotedString(std::istream& in);
/// Parses all of `token` as a kInt64 or kDouble value; trailing characters
/// or an empty token are InvalidArgument.
StatusOr<Value> ParseNumberToken(const std::string& token, ColumnType type);

// Self-describing WAL tokens, one whitespace-delimited token per value:
// i<int>, d<%.17g>, n (null), or a quoted string.
std::string EncodeWalValue(const Value& v);
StatusOr<Value> DecodeWalValue(std::istream& in);

/// Append-only segmented record log with per-record CRC32 framing:
///
///   [magic u32][len u32][lsn u64][tid u64][type u8][payload][crc u32]
///
/// Lsns are strictly sequential (+1); readers treat any break as the end of
/// trustworthy history. Segment files are named wal-<first lsn>.log; a
/// checkpoint rotates to a fresh segment and deletes segments that lie
/// entirely below the retention boundary.
///
/// Thread-safe. Appends serialize on an internal mutex; under the kSync
/// policy concurrent appenders group-commit (one leader fdatasyncs, the
/// rest wait for durable_lsn to cover their record).
class WriteAheadLog {
 public:
  struct Options {
    WalSyncPolicy policy = WalSyncPolicy::kSync;
    /// Background flusher period under kAsync.
    int async_interval_ms = 5;
  };

  /// Opens a new active segment starting at `next_lsn` in `dir` (which must
  /// exist). Pre-existing segments are left in place for readers.
  static StatusOr<std::unique_ptr<WriteAheadLog>> Open(const std::string& dir,
                                                       const Options& options,
                                                       uint64_t next_lsn);
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Appends one record and applies the sync policy. Consults the
  /// FaultInjector crash points "wal.append" (record lost entirely),
  /// "wal.append.torn" (half a record hits the disk) and "wal.sync"
  /// (simulated kill after the write reached the OS but before the ack).
  /// After any crash point fires the log is dead: every later call returns
  /// an error, so no statement can claim durability it does not have.
  Status Append(WalRecordType type, Tid tid, const std::string& payload);

  /// Forces everything appended so far durable (no-op for kOff).
  Status Sync();

  /// Lsn the next Append will use.
  uint64_t next_lsn() const {
    return next_lsn_.load(std::memory_order_relaxed);
  }
  /// Lsn of the last record written (next_lsn - 1); 0 when none yet.
  uint64_t last_appended_lsn() const { return next_lsn() - 1; }

  /// Bytes appended since the last rotation — the checkpoint trigger.
  uint64_t bytes_since_rotate() const {
    return bytes_since_rotate_.load(std::memory_order_relaxed);
  }

  WalSyncPolicy policy() const { return options_.policy; }

  /// Starts a fresh segment and deletes whole segments whose records all
  /// lie strictly below `keep_from_lsn`. Called after a checkpoint
  /// publishes; the boundary is the *older* retained checkpoint's lsn so a
  /// corrupt newest checkpoint still leaves a recoverable prefix.
  Status RotateAndTruncate(uint64_t keep_from_lsn);

  /// Simulates a process kill: closes the file descriptor without a final
  /// sync and poisons the log. Everything already write(2)-ten survives (in
  /// this harness the OS outlives the "process"); buffered user-space state
  /// does not exist by construction.
  void SimulateCrash();

  /// Scans every wal-*.log in `dir` in lsn order, validating framing, CRCs
  /// and lsn continuity. Never fails hard on a bad tail — it reports the
  /// valid prefix (see WalReadResult).
  static StatusOr<WalReadResult> ReadDir(const std::string& dir);

  /// Parses the starting lsn out of a segment file name; nullopt when the
  /// name is not a WAL segment.
  static std::optional<uint64_t> SegmentStartLsn(const std::string& filename);

 private:
  WriteAheadLog(std::string dir, const Options& options, uint64_t next_lsn);

  Status OpenSegmentLocked(uint64_t start_lsn);
  Status WriteAllLocked(const void* data, size_t n);
  /// Marks the log dead; subsequent appends/syncs fail.
  void Poison(const std::string& why);
  /// fdatasyncs up to the given written lsn and publishes durable_lsn_.
  Status SyncWrittenLocked();
  void FlusherLoop();

  const std::string dir_;
  const Options options_;

  mutable std::mutex mu_;  ///< Guards fd_, written/durable lsn, poisoning.
  int fd_ = -1;
  std::string active_path_;
  std::atomic<uint64_t> next_lsn_{1};
  uint64_t written_lsn_ = 0;  ///< Highest lsn fully write(2)-ten.
  uint64_t durable_lsn_ = 0;  ///< Highest lsn known fdatasync'd.
  std::atomic<uint64_t> bytes_since_rotate_{0};
  bool poisoned_ = false;
  std::string poison_reason_;

  /// Group-commit coordination (kSync): one leader syncs, followers wait.
  std::condition_variable sync_cv_;
  bool sync_in_progress_ = false;

  /// Background flusher (kAsync).
  std::thread flusher_;
  bool stop_flusher_ = false;
  std::condition_variable flusher_cv_;
};

}  // namespace aggcache

#endif  // AGGCACHE_STORAGE_WAL_H_
