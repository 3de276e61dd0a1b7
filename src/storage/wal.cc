#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "obs/engine_metrics.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "verify/fault_injector.h"

namespace aggcache {
namespace {

constexpr uint32_t kRecordMagic = 0x57414C52;  // "WALR"
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 8 + 1;
constexpr size_t kMaxPayloadBytes = 64u << 20;

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
uint32_t GetU32(const unsigned char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}
uint64_t GetU64(const unsigned char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

bool ValidRecordType(uint8_t t) {
  return t >= static_cast<uint8_t>(WalRecordType::kInsert) &&
         t <= static_cast<uint8_t>(WalRecordType::kMergeGroup);
}

/// Builds the on-disk frame for one record.
std::string EncodeFrame(uint64_t lsn, Tid tid, WalRecordType type,
                        const std::string& payload) {
  std::string frame;
  frame.reserve(kHeaderBytes + payload.size() + 4);
  PutU32(&frame, kRecordMagic);
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU64(&frame, lsn);
  PutU64(&frame, static_cast<uint64_t>(tid));
  frame.push_back(static_cast<char>(type));
  frame += payload;
  // CRC over everything after the magic (header fields + payload).
  uint32_t crc = Crc32(frame.data() + 4, frame.size() - 4);
  PutU32(&frame, crc);
  return frame;
}

const uint32_t* Crc32Table() {
  static const uint32_t* table = [] {
    auto* t = new uint32_t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  const uint32_t* table = Crc32Table();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

const char* WalSyncPolicyToString(WalSyncPolicy policy) {
  switch (policy) {
    case WalSyncPolicy::kOff:
      return "off";
    case WalSyncPolicy::kAsync:
      return "async";
    case WalSyncPolicy::kSync:
      return "sync";
  }
  return "unknown";
}

StatusOr<WalSyncPolicy> ParseWalSyncPolicy(const std::string& text) {
  if (text == "off" || text == "0") return WalSyncPolicy::kOff;
  if (text == "async") return WalSyncPolicy::kAsync;
  if (text == "sync" || text == "1") return WalSyncPolicy::kSync;
  return Status::InvalidArgument("AGGCACHE_WAL must be off|async|sync, got '" +
                                 text + "'");
}

const char* WalRecordTypeToString(WalRecordType type) {
  switch (type) {
    case WalRecordType::kInsert:
      return "insert";
    case WalRecordType::kUpdate:
      return "update";
    case WalRecordType::kDelete:
      return "delete";
    case WalRecordType::kScopeBegin:
      return "scope_begin";
    case WalRecordType::kScopeCommit:
      return "scope_commit";
    case WalRecordType::kCreateTable:
      return "create_table";
    case WalRecordType::kSplitHotCold:
      return "split_hot_cold";
    case WalRecordType::kAgingGroup:
      return "aging_group";
    case WalRecordType::kMergeGroup:
      return "merge_group";
  }
  return "unknown";
}

void AppendQuotedString(std::string* out, std::string_view s) {
  *out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        *out += c;
    }
  }
  *out += '"';
}

StatusOr<std::string> ReadQuotedString(std::istream& in) {
  in >> std::ws;
  if (in.get() != '"') {
    return Status::InvalidArgument("expected a quoted string");
  }
  std::string out;
  int c;
  while ((c = in.get()) != EOF) {
    if (c == '"') return out;
    if (c != '\\') {
      out += static_cast<char>(c);
      continue;
    }
    switch (in.get()) {
      case '"':
        out += '"';
        break;
      case '\\':
        out += '\\';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      default:
        return Status::InvalidArgument("bad escape in quoted string");
    }
  }
  return Status::InvalidArgument("unterminated quoted string");
}

StatusOr<Value> ParseNumberToken(const std::string& token, ColumnType type) {
  const char* begin = token.c_str();
  char* end = nullptr;
  Value value =
      type == ColumnType::kInt64
          ? Value(static_cast<int64_t>(std::strtoll(begin, &end, 10)))
          : Value(std::strtod(begin, &end));
  if (end == begin || *end != '\0') {
    return Status::InvalidArgument(StrFormat("malformed %s value '%s'",
                                             ColumnTypeToString(type),
                                             token.c_str()));
  }
  return value;
}

std::string EncodeWalValue(const Value& v) {
  if (v.is_null()) return "n";
  if (v.is_int64()) {
    return StrFormat("i%lld", static_cast<long long>(v.AsInt64()));
  }
  if (v.is_double()) return StrFormat("d%.17g", v.AsDouble());
  std::string out;
  AppendQuotedString(&out, v.AsString());
  return out;
}

StatusOr<Value> DecodeWalValue(std::istream& in) {
  in >> std::ws;
  int first = in.peek();
  if (first == EOF) return Status::InvalidArgument("missing WAL value token");
  if (first == '"') {
    ASSIGN_OR_RETURN(std::string s, ReadQuotedString(in));
    return Value(std::move(s));
  }
  std::string token;
  if (!(in >> token) || token.empty()) {
    return Status::InvalidArgument("missing WAL value token");
  }
  if (token == "n") return Value();
  if (token[0] == 'i') {
    return ParseNumberToken(token.substr(1), ColumnType::kInt64);
  }
  if (token[0] == 'd') {
    return ParseNumberToken(token.substr(1), ColumnType::kDouble);
  }
  return Status::InvalidArgument("unknown WAL value token '" + token + "'");
}

// --- WriteAheadLog ----------------------------------------------------------

WriteAheadLog::WriteAheadLog(std::string dir, const Options& options,
                             uint64_t next_lsn)
    : dir_(std::move(dir)), options_(options), next_lsn_(next_lsn) {}

StatusOr<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& dir, const Options& options, uint64_t next_lsn) {
  if (next_lsn == 0) {
    return Status::InvalidArgument("WAL lsns start at 1");
  }
  auto wal = std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(dir, options, next_lsn));
  if (options.policy != WalSyncPolicy::kOff) {
    std::lock_guard<std::mutex> lock(wal->mu_);
    RETURN_IF_ERROR(wal->OpenSegmentLocked(next_lsn));
    if (options.policy == WalSyncPolicy::kAsync) {
      wal->flusher_ = std::thread([w = wal.get()] { w->FlusherLoop(); });
    }
  }
  return wal;
}

WriteAheadLog::~WriteAheadLog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_flusher_ = true;
  }
  flusher_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    if (!poisoned_) {
      ::fdatasync(fd_);
    }
    ::close(fd_);
    fd_ = -1;
  }
}

Status WriteAheadLog::OpenSegmentLocked(uint64_t start_lsn) {
  if (fd_ >= 0) {
    ::fdatasync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
  std::string path =
      dir_ + "/" +
      StrFormat("wal-%020llu.log", static_cast<unsigned long long>(start_lsn));
  int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd < 0) {
    return Status::Internal(StrFormat("open('%s') failed: %s", path.c_str(),
                                      std::strerror(errno)));
  }
  fd_ = fd;
  active_path_ = path;
  bytes_since_rotate_.store(0, std::memory_order_relaxed);
  return Status::Ok();
}

Status WriteAheadLog::WriteAllLocked(const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    ssize_t written = ::write(fd_, p, n);
    if (written < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(StrFormat("WAL write failed: %s",
                                        std::strerror(errno)));
    }
    p += written;
    n -= static_cast<size_t>(written);
  }
  return Status::Ok();
}

void WriteAheadLog::Poison(const std::string& why) {
  poisoned_ = true;
  if (poison_reason_.empty()) poison_reason_ = why;
  sync_cv_.notify_all();
}

Status WriteAheadLog::SyncWrittenLocked() {
  if (fd_ < 0) return Status::Ok();
  uint64_t target = written_lsn_;
  if (durable_lsn_ >= target) return Status::Ok();
  Stopwatch watch;
  BackgroundSpan sync_span(SpanKind::kWalSync);
  if (::fdatasync(fd_) != 0) {
    Poison(StrFormat("fdatasync failed: %s", std::strerror(errno)));
    return Status::Internal(poison_reason_);
  }
  durable_lsn_ = target;
  EngineMetrics::Get().wal_syncs->Increment();
  EngineMetrics::Get().wal_sync_us->Observe(
      static_cast<uint64_t>(watch.ElapsedMillis() * 1000.0));
  return Status::Ok();
}

Status WriteAheadLog::Append(WalRecordType type, Tid tid,
                             const std::string& payload) {
  if (options_.policy == WalSyncPolicy::kOff) return Status::Ok();
  if (payload.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument("WAL payload too large");
  }
  FaultInjector& injector = FaultInjector::Global();
  // Crash point: the process dies before the record reaches the file. The
  // statement's effect is lost on disk, so it must report failure.
  Status crash = injector.MaybeFail("wal.append");
  if (!crash.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    Poison("simulated crash at wal.append");
    return crash;
  }
  // Crash point: the process dies mid-write, leaving a torn record for the
  // recovery scan to stop at.
  Status torn = injector.MaybeFail("wal.append.torn");

  uint64_t lsn;
  size_t frame_bytes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (poisoned_) {
      return Status::FailedPrecondition("WAL is dead: " + poison_reason_);
    }
    lsn = next_lsn_.load(std::memory_order_relaxed);
    std::string frame = EncodeFrame(lsn, tid, type, payload);
    if (!torn.ok()) {
      // Write only the first half of the frame, then die.
      size_t half = frame.size() / 2;
      (void)WriteAllLocked(frame.data(), half);
      Poison("simulated crash at wal.append.torn");
      return torn;
    }
    Status written = WriteAllLocked(frame.data(), frame.size());
    if (!written.ok()) {
      Poison(std::string(written.message()));
      return written;
    }
    next_lsn_.store(lsn + 1, std::memory_order_relaxed);
    written_lsn_ = lsn;
    frame_bytes = frame.size();
    bytes_since_rotate_.fetch_add(frame_bytes, std::memory_order_relaxed);
  }
  const EngineMetrics& m = EngineMetrics::Get();
  m.wal_appends->Increment();
  m.wal_bytes->Increment(frame_bytes);
  RecordFlightEvent(FlightEventType::kWalAppend, lsn, frame_bytes,
                    WalRecordTypeToString(type));

  if (options_.policy == WalSyncPolicy::kAsync) {
    flusher_cv_.notify_one();
    return Status::Ok();
  }

  // kSync: group commit. The first appender to arrive becomes the leader
  // and fdatasyncs everything written so far; later arrivals wait until
  // durable_lsn_ covers their record.
  std::unique_lock<std::mutex> lock(mu_);
  while (durable_lsn_ < lsn && !poisoned_) {
    if (!sync_in_progress_) {
      sync_in_progress_ = true;
      // Crash point: kill after write(2) but before the ack. The bytes are
      // in the OS (and survive a process kill), so the statement is treated
      // as committed — but the engine is dead from here on.
      Status killed = injector.MaybeFail("wal.sync");
      if (!killed.ok()) {
        Poison("simulated crash at wal.sync");
        sync_in_progress_ = false;
        sync_cv_.notify_all();
        return Status::Ok();
      }
      Status synced = SyncWrittenLocked();
      sync_in_progress_ = false;
      sync_cv_.notify_all();
      return synced;
    }
    sync_cv_.wait(lock);
  }
  if (durable_lsn_ >= lsn) return Status::Ok();
  return Status::FailedPrecondition("WAL is dead: " + poison_reason_);
}

Status WriteAheadLog::Sync() {
  if (options_.policy == WalSyncPolicy::kOff) return Status::Ok();
  std::lock_guard<std::mutex> lock(mu_);
  if (poisoned_) {
    return Status::FailedPrecondition("WAL is dead: " + poison_reason_);
  }
  return SyncWrittenLocked();
}

void WriteAheadLog::FlusherLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_flusher_) {
    flusher_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.async_interval_ms));
    if (stop_flusher_ || poisoned_) continue;
    (void)SyncWrittenLocked();
  }
}

Status WriteAheadLog::RotateAndTruncate(uint64_t keep_from_lsn) {
  if (options_.policy == WalSyncPolicy::kOff) return Status::Ok();
  namespace fs = std::filesystem;
  std::lock_guard<std::mutex> lock(mu_);
  if (poisoned_) {
    return Status::FailedPrecondition("WAL is dead: " + poison_reason_);
  }
  RETURN_IF_ERROR(SyncWrittenLocked());
  RETURN_IF_ERROR(OpenSegmentLocked(next_lsn_.load(std::memory_order_relaxed)));

  // Collect (start lsn, path) of every segment, sorted; a segment may be
  // deleted when the *next* segment starts at or below the keep boundary —
  // then all of its records are < keep_from_lsn.
  std::vector<std::pair<uint64_t, fs::path>> segments;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    auto start = SegmentStartLsn(entry.path().filename().string());
    if (start.has_value()) segments.emplace_back(*start, entry.path());
  }
  if (ec) {
    return Status::Internal("WAL dir scan failed: " + ec.message());
  }
  std::sort(segments.begin(), segments.end());
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i + 1].first <= keep_from_lsn &&
        segments[i].second.string() != active_path_) {
      fs::remove(segments[i].second, ec);
    }
  }
  return Status::Ok();
}

void WriteAheadLog::SimulateCrash() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_flusher_ = true;
  }
  flusher_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  std::lock_guard<std::mutex> lock(mu_);
  Poison("simulated crash");
  if (fd_ >= 0) {
    ::close(fd_);  // No final sync: exactly what a SIGKILL leaves behind.
    fd_ = -1;
  }
}

std::optional<uint64_t> WriteAheadLog::SegmentStartLsn(
    const std::string& filename) {
  constexpr const char* kPrefix = "wal-";
  constexpr const char* kSuffix = ".log";
  if (filename.size() <= std::strlen(kPrefix) + std::strlen(kSuffix)) {
    return std::nullopt;
  }
  if (filename.rfind(kPrefix, 0) != 0) return std::nullopt;
  if (filename.substr(filename.size() - 4) != kSuffix) return std::nullopt;
  std::string digits =
      filename.substr(std::strlen(kPrefix),
                      filename.size() - std::strlen(kPrefix) - 4);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  return std::strtoull(digits.c_str(), nullptr, 10);
}

StatusOr<WalReadResult> WriteAheadLog::ReadDir(const std::string& dir) {
  namespace fs = std::filesystem;
  WalReadResult result;
  std::vector<std::pair<uint64_t, fs::path>> segments;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return result;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    auto start = SegmentStartLsn(entry.path().filename().string());
    if (start.has_value()) segments.emplace_back(*start, entry.path());
  }
  if (ec) {
    return Status::Internal("WAL dir scan failed: " + ec.message());
  }
  std::sort(segments.begin(), segments.end());

  uint64_t expected_lsn = 0;  // 0 = not yet pinned by the first record.
  for (const auto& [start_lsn, path] : segments) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      result.clean = false;
      result.tail_error = "cannot open " + path.string();
      result.tail_file = path.string();
      result.tail_valid_bytes = 0;
      return result;
    }
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    size_t offset = 0;
    auto stop = [&](const std::string& why) {
      result.clean = false;
      result.tail_error =
          StrFormat("%s at %s+%zu", why.c_str(),
                    path.filename().string().c_str(), offset);
      result.tail_file = path.string();
      result.tail_valid_bytes = offset;
    };
    while (offset < contents.size()) {
      const auto* base =
          reinterpret_cast<const unsigned char*>(contents.data()) + offset;
      size_t remaining = contents.size() - offset;
      if (remaining < kHeaderBytes) {
        stop("torn record header");
        return result;
      }
      uint32_t magic = GetU32(base);
      if (magic != kRecordMagic) {
        stop("bad record magic");
        return result;
      }
      uint32_t len = GetU32(base + 4);
      uint64_t lsn = GetU64(base + 8);
      uint64_t tid = GetU64(base + 16);
      uint8_t type = base[24];
      if (len > kMaxPayloadBytes) {
        stop("implausible record length");
        return result;
      }
      size_t frame = kHeaderBytes + len + 4;
      if (remaining < frame) {
        stop("torn record payload");
        return result;
      }
      uint32_t stored_crc = GetU32(base + kHeaderBytes + len);
      uint32_t actual_crc = Crc32(base + 4, kHeaderBytes - 4 + len);
      if (stored_crc != actual_crc) {
        stop("record checksum mismatch");
        return result;
      }
      if (!ValidRecordType(type)) {
        stop("unknown record type");
        return result;
      }
      if (expected_lsn == 0) {
        if (lsn < start_lsn) {
          stop("record lsn below segment start");
          return result;
        }
        expected_lsn = lsn;
      }
      if (lsn != expected_lsn) {
        stop(lsn < expected_lsn ? "duplicate or out-of-order record lsn"
                                : "gap in record lsns");
        return result;
      }
      WalRecord record;
      record.lsn = lsn;
      record.tid = static_cast<Tid>(tid);
      record.type = static_cast<WalRecordType>(type);
      record.payload.assign(contents, kHeaderBytes + offset, len);
      result.records.push_back(std::move(record));
      ++expected_lsn;
      offset += frame;
      result.tail_file = path.string();
      result.tail_valid_bytes = offset;
    }
  }
  return result;
}

}  // namespace aggcache
