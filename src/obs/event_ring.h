#ifndef AGGCACHE_OBS_EVENT_RING_H_
#define AGGCACHE_OBS_EVENT_RING_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

namespace aggcache {

/// The lock-free ring under the flight recorder and the span recorder: a
/// bounded store of fixed-size records, written from any thread without a
/// lock and harvested concurrently by dumpers.
///
/// Every recording thread leases a private segment (a power-of-two ring of
/// slots plus a cursor only that thread advances) on its first Record(),
/// and returns it to the free list at thread exit. A Record() is therefore
/// one global relaxed fetch_add (the cross-thread sequence), one private
/// relaxed fetch_add (slot claim) and relaxed stores: no lock, no
/// allocation, no syscall. Wraparound overwrites a segment's oldest records
/// by design; records are only *lost* (counted) when more threads record
/// at once than there are segments.
///
/// Each slot is a seqlock: word 0 is the record's sequence number (0 while
/// being rewritten), the payload follows. Collect() keeps a slot only if
/// the sequence is nonzero and unchanged across the payload read, so a
/// slot lapped mid-harvest is discarded, never returned torn.
///
/// EventRingCore holds everything that does not depend on the payload
/// width; EventRing<kWords> adds the typed Record/Collect.
class EventRingCore {
 public:
  EventRingCore(const EventRingCore&) = delete;
  EventRingCore& operator=(const EventRingCore&) = delete;

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records published (including ones since overwritten).
  uint64_t recorded() const {
    return next_seq_.load(std::memory_order_relaxed);
  }
  /// Records dropped because every segment was leased by another thread.
  uint64_t lost() const { return lost_.load(std::memory_order_relaxed); }

  /// Number of segments currently leased.
  size_t active_segments() const;

 protected:
  EventRingCore(size_t slots_per_segment, size_t max_segments,
                size_t words_per_slot, bool enabled);
  ~EventRingCore();

  /// A per-thread ring of `mask + 1` slots, each `stride` words wide.
  struct Segment {
    Segment(size_t slots, size_t stride, uint32_t thread_id);
    const size_t mask;
    const uint32_t thread_id;  ///< creation order; the dumps' "thread"
    std::atomic<size_t> cursor{0};
    std::unique_ptr<std::atomic<uint64_t>[]> words;
  };

  /// This thread's segment, leased on first use; nullptr when every
  /// segment is leased by another live thread.
  Segment* ThreadSegment();

  std::atomic<uint64_t> next_seq_{0};
  std::atomic<uint64_t> lost_{0};
  mutable std::mutex segments_mu_;  ///< Lease/release + harvest only.
  std::vector<std::unique_ptr<Segment>> segments_;
  std::vector<Segment*> free_segments_;

 private:
  struct ThreadLeases;

  Segment* LeaseSegment();
  void ReleaseSegment(Segment* segment);

  const size_t slots_per_segment_;
  const size_t max_segments_;
  const size_t stride_;  ///< words per slot: seq + payload
  /// Process-unique, never reused. Thread-local leases key on this rather
  /// than the ring's address: a stack-allocated ring can die and a new one
  /// can reuse the same address within a lease's lifetime.
  const uint64_t instance_id_;
  std::atomic<bool> enabled_;
};

template <size_t kWords>
class EventRing : public EventRingCore {
 public:
  using Payload = std::array<uint64_t, kWords>;

  /// One harvested record, already validated.
  struct Entry {
    uint64_t seq = 0;
    uint32_t thread = 0;
    Payload words{};
  };

  EventRing(size_t slots_per_segment, size_t max_segments, bool enabled)
      : EventRingCore(slots_per_segment, max_segments, kWords + 1, enabled) {}

  /// Publishes one record. The caller checks enabled() first.
  void Record(const Payload& payload) {
    Segment* segment = ThreadSegment();
    if (segment == nullptr) {
      lost_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    size_t index =
        segment->cursor.fetch_add(1, std::memory_order_relaxed) & segment->mask;
    std::atomic<uint64_t>* slot = &segment->words[index * (kWords + 1)];
    // Seqlock write (Boehm, MSPC 2012): unpublish, then a release fence so
    // no payload store below can become visible before the unpublish; the
    // final release store publishes the payload. On x86 both orderings
    // hold for plain stores, so the fence only restrains the compiler.
    slot[0].store(0, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    for (size_t w = 0; w < kWords; ++w) {
      slot[w + 1].store(payload[w], std::memory_order_relaxed);
    }
    slot[0].store(seq, std::memory_order_release);
  }

  /// Harvests up to `max_entries` of the most recent records, oldest first
  /// (global sequence order).
  std::vector<Entry> Collect(size_t max_entries) const {
    std::vector<Entry> entries;
    {
      std::lock_guard<std::mutex> lock(segments_mu_);
      for (const std::unique_ptr<Segment>& segment : segments_) {
        for (size_t i = 0; i <= segment->mask; ++i) {
          const std::atomic<uint64_t>* slot = &segment->words[i * (kWords + 1)];
          Entry entry;
          entry.seq = slot[0].load(std::memory_order_acquire);
          if (entry.seq == 0) continue;
          entry.thread = segment->thread_id;
          for (size_t w = 0; w < kWords; ++w) {
            entry.words[w] = slot[w + 1].load(std::memory_order_relaxed);
          }
          // Seqlock read: the acquire fence keeps the payload loads above
          // the re-check (a plain acquire load would not). On x86 it only
          // restrains the compiler. A writer that lapped the slot changed
          // or zeroed seq; drop the inconsistent snapshot.
          std::atomic_thread_fence(std::memory_order_acquire);
          if (slot[0].load(std::memory_order_relaxed) != entry.seq) continue;
          entries.push_back(entry);
        }
      }
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry& x, const Entry& y) { return x.seq < y.seq; });
    if (entries.size() > max_entries) {
      entries.erase(entries.begin(),
                    entries.end() - static_cast<ptrdiff_t>(max_entries));
    }
    return entries;
  }
};

/// Packs a C string, truncated to `8 * N - 1` bytes and NUL-padded, into
/// payload words; UnpackText reverses it.
template <size_t N>
void PackText(const char* text, uint64_t* words) {
  char buf[8 * N] = {};
  if (text != nullptr) std::strncpy(buf, text, sizeof(buf) - 1);
  std::memcpy(words, buf, sizeof(buf));
}

template <size_t N>
void UnpackText(const uint64_t* words, char (&text)[8 * N]) {
  std::memcpy(text, words, sizeof(text));
  text[sizeof(text) - 1] = '\0';
}

}  // namespace aggcache

#endif  // AGGCACHE_OBS_EVENT_RING_H_
