#include "obs/event_ring.h"

#include <map>

namespace aggcache {

namespace {

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

// Live-instance registry, keyed address -> instance id. A thread-local
// lease can outlive a stack-allocated ring (tests construct them freely),
// and a successor ring can even reuse the dead one's address, so a release
// must match BOTH before touching the ring; otherwise it is dropped.
// Leaked so leases draining at thread/process exit always find it alive.
std::mutex& LiveRingsMutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

std::map<const void*, uint64_t>& LiveRings() {
  static auto* live = new std::map<const void*, uint64_t>();
  return *live;
}

uint64_t NextInstanceId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

/// A thread's leases, one per ring it records into (a thread typically
/// records into the flight ring and the span ring). Returned through the
/// live-instance registry at thread exit, or when evicted to make room.
struct EventRingCore::ThreadLeases {
  struct Lease {
    EventRingCore* ring = nullptr;
    uint64_t instance_id = 0;
    Segment* segment = nullptr;
  };
  static constexpr size_t kMaxLeases = 4;
  Lease leases[kMaxLeases];
  size_t next_victim = 0;

  ~ThreadLeases() {
    for (Lease& lease : leases) Release(lease);
  }

  static void Release(const Lease& lease) {
    if (lease.ring == nullptr || lease.segment == nullptr) return;
    std::lock_guard<std::mutex> lock(LiveRingsMutex());
    auto it = LiveRings().find(lease.ring);
    if (it != LiveRings().end() && it->second == lease.instance_id) {
      lease.ring->ReleaseSegment(lease.segment);
    }
  }
};

EventRingCore::Segment::Segment(size_t slots, size_t stride,
                                uint32_t thread_id)
    : mask(slots - 1),
      thread_id(thread_id),
      words(new std::atomic<uint64_t>[slots * stride]()) {}

EventRingCore::EventRingCore(size_t slots_per_segment, size_t max_segments,
                             size_t words_per_slot, bool enabled)
    : slots_per_segment_(
          RoundUpPow2(std::max<size_t>(slots_per_segment, 8))),
      max_segments_(std::max<size_t>(max_segments, 1)),
      stride_(words_per_slot),
      instance_id_(NextInstanceId()),
      enabled_(enabled) {
  segments_.reserve(max_segments_);
  std::lock_guard<std::mutex> lock(LiveRingsMutex());
  LiveRings()[this] = instance_id_;
}

EventRingCore::~EventRingCore() {
  std::lock_guard<std::mutex> lock(LiveRingsMutex());
  LiveRings().erase(this);
}

EventRingCore::Segment* EventRingCore::ThreadSegment() {
  thread_local ThreadLeases t_leases;
  for (ThreadLeases::Lease& lease : t_leases.leases) {
    if (lease.instance_id != instance_id_) continue;
    // Starved earlier (every segment was leased); retry, since an exiting
    // thread may have freed one since.
    if (lease.segment == nullptr) lease.segment = LeaseSegment();
    return lease.segment;
  }
  ThreadLeases::Lease& victim =
      t_leases.leases[t_leases.next_victim++ % ThreadLeases::kMaxLeases];
  ThreadLeases::Release(victim);
  victim = {this, instance_id_, LeaseSegment()};
  return victim.segment;
}

EventRingCore::Segment* EventRingCore::LeaseSegment() {
  std::lock_guard<std::mutex> lock(segments_mu_);
  if (!free_segments_.empty()) {
    Segment* segment = free_segments_.back();
    free_segments_.pop_back();
    return segment;
  }
  if (segments_.size() < max_segments_) {
    segments_.push_back(std::make_unique<Segment>(
        slots_per_segment_, stride_, static_cast<uint32_t>(segments_.size())));
    return segments_.back().get();
  }
  return nullptr;
}

void EventRingCore::ReleaseSegment(Segment* segment) {
  std::lock_guard<std::mutex> lock(segments_mu_);
  free_segments_.push_back(segment);
}

size_t EventRingCore::active_segments() const {
  std::lock_guard<std::mutex> lock(segments_mu_);
  return segments_.size() - free_segments_.size();
}

}  // namespace aggcache
