#include "obs/flight_recorder.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <sstream>

#include "obs/metrics.h"
#include "util/logging.h"

namespace widen::obs {

namespace {

constexpr size_t kWordsPerRecord = sizeof(FlightRecord) / sizeof(uint64_t);

// One seqlock slot. seq is odd while the owning thread is mid-write; readers
// that observe an odd or changed seq retry. Payload words are atomics so the
// racy-by-design reads are defined behavior (and TSan-clean).
struct Slot {
  std::atomic<uint32_t> seq{0};
  std::atomic<uint64_t> words[kWordsPerRecord];
};

// Fixed per-thread ring. `head` counts records ever written by this thread;
// the slot for record i is i % kSlotsPerThread. Only the owning thread
// writes; exporters read concurrently through the seqlock protocol.
struct ThreadRing {
  Slot slots[FlightRecorder::kSlotsPerThread];
  std::atomic<uint64_t> head{0};
  int log_thread_id = 0;
};

struct RingRegistry {
  std::mutex mu;
  std::vector<ThreadRing*> rings;  // leaked at exit, like trace.cc's buffers
};

RingRegistry& GetRingRegistry() {
  static RingRegistry* const registry = new RingRegistry();
  return *registry;
}

ThreadRing& GetThreadRing() {
  thread_local ThreadRing* const ring = [] {
    auto* r = new ThreadRing();
    r->log_thread_id = CurrentThreadLogId();
    RingRegistry& reg = GetRingRegistry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.rings.push_back(r);
    return r;
  }();
  return *ring;
}

// Reads one slot's payload consistently, retrying while the writer is
// mid-copy. Returns false for a never-written slot (seq still 0).
bool ReadSlot(const Slot& slot, FlightRecord* out) {
  uint64_t words[kWordsPerRecord];
  for (;;) {
    const uint32_t seq_before = slot.seq.load(std::memory_order_acquire);
    if (seq_before == 0) return false;   // never published
    if (seq_before & 1u) continue;       // writer mid-copy; retry
    for (size_t w = 0; w < kWordsPerRecord; ++w) {
      words[w] = slot.words[w].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) == seq_before) break;
  }
  std::memcpy(out, words, sizeof(FlightRecord));
  return true;
}

void AppendRecordJson(std::ostringstream& out, const FlightRecord& r) {
  char trace_hex[24];
  std::snprintf(trace_hex, sizeof(trace_hex), "%016llx",
                static_cast<unsigned long long>(r.trace_id));
  out << "{\"trace_id\": \"" << trace_hex << "\", \"request_id\": "
      << r.request_id << ", \"op\": " << r.op << ", \"admitted_us\": "
      << r.admitted_us << ", \"queue_us\": " << r.queue_us
      << ", \"encode_us\": " << r.encode_us << ", \"batch_nodes\": "
      << r.batch_nodes << ", \"store_hits\": " << r.store_hits
      << ", \"cold_encodes\": " << r.cold_encodes << ", \"total_us\": "
      << r.total_us() << "}";
}

}  // namespace

FlightRecorder& FlightRecorder::Get() {
  static FlightRecorder* const recorder = new FlightRecorder();
  return *recorder;
}

void FlightRecorder::Record(const FlightRecord& record) {
  if (!MetricsEnabled()) return;
  ThreadRing& ring = GetThreadRing();
  const uint64_t index = ring.head.load(std::memory_order_relaxed);
  Slot& slot = ring.slots[index % kSlotsPerThread];
  uint64_t words[kWordsPerRecord];
  std::memcpy(words, &record, sizeof(FlightRecord));
  // Seqlock write: odd seq marks the slot torn, release publish completes
  // it. The owning thread is the only writer, so plain increments suffice.
  const uint32_t seq = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(seq + 1, std::memory_order_release);
  for (size_t w = 0; w < kWordsPerRecord; ++w) {
    slot.words[w].store(words[w], std::memory_order_relaxed);
  }
  slot.seq.store(seq + 2, std::memory_order_release);
  ring.head.store(index + 1, std::memory_order_release);
}

std::vector<FlightRecord> FlightRecorder::Snapshot() const {
  RingRegistry& reg = GetRingRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<FlightRecord> out;
  for (const ThreadRing* ring : reg.rings) {
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    const uint64_t count = std::min<uint64_t>(head, kSlotsPerThread);
    // Oldest live record first: with head published after its slot, every
    // slot in [head - count, head) has completed at least one write.
    for (uint64_t i = head - count; i < head; ++i) {
      FlightRecord record;
      if (ReadSlot(ring->slots[i % kSlotsPerThread], &record)) {
        out.push_back(record);
      }
    }
  }
  return out;
}

uint64_t FlightRecorder::TotalRecorded() const {
  RingRegistry& reg = GetRingRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  uint64_t total = 0;
  for (const ThreadRing* ring : reg.rings) {
    total += ring->head.load(std::memory_order_relaxed);
  }
  return total;
}

std::string FlightRecorder::DumpJson(size_t n_slowest,
                                     size_t n_recent) const {
  std::vector<FlightRecord> records = Snapshot();
  std::ostringstream out;
  out << "{\"total_recorded\": " << TotalRecorded() << ",\n\"slowest\": [";
  std::vector<const FlightRecord*> by_latency;
  by_latency.reserve(records.size());
  for (const auto& r : records) by_latency.push_back(&r);
  std::sort(by_latency.begin(), by_latency.end(),
            [](const FlightRecord* a, const FlightRecord* b) {
              return a->total_us() > b->total_us();
            });
  for (size_t i = 0; i < by_latency.size() && i < n_slowest; ++i) {
    out << (i == 0 ? "\n" : ",\n");
    AppendRecordJson(out, *by_latency[i]);
  }
  out << "],\n\"recent\": [";
  std::vector<const FlightRecord*> by_time;
  by_time.reserve(records.size());
  for (const auto& r : records) by_time.push_back(&r);
  std::sort(by_time.begin(), by_time.end(),
            [](const FlightRecord* a, const FlightRecord* b) {
              return a->replied_us > b->replied_us;
            });
  for (size_t i = 0; i < by_time.size() && i < n_recent; ++i) {
    out << (i == 0 ? "\n" : ",\n");
    AppendRecordJson(out, *by_time[i]);
  }
  out << "]}\n";
  return out.str();
}

void FlightRecorder::Clear() {
  RingRegistry& reg = GetRingRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (ThreadRing* ring : reg.rings) {
    for (Slot& slot : ring->slots) {
      // seq back to 0 marks the slot never-published for future snapshots.
      slot.seq.store(0, std::memory_order_release);
    }
    ring->head.store(0, std::memory_order_release);
  }
}

}  // namespace widen::obs
