// In-memory flight recorder for served requests (DESIGN.md §16).
//
// The TraceRecorder answers "what did the process do over its lifetime" and
// costs memory proportional to the number of spans; a serving process needs
// the opposite trade: a fixed arena that always holds the *most recent*
// request records and can be dumped while the server keeps running — after
// an SLO violation, on SIGQUIT, or from the admin plane's /tracez endpoint.
//
// Design: each recording thread owns a fixed ring of kSlotsPerThread slots
// (registered process-wide, like trace.cc's thread buffers). A slot is a
// seqlock: a 32-bit sequence number that is odd while the writer is mid-copy
// plus a payload of relaxed atomic words. Record() is wait-free for the
// single writing thread — bump seq to odd, store the payload words, publish
// seq even with release order — and never allocates or takes a lock.
// Snapshot() reads seq (acquire), copies the words, and re-checks seq,
// retrying slots it caught mid-write; a torn record is never observed. This
// protocol is TSan-clean because every payload word is an atomic.
//
// With metrics disabled (SetMetricsEnabled(false)) Record() is one relaxed
// load and a branch, so bench/obs_bench prices the recorder inside the same
// <2% enabled-vs-disabled budget as the metrics registry.

#ifndef WIDEN_OBS_FLIGHT_RECORDER_H_
#define WIDEN_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/stage.h"  // MonotonicMicros, the axis of every stamp below

namespace widen::obs {

/// One served request's life, in microseconds on the obs clock
/// (MonotonicMicros — the same axis as trace events). POD sized to the
/// seqlock payload (8 words).
struct FlightRecord {
  uint64_t trace_id = 0;     // wire trace id (0 when the client sent none)
  uint64_t request_id = 0;   // wire request id
  int64_t admitted_us = 0;   // accepted off the socket
  int64_t replied_us = 0;    // response encoded and handed to the I/O loop
  uint32_t queue_us = 0;     // admission -> picked into a batch
  uint32_t encode_us = 0;    // session Embed/Predict wall time
  uint16_t op = 0;           // protocol MessageType
  uint16_t batch_nodes = 0;  // nodes in the batch that served this request
  uint16_t store_hits = 0;   // store rows reused (saturating)
  uint16_t cold_encodes = 0; // rows encoded from scratch (saturating)
  uint64_t reserved[2] = {0, 0};  // pads the payload to exactly 8 words

  int64_t total_us() const { return replied_us - admitted_us; }
};
static_assert(sizeof(FlightRecord) == 8 * sizeof(uint64_t),
              "FlightRecord must fill the 8-word seqlock payload exactly");

/// Process-wide fixed-arena ring of recent FlightRecords.
class FlightRecorder {
 public:
  /// Slots per recording thread. A slot is a 4-byte sequence number padded
  /// to 8 plus the 64-byte payload, so the arena is 512 * 72 B ≈ 36 KiB per
  /// thread, fixed at first record and never grown.
  static constexpr size_t kSlotsPerThread = 512;

  static FlightRecorder& Get();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Publishes one record into the calling thread's ring, overwriting the
  /// oldest slot once the ring is full. Wait-free, no allocation after the
  /// thread's first call; a no-op (one relaxed load) with metrics disabled.
  void Record(const FlightRecord& record);

  /// Consistent copies of every published record, all threads, oldest first
  /// per thread. Slots caught mid-write are retried, never returned torn.
  std::vector<FlightRecord> Snapshot() const;

  /// Records ever published (monotonic; wrapped slots still count).
  uint64_t TotalRecorded() const;

  /// {"total_recorded": N, "slowest": [...], "recent": [...]} where each
  /// entry carries trace_id (hex), request_id, op, stage timings, and
  /// total_us — the /tracez payload.
  std::string DumpJson(size_t n_slowest, size_t n_recent) const;

  /// Drops all published records (tests). Arenas stay allocated.
  void Clear();

 private:
  FlightRecorder() = default;
};

}  // namespace widen::obs

#endif  // WIDEN_OBS_FLIGHT_RECORDER_H_
