// Open-loop load generator over the serving wire protocol
// (serve/net/protocol.h).
//
// One thread runs one epoll loop over at most four non-blocking connections.
// Requests depart on a fixed-interval arrival schedule (a timerfd wakes the
// loop at each due time) and are pipelined: a send never waits for an
// earlier reply, so a slow server builds a queue instead of slowing the
// generator down. Each request's latency is charged from its SCHEDULED
// departure, which counts the wait a stall imposes on every later request
// (no coordinated omission); how late the generator actually sent is kept
// separately as lag.
//
// A `window` caps the requests outstanding at once. A window of 1 turns the
// loop into a send-then-wait generator on one connection: the negative
// control of the generator self-check (selfcheck.h), which must catch it.
// A wider window at a rate far above capacity keeps the server saturated:
// each request goes out as soon as an earlier one is answered. With a
// window, sends stop at the end of the phase.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "serve/net/protocol.h"
#include "util/status.h"

namespace perfbench {

namespace net = widen::serve::net;

/// Supplies the requests of one phase and observes their responses. Called
/// only from the generator thread.
class Traffic {
 public:
  virtual ~Traffic() = default;
  /// Fills request `seq` of the phase; the generator sets id and trace.
  virtual void Make(int64_t seq, net::NetRequest* request) = 0;
  /// Connection index for `request`, or -1 for round robin.
  virtual int Connection(const net::NetRequest& request) const { return -1; }
  /// Sees every decoded response to a scheduled request, in arrival order.
  virtual void OnResponse(int64_t seq, const net::NetRequest& request,
                          const net::NetResponse& response) {}
};

struct Outcome {
  Clock::time_point due;   // scheduled departure
  Clock::time_point sent;  // handed to the socket
  Clock::time_point done;  // response decoded (unset when never answered)
  bool answered = false;
  widen::StatusCode code = widen::StatusCode::kInternal;  // until answered

  bool ok() const { return answered && code == widen::StatusCode::kOk; }
  double LatencyMs() const {
    return std::chrono::duration<double, std::milli>(done - due).count();
  }
  double LagMs() const {
    return std::chrono::duration<double, std::milli>(sent - due).count();
  }
};

struct LoadOptions {
  /// Most requests outstanding at once; 0 = no limit.
  int window = 0;
  /// Extra Health requests on connection 0 at this rate (0 = none).
  double health_probe_hz = 0.0;
  /// Stamp each request's id into the wire trace trailer.
  bool trace_ids = false;
  /// Called from the loop about every 50 ms.
  std::function<void()> on_tick;
};

struct PhaseResult {
  double rate = 0.0;
  double seconds = 0.0;
  Clock::time_point start;
  uint64_t first_id = 0;  // request seq i carries wire id first_id + i
  std::vector<net::NetRequest> requests;  // by seq
  std::vector<Outcome> outcomes;          // by seq
  std::vector<double> health_rtt_us;
  int64_t inflight_max = 0;
  int64_t transport_errors = 0;
};

/// Runs up to `rate * seconds` requests against host:port. Fails only when the
/// connections cannot be opened; later transport errors leave requests
/// unanswered and are counted in the result.
widen::StatusOr<PhaseResult> RunOpenLoop(const std::string& host, int port,
                                         double rate, double seconds,
                                         uint64_t first_id, Traffic& traffic,
                                         const LoadOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
