// Per-request trace context threaded through the serving stack
// (DESIGN.md §16).
//
// NetServer creates one RequestContext per Embed/Predict wire request (when
// tracing is on) and hands a raw pointer down through
// RequestBatcher::SubmitOptions; each layer stamps the stage it owns —
// admission on the I/O thread, batch formation under the batcher lock,
// encode around the session call — and the completion path folds the stamps
// into one FlightRecord.
//
// Thread-safety: plain (non-atomic) fields are deliberate. A context passes
// between threads only through the batcher's queue (mutex) and the
// completion callback (happens-after the worker's stamps), so each stamp is
// written by exactly one thread with ordering provided by those handoffs.
// Lifetime: the NetServer completion lambda owns the context via
// shared_ptr; the raw SubmitOptions pointer is valid for the whole request
// because every stamp happens-before that lambda runs.

#ifndef WIDEN_SERVE_REQUEST_CONTEXT_H_
#define WIDEN_SERVE_REQUEST_CONTEXT_H_

#include <cstdint>

namespace widen::serve {

struct RequestContext {
  // Wire identity (0 trace_id when the client sent no trailer — the server
  // still records stage timings for its own flight recorder).
  uint64_t trace_id = 0;
  uint64_t request_id = 0;
  uint8_t trace_flags = 0;
  uint8_t op = 0;  // protocol NetOp

  // Stage stamps, microseconds on the obs::MonotonicMicros axis (the axis of
  // trace events too).
  int64_t admitted_us = 0;      // I/O thread accepted the frame
  int64_t batch_formed_us = 0;  // picked into a batch by the worker
  int64_t encode_us = 0;        // DURATION of the session Embed call
  int64_t replied_us = 0;       // response handed back to the I/O loop

  // What the batch that served this request looked like.
  int64_t batch_nodes = 0;
  int64_t store_hits = 0;
  int64_t cold_encodes = 0;
};

}  // namespace widen::serve

#endif  // WIDEN_SERVE_REQUEST_CONTEXT_H_
