// Micro-batching front end for InferenceSession.
//
// Many client threads submit small Embed/Predict requests; a single worker
// thread batches while busy. Whenever it is free and the queue is not empty,
// it forms a batch at once: it takes queued requests in order, up to
// kMaxBatchNodes nodes, into ONE session->Embed call and fans the result
// rows back out through callbacks or futures. Requests that arrive while a
// batch runs wait in the queue and form the next batch, so under load the
// queue fills batches; there is no timer. Batching changes throughput, never
// bits: cold encodes draw from per-node RNG streams (core::EvalSeedForNode)
// and the classifier head is row-independent, so a batched answer is
// identical to the same request served alone.
//
// Latency contract: a request waits only for the batches ahead of it — the
// one in flight when it arrived and those formed from requests queued before
// it. Queued requests are split between batches only at request boundaries;
// a request larger than kMaxBatchNodes still runs whole, in a batch of its
// own.
//
// Per-request deadlines: SubmitOptions.deadline propagates into the queue.
// Deadlines expire when a batch forms: a request whose deadline has passed
// by then fails with kDeadlineExceeded instead of taking a slot in the
// session call.
//
// Hot reload: construct with a SessionProvider and every batch is formed
// against — and runs on — the session the provider returns AT THAT MOMENT.
// Node ranges are re-validated at batch-formation time; a request that was
// valid at enqueue but out of range for the session the batch will actually
// run on (the graph shrank across a checkpoint reload) fails with a typed
// kFailedPrecondition instead of poisoning the shared batch.

#ifndef WIDEN_SERVE_REQUEST_BATCHER_H_
#define WIDEN_SERVE_REQUEST_BATCHER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/inference_session.h"
#include "serve/request_context.h"

namespace widen::serve {

struct BatcherOptions {
  /// Test-only: runs on the worker thread after each batch completes (outside
  /// the queue lock). Lets tests widen the RunBatch window deterministically
  /// to reproduce worker-busy interleavings.
  std::function<void()> post_batch_hook_for_test;
  /// Test-only: runs inside the fan-out loop before completing the pending at
  /// `index` within its batch; a throw here lands on the same path as a
  /// throwing ClassifyRows/ArgMaxRows.
  std::function<void(size_t index)> fan_out_hook_for_test;
};

class RequestBatcher {
 public:
  /// A batch closes before the request that would take it past this many
  /// nodes (a single larger request still runs whole — requests are never
  /// split).
  static constexpr int64_t kMaxBatchNodes = 32;

  /// Resolves the session each batch runs on. Called at submit time (for
  /// fast-fail validation) and once per batch at formation time. Must be
  /// thread-safe; returning null fails requests with kUnavailable.
  using SessionProvider = std::function<std::shared_ptr<InferenceSession>()>;

  using EmbedCallback = std::function<void(StatusOr<tensor::Tensor>)>;
  using PredictCallback = std::function<void(StatusOr<std::vector<int32_t>>)>;

  struct SubmitOptions {
    /// Absolute deadline; the request fails with kDeadlineExceeded if its
    /// batch has not formed by then. max() = no deadline.
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    /// Optional trace context; when set, the batcher stamps batch formation,
    /// encode duration, and batch composition into it. Must stay
    /// valid until the request's callback runs (NetServer keeps it alive in
    /// the completion lambda); stamps are skipped with metrics disabled.
    RequestContext* context = nullptr;
  };

  /// `session` must outlive the batcher. Fixed-session convenience wrapper
  /// over the provider form.
  explicit RequestBatcher(InferenceSession* session,
                          const BatcherOptions& options = {});
  /// Every batch runs on whatever `provider` returns when the batch forms —
  /// the seam hot checkpoint reload swaps sessions through.
  explicit RequestBatcher(SessionProvider provider,
                          const BatcherOptions& options = {});
  /// Calls Shutdown().
  ~RequestBatcher();

  RequestBatcher(const RequestBatcher&) = delete;
  RequestBatcher& operator=(const RequestBatcher&) = delete;

  /// Stops the worker after its current batch; every still-queued request
  /// fails with kFailedPrecondition, so every future/callback ever issued
  /// resolves. Idempotent and safe to race with concurrent Submits (they
  /// fail fast once shutdown begins).
  void Shutdown();

  /// Embeddings for `nodes`, [nodes.size(), d]. Thread-safe; blocks only in
  /// the returned future.
  std::future<StatusOr<tensor::Tensor>> SubmitEmbed(
      std::vector<graph::NodeId> nodes);
  std::future<StatusOr<tensor::Tensor>> SubmitEmbed(
      std::vector<graph::NodeId> nodes, const SubmitOptions& options);
  /// Callback form: `done` runs exactly once, on the worker thread (or the
  /// calling thread for submit-time failures). It must not call back into
  /// the batcher synchronously.
  void SubmitEmbed(std::vector<graph::NodeId> nodes,
                   const SubmitOptions& options, EmbedCallback done);

  /// Class predictions for `nodes`. Thread-safe.
  std::future<StatusOr<std::vector<int32_t>>> SubmitPredict(
      std::vector<graph::NodeId> nodes);
  std::future<StatusOr<std::vector<int32_t>>> SubmitPredict(
      std::vector<graph::NodeId> nodes, const SubmitOptions& options);
  void SubmitPredict(std::vector<graph::NodeId> nodes,
                     const SubmitOptions& options, PredictCallback done);

  struct Stats {
    int64_t requests = 0;
    int64_t batches = 0;        // session->Embed calls issued
    int64_t batched_nodes = 0;  // total nodes across those calls
    int64_t max_batch = 0;      // largest single batch, in nodes
    int64_t expired = 0;        // failed kDeadlineExceeded at formation
    int64_t stale = 0;          // failed kFailedPrecondition at formation
  };
  Stats stats() const;

 private:
  struct Pending {
    std::vector<graph::NodeId> nodes;
    bool predict = false;
    // When the request entered the queue: its queue wait, enqueue to batch
    // formation, is what the linger-time histogram records.
    std::chrono::steady_clock::time_point enqueued_at;
    std::chrono::steady_clock::time_point deadline;
    RequestContext* context = nullptr;  // optional; see SubmitOptions
    EmbedCallback embed_cb;
    PredictCallback predict_cb;
  };

  void Enqueue(Pending pending);
  void WorkerLoop();
  /// `formed_ns` is the batch's formation stamp (obs::MonotonicNanos axis):
  /// the run_batch stage starts there.
  void RunBatch(const std::shared_ptr<InferenceSession>& session,
                std::vector<Pending> batch, int64_t formed_ns);
  static void Fail(Pending& pending, Status status);

  SessionProvider provider_;
  BatcherOptions options_;

  mutable std::mutex mu_;
  std::condition_variable work_available_;
  std::deque<Pending> pending_;
  int64_t pending_nodes_ = 0;
  bool shutting_down_ = false;
  Stats stats_;

  std::once_flag join_once_;
  std::thread worker_;  // last member: starts in the ctor body
};

}  // namespace widen::serve

#endif  // WIDEN_SERVE_REQUEST_BATCHER_H_
