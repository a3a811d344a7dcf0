#include "serve/request_batcher.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "obs/metrics.h"
#include "obs/stage.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace widen::serve {

namespace T = widen::tensor;

namespace {

struct BatcherMetrics {
  obs::Gauge* queue_depth;
  obs::Histogram* batch_nodes;
  obs::Histogram* linger_us;
  obs::Counter* expired;
  obs::Counter* stale;

  static const BatcherMetrics& Get() {
    static const BatcherMetrics m = {
        obs::MetricsRegistry::Get().GetGauge(
            "widen_serve_batcher_queue_nodes",
            "Nodes currently waiting in the batcher queue"),
        obs::MetricsRegistry::Get().GetHistogram(
            "widen_serve_batcher_batch_nodes",
            "Nodes per batch handed to the session"),
        obs::MetricsRegistry::Get().GetHistogram(
            "widen_serve_batcher_linger_us",
            "Queue wait per request, enqueue to batch formation "
            "(microseconds)"),
        obs::MetricsRegistry::Get().GetCounter(
            "widen_serve_batcher_expired_total",
            "Requests failed with deadline_exceeded at batch formation"),
        obs::MetricsRegistry::Get().GetCounter(
            "widen_serve_batcher_stale_total",
            "Requests failed with failed_precondition because the session "
            "changed between enqueue and batch formation"),
    };
    return m;
  }
};

}  // namespace

RequestBatcher::RequestBatcher(InferenceSession* session,
                               const BatcherOptions& options)
    : RequestBatcher(
          // Non-owning: the fixed-session form documents that `session`
          // outlives the batcher.
          SessionProvider([session] {
            return std::shared_ptr<InferenceSession>(
                std::shared_ptr<InferenceSession>(), session);
          }),
          options) {
  WIDEN_CHECK(session != nullptr);
}

RequestBatcher::RequestBatcher(SessionProvider provider,
                               const BatcherOptions& options)
    : provider_(std::move(provider)), options_(options) {
  WIDEN_CHECK(provider_ != nullptr);
  worker_ = std::thread(&RequestBatcher::WorkerLoop, this);
}

RequestBatcher::~RequestBatcher() { Shutdown(); }

void RequestBatcher::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  // call_once so concurrent Shutdown() callers (destructor racing an
  // explicit drain) serialize on a single join.
  std::call_once(join_once_, [this] { worker_.join(); });
}

void RequestBatcher::Fail(Pending& pending, Status status) {
  if (pending.predict) {
    pending.predict_cb(std::move(status));
  } else {
    pending.embed_cb(std::move(status));
  }
}

std::future<StatusOr<tensor::Tensor>> RequestBatcher::SubmitEmbed(
    std::vector<graph::NodeId> nodes) {
  return SubmitEmbed(std::move(nodes), SubmitOptions());
}

std::future<StatusOr<tensor::Tensor>> RequestBatcher::SubmitEmbed(
    std::vector<graph::NodeId> nodes, const SubmitOptions& options) {
  auto promise = std::make_shared<std::promise<StatusOr<T::Tensor>>>();
  std::future<StatusOr<T::Tensor>> future = promise->get_future();
  SubmitEmbed(std::move(nodes), options,
              [promise](StatusOr<T::Tensor> result) {
                promise->set_value(std::move(result));
              });
  return future;
}

void RequestBatcher::SubmitEmbed(std::vector<graph::NodeId> nodes,
                                 const SubmitOptions& options,
                                 EmbedCallback done) {
  Pending pending;
  pending.nodes = std::move(nodes);
  pending.predict = false;
  pending.deadline = options.deadline;
  pending.context = options.context;
  pending.embed_cb = std::move(done);
  Enqueue(std::move(pending));
}

std::future<StatusOr<std::vector<int32_t>>> RequestBatcher::SubmitPredict(
    std::vector<graph::NodeId> nodes) {
  return SubmitPredict(std::move(nodes), SubmitOptions());
}

std::future<StatusOr<std::vector<int32_t>>> RequestBatcher::SubmitPredict(
    std::vector<graph::NodeId> nodes, const SubmitOptions& options) {
  auto promise =
      std::make_shared<std::promise<StatusOr<std::vector<int32_t>>>>();
  std::future<StatusOr<std::vector<int32_t>>> future = promise->get_future();
  SubmitPredict(std::move(nodes), options,
                [promise](StatusOr<std::vector<int32_t>> result) {
                  promise->set_value(std::move(result));
                });
  return future;
}

void RequestBatcher::SubmitPredict(std::vector<graph::NodeId> nodes,
                                   const SubmitOptions& options,
                                   PredictCallback done) {
  Pending pending;
  pending.nodes = std::move(nodes);
  pending.predict = true;
  pending.deadline = options.deadline;
  pending.context = options.context;
  pending.predict_cb = std::move(done);
  Enqueue(std::move(pending));
}

void RequestBatcher::Enqueue(Pending pending) {
  // Fast-fail validation against the CURRENT session so an obviously bad
  // request never occupies a queue slot. This is a courtesy check only: the
  // authoritative range check reruns at batch-formation time against the
  // session the batch actually runs on (it may have changed by then).
  Status invalid = Status::OK();
  if (pending.nodes.empty()) {
    invalid = Status::InvalidArgument("empty node list");
  } else if (std::shared_ptr<InferenceSession> session = provider_()) {
    const int64_t n = session->num_nodes();
    for (graph::NodeId v : pending.nodes) {
      if (v < 0 || v >= n) {
        invalid = Status::InvalidArgument(
            StrCat("node ", v, " out of range [0, ", n, ")"));
        break;
      }
    }
  } else {
    invalid = Status::Unavailable("no serving session installed");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.requests;
    if (invalid.ok() && !shutting_down_) {
      pending.enqueued_at = std::chrono::steady_clock::now();
      pending_nodes_ += static_cast<int64_t>(pending.nodes.size());
      BatcherMetrics::Get().queue_depth->Set(
          static_cast<double>(pending_nodes_));
      pending_.push_back(std::move(pending));
      work_available_.notify_all();
      return;
    }
    if (invalid.ok()) {
      invalid = Status::FailedPrecondition("batcher is shutting down");
    }
  }
  Fail(pending, std::move(invalid));
}

void RequestBatcher::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_available_.wait(lock,
                         [&] { return shutting_down_ || !pending_.empty(); });
    if (shutting_down_) break;

    // Form the batch against the session it will ACTUALLY run on. Requests
    // validated at enqueue time may be out of range now (hot reload swapped
    // in a session over a smaller graph) — they fail typed, outside the
    // batch, poisoning nothing.
    std::shared_ptr<InferenceSession> session = provider_();
    const int64_t num_nodes = session != nullptr ? session->num_nodes() : 0;
    // The one clock read of batch formation: deadline checks, linger times,
    // the requests' batch_formed_us and the run_batch stage all use it.
    const auto now = std::chrono::steady_clock::now();
    const int64_t formed_ns = obs::ToMonotonicNanos(now);
    std::vector<Pending> batch;
    std::vector<std::pair<Pending, Status>> rejected;
    int64_t batch_nodes = 0;
    while (!pending_.empty()) {
      Pending& front = pending_.front();
      const int64_t next = static_cast<int64_t>(front.nodes.size());
      Status reject = Status::OK();
      if (session == nullptr) {
        reject = Status::Unavailable("no serving session installed");
      } else if (front.deadline <= now) {
        reject = Status::DeadlineExceeded(
            "request deadline expired in the batcher queue");
        ++stats_.expired;
      } else {
        for (graph::NodeId v : front.nodes) {
          if (v < 0 || v >= num_nodes) {
            reject = Status::FailedPrecondition(
                StrCat("node ", v, " out of range [0, ", num_nodes,
                       ") for the session this batch runs on (graph changed "
                       "since enqueue)"));
            ++stats_.stale;
            break;
          }
        }
      }
      if (!reject.ok()) {
        pending_nodes_ -= next;
        rejected.emplace_back(std::move(front), std::move(reject));
        pending_.pop_front();
        continue;
      }
      if (!batch.empty() && batch_nodes + next > kMaxBatchNodes) {
        break;
      }
      batch_nodes += next;
      pending_nodes_ -= next;
      batch.push_back(std::move(front));
      pending_.pop_front();
    }
    const BatcherMetrics& metrics = BatcherMetrics::Get();
    metrics.queue_depth->Set(static_cast<double>(pending_nodes_));
    metrics.expired->Add(static_cast<int64_t>(std::count_if(
        rejected.begin(), rejected.end(), [](const auto& r) {
          return r.second.code() == StatusCode::kDeadlineExceeded;
        })));
    metrics.stale->Add(static_cast<int64_t>(std::count_if(
        rejected.begin(), rejected.end(), [](const auto& r) {
          return r.second.code() == StatusCode::kFailedPrecondition;
        })));
    if (!batch.empty()) {
      ++stats_.batches;
      stats_.batched_nodes += batch_nodes;
      stats_.max_batch = std::max(stats_.max_batch, batch_nodes);
      metrics.batch_nodes->Record(static_cast<double>(batch_nodes));
      if (obs::MetricsEnabled()) {
        for (Pending& p : batch) {
          metrics.linger_us->Record(
              std::chrono::duration<double, std::micro>(now - p.enqueued_at)
                  .count());
          if (p.context != nullptr) {
            p.context->batch_formed_us = formed_ns / 1000;
            p.context->batch_nodes = batch_nodes;
          }
        }
      }
    }

    lock.unlock();
    for (auto& [pending, status] : rejected) {
      Fail(pending, std::move(status));
    }
    if (!batch.empty()) {
      RunBatch(session, std::move(batch), formed_ns);
    }
    if (options_.post_batch_hook_for_test) options_.post_batch_hook_for_test();
    lock.lock();
  }
  // Shutdown: collect anything still queued, then fail it outside the lock
  // so completion callbacks never run under mu_.
  std::vector<Pending> leftovers;
  while (!pending_.empty()) {
    leftovers.push_back(std::move(pending_.front()));
    pending_.pop_front();
  }
  pending_nodes_ = 0;
  lock.unlock();
  for (Pending& pending : leftovers) {
    Fail(pending, Status::FailedPrecondition("batcher is shutting down"));
  }
}

void RequestBatcher::RunBatch(const std::shared_ptr<InferenceSession>& session,
                              std::vector<Pending> batch, int64_t formed_ns) {
  obs::StageScope stage(obs::Stage::kRunBatch, formed_ns);
  std::vector<graph::NodeId> all;
  for (const Pending& p : batch) {
    all.insert(all.end(), p.nodes.begin(), p.nodes.end());
  }
  InferenceSession::EmbedReport report;
  const bool stamp = obs::MetricsEnabled();
  const int64_t encode_start_us = stamp ? obs::MonotonicMicros() : 0;
  StatusOr<T::Tensor> result = [&]() -> StatusOr<T::Tensor> {
    try {
      return session->Embed(all, &report);
    } catch (const std::exception& e) {
      return Status::Internal(StrCat("Embed threw: ", e.what()));
    } catch (...) {
      return Status::Internal("Embed threw a non-exception object");
    }
  }();
  if (stamp) {
    const int64_t encode_us = obs::MonotonicMicros() - encode_start_us;
    // Store behavior is a batch-level fact (rows interleave across the
    // fan-in), so every request in the batch carries the batch's totals.
    for (const Pending& p : batch) {
      if (p.context == nullptr) continue;
      p.context->encode_us = encode_us;
      p.context->store_hits = report.store_hits;
      p.context->cold_encodes = report.cold_encodes;
    }
  }
  if (!result.ok()) {
    for (Pending& p : batch) {
      Fail(p, result.status());
    }
    return;
  }
  const T::Tensor& embeddings = result.value();
  const int64_t d = session->embedding_dim();
  int64_t offset = 0;
  // Exception-safe fan-out: a throw while producing one pending's value
  // (ClassifyRows/ArgMaxRows, allocation) fails THAT pending with a Status
  // and moves on — every Pending in the batch receives a value or a status,
  // never a broken promise.
  for (size_t i = 0; i < batch.size(); ++i) {
    Pending& p = batch[i];
    const int64_t rows = static_cast<int64_t>(p.nodes.size());
    bool delivered = false;
    try {
      if (options_.fan_out_hook_for_test) options_.fan_out_hook_for_test(i);
      T::Tensor slice(T::Shape::Matrix(rows, d));
      std::memcpy(slice.mutable_data(), embeddings.data() + offset * d,
                  static_cast<size_t>(rows * d) * sizeof(float));
      if (p.predict) {
        std::vector<int32_t> labels =
            T::ArgMaxRows(session->ClassifyRows(slice));
        delivered = true;
        p.predict_cb(std::move(labels));
      } else {
        delivered = true;
        p.embed_cb(std::move(slice));
      }
    } catch (const std::exception& e) {
      if (!delivered) {
        Fail(p, Status::Internal(StrCat("batch fan-out failed: ", e.what())));
      }
    } catch (...) {
      if (!delivered) {
        Fail(p, Status::Internal("batch fan-out failed: unknown exception"));
      }
    }
    offset += rows;
  }
}

RequestBatcher::Stats RequestBatcher::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace widen::serve
