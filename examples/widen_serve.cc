// widen_serve: turn a trained checkpoint into a query-able embedding service
// (src/serve/) — load frozen weights, grow the graph with deltas, and serve
// batched embedding/prediction requests from concurrent clients.
//
//   ./build/examples/widen_serve                                  # smoke run
//   ./build/examples/widen_serve --smoke [--clients N] [--queries M]
//   ./build/examples/widen_serve embed <graph.txt> <model.ckpt> <out.csv>
//   ./build/examples/widen_serve serve <graph.txt> <model.ckpt> \
//       --listen PORT [--reload]                     # network front-end
//
// The smoke run is self-contained: synthesize a graph, train two epochs,
// write a checkpoint, "kill" the trainer, load the checkpoint into an
// InferenceSession, verify BITWISE parity with the model's own embeddings,
// ingest a graph delta, and hammer the RequestBatcher from N client threads
// while another delta lands mid-flight. CI runs it under ThreadSanitizer.
//
// `embed` serves a graph/checkpoint pair produced by widen_cli without ever
// constructing a model (no labels required): every node's embedding goes to
// a CSV via the session path.
//
// `serve` (and `--smoke --listen PORT`) put the session behind the binary
// wire protocol (serve/net/): an epoll front-end batches Embed/Predict
// across connections, SIGTERM starts a graceful drain (everything admitted
// is answered; clients see the draining flag and wind down), and with
// --reload a SIGHUP or a Reload wire op hot-swaps a freshly loaded
// checkpoint under live traffic. bench/load_bench is the matching client.
//
// Observability: --metrics_out PATH dumps process metrics every second while
// the command runs and once more on exit (Prometheus text at PATH, JSON at
// PATH.json); --trace_out PATH records a Chrome trace of the run;
// --profile_out PATH enables the op-level roofline profiler and writes its
// JSON report on exit. A final summary line reports serve-side Embed p50/p99
// from the live histogram. SIGINT/SIGTERM flush all requested outputs before
// the process dies, so killing a long-running service loses no telemetry.

#include <csignal>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>

#include "core/checkpoint.h"
#include "core/widen_model.h"
#include "datasets/splits.h"
#include "datasets/synthetic.h"
#include "graph/io.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "serve/inference_session.h"
#include "serve/net/server.h"
#include "serve/request_batcher.h"

namespace {

using namespace widen;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Re-exports the metrics registry to `path` once a second until stopped, so a
// scrape of the file sees live queue depth / hit counters while the service
// runs. The final authoritative write happens after the command returns.
class PeriodicMetricsDumper {
 public:
  explicit PeriodicMetricsDumper(std::string path) : path_(std::move(path)) {
    worker_ = std::thread([this] { Loop(); });
  }
  ~PeriodicMetricsDumper() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      if (cv_.wait_for(lock, std::chrono::seconds(1),
                       [this] { return stop_; })) {
        break;
      }
      (void)obs::MetricsRegistry::Get().WriteMetrics(path_);
    }
  }

  const std::string path_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread worker_;
};

// Owns the process's signal policy. SIGINT/SIGTERM/SIGHUP are BLOCKED on
// every thread (the mask set here is inherited by threads spawned later) and
// a dedicated watcher thread sigwait()s for them, so all handling runs
// ordinary, non-async-signal-safe code off any signal handler.
//
// Without a live server, SIGINT/SIGTERM flush the requested observability
// outputs and exit with the conventional 128+signo status (_Exit skips
// atexit on purpose: the atexit exporters would re-write the same files).
//
// With a server installed via SetServer(), the first SIGINT/SIGTERM starts a
// graceful drain instead — main() returns from Join() once everything
// admitted is answered and flushes through the normal exit path — a second
// signal force-flushes and exits. SIGHUP triggers a hot checkpoint reload
// when the server allows one. SIGQUIT dumps the in-flight picture (flight
// recorder + Chrome trace flush) WITHOUT stopping the process — the
// kill -QUIT equivalent of /tracez for when the admin plane is not up.
class SignalWatcher {
 public:
  SignalWatcher(std::string metrics_out, std::string trace_out,
                std::string profile_out) {
    sigemptyset(&set_);
    sigaddset(&set_, SIGINT);
    sigaddset(&set_, SIGTERM);
    sigaddset(&set_, SIGHUP);
    sigaddset(&set_, SIGQUIT);  // live flight-recorder dump, keeps running
    sigaddset(&set_, SIGUSR1);  // shutdown nudge from the destructor
    pthread_sigmask(SIG_BLOCK, &set_, nullptr);
    watcher_ = std::thread([this, metrics_out = std::move(metrics_out),
                            trace_out = std::move(trace_out),
                            profile_out = std::move(profile_out)] {
      while (true) {
        int sig = 0;
        if (sigwait(&set_, &sig) != 0) return;
        if (stopping_.load()) return;
        if (sig == SIGHUP) {
          if (serve::net::NetServer* server = server_.load()) {
            auto generation = server->Reload();
            if (generation.ok()) {
              std::fprintf(stderr, "[SIGHUP] hot reload OK, generation %llu\n",
                           static_cast<unsigned long long>(*generation));
            } else {
              std::fprintf(stderr, "[SIGHUP] hot reload failed: %s\n",
                           generation.status().ToString().c_str());
            }
          }
          continue;
        }
        if (sig == SIGQUIT) {
          std::fprintf(stderr, "[SIGQUIT] flight recorder:\n%s\n",
                       obs::FlightRecorder::Get().DumpJson(16, 16).c_str());
          Status flushed = obs::TraceRecorder::Get().Flush();
          if (!flushed.ok()) {
            std::fprintf(stderr, "[SIGQUIT] trace flush failed: %s\n",
                         flushed.ToString().c_str());
          }
          continue;  // diagnostic only — the service keeps running
        }
        if (sig != SIGINT && sig != SIGTERM) continue;
        const char* name = sig == SIGINT ? "SIGINT" : "SIGTERM";
        if (serve::net::NetServer* server = server_.load()) {
          if (!server->draining()) {
            std::fprintf(stderr,
                         "\n[%s] draining: answering everything admitted, "
                         "refusing new connections (again to force-quit)\n",
                         name);
            server->SignalDrain();
            continue;  // main returns from Join() and flushes normally
          }
          std::fprintf(stderr, "\n[%s] second signal during drain\n", name);
        }
        std::fprintf(stderr, "\n[%s] flushing observability outputs\n", name);
        if (!metrics_out.empty()) {
          (void)obs::MetricsRegistry::Get().WriteMetrics(metrics_out);
        }
        if (!trace_out.empty()) {
          (void)obs::TraceRecorder::Get().WriteChromeJson(trace_out);
        }
        if (!profile_out.empty()) {
          (void)obs::Profiler::Get().WriteReport(profile_out);
          std::fprintf(stderr, "%s",
                       obs::Profiler::Get().FormatTopOps().c_str());
        }
        std::_Exit(128 + sig);
      }
    });
  }

  /// Points signal handling at a live server (nullptr to detach). The server
  /// must outlive its registration.
  void SetServer(serve::net::NetServer* server) { server_.store(server); }

  ~SignalWatcher() {
    stopping_.store(true);
    pthread_kill(watcher_.native_handle(), SIGUSR1);
    watcher_.join();
  }

  SignalWatcher(const SignalWatcher&) = delete;
  SignalWatcher& operator=(const SignalWatcher&) = delete;

 private:
  sigset_t set_;
  std::atomic<bool> stopping_{false};
  std::atomic<serve::net::NetServer*> server_{nullptr};
  std::thread watcher_;
};

void PrintEmbedLatencySummary() {
  obs::Histogram* embed_us = obs::MetricsRegistry::Get().GetHistogram(
      "widen_serve_embed_us",
      "Wall time per InferenceSession::Embed call (microseconds)");
  if (embed_us->TotalCount() == 0) return;
  std::printf("embed latency: p50 %.2f us, p99 %.2f us over %lld calls\n",
              embed_us->Percentile(0.50), embed_us->Percentile(0.99),
              static_cast<long long>(embed_us->TotalCount()));
}

core::WidenConfig SmokeConfig() {
  core::WidenConfig config;
  config.embedding_dim = 16;
  config.num_wide_neighbors = 6;
  config.num_deep_neighbors = 4;
  config.num_deep_walks = 2;
  config.max_epochs = 2;
  config.eval_samples = 2;
  config.num_threads = 1;
  config.seed = 7;
  return config;
}

// Runs `server` until it drains (SIGTERM/SIGINT via `watcher`, or every
// client hung up after a wire-op-initiated drain), then reports front-end
// stats. Blocks for the server's lifetime.
int ServeUntilDrained(serve::net::NetServer* server, SignalWatcher& watcher) {
  std::printf("listening on 127.0.0.1:%d (SIGTERM drains, SIGHUP reloads)\n",
              server->port());
  std::fflush(stdout);  // scripts behind a pipe need the port line NOW
  watcher.SetServer(server);
  server->Join();
  watcher.SetServer(nullptr);
  const auto stats = server->stats();
  std::printf(
      "drained: %lld connections, %lld requests, %lld responses\n"
      "  overload rejections %lld, protocol errors %lld, reloads %lld\n",
      static_cast<long long>(stats.connections_accepted),
      static_cast<long long>(stats.requests),
      static_cast<long long>(stats.responses),
      static_cast<long long>(stats.overload_rejections),
      static_cast<long long>(stats.protocol_errors),
      static_cast<long long>(stats.reloads));
  return 0;
}

using ReloadFn = decltype(serve::net::ServerOptions::reload_fn);

// Puts `session` behind the wire protocol on 127.0.0.1:`port`, with the admin
// plane when `admin_port` >= 0, and serves until drained. An empty
// `reload_fn` disables hot reload.
int ListenAndServe(std::shared_ptr<serve::InferenceSession> session, int port,
                   int admin_port, long slo_ms, ReloadFn reload_fn,
                   SignalWatcher& watcher) {
  serve::net::ServerOptions options;
  options.port = port;
  options.slo_warn_ms = slo_ms;
  options.reload_fn = std::move(reload_fn);
  auto server = serve::net::NetServer::Start(std::move(session), options);
  if (!server.ok()) return Fail(server.status());
  serve::net::AdminPlane admin_plane;
  if (admin_port >= 0) {
    // Without an explicit --slo_ms, judge against 50 ms: generous for
    // in-process smoke traffic, tight enough to mean something.
    auto plane = serve::net::StartAdminPlane(
        server->get(), admin_port,
        static_cast<double>(slo_ms > 0 ? slo_ms : 50) * 1000.0);
    if (!plane.ok()) return Fail(plane.status());
    admin_plane = std::move(*plane);
    std::printf(
        "admin plane on 127.0.0.1:%d (/healthz /metrics /varz /tracez "
        "/profilez)\n",
        admin_plane.server->port());
    std::fflush(stdout);  // scripts grep for the admin port line too
  }
  return ServeUntilDrained(server->get(), watcher);
}

int RunSmoke(int64_t clients, int64_t queries, int listen_port,
             int admin_port, long slo_ms, SignalWatcher& watcher) {
  // 1. Synthesize and train (two epochs — enough to populate the embedding
  //    store the checkpoint carries).
  datasets::SyntheticGraphSpec spec;
  spec.name = "serve_smoke";
  spec.node_types = {{"doc", 90, true}, {"tag", 24, false}};
  spec.edge_types = {{"doc-tag", "doc", "tag", 2.5, 0.9},
                     {"doc-doc", "doc", "doc", 2.0, 0.8}};
  spec.num_classes = 3;
  spec.feature_dim = 16;
  spec.seed = 13;
  auto graph = datasets::GenerateSyntheticGraph(spec);
  if (!graph.ok()) return Fail(graph.status());
  auto split = datasets::MakeTransductiveSplit(*graph, 0.6, 0.2, 3);
  if (!split.ok()) return Fail(split.status());
  const core::WidenConfig config = SmokeConfig();
  const std::string ckpt = "serve_smoke.wdnt";

  std::vector<graph::NodeId> probe = {0, 5, 17, 42};
  tensor::Tensor trained_rows;
  {
    auto model = core::WidenModel::Create(&*graph, config);
    if (!model.ok()) return Fail(model.status());
    auto report = (*model)->Train(split->train);
    if (!report.ok()) return Fail(report.status());
    Status saved = core::SaveTrainingState(**model, ckpt);
    if (!saved.ok()) return Fail(saved);
    trained_rows = (*model)->EmbedNodes(*graph, probe);
    std::printf("trained 2 epochs, checkpoint written to %s\n", ckpt.c_str());
  }  // trainer "killed" — from here on only the file and the graph exist

  // 2. Load the checkpoint into a serving session.
  auto session_or = serve::InferenceSession::Load(ckpt, &*graph, config);
  if (!session_or.ok()) return Fail(session_or.status());
  serve::InferenceSession& session = **session_or;

  auto served = session.Embed(probe);
  if (!served.ok()) return Fail(served.status());
  if (std::memcmp(served->data(), trained_rows.data(),
                  static_cast<size_t>(served->size()) * sizeof(float)) != 0) {
    return Fail(Status::Internal(
        "served embeddings are not bitwise equal to the trained model's"));
  }
  std::printf("bitwise parity with the trained model: OK (%lld probe rows)\n",
              static_cast<long long>(served->rows()));

  // 3. Grow the graph after training: unseen nodes, embedded inductively.
  serve::GraphDelta delta = session.NewDelta();
  std::vector<float> features(static_cast<size_t>(graph->feature_dim()));
  for (size_t j = 0; j < features.size(); ++j) {
    features[j] = 0.05f * static_cast<float>(j % 7);
  }
  const graph::NodeId new_doc = delta.AddNode(0, features);
  const graph::NodeId new_tag = delta.AddNode(1, features);
  delta.AddEdge(new_doc, 0, 1);        // doc-doc
  delta.AddEdge(new_doc, new_tag, 0);  // doc-tag
  auto version = session.Ingest(delta);
  if (!version.ok()) return Fail(version.status());
  std::printf("ingested delta: %lld nodes now, graph version %llu\n",
              static_cast<long long>(session.num_nodes()),
              static_cast<unsigned long long>(*version));

  // 4. Concurrent clients against the batcher, with one more delta landing
  //    mid-flight. Node ids stay below the pre-grown count so every request
  //    is valid throughout.
  const int64_t base_n = graph->num_nodes();
  serve::RequestBatcher batcher(&session);
  std::atomic<long> failures{0};
  std::vector<std::thread> workers;
  for (int64_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      for (int64_t q = 0; q < queries; ++q) {
        const graph::NodeId a =
            static_cast<graph::NodeId>((c * 131 + q * 17) % base_n);
        const graph::NodeId b = (q % 4 == 0)
                                    ? new_doc
                                    : static_cast<graph::NodeId>(
                                          (c + q * 31) % base_n);
        auto rows = batcher.SubmitEmbed({a, b}).get();
        if (!rows.ok() || rows->rows() != 2) ++failures;
        if (q % 3 == 0) {
          auto labels = batcher.SubmitPredict({a}).get();
          if (!labels.ok() || labels->size() != 1) ++failures;
        }
      }
    });
  }
  serve::GraphDelta midflight = session.NewDelta();
  const graph::NodeId extra = midflight.AddNode(0, features);
  midflight.AddEdge(extra, 3, 1);
  if (auto v2 = session.Ingest(midflight); !v2.ok()) return Fail(v2.status());
  for (std::thread& t : workers) t.join();
  if (failures.load() != 0) {
    return Fail(Status::Internal(
        std::to_string(failures.load()) + " client requests failed"));
  }

  // 5. Store audit: every node's served row must be bitwise equal to a fresh
  //    session that replayed both deltas. The delta nodes' rows go through
  //    the store, and the mid-flight edge at node 3 can reach their walks,
  //    so a row the ingest should have dropped would show here.
  auto replay = serve::InferenceSession::Load(ckpt, &*graph, config);
  if (!replay.ok()) return Fail(replay.status());
  for (const serve::GraphDelta* past : {&delta, &midflight}) {
    if (auto v = (*replay)->Ingest(*past); !v.ok()) return Fail(v.status());
  }
  std::vector<graph::NodeId> all(static_cast<size_t>(session.num_nodes()));
  for (size_t v = 0; v < all.size(); ++v) {
    all[v] = static_cast<graph::NodeId>(v);
  }
  serve::InferenceSession::EmbedReport audit;
  auto live_rows = session.Embed(all, &audit);
  if (!live_rows.ok()) return Fail(live_rows.status());
  auto replay_rows = (*replay)->Embed(all);
  if (!replay_rows.ok()) return Fail(replay_rows.status());
  if (std::memcmp(live_rows->data(), replay_rows->data(),
                  static_cast<size_t>(live_rows->size()) * sizeof(float)) !=
      0) {
    return Fail(Status::Internal(
        "served rows differ from a fresh session that replayed both deltas"));
  }
  std::printf(
      "store audit: %zu rows bitwise equal to a fresh replay "
      "(%lld from the store)\n",
      all.size(), static_cast<long long>(audit.store_hits));

  const auto bstats = batcher.stats();
  const auto sstats = session.stats();
  std::printf(
      "served %lld requests in %lld batches (max batch %lld nodes)\n"
      "  base-rep hits %lld, store hits %lld, cold encodes %lld\n"
      "  store: %lld insertions, %lld invalidations, %lld evictions\n"
      "smoke: OK\n",
      static_cast<long long>(bstats.requests),
      static_cast<long long>(bstats.batches),
      static_cast<long long>(bstats.max_batch),
      static_cast<long long>(sstats.base_hits),
      static_cast<long long>(sstats.store_hits),
      static_cast<long long>(sstats.cold_encodes),
      static_cast<long long>(sstats.store.insertions),
      static_cast<long long>(sstats.store.invalidations),
      static_cast<long long>(sstats.store.evictions));

  // 6. Optional network front-end over the same session: self-contained
  //    server for socket smoke tests and load_bench without needing a
  //    trained checkpoint on disk.
  if (listen_port >= 0) {
    // Non-owning: `session` is this frame's local and outlives the server.
    return ListenAndServe(
        std::shared_ptr<serve::InferenceSession>(
            std::shared_ptr<serve::InferenceSession>(), &session),
        listen_port, admin_port, slo_ms,
        [&graph, ckpt,
         config]() -> StatusOr<std::shared_ptr<serve::InferenceSession>> {
          auto fresh = serve::InferenceSession::Load(ckpt, &*graph, config);
          if (!fresh.ok()) return fresh.status();
          return std::shared_ptr<serve::InferenceSession>(std::move(*fresh));
        },
        watcher);
  }
  return 0;
}

// Loads graph + checkpoint into a self-owning serving session: the returned
// shared_ptr keeps the backing graph alive for exactly as long as anything
// (including in-flight batches after a hot reload) references the session.
StatusOr<std::shared_ptr<serve::InferenceSession>> LoadServingBundle(
    const std::string& graph_path, const std::string& ckpt_path) {
  struct Bundle {
    graph::HeteroGraph graph;
    std::unique_ptr<serve::InferenceSession> session;
  };
  auto graph = graph::LoadGraphText(graph_path);
  if (!graph.ok()) return graph.status();
  // Serving needs no labels and no training config: recover the embedding
  // dimension from the checkpoint itself.
  auto weights = core::LoadServingWeights(ckpt_path);
  if (!weights.ok()) return weights.status();
  core::WidenConfig config;
  config.embedding_dim = weights->params.embedding_dim();
  auto bundle = std::make_shared<Bundle>();
  bundle->graph = std::move(*graph);
  auto session =
      serve::InferenceSession::Load(ckpt_path, &bundle->graph, config);
  if (!session.ok()) return session.status();
  bundle->session = std::move(*session);
  return std::shared_ptr<serve::InferenceSession>(bundle,
                                                  bundle->session.get());
}

int RunServe(const std::string& graph_path, const std::string& ckpt_path,
             int listen_port, int admin_port, long slo_ms, bool allow_reload,
             SignalWatcher& watcher) {
  auto session = LoadServingBundle(graph_path, ckpt_path);
  if (!session.ok()) return Fail(session.status());
  std::printf("loaded %s over %s: %lld nodes, %lld dims\n", ckpt_path.c_str(),
              graph_path.c_str(), static_cast<long long>((*session)->num_nodes()),
              static_cast<long long>((*session)->embedding_dim()));
  ReloadFn reload_fn;
  if (allow_reload) {
    // Re-reads BOTH files, so a checkpoint (or graph) replaced on disk goes
    // live without dropping a request.
    reload_fn = [graph_path, ckpt_path] {
      return LoadServingBundle(graph_path, ckpt_path);
    };
  }
  return ListenAndServe(std::move(*session), listen_port, admin_port, slo_ms,
                        std::move(reload_fn), watcher);
}

int RunEmbed(const std::string& graph_path, const std::string& ckpt_path,
             const std::string& csv_path) {
  auto session = LoadServingBundle(graph_path, ckpt_path);
  if (!session.ok()) return Fail(session.status());

  std::vector<graph::NodeId> nodes;
  for (graph::NodeId v = 0; v < (*session)->num_nodes(); ++v) {
    nodes.push_back(v);
  }
  auto embeddings = (*session)->Embed(nodes);
  if (!embeddings.ok()) return Fail(embeddings.status());
  std::FILE* out = std::fopen(csv_path.c_str(), "w");
  if (out == nullptr) return Fail(Status::IOError("cannot open " + csv_path));
  for (int64_t i = 0; i < embeddings->rows(); ++i) {
    std::fprintf(out, "%lld", static_cast<long long>(nodes[i]));
    for (int64_t j = 0; j < embeddings->cols(); ++j) {
      std::fprintf(out, ",%.6f", embeddings->at(i, j));
    }
    std::fprintf(out, "\n");
  }
  std::fclose(out);
  std::printf("served %lld embeddings (%lld dims) to %s\n",
              static_cast<long long>(embeddings->rows()),
              static_cast<long long>(embeddings->cols()), csv_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  long clients = 4;
  long queries = 25;
  int listen_port = -1;  // -1 = no network front-end
  int admin_port = -1;   // -1 = no admin plane (0 = ephemeral)
  long slo_ms = 0;       // 0 = no server-side SLO warnings
  bool allow_reload = false;
  std::string metrics_out;
  std::string trace_out;
  std::string profile_out;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--smoke") == 0) {
      smoke = true;
      continue;
    }
    if (std::strcmp(arg, "--listen") == 0 && i + 1 < argc) {
      listen_port = static_cast<int>(std::atol(argv[++i]));
      continue;
    }
    if (std::strncmp(arg, "--listen=", 9) == 0) {
      listen_port = static_cast<int>(std::atol(arg + 9));
      continue;
    }
    if (std::strcmp(arg, "--admin_port") == 0 && i + 1 < argc) {
      admin_port = static_cast<int>(std::atol(argv[++i]));
      continue;
    }
    if (std::strncmp(arg, "--admin_port=", 13) == 0) {
      admin_port = static_cast<int>(std::atol(arg + 13));
      continue;
    }
    if (std::strcmp(arg, "--slo_ms") == 0 && i + 1 < argc) {
      slo_ms = std::atol(argv[++i]);
      continue;
    }
    if (std::strncmp(arg, "--slo_ms=", 9) == 0) {
      slo_ms = std::atol(arg + 9);
      continue;
    }
    if (std::strcmp(arg, "--reload") == 0) {
      allow_reload = true;
      continue;
    }
    if (std::strcmp(arg, "--clients") == 0 && i + 1 < argc) {
      clients = std::atol(argv[++i]);
      continue;
    }
    if (std::strcmp(arg, "--queries") == 0 && i + 1 < argc) {
      queries = std::atol(argv[++i]);
      continue;
    }
    if (std::strcmp(arg, "--metrics_out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
      continue;
    }
    if (std::strncmp(arg, "--metrics_out=", 14) == 0) {
      metrics_out = arg + 14;
      continue;
    }
    if (std::strcmp(arg, "--trace_out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
      continue;
    }
    if (std::strncmp(arg, "--trace_out=", 12) == 0) {
      trace_out = arg + 12;
      continue;
    }
    if (std::strcmp(arg, "--profile_out") == 0 && i + 1 < argc) {
      profile_out = argv[++i];
      continue;
    }
    if (std::strncmp(arg, "--profile_out=", 14) == 0) {
      profile_out = arg + 14;
      continue;
    }
    args.push_back(argv[i]);
  }
  if (clients < 1 || queries < 1) {
    std::fprintf(stderr, "error: --clients/--queries want positive integers\n");
    return 2;
  }
  argc = static_cast<int>(args.size());
  argv = args.data();
  widen::obs::InstallTraceExportOnExit(trace_out);
  widen::obs::InstallProfileReportOnExit(profile_out);

  // Resolve the same env fallbacks the installers honor, so the signal path
  // flushes to the same files the atexit path would have.
  if (trace_out.empty()) {
    if (const char* env = std::getenv("WIDEN_TRACE")) trace_out = env;
  }
  if (profile_out.empty()) {
    if (const char* env = std::getenv("WIDEN_PROFILE")) profile_out = env;
  }
  SignalWatcher signal_watcher(metrics_out, trace_out, profile_out);

  const int code = [&]() -> int {
    std::unique_ptr<PeriodicMetricsDumper> dumper;
    if (!metrics_out.empty()) {
      dumper = std::make_unique<PeriodicMetricsDumper>(metrics_out);
    }
    if (smoke || argc == 1) {
      return RunSmoke(clients, queries, listen_port, admin_port, slo_ms,
                      signal_watcher);
    }
    const std::string command = argv[1];
    if (command == "embed" && argc == 5) {
      return RunEmbed(argv[2], argv[3], argv[4]);
    }
    if (command == "serve" && argc == 4) {
      return RunServe(argv[2], argv[3], listen_port >= 0 ? listen_port : 0,
                      admin_port, slo_ms, allow_reload, signal_watcher);
    }
    std::fprintf(stderr,
                 "usage:\n"
                 "  %s --smoke [--clients N] [--queries M] [--listen PORT]\n"
                 "  %s embed <graph.txt> <model.ckpt> <out.csv>\n"
                 "  %s serve <graph.txt> <model.ckpt> --listen PORT "
                 "[--reload]\n"
                 "options: --listen PORT  serve the wire protocol on "
                 "127.0.0.1:PORT (0 = ephemeral)\n"
                 "         --reload       allow hot checkpoint reload "
                 "(SIGHUP or wire op)\n"
                 "         --admin_port PORT  HTTP introspection plane "
                 "(/healthz /metrics /varz /tracez /profilez; 0 = ephemeral)\n"
                 "         --slo_ms MS    warn (rate-limited) when a request "
                 "exceeds MS; also the admin plane's SLO threshold\n"
                 "         --metrics_out PATH  dump metrics every second and "
                 "on exit\n"
                 "         --trace_out PATH    write a Chrome trace on exit\n"
                 "         --profile_out PATH  profile tensor ops and write "
                 "the roofline report on exit\n",
                 argv[0], argv[0], argv[0]);
    return 2;
  }();

  PrintEmbedLatencySummary();
  if (!metrics_out.empty()) {
    widen::Status written =
        widen::obs::MetricsRegistry::Get().WriteMetrics(metrics_out);
    if (!written.ok()) {
      std::fprintf(stderr, "error writing metrics: %s\n",
                   written.ToString().c_str());
      return code != 0 ? code : 1;
    }
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }
  return code;
}
