// Sustained-load harness for the network front-end (serve/net/, DESIGN.md
// §14): the latency-contract numbers the batcher fix is accountable to.
//
//   ./build/bench/load_bench                      # spawn an in-process server
//   ./build/bench/load_bench --connect HOST:PORT  # drive a live widen_serve
//
// Two phases over the same mixed traffic (~80% Embed / 15% Predict / 5%
// Ingest, per-request wire deadlines):
//
//   closed loop — `--clients` connections (default 4), each pipelining a
//     window of requests: offered load tracks capacity, measuring the
//     saturated batch path.
//   open loop — the same `--clients` connections send on a fixed `--qps`
//     schedule, and latency is measured FROM THE SCHEDULED DEPARTURE TICK,
//     so a send that left late is charged for its wait. Each client sends,
//     then waits for the reply before its next tick, so it keeps at most one
//     request outstanding: the open loop never offers more than `--clients`
//     requests at once and cannot build a queue in the server.
//
// In --spawn mode the harness also exercises the two lifecycle paths the
// server guarantees lose nothing: a hot Reload() in the middle of the closed
// loop, and a SIGTERM-style drain fired while every client still has
// requests in flight. In --connect mode the same events can be driven
// externally (SIGHUP / SIGTERM to the server); clients react to the wire
// draining flag cooperatively either way.
//
// The zero-drop contract is enforced, not just reported: every request sent
// must come back as a response (OK or typed error). Any shortfall or
// transport error exits 1. p50/p99 per op, achieved QPS, and SLO attainment
// (`--slo_ms`, default 50) are written to BENCH_load.json (schema v1, see
// bench_json.h) for tools/bench_diff.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "core/checkpoint.h"
#include "core/widen_model.h"
#include "datasets/synthetic.h"
#include "obs/metrics.h"
#include "serve/inference_session.h"
#include "serve/net/admin.h"
#include "serve/net/client.h"
#include "serve/net/protocol.h"
#include "serve/net/server.h"
#include "util/logging.h"
#include "util/timer.h"

namespace widen {
namespace {

using Clock = std::chrono::steady_clock;
using serve::net::NetClient;
using serve::net::NetOp;
using serve::net::NetRequest;
using serve::net::NetResponse;

struct LoadOptions {
  std::string connect_host;  // empty => spawn an in-process server
  int connect_port = 0;
  // Admin plane to scrape during the run. Spawn mode always stands one up on
  // an ephemeral port; --connect mode needs --admin HOST:PORT to opt in.
  std::string admin_host;
  int admin_port = -1;
  int clients = 4;
  double closed_seconds = 2.0;
  double open_seconds = 2.0;
  double qps = 400.0;           // open-loop schedule across all clients
  double slo_ms = 50.0;         // latency objective for attainment
  uint32_t deadline_ms = 1000;  // wire deadline stamped on Embed/Predict
  int32_t feature_dim = 16;     // must match the server's graph for Ingest
  // Ingest shape: new nodes are this type, wired to node 0 with this edge
  // type. The defaults fit the doc/tag synthetic schema both the in-process
  // server and `widen_serve --smoke` use (type 0 = doc, edge 1 = doc-doc).
  graph::NodeTypeId ingest_node_type = 0;
  graph::EdgeTypeId ingest_edge_type = 1;
  bool wire_reload = false;     // --connect: send a wire Reload mid-run
  std::string out_path = "BENCH_load.json";
};

// Traffic mix: ~80% Embed / 15% Predict / 5% Ingest.
NetOp PickOp(std::mt19937& rng) {
  const uint32_t r = rng() % 100;
  if (r < 80) return NetOp::kEmbed;
  if (r < 95) return NetOp::kPredict;
  return NetOp::kIngest;
}

// Per-client tally, merged after the run.
struct ClientResult {
  int64_t sent = 0;
  int64_t answered = 0;  // every response, OK or typed error
  int64_t ok = 0;
  int64_t unavailable = 0;        // admission-control fast-fails
  int64_t deadline_exceeded = 0;  // expired in the batcher queue
  int64_t other_errors = 0;
  int64_t transport_errors = 0;  // send/recv failures — always fatal
  int64_t trace_mismatches = 0;  // traced request answered w/o its trace id
  bool saw_draining = false;
  DurationStats embed_us;    // OK responses only
  DurationStats predict_us;  // OK responses only
  int64_t within_slo = 0;    // OK Embed/Predict under slo_ms
};

struct Pending {
  NetOp op = NetOp::kHealth;
  Clock::time_point departed;  // closed: send time; open: scheduled tick
  bool traced = false;
  uint64_t trace_id = 0;
};

NetRequest MakeRequest(uint64_t id, NetOp op, int64_t num_nodes,
                       const LoadOptions& options, std::mt19937& rng) {
  NetRequest request;
  request.id = id;
  request.op = op;
  if (op == NetOp::kEmbed || op == NetOp::kPredict) {
    request.deadline_ms = options.deadline_ms;
    // Stamp a trace trailer on a quarter of the latency-sensitive traffic:
    // the server must echo the id, which the accounting verifies — the wire
    // trailer gets exercised at full load, not just in unit tests.
    if (id % 4 == 0) {
      request.has_trace = true;
      request.trace_id = id * 0x9E3779B97F4A7C15ull;  // spread the bits
      request.trace_flags = serve::net::kTraceFlagSampled;
    }
    const int64_t batch = 1 + rng() % 4;
    for (int64_t i = 0; i < batch; ++i) {
      request.nodes.push_back(
          static_cast<graph::NodeId>(rng() % static_cast<uint64_t>(num_nodes)));
    }
  } else if (op == NetOp::kIngest) {
    request.ingest.feature_dim = options.feature_dim;
    request.ingest.node_types = {options.ingest_node_type};
    request.ingest.features.resize(
        static_cast<size_t>(options.feature_dim));
    for (float& f : request.ingest.features) {
      f = 0.01f * static_cast<float>(rng() % 100) - 0.5f;
    }
    // Wire the new node (relative id -1) to node 0 both ways; node 0 shares
    // its type in the default schema, so the edges always validate.
    request.ingest.edges = {{0, -1, options.ingest_edge_type},
                            {-1, 0, options.ingest_edge_type}};
  }
  return request;
}

void Account(ClientResult& result, const Pending& pending,
             const NetResponse& response, const LoadOptions& options) {
  ++result.answered;
  if (response.draining) result.saw_draining = true;
  if (pending.traced &&
      (!response.has_trace || response.trace_id != pending.trace_id)) {
    ++result.trace_mismatches;
  }
  if (response.code == StatusCode::kOk) {
    ++result.ok;
    const double us = std::chrono::duration<double, std::micro>(
                          Clock::now() - pending.departed)
                          .count();
    if (pending.op == NetOp::kEmbed) result.embed_us.Add(us);
    if (pending.op == NetOp::kPredict) result.predict_us.Add(us);
    if ((pending.op == NetOp::kEmbed || pending.op == NetOp::kPredict) &&
        us <= options.slo_ms * 1000.0) {
      ++result.within_slo;
    }
  } else if (response.code == StatusCode::kUnavailable) {
    ++result.unavailable;
  } else if (response.code == StatusCode::kDeadlineExceeded) {
    ++result.deadline_exceeded;
  } else {
    ++result.other_errors;
  }
}

// Receives until nothing is outstanding; the drain-side half of zero-drop.
void CollectOutstanding(NetClient& client,
                        std::unordered_map<uint64_t, Pending>& outstanding,
                        ClientResult& result, const LoadOptions& options) {
  while (!outstanding.empty()) {
    NetResponse response;
    const Status status = client.Receive(&response);
    if (!status.ok()) {
      ++result.transport_errors;
      return;
    }
    auto it = outstanding.find(response.id);
    if (it == outstanding.end()) continue;  // unmatched id: ignore
    Account(result, it->second, response, options);
    outstanding.erase(it);
  }
}

// Closed loop: keep `window` requests outstanding until the deadline or the
// server starts draining, then collect everything still in flight.
ClientResult RunClosedLoopClient(const std::string& host, int port,
                                 int64_t num_nodes, const LoadOptions& options,
                                 Clock::time_point until, uint64_t seed) {
  ClientResult result;
  auto client_or = NetClient::Connect(host, port);
  if (!client_or.ok()) {
    ++result.transport_errors;
    return result;
  }
  NetClient& client = **client_or;
  std::mt19937 rng(static_cast<uint32_t>(seed));
  std::unordered_map<uint64_t, Pending> outstanding;
  constexpr size_t kWindow = 4;
  uint64_t next_id = seed << 32;
  while (Clock::now() < until && !client.last_draining()) {
    while (outstanding.size() < kWindow) {
      const NetOp op = PickOp(rng);
      NetRequest request =
          MakeRequest(++next_id, op, num_nodes, options, rng);
      const Status status = client.Send(request);
      if (!status.ok()) {
        ++result.transport_errors;
        return result;
      }
      outstanding[request.id] =
          Pending{op, Clock::now(), request.has_trace, request.trace_id};
      ++result.sent;
    }
    NetResponse response;
    const Status status = client.Receive(&response);
    if (!status.ok()) {
      ++result.transport_errors;
      return result;
    }
    auto it = outstanding.find(response.id);
    if (it != outstanding.end()) {
      Account(result, it->second, response, options);
      outstanding.erase(it);
    }
  }
  CollectOutstanding(client, outstanding, result, options);
  return result;
}

// Open loop: one send per scheduled tick, latency charged from the tick.
ClientResult RunOpenLoopClient(const std::string& host, int port,
                               int64_t num_nodes, const LoadOptions& options,
                               Clock::time_point start, Clock::time_point until,
                               double client_qps, uint64_t seed) {
  ClientResult result;
  auto client_or = NetClient::Connect(host, port);
  if (!client_or.ok()) {
    ++result.transport_errors;
    return result;
  }
  NetClient& client = **client_or;
  std::mt19937 rng(static_cast<uint32_t>(seed));
  std::unordered_map<uint64_t, Pending> outstanding;
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / std::max(client_qps, 1.0)));
  uint64_t next_id = seed << 32;
  Clock::time_point tick = start;
  while (tick < until && !client.last_draining()) {
    std::this_thread::sleep_until(tick);
    const NetOp op = PickOp(rng);
    NetRequest request = MakeRequest(++next_id, op, num_nodes, options, rng);
    const Status status = client.Send(request);
    if (!status.ok()) {
      ++result.transport_errors;
      return result;
    }
    outstanding[request.id] =  // latency charged from the schedule tick
        Pending{op, tick, request.has_trace, request.trace_id};
    ++result.sent;
    NetResponse response;
    const Status recv = client.Receive(&response);
    if (!recv.ok()) {
      ++result.transport_errors;
      return result;
    }
    auto it = outstanding.find(response.id);
    if (it != outstanding.end()) {
      Account(result, it->second, response, options);
      outstanding.erase(it);
    }
    tick += interval;
  }
  CollectOutstanding(client, outstanding, result, options);
  return result;
}

void Merge(ClientResult& total, const ClientResult& part) {
  total.sent += part.sent;
  total.answered += part.answered;
  total.ok += part.ok;
  total.unavailable += part.unavailable;
  total.deadline_exceeded += part.deadline_exceeded;
  total.other_errors += part.other_errors;
  total.transport_errors += part.transport_errors;
  total.trace_mismatches += part.trace_mismatches;
  total.saw_draining = total.saw_draining || part.saw_draining;
  total.within_slo += part.within_slo;
  for (double us : part.embed_us.samples()) total.embed_us.Add(us);
  for (double us : part.predict_us.samples()) total.predict_us.Add(us);
}

struct PhaseSummary {
  std::string name;
  ClientResult merged;
  double seconds = 0.0;

  double achieved_qps() const {
    return seconds > 0.0 ? static_cast<double>(merged.answered) / seconds : 0;
  }
  double slo_attainment() const {
    const size_t latency_samples =
        merged.embed_us.count() + merged.predict_us.count();
    return latency_samples > 0 ? static_cast<double>(merged.within_slo) /
                                     static_cast<double>(latency_samples)
                               : 1.0;
  }
};

void PrintPhase(const PhaseSummary& phase) {
  std::printf(
      "%-6s %6.1fs  %7.0f req/s  embed p50 %8.0f us p99 %8.0f us  "
      "predict p50 %8.0f us p99 %8.0f us  SLO %.4f\n",
      phase.name.c_str(), phase.seconds, phase.achieved_qps(),
      phase.merged.embed_us.Percentile(0.50),
      phase.merged.embed_us.Percentile(0.99),
      phase.merged.predict_us.Percentile(0.50),
      phase.merged.predict_us.Percentile(0.99), phase.slo_attainment());
  std::printf(
      "       sent %lld answered %lld ok %lld unavailable %lld "
      "deadline %lld other %lld transport %lld\n",
      static_cast<long long>(phase.merged.sent),
      static_cast<long long>(phase.merged.answered),
      static_cast<long long>(phase.merged.ok),
      static_cast<long long>(phase.merged.unavailable),
      static_cast<long long>(phase.merged.deadline_exceeded),
      static_cast<long long>(phase.merged.other_errors),
      static_cast<long long>(phase.merged.transport_errors));
}

void AddPhaseMetrics(bench::BenchReport& report, const PhaseSummary& phase) {
  const std::string p = phase.name + "_";
  report.AddMetric(p + "qps", phase.achieved_qps(), "req/s", "higher");
  report.AddMetric(p + "embed_p50_us", phase.merged.embed_us.Percentile(0.50),
                   "us", "lower");
  report.AddMetric(p + "embed_p99_us", phase.merged.embed_us.Percentile(0.99),
                   "us", "lower");
  report.AddMetric(p + "predict_p50_us",
                   phase.merged.predict_us.Percentile(0.50), "us", "lower");
  report.AddMetric(p + "predict_p99_us",
                   phase.merged.predict_us.Percentile(0.99), "us", "lower");
  report.AddMetric(p + "slo_attainment", phase.slo_attainment(), "frac",
                   "higher");
}

// In-process server for --spawn mode: the serving_bench synthetic graph, a
// params-only checkpoint, and a reload_fn that re-reads it (a real hot-swap,
// same bits).
struct SpawnedServer {
  graph::HeteroGraph graph;
  core::WidenConfig config;
  std::string ckpt;
  std::unique_ptr<serve::net::NetServer> server;
  serve::net::AdminPlane admin;

  ~SpawnedServer() {
    admin.server.reset();  // its health check reads `server`
    server.reset();  // joins threads before graph/ckpt go away
    if (!ckpt.empty()) std::remove(ckpt.c_str());
  }
};

std::unique_ptr<SpawnedServer> SpawnServer(const LoadOptions& options) {
  auto spawned = std::make_unique<SpawnedServer>();

  datasets::SyntheticGraphSpec spec;
  spec.name = "load_bench";
  spec.node_types = {{"doc", 1200, true}, {"tag", 300, false}};
  spec.edge_types = {{"doc-tag", "doc", "tag", 2.5, 0.9},
                     {"doc-doc", "doc", "doc", 2.0, 0.8}};
  spec.num_classes = 3;
  spec.feature_dim = options.feature_dim;
  spec.seed = 13;
  auto graph = datasets::GenerateSyntheticGraph(spec);
  WIDEN_CHECK(graph.ok()) << graph.status().ToString();
  spawned->graph = std::move(graph).value();

  spawned->config.embedding_dim = 16;
  spawned->config.num_wide_neighbors = 6;
  spawned->config.num_deep_neighbors = 4;
  spawned->config.num_deep_walks = 2;
  spawned->config.eval_samples = 2;
  spawned->config.num_threads = 1;
  spawned->config.seed = 7;

  spawned->ckpt = "load_bench.wdnt";
  {
    auto model = core::WidenModel::Create(&spawned->graph, spawned->config);
    WIDEN_CHECK(model.ok()) << model.status().ToString();
    WIDEN_CHECK_OK(core::SaveWidenModel(**model, spawned->ckpt));
  }

  serve::SessionOptions session_options;
  session_options.store_capacity = spawned->graph.num_nodes() * 2;
  auto session = serve::InferenceSession::Load(
      spawned->ckpt, &spawned->graph, spawned->config, session_options);
  WIDEN_CHECK(session.ok()) << session.status().ToString();

  serve::net::ServerOptions server_options;
  server_options.port = 0;
  // Raw pointers into `spawned` are safe: the server is joined and destroyed
  // before SpawnedServer's other members in ~SpawnedServer.
  const graph::HeteroGraph* graph_ptr = &spawned->graph;
  const core::WidenConfig* config_ptr = &spawned->config;
  const std::string* ckpt_ptr = &spawned->ckpt;
  const serve::SessionOptions reload_session_options = session_options;
  server_options.reload_fn =
      [graph_ptr, config_ptr, ckpt_ptr, reload_session_options]()
      -> StatusOr<std::shared_ptr<serve::InferenceSession>> {
    auto reloaded = serve::InferenceSession::Load(
        *ckpt_ptr, graph_ptr, *config_ptr, reload_session_options);
    if (!reloaded.ok()) return reloaded.status();
    return std::shared_ptr<serve::InferenceSession>(
        std::move(reloaded).value());
  };

  auto server = serve::net::NetServer::Start(
      std::shared_ptr<serve::InferenceSession>(std::move(session).value()),
      server_options);
  WIDEN_CHECK(server.ok()) << server.status().ToString();
  spawned->server = std::move(server).value();

  // Admin plane on an ephemeral port, judging the same SLO the harness
  // measures client-side — the run's report carries both views.
  auto admin = serve::net::StartAdminPlane(spawned->server.get(), /*port=*/0,
                                           options.slo_ms * 1000.0);
  WIDEN_CHECK(admin.ok()) << admin.status().ToString();
  spawned->admin = std::move(admin).value();
  return spawned;
}

// First value of gauge/counter sample `name` in Prometheus text, if present.
bool ParsePromValue(const std::string& text, const std::string& name,
                    double* out) {
  const std::string needle = name + " ";
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    if (text.compare(pos, needle.size(), needle) == 0) {
      *out = std::atof(text.c_str() + pos + needle.size());
      return true;
    }
    pos = eol + 1;
  }
  return false;
}

int Run(const LoadOptions& options) {
  std::unique_ptr<SpawnedServer> spawned;
  std::string host = options.connect_host;
  int port = options.connect_port;
  const bool spawn = host.empty();
  if (spawn) {
    spawned = SpawnServer(options);
    host = "127.0.0.1";
    port = spawned->server->port();
    std::printf("spawned in-process server on %s:%d\n", host.c_str(), port);
  }

  // Admin plane to scrape concurrently with the load: the bench proves the
  // introspection listener never perturbs the zero-drop contract, and the
  // final /metrics scrape feeds the server's own SLO view into the report.
  std::string admin_host = options.admin_host;
  int admin_port = options.admin_port;
  if (spawn) {
    admin_host = "127.0.0.1";
    admin_port = spawned->admin.server->port();
    std::printf("admin plane on %s:%d\n", admin_host.c_str(), admin_port);
  }
  const bool scrape = admin_port >= 0 && !admin_host.empty();
  std::atomic<bool> scrape_stop{false};
  std::atomic<int64_t> scrapes{0};
  std::atomic<int64_t> scrape_failures{0};
  std::thread scraper;
  if (scrape) {
    scraper = std::thread([&] {
      while (!scrape_stop.load(std::memory_order_relaxed)) {
        int code = 0;
        auto health =
            serve::net::AdminHttpGet(admin_host, admin_port, "/healthz", &code);
        if (!health.ok() || (code != 200 && code != 503)) {
          ++scrape_failures;
        }
        auto metrics =
            serve::net::AdminHttpGet(admin_host, admin_port, "/metrics", &code);
        if (!metrics.ok() || code != 200) {
          ++scrape_failures;
        } else if (Status valid = obs::ValidatePrometheusText(*metrics);
                   !valid.ok()) {
          ++scrape_failures;
          WIDEN_LOG(Warning) << "scraped /metrics failed validation: "
                             << valid.ToString();
        }
        ++scrapes;
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
      }
    });
  }

  // Health probe: node count for request generation, and proof of life.
  int64_t num_nodes = 0;
  {
    auto probe = NetClient::Connect(host, port);
    if (!probe.ok()) {
      std::fprintf(stderr, "cannot reach %s:%d: %s\n", host.c_str(), port,
                   probe.status().ToString().c_str());
      return 1;
    }
    NetRequest health;
    health.id = 1;
    health.op = NetOp::kHealth;
    auto response = (*probe)->Call(health);
    if (!response.ok() || response->code != StatusCode::kOk) {
      std::fprintf(stderr, "health probe failed\n");
      return 1;
    }
    num_nodes = response->num_nodes;
    std::printf("server: %lld nodes, graph v%llu, generation %llu\n",
                static_cast<long long>(num_nodes),
                static_cast<unsigned long long>(response->graph_version),
                static_cast<unsigned long long>(response->generation));
  }
  WIDEN_CHECK(num_nodes > 0);

  // ---- Phase 1: closed loop, with a hot reload at the halfway mark --------
  PhaseSummary closed;
  closed.name = "closed";
  {
    const Clock::time_point start = Clock::now();
    const Clock::time_point until =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(options.closed_seconds));
    std::vector<std::thread> threads;
    std::vector<ClientResult> results(
        static_cast<size_t>(options.clients));
    for (int c = 0; c < options.clients; ++c) {
      threads.emplace_back([&, c] {
        results[static_cast<size_t>(c)] = RunClosedLoopClient(
            host, port, num_nodes, options, until,
            static_cast<uint64_t>(c + 1));
      });
    }
    // Hot reload in the middle of the storm: spawn mode swaps in-process,
    // connect mode (with --reload) sends the wire op.
    bool reloaded = false;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options.closed_seconds / 2));
    if (spawn) {
      auto generation = spawned->server->Reload();
      WIDEN_CHECK(generation.ok()) << generation.status().ToString();
      std::printf("hot reload mid-closed-loop: generation %llu\n",
                  static_cast<unsigned long long>(*generation));
      reloaded = true;
    } else if (options.wire_reload) {
      auto control = NetClient::Connect(host, port);
      if (control.ok()) {
        NetRequest reload;
        reload.id = 2;
        reload.op = NetOp::kReload;
        auto response = (*control)->Call(reload);
        if (response.ok() && response->code == StatusCode::kOk) {
          std::printf("wire reload mid-closed-loop: generation %llu\n",
                      static_cast<unsigned long long>(response->value));
          reloaded = true;
        } else {
          std::fprintf(stderr, "wire reload refused (server without "
                               "--reload?); continuing\n");
        }
      }
    }
    for (std::thread& t : threads) t.join();
    for (const ClientResult& r : results) Merge(closed.merged, r);
    closed.seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    (void)reloaded;
  }
  PrintPhase(closed);

  // ---- Phase 2: open loop at the target schedule --------------------------
  PhaseSummary open;
  open.name = "open";
  const bool drained_early = closed.merged.saw_draining;
  if (!drained_early) {
    const Clock::time_point start = Clock::now();
    const Clock::time_point until =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(options.open_seconds));
    const double client_qps =
        options.qps / std::max(options.clients, 1);
    std::vector<std::thread> threads;
    std::vector<ClientResult> results(
        static_cast<size_t>(options.clients));
    for (int c = 0; c < options.clients; ++c) {
      // Stagger start ticks so the aggregate schedule is uniform.
      const Clock::time_point first =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(c) /
                          std::max(options.qps, 1.0)));
      threads.emplace_back([&, c, first] {
        results[static_cast<size_t>(c)] = RunOpenLoopClient(
            host, port, num_nodes, options, first, until, client_qps,
            static_cast<uint64_t>(100 + c));
      });
    }
    for (std::thread& t : threads) t.join();
    for (const ClientResult& r : results) Merge(open.merged, r);
    open.seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    PrintPhase(open);
  } else {
    std::printf("server drained during the closed loop; skipping the open "
                "loop\n");
  }

  // ---- Server-side SLO view (final scrape, before the drain kills it) -----
  double server_attainment = -1.0;
  double server_burn = -1.0;
  double server_predict_attainment = -1.0;
  if (scrape) {
    scrape_stop.store(true);
    scraper.join();
    int code = 0;
    auto metrics =
        serve::net::AdminHttpGet(admin_host, admin_port, "/metrics", &code);
    if (metrics.ok() && code == 200) {
      (void)ParsePromValue(*metrics, "widen_slo_embed_attainment_5m",
                           &server_attainment);
      (void)ParsePromValue(*metrics, "widen_slo_embed_burn_rate_5m",
                           &server_burn);
      (void)ParsePromValue(*metrics, "widen_slo_predict_attainment_5m",
                           &server_predict_attainment);
    } else if (spawn) {
      // In-process admin plane must outlive the phases; failure is a bug.
      ++scrape_failures;
    } else {
      // An externally drained server may exit between the last client
      // hanging up and this scrape; report, don't fail the contract.
      std::printf("final admin scrape unavailable; skipping server SLO "
                  "rows\n");
    }
    std::printf(
        "admin: %lld scrapes, %lld failures; server SLO view: embed "
        "attainment %.4f burn %.2f, predict attainment %.4f\n",
        static_cast<long long>(scrapes.load()),
        static_cast<long long>(scrape_failures.load()), server_attainment,
        server_burn, server_predict_attainment);
  }

  // ---- Phase 3 (spawn only): drain with requests in flight ----------------
  PhaseSummary drain;
  drain.name = "drain";
  if (spawn) {
    const Clock::time_point start = Clock::now();
    const Clock::time_point until = start + std::chrono::seconds(5);
    std::vector<std::thread> threads;
    std::vector<ClientResult> results(
        static_cast<size_t>(options.clients));
    for (int c = 0; c < options.clients; ++c) {
      threads.emplace_back([&, c] {
        results[static_cast<size_t>(c)] = RunClosedLoopClient(
            host, port, num_nodes, options, until,
            static_cast<uint64_t>(200 + c));
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    spawned->server->SignalDrain();  // every client has a window in flight
    for (std::thread& t : threads) t.join();
    spawned->server->Join();
    for (const ClientResult& r : results) Merge(drain.merged, r);
    drain.seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    const auto stats = spawned->server->stats();
    std::printf(
        "drain: %lld sent, %lld answered (server: %lld requests, %lld "
        "responses)\n",
        static_cast<long long>(drain.merged.sent),
        static_cast<long long>(drain.merged.answered),
        static_cast<long long>(stats.requests),
        static_cast<long long>(stats.responses));
  }

  // ---- Zero-drop enforcement ----------------------------------------------
  int64_t sent = closed.merged.sent + open.merged.sent + drain.merged.sent;
  int64_t answered =
      closed.merged.answered + open.merged.answered + drain.merged.answered;
  int64_t transport = closed.merged.transport_errors +
                      open.merged.transport_errors +
                      drain.merged.transport_errors;
  int64_t trace_mismatches = closed.merged.trace_mismatches +
                             open.merged.trace_mismatches +
                             drain.merged.trace_mismatches;
  // Scrape failures gate the contract only in spawn mode: a --connect
  // server's admin plane can legitimately vanish when the server is drained
  // externally mid-scrape.
  const bool scrape_ok = !spawn || scrape_failures.load() == 0;
  bool ok = sent == answered && transport == 0 && sent > 0 &&
            trace_mismatches == 0 && scrape_ok;
  std::printf(
      "total: sent %lld answered %lld transport errors %lld trace "
      "mismatches %lld scrape failures %lld -> %s\n",
      static_cast<long long>(sent), static_cast<long long>(answered),
      static_cast<long long>(transport),
      static_cast<long long>(trace_mismatches),
      static_cast<long long>(scrape_failures.load()),
      ok ? "ZERO DROPPED" : "CONTRACT VIOLATED");

  bench::BenchReport report("load", bench::FullMode());
  report.SetConfig("mode", spawn ? "spawn" : "connect");
  report.SetConfig("clients", static_cast<double>(options.clients));
  report.SetConfig("closed_seconds", options.closed_seconds);
  report.SetConfig("open_seconds", options.open_seconds);
  report.SetConfig("open_qps_target", options.qps);
  report.SetConfig("slo_ms", options.slo_ms);
  report.SetConfig("deadline_ms", static_cast<double>(options.deadline_ms));
  AddPhaseMetrics(report, closed);
  if (!drained_early) AddPhaseMetrics(report, open);
  report.AddMetric("total_answered", static_cast<double>(answered), "req",
                   "higher");
  report.AddMetric("dropped", static_cast<double>(sent - answered), "req",
                   "lower");
  if (server_attainment >= 0.0) {
    report.AddMetric("server_slo_attainment", server_attainment, "frac",
                     "higher");
  }
  if (server_burn >= 0.0) {
    report.AddMetric("server_burn_rate", server_burn, "x", "lower");
  }
  if (server_predict_attainment >= 0.0) {
    report.AddMetric("server_predict_slo_attainment",
                     server_predict_attainment, "frac", "higher");
  }
  WIDEN_CHECK_OK(report.Write(options.out_path));
  std::printf("wrote %s\n", options.out_path.c_str());
  return ok ? 0 : 1;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--connect HOST:PORT] [--admin HOST:PORT] [--clients N]\n"
      "          [--seconds S] [--open_seconds S] [--qps Q] [--slo_ms MS]\n"
      "          [--deadline_ms MS] [--feature_dim D] [--reload]\n"
      "          [--ingest_node_type T] [--ingest_edge_type T]\n"
      "          [--out PATH]\n"
      "--admin scrapes /healthz and /metrics concurrently with the load and\n"
      "adds the server's own SLO attainment/burn-rate to the report (spawn\n"
      "mode stands up its own admin plane automatically)\n",
      argv0);
  return 2;
}

}  // namespace
}  // namespace widen

int main(int argc, char** argv) {
  widen::LoadOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--connect") {
      const char* value = next();
      if (value == nullptr) return widen::Usage(argv[0]);
      const char* colon = std::strrchr(value, ':');
      if (colon == nullptr) return widen::Usage(argv[0]);
      options.connect_host.assign(value, colon);
      options.connect_port = std::atoi(colon + 1);
      if (options.connect_port <= 0 || options.connect_port > 65535) {
        return widen::Usage(argv[0]);
      }
    } else if (arg == "--admin") {
      const char* value = next();
      if (value == nullptr) return widen::Usage(argv[0]);
      const char* colon = std::strrchr(value, ':');
      if (colon == nullptr) return widen::Usage(argv[0]);
      options.admin_host.assign(value, colon);
      options.admin_port = std::atoi(colon + 1);
      if (options.admin_port <= 0 || options.admin_port > 65535) {
        return widen::Usage(argv[0]);
      }
    } else if (arg == "--clients") {
      const char* value = next();
      if (value == nullptr) return widen::Usage(argv[0]);
      options.clients = std::max(1, std::atoi(value));
    } else if (arg == "--seconds") {
      const char* value = next();
      if (value == nullptr) return widen::Usage(argv[0]);
      options.closed_seconds = std::atof(value);
    } else if (arg == "--open_seconds") {
      const char* value = next();
      if (value == nullptr) return widen::Usage(argv[0]);
      options.open_seconds = std::atof(value);
    } else if (arg == "--qps") {
      const char* value = next();
      if (value == nullptr) return widen::Usage(argv[0]);
      options.qps = std::atof(value);
    } else if (arg == "--slo_ms") {
      const char* value = next();
      if (value == nullptr) return widen::Usage(argv[0]);
      options.slo_ms = std::atof(value);
    } else if (arg == "--deadline_ms") {
      const char* value = next();
      if (value == nullptr) return widen::Usage(argv[0]);
      options.deadline_ms = static_cast<uint32_t>(std::atoi(value));
    } else if (arg == "--feature_dim") {
      const char* value = next();
      if (value == nullptr) return widen::Usage(argv[0]);
      options.feature_dim = std::atoi(value);
    } else if (arg == "--ingest_node_type") {
      const char* value = next();
      if (value == nullptr) return widen::Usage(argv[0]);
      options.ingest_node_type =
          static_cast<widen::graph::NodeTypeId>(std::atoi(value));
    } else if (arg == "--ingest_edge_type") {
      const char* value = next();
      if (value == nullptr) return widen::Usage(argv[0]);
      options.ingest_edge_type =
          static_cast<widen::graph::EdgeTypeId>(std::atoi(value));
    } else if (arg == "--reload") {
      options.wire_reload = true;
    } else if (arg == "--out") {
      const char* value = next();
      if (value == nullptr) return widen::Usage(argv[0]);
      options.out_path = value;
    } else {
      return widen::Usage(argv[0]);
    }
  }
  return widen::Run(options);
}
