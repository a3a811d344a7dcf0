// The network front-end's acceptance bar (DESIGN.md §14): answers served
// over a real TCP socket are BITWISE identical to direct
// InferenceSession::Embed calls; a hot checkpoint reload mid-traffic loses
// nothing; a graceful drain answers every admitted request; and overload or
// expired requests fail with typed statuses, never hangs or resets.

#include "serve/net/server.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.h"
#include "core/widen_model.h"
#include "graph/graph_builder.h"
#include "gtest/gtest.h"
#include "serve/net/client.h"
#include "serve/net/protocol.h"
#include "tensor/ops.h"
#include "worker_gate.h"

namespace widen::serve::net {
namespace {

namespace T = widen::tensor;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

core::WidenConfig SmallConfig() {
  core::WidenConfig config;
  config.embedding_dim = 8;
  config.num_wide_neighbors = 4;
  config.num_deep_neighbors = 3;
  config.num_deep_walks = 2;
  config.max_epochs = 2;
  config.eval_samples = 2;
  config.num_threads = 1;
  config.seed = 77;
  return config;
}

// Same deterministic path graph as serve_test.cc.
graph::HeteroGraph ChainGraph(int64_t n, int64_t feature_dim) {
  graph::GraphSchema schema;
  const graph::NodeTypeId vt = schema.AddNodeType("v");
  schema.AddEdgeType("link", vt, vt);
  graph::GraphBuilder builder(schema);
  for (int64_t i = 0; i < n; ++i) builder.AddNode(vt);
  for (int64_t i = 0; i + 1 < n; ++i) {
    WIDEN_CHECK_OK(builder.AddEdge(static_cast<graph::NodeId>(i),
                                   static_cast<graph::NodeId>(i + 1), 0));
  }
  T::Tensor features(T::Shape::Matrix(n, feature_dim));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < feature_dim; ++j) {
      features.mutable_data()[i * feature_dim + j] =
          0.1f * static_cast<float>((i * 31 + j * 7) % 11) - 0.5f;
    }
  }
  builder.SetFeatures(features);
  std::vector<int32_t> labels(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) labels[static_cast<size_t>(i)] = i % 2;
  WIDEN_CHECK_OK(builder.SetLabels(std::move(labels), 2, vt));
  auto graph = builder.Build();
  WIDEN_CHECK(graph.ok());
  return std::move(graph).value();
}

std::string WriteColdCheckpoint(const graph::HeteroGraph& graph,
                                const core::WidenConfig& config,
                                const char* name) {
  auto model = core::WidenModel::Create(&graph, config);
  WIDEN_CHECK(model.ok());
  const std::string path = TempPath(name);
  WIDEN_CHECK_OK(core::SaveWidenModel(**model, path));
  return path;
}

std::shared_ptr<InferenceSession> LoadSession(
    const std::string& path, const graph::HeteroGraph* graph,
    const core::WidenConfig& config) {
  auto session = InferenceSession::Load(path, graph, config);
  WIDEN_CHECK(session.ok()) << session.status().ToString();
  return std::shared_ptr<InferenceSession>(std::move(session).value());
}

NetRequest EmbedRequest(uint64_t id, std::vector<graph::NodeId> nodes,
                        uint32_t deadline_ms = 0) {
  NetRequest request;
  request.id = id;
  request.op = NetOp::kEmbed;
  request.deadline_ms = deadline_ms;
  request.nodes = std::move(nodes);
  return request;
}

TEST(ProtocolTest, RoundTripsEveryOpAndSurfacesMalformedFrames) {
  // Embed request with a deadline.
  {
    const std::string frame = EncodeRequest(EmbedRequest(42, {1, 5, 9}, 250));
    size_t frame_bytes = 0;
    ASSERT_TRUE(PeekFrame(frame.data(), frame.size(), &frame_bytes).ok());
    ASSERT_EQ(frame_bytes, frame.size());
    NetRequest decoded;
    ASSERT_TRUE(DecodeRequestPayload(frame.data() + kFrameHeaderBytes,
                                     frame.size() - kFrameHeaderBytes,
                                     &decoded)
                    .ok());
    EXPECT_EQ(decoded.id, 42u);
    EXPECT_EQ(decoded.op, NetOp::kEmbed);
    EXPECT_EQ(decoded.deadline_ms, 250u);
    EXPECT_EQ(decoded.nodes, (std::vector<graph::NodeId>{1, 5, 9}));
  }
  // Ingest request with relative-id edges.
  {
    NetRequest request;
    request.id = 7;
    request.op = NetOp::kIngest;
    request.ingest.feature_dim = 2;
    request.ingest.node_types = {0, 0};
    request.ingest.features = {0.5f, -0.5f, 1.5f, -1.5f};
    request.ingest.edges = {{3, -1, 0}, {-1, -2, 0}};
    const std::string frame = EncodeRequest(request);
    NetRequest decoded;
    ASSERT_TRUE(DecodeRequestPayload(frame.data() + kFrameHeaderBytes,
                                     frame.size() - kFrameHeaderBytes,
                                     &decoded)
                    .ok());
    EXPECT_EQ(decoded.ingest.features, request.ingest.features);
    ASSERT_EQ(decoded.ingest.edges.size(), 2u);
    EXPECT_EQ(decoded.ingest.edges[1].u, -1);
    EXPECT_EQ(decoded.ingest.edges[1].v, -2);
  }
  // Error response carries code + message + draining flag.
  {
    NetResponse response;
    response.id = 9;
    response.op = NetOp::kPredict;
    response.code = StatusCode::kUnavailable;
    response.draining = true;
    response.error = "over capacity";
    const std::string frame = EncodeResponse(response);
    NetResponse decoded;
    ASSERT_TRUE(DecodeResponsePayload(frame.data() + kFrameHeaderBytes,
                                      frame.size() - kFrameHeaderBytes,
                                      &decoded)
                    .ok());
    EXPECT_EQ(decoded.code, StatusCode::kUnavailable);
    EXPECT_TRUE(decoded.draining);
    EXPECT_EQ(decoded.error, "over capacity");
    EXPECT_EQ(decoded.ToStatus().code(), StatusCode::kUnavailable);
  }
  // Embed response round-trips its matrix exactly.
  {
    NetResponse response;
    response.id = 11;
    response.op = NetOp::kEmbed;
    response.rows = 2;
    response.cols = 3;
    response.floats = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f};
    const std::string frame = EncodeResponse(response);
    NetResponse decoded;
    ASSERT_TRUE(DecodeResponsePayload(frame.data() + kFrameHeaderBytes,
                                      frame.size() - kFrameHeaderBytes,
                                      &decoded)
                    .ok());
    EXPECT_EQ(decoded.floats, response.floats);
    EXPECT_FALSE(decoded.draining);
  }
  // Malformed inputs surface as statuses, never UB.
  size_t frame_bytes = 0;
  EXPECT_EQ(PeekFrame("\x01", 1, &frame_bytes).code(),
            StatusCode::kOutOfRange);  // need more bytes
  const uint32_t huge = kMaxFramePayloadBytes + 1;
  char huge_prefix[4];
  std::memcpy(huge_prefix, &huge, sizeof(huge));
  EXPECT_EQ(PeekFrame(huge_prefix, sizeof(huge_prefix), &frame_bytes).code(),
            StatusCode::kInvalidArgument);
  NetRequest decoded;
  const char bad_op[] = {'\x01', 0, 0, 0, 0, 0, 0, 0, '\x63'};
  EXPECT_FALSE(
      DecodeRequestPayload(bad_op, sizeof(bad_op), &decoded).ok());
  const std::string good = EncodeRequest(EmbedRequest(1, {2}));
  std::string trailing = good + "x";
  const uint32_t grown = static_cast<uint32_t>(trailing.size()) -
                         static_cast<uint32_t>(kFrameHeaderBytes);
  std::memcpy(trailing.data(), &grown, sizeof(grown));
  EXPECT_FALSE(DecodeRequestPayload(trailing.data() + kFrameHeaderBytes,
                                    trailing.size() - kFrameHeaderBytes,
                                    &decoded)
                   .ok());
}

TEST(NetServerTest, ServesMixedTrafficBitwiseEqualToDirectSession) {
  graph::HeteroGraph chain = ChainGraph(10, 6);
  const core::WidenConfig config = SmallConfig();
  const std::string path = WriteColdCheckpoint(chain, config, "net_e2e.wdnt");
  std::shared_ptr<InferenceSession> session = LoadSession(path, &chain, config);

  ServerOptions options;
  auto server_or = NetServer::Start(session, options);
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  NetServer& server = **server_or;

  auto client_or = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client_or.ok()) << client_or.status().ToString();
  NetClient& client = **client_or;

  // Health reflects the live session.
  {
    NetRequest request;
    request.id = 1;
    request.op = NetOp::kHealth;
    auto response = client.Call(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->code, StatusCode::kOk);
    EXPECT_EQ(response->num_nodes, 10);
    EXPECT_EQ(response->generation, 0u);
  }
  // Embed over the wire == direct call, bitwise.
  const std::vector<graph::NodeId> nodes = {0, 3, 7};
  {
    auto response = client.Call(EmbedRequest(2, nodes));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->code, StatusCode::kOk) << response->error;
    auto want = session->Embed(nodes);
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(response->rows, want->rows());
    ASSERT_EQ(response->cols, want->cols());
    EXPECT_EQ(std::memcmp(response->floats.data(), want->data(),
                          response->floats.size() * sizeof(float)),
              0);
  }
  // Predict parity.
  {
    NetRequest request;
    request.id = 3;
    request.op = NetOp::kPredict;
    request.nodes = nodes;
    auto response = client.Call(request);
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->code, StatusCode::kOk) << response->error;
    EXPECT_EQ(response->labels, session->Predict(nodes).value());
  }
  // Ingest through the wire: one new node wired to node 4 via a relative id.
  {
    NetRequest request;
    request.id = 4;
    request.op = NetOp::kIngest;
    request.ingest.feature_dim = 6;
    request.ingest.node_types = {0};
    request.ingest.features = std::vector<float>(6, 0.25f);
    request.ingest.edges = {{4, -1, 0}};
    auto response = client.Call(request);
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->code, StatusCode::kOk) << response->error;
    EXPECT_EQ(response->value, 1u);  // graph version bumped
    EXPECT_EQ(session->num_nodes(), 11);
    // The delta-only node serves over the wire, bitwise-equal to direct.
    auto served = client.Call(EmbedRequest(5, {10}));
    ASSERT_TRUE(served.ok());
    ASSERT_EQ(served->code, StatusCode::kOk) << served->error;
    auto want = session->Embed({10});
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(std::memcmp(served->floats.data(), want->data(),
                          served->floats.size() * sizeof(float)),
              0);
  }
  // Bad node id fails typed over the wire; the connection stays usable.
  {
    auto response = client.Call(EmbedRequest(6, {999}));
    ASSERT_TRUE(response.ok());
    EXPECT_NE(response->code, StatusCode::kOk);
    auto after = client.Call(EmbedRequest(7, {1}));
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->code, StatusCode::kOk);
  }
  const auto stats = server.stats();
  EXPECT_GE(stats.requests, 5);
  EXPECT_EQ(stats.protocol_errors, 0);
}

TEST(NetServerTest, ConcurrentClientsSurviveHotReloadAndGracefulDrain) {
  graph::HeteroGraph chain = ChainGraph(12, 6);
  const core::WidenConfig config = SmallConfig();
  const std::string path =
      WriteColdCheckpoint(chain, config, "net_reload.wdnt");

  ServerOptions options;
  options.reload_fn = [&]() -> StatusOr<std::shared_ptr<InferenceSession>> {
    return LoadSession(path, &chain, config);
  };
  auto server_or = NetServer::Start(LoadSession(path, &chain, config), options);
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  NetServer& server = **server_or;

  constexpr int kClients = 4;
  std::atomic<int64_t> answered{0};
  std::atomic<int64_t> errors{0};
  std::atomic<bool> reload_done{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client_or = NetClient::Connect("127.0.0.1", server.port());
      if (!client_or.ok()) {
        ++errors;
        return;
      }
      NetClient& client = **client_or;
      // Pipeline a window of 4: keep several requests on the wire so the
      // drain has in-flight work to answer.
      constexpr int kWindow = 4;
      uint64_t next_id = 1;
      int64_t outstanding = 0;
      while (true) {
        while (outstanding < kWindow && !client.last_draining()) {
          NetRequest request;
          request.id = next_id++;
          if (next_id % 3 == 0) {
            request.op = NetOp::kPredict;
          } else {
            request.op = NetOp::kEmbed;
          }
          request.nodes = {static_cast<graph::NodeId>((c * 5 + next_id) % 12),
                           static_cast<graph::NodeId>(next_id % 12)};
          if (!client.Send(request).ok()) {
            ++errors;
            return;
          }
          ++outstanding;
        }
        if (outstanding == 0) break;  // draining and fully collected
        NetResponse response;
        if (!client.Receive(&response).ok()) {
          ++errors;  // a dropped in-flight request
          return;
        }
        --outstanding;
        if (response.code == StatusCode::kOk) {
          ++answered;
        } else {
          ++errors;
        }
        // Keep the loop bounded even if no drain arrives (test bug guard).
        if (next_id > 4000) break;
      }
      client.Close();
    });
  }

  // Let traffic flow, then hot-swap the session under it.
  while (answered.load() < 50) std::this_thread::yield();
  auto generation = server.Reload();
  ASSERT_TRUE(generation.ok()) << generation.status().ToString();
  EXPECT_EQ(*generation, 1u);
  reload_done.store(true);

  // More traffic on the new session, then drain mid-flight.
  while (answered.load() < 120) std::this_thread::yield();
  server.SignalDrain();
  for (std::thread& t : clients) t.join();

  // Zero dropped: every request any client sent was answered OK. (Receive
  // failures or non-OK codes counted as errors above.)
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GE(answered.load(), 120);

  server.Join();

  // A drained server refuses new connections (the listener is closed; drain
  // start is asynchronous, so assert only after Join).
  auto late = NetClient::Connect("127.0.0.1", server.port());
  EXPECT_FALSE(late.ok());
  const auto stats = server.stats();
  EXPECT_EQ(stats.requests, answered.load());  // all admitted, all answered
  EXPECT_EQ(stats.reloads, 1);
}

TEST(NetServerTest, AdmissionControlFastFailsPastTheInflightBound) {
  graph::HeteroGraph chain = ChainGraph(10, 6);
  const core::WidenConfig config = SmallConfig();
  const std::string path = WriteColdCheckpoint(chain, config, "net_adm.wdnt");

  // The first batch parks in its fan-out, before it completes, so every
  // admitted request keeps its slot while the rest of the burst arrives.
  testing::WorkerGate gate;
  ServerOptions options;
  options.batcher.fan_out_hook_for_test = [&gate](size_t) { gate.HoldOnce(); };
  auto server_or = NetServer::Start(LoadSession(path, &chain, config), options);
  ASSERT_TRUE(server_or.ok());

  auto client_or = NetClient::Connect("127.0.0.1", (*server_or)->port());
  ASSERT_TRUE(client_or.ok());
  NetClient& client = **client_or;

  constexpr int64_t kBound = NetServer::kMaxInflightRequests;
  constexpr int64_t kExcess = 7;
  for (uint64_t id = 1; id <= kBound + kExcess; ++id) {
    ASSERT_TRUE(client.Send(EmbedRequest(id, {1})).ok());
  }
  int64_t ok = 0;
  int64_t rejected = 0;
  for (int64_t i = 0; i < kBound + kExcess; ++i) {
    // The excess is shed while every slot is held, so its rejections are
    // the first answers; then the held batch is released and every
    // admitted request is served.
    if (i == kExcess) gate.Open();
    NetResponse response;
    ASSERT_TRUE(client.Receive(&response).ok());
    if (response.code == StatusCode::kOk) {
      ++ok;
    } else {
      EXPECT_EQ(response.code, StatusCode::kUnavailable) << response.error;
      ++rejected;
    }
  }
  EXPECT_EQ(ok, kBound);
  EXPECT_EQ(rejected, kExcess);
  EXPECT_EQ((*server_or)->stats().overload_rejections, rejected);
}

TEST(NetServerTest, DrainForceClosesIdleClientsAfterTheGracePeriod) {
  graph::HeteroGraph chain = ChainGraph(10, 6);
  const core::WidenConfig config = SmallConfig();
  const std::string path =
      WriteColdCheckpoint(chain, config, "net_grace.wdnt");
  auto server_or =
      NetServer::Start(LoadSession(path, &chain, config), ServerOptions());
  ASSERT_TRUE(server_or.ok());
  NetServer& server = **server_or;

  auto client_or = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client_or.ok());
  NetClient& client = **client_or;
  auto before = client.Call(EmbedRequest(1, {1}));
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before->code, StatusCode::kOk) << before->error;
  EXPECT_FALSE(before->draining);

  const auto drain_start = std::chrono::steady_clock::now();
  server.SignalDrain();
  // A connection open before the drain is still served, and told to wind
  // down.
  auto during = client.Call(EmbedRequest(2, {2}));
  ASSERT_TRUE(during.ok()) << during.status().ToString();
  EXPECT_EQ(during->code, StatusCode::kOk) << during->error;
  EXPECT_TRUE(during->draining);

  // The client ignores the flag and stays connected, so only the grace
  // period ends the drain.
  server.Join();
  const auto waited = std::chrono::steady_clock::now() - drain_start;
  EXPECT_GE(waited, NetServer::kDrainGrace);
  EXPECT_LT(waited, NetServer::kDrainGrace + std::chrono::seconds(3));

  const auto stats = server.stats();
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.responses, stats.requests);
  // The force-close reaches the client as end-of-stream, not a reset.
  NetResponse after;
  const Status eof = client.Receive(&after);
  EXPECT_EQ(eof.code(), StatusCode::kIOError);
  EXPECT_NE(eof.message().find("closed by server"), std::string::npos)
      << eof.ToString();
}

TEST(NetServerTest, RejectsPortsOutsideTheTcpRange) {
  graph::HeteroGraph chain = ChainGraph(10, 6);
  const core::WidenConfig config = SmallConfig();
  const auto session = LoadSession(
      WriteColdCheckpoint(chain, config, "net_port.wdnt"), &chain, config);
  // A port past 16 bits must not wrap: 65536 would otherwise bind an
  // ephemeral port and 70000 port 4464.
  for (const int port : {-1, 65536, 70000}) {
    ServerOptions options;
    options.port = port;
    auto server = NetServer::Start(session, options);
    ASSERT_FALSE(server.ok()) << "port " << port;
    EXPECT_EQ(server.status().code(), StatusCode::kInvalidArgument);

    auto client = NetClient::Connect("127.0.0.1", port);
    ASSERT_FALSE(client.ok()) << "port " << port;
    EXPECT_EQ(client.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(NetServerTest, WireDeadlineExpiresTypedInTheQueue) {
  graph::HeteroGraph chain = ChainGraph(10, 6);
  const core::WidenConfig config = SmallConfig();
  const std::string path = WriteColdCheckpoint(chain, config, "net_ddl.wdnt");

  // The worker stays held after an earlier request's batch for far longer
  // than the 5 ms wire deadline below.
  testing::WorkerGate gate;
  ServerOptions options;
  options.batcher.post_batch_hook_for_test = [&gate] { gate.HoldOnce(); };
  auto server_or = NetServer::Start(LoadSession(path, &chain, config), options);
  ASSERT_TRUE(server_or.ok());
  NetServer& server = **server_or;

  auto client_or = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client_or.ok());
  NetClient& client = **client_or;
  auto earlier = client.Call(EmbedRequest(1, {1}));
  ASSERT_TRUE(earlier.ok()) << earlier.status().ToString();
  EXPECT_EQ(earlier->code, StatusCode::kOk) << earlier->error;
  gate.AwaitHeld();

  ASSERT_TRUE(client.Send(EmbedRequest(2, {2}, /*deadline_ms=*/5)).ok());
  // Admitted means its deadline is set; let it pass, then free the worker.
  while (server.stats().requests < 2) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.Open();
  NetResponse response;
  ASSERT_TRUE(client.Receive(&response).ok());
  EXPECT_EQ(response.id, 2u);
  EXPECT_EQ(response.code, StatusCode::kDeadlineExceeded) << response.error;
}

}  // namespace
}  // namespace widen::serve::net
