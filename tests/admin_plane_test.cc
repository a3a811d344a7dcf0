// The introspection plane's acceptance bar (DESIGN.md §16): the admin
// listener survives malformed and oversized HTTP, /metrics stays parseable
// while the data plane serves concurrent traffic, /healthz flips to 503 the
// moment a drain starts, the flight recorder's per-thread rings wrap to
// exactly the newest kSlotsPerThread records and never return a torn read,
// and the SLO engine's attainment/burn-rate match closed-form fixtures.

#include "serve/net/admin.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

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
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "serve/net/client.h"
#include "serve/net/protocol.h"
#include "serve/net/server.h"
#include "tensor/ops.h"
#include "util/json.h"

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

// Same deterministic path graph as serve_net_test.cc.
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

std::shared_ptr<InferenceSession> ColdSession(const graph::HeteroGraph* graph,
                                              const core::WidenConfig& config,
                                              const char* name) {
  auto model = core::WidenModel::Create(graph, config);
  WIDEN_CHECK(model.ok());
  const std::string path = TempPath(name);
  WIDEN_CHECK_OK(core::SaveWidenModel(**model, path));
  auto session = InferenceSession::Load(path, graph, config);
  WIDEN_CHECK(session.ok()) << session.status().ToString();
  return std::shared_ptr<InferenceSession>(std::move(session).value());
}

// Sends raw bytes to the admin port and returns everything the server sends
// back — the door for malformed-HTTP tests AdminHttpGet can't express.
std::string RawAdminExchange(int port, const std::string& payload) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  WIDEN_CHECK(fd >= 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  WIDEN_CHECK(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) == 1);
  WIDEN_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)) == 0);
  size_t sent = 0;
  while (sent < payload.size()) {
    const ssize_t n =
        ::send(fd, payload.data() + sent, payload.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;  // server may 400 + close before the full payload
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(ProtocolTraceTest, TrailerRoundTripsAndUntracedFramesAreUnchanged) {
  NetRequest request;
  request.id = 42;
  request.op = NetOp::kEmbed;
  request.deadline_ms = 250;
  request.nodes = {1, 5, 9};
  const std::string untraced = EncodeRequest(request);

  request.has_trace = true;
  request.trace_id = 0xDEADBEEFCAFEF00Dull;
  request.trace_flags = kTraceFlagSampled;
  const std::string traced = EncodeRequest(request);

  // The trailer is presence-gated: an untraced frame is byte-identical to
  // the pre-trailer wire format, a traced frame is exactly 9 bytes longer
  // and identical after the (larger) length prefix.
  ASSERT_EQ(traced.size(), untraced.size() + kTraceTrailerBytes);
  EXPECT_EQ(std::memcmp(traced.data() + kFrameHeaderBytes,
                        untraced.data() + kFrameHeaderBytes,
                        untraced.size() - kFrameHeaderBytes),
            0);

  NetRequest decoded;
  ASSERT_TRUE(DecodeRequestPayload(traced.data() + kFrameHeaderBytes,
                                   traced.size() - kFrameHeaderBytes, &decoded)
                  .ok());
  EXPECT_TRUE(decoded.has_trace);
  EXPECT_EQ(decoded.trace_id, 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(decoded.trace_flags, kTraceFlagSampled);
  EXPECT_EQ(decoded.nodes, (std::vector<graph::NodeId>{1, 5, 9}));

  NetRequest plain;
  ASSERT_TRUE(DecodeRequestPayload(untraced.data() + kFrameHeaderBytes,
                                   untraced.size() - kFrameHeaderBytes, &plain)
                  .ok());
  EXPECT_FALSE(plain.has_trace);

  // Residue that is not exactly one trailer stays a hard decode error.
  std::string bad = traced.substr(0, traced.size() - 1);
  uint32_t len = static_cast<uint32_t>(bad.size() - kFrameHeaderBytes);
  std::memcpy(bad.data(), &len, sizeof(len));
  NetRequest rejected;
  EXPECT_FALSE(DecodeRequestPayload(bad.data() + kFrameHeaderBytes,
                                    bad.size() - kFrameHeaderBytes, &rejected)
                   .ok());

  // Responses echo the trailer on both the OK and the error path.
  NetResponse ok_response;
  ok_response.id = 42;
  ok_response.op = NetOp::kEmbed;
  ok_response.rows = 1;
  ok_response.cols = 2;
  ok_response.floats = {1.0f, 2.0f};
  ok_response.has_trace = true;
  ok_response.trace_id = 7;
  ok_response.trace_flags = kTraceFlagSampled;
  const std::string ok_frame = EncodeResponse(ok_response);
  NetResponse ok_decoded;
  ASSERT_TRUE(DecodeResponsePayload(ok_frame.data() + kFrameHeaderBytes,
                                    ok_frame.size() - kFrameHeaderBytes,
                                    &ok_decoded)
                  .ok());
  EXPECT_TRUE(ok_decoded.has_trace);
  EXPECT_EQ(ok_decoded.trace_id, 7u);
  EXPECT_EQ(ok_decoded.floats, ok_response.floats);

  NetResponse error_response;
  error_response.id = 43;
  error_response.op = NetOp::kPredict;
  error_response.code = StatusCode::kUnavailable;
  error_response.error = "over capacity";
  error_response.has_trace = true;
  error_response.trace_id = 99;
  const std::string error_frame = EncodeResponse(error_response);
  NetResponse error_decoded;
  ASSERT_TRUE(DecodeResponsePayload(error_frame.data() + kFrameHeaderBytes,
                                    error_frame.size() - kFrameHeaderBytes,
                                    &error_decoded)
                  .ok());
  EXPECT_TRUE(error_decoded.has_trace);
  EXPECT_EQ(error_decoded.trace_id, 99u);
  EXPECT_EQ(error_decoded.code, StatusCode::kUnavailable);
  EXPECT_EQ(error_decoded.error, "over capacity");
}

TEST(FlightRecorderTest, WraparoundKeepsExactlyTheNewestRecords) {
  obs::SetMetricsEnabled(true);
  obs::FlightRecorder& recorder = obs::FlightRecorder::Get();
  recorder.Clear();

  constexpr size_t kSlots = obs::FlightRecorder::kSlotsPerThread;
  constexpr size_t kWrites = kSlots + 10;
  for (size_t i = 1; i <= kWrites; ++i) {
    obs::FlightRecord record;
    record.op = 777;
    record.request_id = i;
    record.admitted_us = 0;
    record.replied_us = static_cast<int64_t>(i);  // total_us == i
    recorder.Record(record);
  }

  std::vector<obs::FlightRecord> mine;
  for (const obs::FlightRecord& r : recorder.Snapshot()) {
    if (r.op == 777) mine.push_back(r);
  }
  // Exactly the ring capacity survives; the 10 oldest were overwritten and
  // the survivors come back oldest-first with ids 11..522 in order.
  ASSERT_EQ(mine.size(), kSlots);
  for (size_t i = 0; i < mine.size(); ++i) {
    EXPECT_EQ(mine[i].request_id, i + 11) << "at snapshot index " << i;
  }
  EXPECT_GE(recorder.TotalRecorded(), static_cast<uint64_t>(kWrites));

  // The dump ranks by total_us (slowest) and replied_us (recent) — both put
  // the last write first — and must parse as JSON.
  auto dump = Json::Parse(recorder.DumpJson(4, 4));
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  const Json* slowest = dump->Find("slowest");
  ASSERT_NE(slowest, nullptr);
  ASSERT_FALSE(slowest->array_items().empty());
  EXPECT_EQ(slowest->array_items()[0].Find("request_id")->int_value(),
            static_cast<int64_t>(kWrites));
  const Json* recent = dump->Find("recent");
  ASSERT_NE(recent, nullptr);
  ASSERT_FALSE(recent->array_items().empty());
  EXPECT_EQ(recent->array_items()[0].Find("request_id")->int_value(),
            static_cast<int64_t>(kWrites));

  // With the kill switch off, Record() must not publish.
  obs::SetMetricsEnabled(false);
  obs::FlightRecord dropped;
  dropped.op = 777;
  dropped.request_id = 9999;
  recorder.Record(dropped);
  obs::SetMetricsEnabled(true);
  for (const obs::FlightRecord& r : recorder.Snapshot()) {
    EXPECT_NE(r.request_id, 9999u);
  }
}

TEST(FlightRecorderTest, ConcurrentSnapshotsNeverObserveTornRecords) {
  obs::SetMetricsEnabled(true);
  obs::FlightRecorder& recorder = obs::FlightRecorder::Get();
  recorder.Clear();

  // Writers publish records whose fields are all derived from request_id;
  // any torn read breaks the relation. Snapshots run concurrently.
  std::atomic<bool> stop{false};
  std::atomic<int64_t> torn{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&recorder, w] {
      for (uint64_t i = 1; i <= 4000; ++i) {
        obs::FlightRecord record;
        record.op = static_cast<uint16_t>(1000 + w);
        record.request_id = i;
        record.trace_id = i * 3;
        record.admitted_us = static_cast<int64_t>(i * 5);
        record.replied_us = static_cast<int64_t>(i * 5 + 7);
        record.queue_us = static_cast<uint32_t>(i % 1000);
        recorder.Record(record);
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load()) {
      for (const obs::FlightRecord& r : recorder.Snapshot()) {
        if (r.op < 1000 || r.op > 1003) continue;
        const uint64_t i = r.request_id;
        if (r.trace_id != i * 3 ||
            r.admitted_us != static_cast<int64_t>(i * 5) ||
            r.replied_us != static_cast<int64_t>(i * 5 + 7) ||
            r.queue_us != static_cast<uint32_t>(i % 1000)) {
          ++torn;
        }
      }
    }
  });
  for (std::thread& t : writers) t.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(torn.load(), 0);
}

TEST(SloEngineTest, AttainmentAndBurnRateMatchClosedForm) {
  obs::SetMetricsEnabled(true);
  obs::Histogram* hist = obs::MetricsRegistry::Get().GetHistogram(
      "test_slo_closed_form_us", "closed-form SLO fixture");
  obs::SloEngine engine({{"cf", hist, /*threshold_us=*/1000.0}});

  engine.TickAt(0.0);  // empty baseline sample

  // 99 good (10us, far below any bucket straddling 1ms) + 1 bad (1s):
  // attainment = 99/100, burn = (1 - 0.99) / (1 - 0.99) = 1.0 exactly.
  for (int i = 0; i < 99; ++i) hist->Record(10.0);
  hist->Record(1e6);
  engine.TickAt(10.0);
  {
    auto reports = engine.Report();
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].short_window.total, 100);
    EXPECT_DOUBLE_EQ(reports[0].short_window.attainment, 0.99);
    EXPECT_NEAR(reports[0].short_window.burn_rate, 1.0, 1e-9);
    EXPECT_FALSE(engine.Degraded());  // 0.99 meets the 0.99 objective
  }

  // 10 more bad: window totals 110, good 99 → attainment 0.9, burn 10.
  for (int i = 0; i < 10; ++i) hist->Record(1e6);
  engine.TickAt(20.0);
  {
    auto reports = engine.Report();
    EXPECT_EQ(reports[0].short_window.total, 110);
    EXPECT_DOUBLE_EQ(reports[0].short_window.attainment, 0.9);
    EXPECT_NEAR(reports[0].short_window.burn_rate, 10.0, 1e-9);
    EXPECT_TRUE(engine.Degraded());

    // The exported gauges carry the same numbers.
    EXPECT_DOUBLE_EQ(obs::MetricsRegistry::Get()
                         .GetGauge("widen_slo_cf_attainment_5m", "")
                         ->Value(),
                     0.9);
    EXPECT_NEAR(obs::MetricsRegistry::Get()
                    .GetGauge("widen_slo_cf_burn_rate_5m", "")
                    ->Value(),
                10.0, 1e-9);
  }

  // 300s later every miss has aged out of the short window (the only sample
  // inside it is the fresh one → no traffic → attainment 1.0), while the
  // 1h window still sees all 110 requests.
  engine.TickAt(320.0);
  {
    auto reports = engine.Report();
    EXPECT_EQ(reports[0].short_window.total, 0);
    EXPECT_DOUBLE_EQ(reports[0].short_window.attainment, 1.0);
    EXPECT_DOUBLE_EQ(reports[0].short_window.burn_rate, 0.0);
    EXPECT_FALSE(engine.Degraded());
    EXPECT_EQ(reports[0].long_window.total, 110);
    EXPECT_NEAR(reports[0].long_window.attainment, 99.0 / 110.0, 1e-12);
  }

  // DumpJson parses and carries the objective.
  auto json = Json::Parse(engine.DumpJson());
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  const Json* slos = json->Find("slos");
  ASSERT_NE(slos, nullptr);
  ASSERT_EQ(slos->array_items().size(), 1u);
  EXPECT_EQ(slos->array_items()[0].Find("op")->string_value(), "cf");
}

TEST(AdminServerTest, RejectsMalformedOversizedAndUnknownRequests) {
  AdminOptions options;
  options.port = 0;
  auto server = AdminServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = (*server)->port();

  int code = 0;
  auto health = AdminHttpGet("127.0.0.1", port, "/healthz", &code);
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(code, 200);
  EXPECT_EQ(*health, "ok\n");

  auto missing = AdminHttpGet("127.0.0.1", port, "/nope", &code);
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(code, 404);

  // Non-GET methods are refused, not routed.
  EXPECT_NE(RawAdminExchange(port, "POST /healthz HTTP/1.0\r\n\r\n")
                .find("405"),
            std::string::npos);
  // A request line that is not even METHOD-PATH shaped.
  EXPECT_NE(RawAdminExchange(port, "BORK\r\n\r\n").find("400"),
            std::string::npos);
  // An oversized request (no newline within the 8 KB cap) is cut off with a
  // 400, never buffered unboundedly.
  EXPECT_NE(RawAdminExchange(port, std::string(16 * 1024, 'A')).find("400"),
            std::string::npos);

  // The listener survives all of the abuse above.
  auto still_ok = AdminHttpGet("127.0.0.1", port, "/healthz", &code);
  ASSERT_TRUE(still_ok.ok());
  EXPECT_EQ(code, 200);
}

TEST(AdminServerTest, RejectsPortsOutsideTheTcpRange) {
  // A port past 16 bits must not wrap: 65536 would otherwise bind an
  // ephemeral port and 70000 port 4464.
  for (const int port : {-1, 65536, 70000}) {
    AdminOptions options;
    options.port = port;
    auto server = AdminServer::Start(options);
    ASSERT_FALSE(server.ok()) << "port " << port;
    EXPECT_EQ(server.status().code(), StatusCode::kInvalidArgument);

    auto get = AdminHttpGet("127.0.0.1", port, "/healthz");
    ASSERT_FALSE(get.ok()) << "port " << port;
    EXPECT_EQ(get.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(AdminServerTest, ScrapesParseBackUnderLiveLoadAndHealthzFlipsOnDrain) {
  obs::SetMetricsEnabled(true);
  obs::FlightRecorder::Get().Clear();
  graph::HeteroGraph chain = ChainGraph(10, 6);
  const core::WidenConfig config = SmallConfig();
  auto session = ColdSession(&chain, config, "admin_plane.ckpt");

  ServerOptions server_options;
  server_options.port = 0;
  auto net_server = NetServer::Start(session, server_options);
  ASSERT_TRUE(net_server.ok()) << net_server.status().ToString();
  NetServer* net = net_server->get();

  auto admin = StartAdminPlane(net, /*port=*/0, /*slo_threshold_us=*/5e6);
  ASSERT_TRUE(admin.ok()) << admin.status().ToString();
  const int admin_port = admin->server->port();

  // Live load: three clients, traced requests, echo verified per response.
  std::atomic<int64_t> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      auto client = NetClient::Connect("127.0.0.1", net->port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (uint64_t q = 1; q <= 30; ++q) {
        NetRequest request;
        request.id = static_cast<uint64_t>(c) << 32 | q;
        request.op = NetOp::kEmbed;
        request.nodes = {static_cast<graph::NodeId>(q % 10),
                         static_cast<graph::NodeId>((q + 3) % 10)};
        request.has_trace = (q % 2 == 0);
        request.trace_id = request.id * 31;
        request.trace_flags = kTraceFlagSampled;
        auto response = (*client)->Call(request);
        if (!response.ok() || response->code != StatusCode::kOk) {
          ++failures;
          continue;
        }
        if (request.has_trace &&
            (!response->has_trace || response->trace_id != request.trace_id)) {
          ++failures;
        }
      }
    });
  }

  // Concurrent scrapes: every /metrics body must be structurally valid
  // Prometheus text, every /varz and /tracez body valid JSON.
  for (int i = 0; i < 8; ++i) {
    int code = 0;
    auto metrics = AdminHttpGet("127.0.0.1", admin_port, "/metrics", &code);
    ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
    EXPECT_EQ(code, 200);
    Status valid = obs::ValidatePrometheusText(*metrics);
    EXPECT_TRUE(valid.ok()) << valid.ToString();
    EXPECT_NE(metrics->find("widen_slo_embed_attainment_5m"),
              std::string::npos);
    EXPECT_NE(metrics->find("widen_slo_predict_attainment_5m"),
              std::string::npos);

    auto varz = AdminHttpGet("127.0.0.1", admin_port, "/varz", &code);
    ASSERT_TRUE(varz.ok());
    EXPECT_EQ(code, 200);
    EXPECT_TRUE(Json::Parse(*varz).ok());
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  // The served requests left flight records behind; /tracez shows them.
  int code = 0;
  auto tracez = AdminHttpGet("127.0.0.1", admin_port, "/tracez", &code);
  ASSERT_TRUE(tracez.ok());
  EXPECT_EQ(code, 200);
  auto tracez_json = Json::Parse(*tracez);
  ASSERT_TRUE(tracez_json.ok()) << tracez_json.status().ToString();
  EXPECT_GT(tracez_json->Find("total_recorded")->int_value(), 0);

  auto profilez = AdminHttpGet("127.0.0.1", admin_port, "/profilez", &code);
  ASSERT_TRUE(profilez.ok());
  EXPECT_EQ(code, 200);

  // Drain flips /healthz to 503 with the reason, immediately.
  auto healthy = AdminHttpGet("127.0.0.1", admin_port, "/healthz", &code);
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(code, 200);
  net->SignalDrain();
  auto draining = AdminHttpGet("127.0.0.1", admin_port, "/healthz", &code);
  ASSERT_TRUE(draining.ok());
  EXPECT_EQ(code, 503);
  EXPECT_NE(draining->find("draining"), std::string::npos);
  net->Join();
}

}  // namespace
}  // namespace widen::serve::net
