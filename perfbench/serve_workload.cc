// serve_warm, serve_cold and serve_ingest: the production NetServer ->
// RequestBatcher -> InferenceSession stack, spawned in-process over an
// ACM-schema graph of 20,480 nodes with the paper-default model, driven over
// the wire by the open-loop generator (loadgen.h).
//
// Untraced run:  generator self-check, set-up (kSetups times; the median is
// setup_s), store warm-up, a fixed-rate phase (op_p50_ms / op_p95_ms and
// the output checks), then saturation bursts (capacity_per_s).
// Traced run:    the same fixed-rate phase untraced and then traced (wire
// trace ids, Health probes, flight-recorder join, server counter deltas),
// the SLO ladder (client.max_rps_at_slo), and replays of the captured
// inputs into a standalone RequestBatcher, InferenceSession::Ingest and the
// encoder entry points, each call a span.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "core/checkpoint.h"
#include "core/encoder.h"
#include "core/widen_model.h"
#include "datasets/acm.h"
#include "graph/graph_view.h"
#include "loadgen.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "selfcheck.h"
#include "serve/inference_session.h"
#include "serve/net/client.h"
#include "serve/net/server.h"
#include "serve/request_batcher.h"
#include "spans.h"
#include "tensor/inference.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {

namespace core = widen::core;
namespace graph = widen::graph;
namespace obs = widen::obs;
namespace serve = widen::serve;
namespace T = widen::tensor;
using widen::StatusCode;

core::WidenConfig PaperConfig() {
  core::WidenConfig config;  // the struct defaults are the paper defaults
  config.num_threads = 1;
  return config;
}

bool IsServeWorkload(const std::string& name) {
  return name == "serve_warm" || name == "serve_cold" ||
         name == "serve_ingest";
}

namespace {

constexpr double kSloMs = 50.0;           // the server's default --slo_ms
constexpr uint32_t kDeadlineMs = 1000;    // wire deadline on every read
constexpr double kGraphScale = 10.0;      // ACM schema x10 = 20,480 nodes
constexpr int64_t kHotSetSize = 1024;     // serve_warm's Zipf universe
constexpr double kIngestShare = 0.15;     // serve_ingest's write share
constexpr double kHealthProbeHz = 200.0;  // traced phase only
constexpr int kSampleEvery = 8;           // read responses kept for checks
constexpr double kFixedShare = 0.7;       // of --seconds: fixed-rate phase
constexpr double kCoarseProbeShare = 0.04;  // of --seconds: a coarse probe
constexpr double kSaturationShare = 0.4;   // of --seconds: saturation bursts
constexpr int kSaturationBursts = 12;
// Requests kept outstanding in the saturation phase: enough to fill every
// batch, half the server's admission bound (256), so none is rejected.
constexpr int kSaturationWindow = 128;
constexpr int kMaxWindows = 8;            // of the fixed phase, for op_p*_ms
constexpr int64_t kMinWindowOps = 1000;   // OK operations per window
constexpr size_t kFineProbes = 6;         // one-rung probes per ladder
constexpr int kMaxLadderProbes = 16;
constexpr double kLadderBaseRate = 25.0;  // rung k = base * 2^(k/24)
constexpr int kRungsPerOctave = 24;
constexpr int kLadderTop = 336;           // 409,600 req/s

enum class Kind { kWarm, kCold, kIngest };

struct Spec {
  Kind kind;
  double fixed_rate;  // req/s, about half the measured capacity
  int64_t store_capacity;
};

Spec SpecFor(const std::string& name) {
  if (name == "serve_warm") return {Kind::kWarm, 8000.0, 4096};
  if (name == "serve_cold") return {Kind::kCold, 150.0, 1024};
  return {Kind::kIngest, 80.0, 4096};
}

// ---------------------------------------------------------------------------
// The stack under test.

struct Stack {
  graph::HeteroGraph graph;
  core::WidenConfig config;
  serve::SessionOptions session_options;
  std::string ckpt;
  std::unique_ptr<serve::net::NetServer> server;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    server.reset();  // drains and joins before the graph goes away
    if (!ckpt.empty()) std::remove(ckpt.c_str());
  }

  std::unique_ptr<serve::InferenceSession> FreshSession() const {
    auto session =
        serve::InferenceSession::Load(ckpt, &graph, config, session_options);
    WIDEN_CHECK(session.ok()) << session.status().ToString();
    return std::move(session).value();
  }
};

// Graph, checkpoint, session, server start: what setup_s times.
std::unique_ptr<Stack> BuildStack(const RunArgs& args, const Spec& spec) {
  auto stack = std::make_unique<Stack>();
  widen::datasets::DatasetOptions data;
  data.scale = kGraphScale;
  data.seed = args.seed;
  auto generated =
      widen::datasets::GenerateSyntheticGraph(widen::datasets::AcmSpec(data));
  WIDEN_CHECK(generated.ok()) << generated.status().ToString();
  stack->graph = std::move(generated).value();
  stack->config = PaperConfig();
  stack->ckpt = args.out_dir + "/serve-" + std::to_string(::getpid()) + ".wdnt";
  {
    // Untrained weights: a checkpoint without a rep table, so every base
    // node is served through the store / cold-encode path.
    auto model = core::WidenModel::Create(&stack->graph, stack->config);
    WIDEN_CHECK(model.ok()) << model.status().ToString();
    WIDEN_CHECK_OK(core::SaveWidenModel(**model, stack->ckpt));
  }
  stack->session_options.store_capacity = spec.store_capacity;
  stack->session_options.num_threads = 1;
  serve::net::ServerOptions options;  // production defaults otherwise
  options.port = 0;
  auto server = serve::net::NetServer::Start(
      std::shared_ptr<serve::InferenceSession>(stack->FreshSession()),
      options);
  WIDEN_CHECK(server.ok()) << server.status().ToString();
  stack->server = std::move(server).value();
  return stack;
}

// ---------------------------------------------------------------------------
// Traffic.

// Node populations the traffic draws from, fixed by the graph.
struct Universe {
  int64_t base_nodes = 0;
  int64_t feature_dim = 0;
  std::vector<graph::NodeId> hot;   // serve_warm's hot set, by Zipf rank
  std::vector<double> hot_cdf;      // Zipf(s = 1) over ranks
  std::vector<graph::NodeId> authors;
  std::vector<graph::NodeId> subjects;
  graph::NodeTypeId paper_type = 0;
  graph::EdgeTypeId paper_author = 0;
  graph::EdgeTypeId paper_subject = 0;
};

Universe MakeUniverse(const graph::HeteroGraph& g, uint64_t seed) {
  Universe u;
  u.base_nodes = g.num_nodes();
  u.feature_dim = g.feature_dim();
  const graph::GraphSchema& schema = g.schema();
  u.paper_type = schema.FindNodeType("paper").value();
  const graph::NodeTypeId author = schema.FindNodeType("author").value();
  const graph::NodeTypeId subject = schema.FindNodeType("subject").value();
  u.paper_author = schema.FindEdgeType("paper-author").value();
  u.paper_subject = schema.FindEdgeType("paper-subject").value();
  std::vector<graph::NodeId> all;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    all.push_back(v);
    if (g.node_type(v) == author) u.authors.push_back(v);
    if (g.node_type(v) == subject) u.subjects.push_back(v);
  }
  widen::Rng rng(seed ^ 0x5eed0001ULL);
  rng.Shuffle(all);
  u.hot.assign(all.begin(), all.begin() + std::min<int64_t>(kHotSetSize, g.num_nodes()));
  double sum = 0.0;
  for (size_t r = 0; r < u.hot.size(); ++r) {
    sum += 1.0 / static_cast<double>(r + 1);
    u.hot_cdf.push_back(sum);
  }
  for (double& c : u.hot_cdf) c /= sum;
  return u;
}

// Ingests of one run, shared by all its phases.
struct Ledger {
  std::vector<net::IngestPayload> payloads;          // by planned index
  std::vector<std::vector<graph::NodeId>> anchors;   // its existing endpoints
  std::map<uint64_t, int64_t> by_version;            // acked version -> index
  std::vector<graph::NodeId> fresh;                  // acked node ids
  std::vector<int64_t> fresh_index;                  // ... and their index
  uint64_t max_acked = 0;
  int64_t outstanding = 0;
};

// One read response kept for the output checks, with the window of graph
// versions it may have been computed at.
struct ReadSample {
  std::vector<graph::NodeId> nodes;
  bool predict = false;
  std::vector<float> floats;
  std::vector<int32_t> labels;
  uint64_t v_lo = 0;
  uint64_t v_hi = 0;
};

class ServeTraffic final : public Traffic {
 public:
  ServeTraffic(Kind kind, const Universe* universe, Ledger* ledger,
               uint64_t seed, bool keep_samples)
      : kind_(kind), u_(universe), ledger_(ledger), rng_(seed),
        keep_samples_(keep_samples) {}

  void Make(int64_t seq, net::NetRequest* request) override {
    if (v_lo_.size() <= static_cast<size_t>(seq)) {
      v_lo_.resize(static_cast<size_t>(seq) + 1, 0);
    }
    v_lo_[static_cast<size_t>(seq)] = ledger_->max_acked;
    if (kind_ == Kind::kIngest && rng_.UniformDouble() < kIngestShare) {
      MakeIngest(seq, request);
      return;
    }
    request->op = rng_.UniformDouble() < 0.8 ? net::NetOp::kEmbed
                                             : net::NetOp::kPredict;
    request->deadline_ms = kDeadlineMs;
    const int64_t n = 1 + static_cast<int64_t>(rng_.UniformInt(4));
    for (int64_t i = 0; i < n; ++i) request->nodes.push_back(PickNode());
  }

  int Connection(const net::NetRequest& request) const override {
    // Ingests share one connection, so the server applies them in send
    // order and versions map to planned ingests one to one.
    return request.op == net::NetOp::kIngest ? 0 : -1;
  }

  void OnResponse(int64_t seq, const net::NetRequest& request,
                  const net::NetResponse& response) override {
    if (request.op == net::NetOp::kIngest) {
      --ledger_->outstanding;
      if (response.code != StatusCode::kOk) return;
      const int64_t index = planned_of_seq_[seq];
      ledger_->by_version[response.value] = index;
      ledger_->max_acked = std::max(ledger_->max_acked, response.value);
      ledger_->fresh.push_back(static_cast<graph::NodeId>(
          u_->base_nodes + static_cast<int64_t>(response.value) - 1));
      ledger_->fresh_index.push_back(index);
      return;
    }
    if (!keep_samples_ || response.code != StatusCode::kOk ||
        seq % kSampleEvery != 0) {
      return;
    }
    ReadSample sample;
    sample.nodes = request.nodes;
    sample.predict = request.op == net::NetOp::kPredict;
    sample.floats = response.floats;
    sample.labels = response.labels;
    sample.v_lo = v_lo_[static_cast<size_t>(seq)];
    sample.v_hi = ledger_->max_acked + static_cast<uint64_t>(
                                           std::max<int64_t>(0, ledger_->outstanding));
    samples.push_back(std::move(sample));
  }

  std::vector<ReadSample> samples;

 private:
  graph::NodeId Uniform() {
    return static_cast<graph::NodeId>(
        rng_.UniformInt(static_cast<uint64_t>(u_->base_nodes)));
  }

  graph::NodeId PickNode() {
    switch (kind_) {
      case Kind::kWarm: {
        const double x = rng_.UniformDouble();
        const size_t rank = static_cast<size_t>(
            std::lower_bound(u_->hot_cdf.begin(), u_->hot_cdf.end(), x) -
            u_->hot_cdf.begin());
        return u_->hot[std::min(rank, u_->hot.size() - 1)];
      }
      case Kind::kCold:
        return Uniform();
      case Kind::kIngest: {
        // The inductive case: reads favour the freshest acked nodes and the
        // existing nodes they were wired to.
        const double x = rng_.UniformDouble();
        const size_t acked = ledger_->fresh.size();
        if (acked == 0 || x >= 0.7) return Uniform();
        const size_t pick =
            acked - 1 - rng_.UniformInt(std::min<uint64_t>(32, acked));
        if (x < 0.4) return ledger_->fresh[pick];
        const std::vector<graph::NodeId>& anchors =
            ledger_->anchors[static_cast<size_t>(ledger_->fresh_index[pick])];
        return anchors[rng_.UniformInt(anchors.size())];
      }
    }
    return 0;
  }

  void MakeIngest(int64_t seq, net::NetRequest* request) {
    net::IngestPayload payload;
    payload.feature_dim = static_cast<int32_t>(u_->feature_dim);
    payload.node_types = {u_->paper_type};
    payload.features.assign(static_cast<size_t>(u_->feature_dim), 0.0f);
    for (int w = 0; w < 12; ++w) {  // a bag of ~12 words, like the base papers
      payload.features[rng_.UniformInt(static_cast<uint64_t>(u_->feature_dim))] =
          1.0f;
    }
    const graph::NodeId a =
        u_->authors[rng_.UniformInt(u_->authors.size())];
    graph::NodeId b = u_->authors[rng_.UniformInt(u_->authors.size())];
    while (b == a) b = u_->authors[rng_.UniformInt(u_->authors.size())];
    const graph::NodeId s =
        u_->subjects[rng_.UniformInt(u_->subjects.size())];
    payload.edges = {{-1, a, u_->paper_author},
                     {-1, b, u_->paper_author},
                     {-1, s, u_->paper_subject}};
    request->op = net::NetOp::kIngest;
    request->ingest = payload;
    planned_of_seq_[seq] = static_cast<int64_t>(ledger_->payloads.size());
    ledger_->payloads.push_back(std::move(payload));
    ledger_->anchors.push_back({a, b, s});
    ++ledger_->outstanding;
  }

  Kind kind_;
  const Universe* u_;
  Ledger* ledger_;
  widen::Rng rng_;
  bool keep_samples_;
  std::vector<uint64_t> v_lo_;
  std::unordered_map<int64_t, int64_t> planned_of_seq_;
};

// ---------------------------------------------------------------------------
// Phase analysis.

bool IsRead(net::NetOp op) {
  return op == net::NetOp::kEmbed || op == net::NetOp::kPredict;
}

struct PhaseStats {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t rejected = 0;    // kUnavailable (admission control)
  int64_t expired = 0;     // kDeadlineExceeded
  int64_t unanswered = 0;  // transport
  std::vector<double> read_ms;    // OK reads
  std::vector<double> ingest_ms;  // OK ingests
  std::vector<double> op_ms;      // OK reads and ingests
  std::vector<double> lag_ms;
  double slo_p95_ms = 0.0;  // reads, failures (any op) counted as misses
  bool backlog_grew = false;
};

PhaseStats Analyze(const PhaseResult& phase) {
  PhaseStats s;
  std::vector<double> slo_set;
  std::vector<double> read_in_order;  // by due time; misses are huge
  constexpr double kMiss = 1e9;
  for (size_t i = 0; i < phase.outcomes.size(); ++i) {
    const Outcome& o = phase.outcomes[i];
    const bool read = IsRead(phase.requests[i].op);
    ++s.attempted;
    s.lag_ms.push_back(o.LagMs());
    if (!o.ok()) {
      ++s.failed;
      slo_set.push_back(kMiss);
      if (read) read_in_order.push_back(kMiss);
      continue;
    }
    const double ms = o.LatencyMs();
    s.op_ms.push_back(ms);
    if (read) {
      s.read_ms.push_back(ms);
      slo_set.push_back(ms);
      read_in_order.push_back(ms);
    } else {
      s.ingest_ms.push_back(ms);
    }
  }
  for (const Outcome& o : phase.outcomes) {
    if (o.ok()) continue;
    if (!o.answered) {
      ++s.unanswered;
    } else if (o.code == StatusCode::kUnavailable) {
      ++s.rejected;
    } else if (o.code == StatusCode::kDeadlineExceeded) {
      ++s.expired;
    }
  }
  s.slo_p95_ms = Percentile(slo_set, 0.95);
  // A growing backlog shows as latency that climbs through the phase: the
  // last quarter's median far above the first quarter's.
  const size_t q = read_in_order.size() / 4;
  if (q >= 8) {
    std::vector<double> first(read_in_order.begin(), read_in_order.begin() + q);
    std::vector<double> last(read_in_order.end() - q, read_in_order.end());
    s.backlog_grew =
        Percentile(last, 0.5) > 2.0 * Percentile(first, 0.5) + 5.0;
  }
  return s;
}

// Percentile p of `ms` (in due order) within each of up to kMaxWindows
// consecutive windows of at least kMinWindowOps values; the median over the
// windows. A host stall then moves only the windows it falls in.
double WindowedPercentile(const std::vector<double>& ms, double p) {
  const int64_t n = static_cast<int64_t>(ms.size());
  const int64_t windows =
      std::clamp<int64_t>(n / kMinWindowOps, 1, kMaxWindows);
  std::vector<double> per_window;
  for (int64_t w = 0; w < windows; ++w) {
    per_window.push_back(Percentile(
        std::vector<double>(ms.begin() + n * w / windows,
                            ms.begin() + n * (w + 1) / windows),
        p));
  }
  return Percentile(per_window, 0.5);
}

// ---------------------------------------------------------------------------
// Server-side counters, read before and after a phase.

struct Counters {
  serve::net::NetServer::Stats net;
  serve::InferenceSession::Stats session;
  obs::Histogram::Snapshot linger;
  obs::Histogram::Snapshot batch_nodes;
  obs::Histogram::Snapshot embed_us;
  obs::Histogram::Snapshot invalidated;
  int64_t expired = 0;
};

obs::Histogram* Hist(const char* name) {
  // Find-or-create; the serving code registered these at first use.
  return obs::MetricsRegistry::Get().GetHistogram(name, "");
}

Counters ReadCounters(const Stack& stack) {
  Counters c;
  c.net = stack.server->stats();
  c.session = stack.server->session()->stats();
  c.linger = Hist("widen_serve_batcher_linger_us")->TakeSnapshot();
  c.batch_nodes = Hist("widen_serve_batcher_batch_nodes")->TakeSnapshot();
  c.embed_us = Hist("widen_serve_embed_us")->TakeSnapshot();
  c.invalidated = Hist("widen_serve_invalidated_nodes")->TakeSnapshot();
  c.expired = obs::MetricsRegistry::Get()
                  .GetCounter("widen_serve_batcher_expired_total", "")
                  ->Value();
  return c;
}

// Distribution of what was recorded between two snapshots.
struct HistDelta {
  std::vector<int64_t> buckets;
  int64_t count = 0;
  double sum = 0.0;

  HistDelta(const obs::Histogram::Snapshot& before,
            const obs::Histogram::Snapshot& after)
      : buckets(obs::Histogram::kNumBuckets) {
    for (int b = 0; b < obs::Histogram::kNumBuckets; ++b) {
      buckets[static_cast<size_t>(b)] = after.buckets[b] - before.buckets[b];
      count += buckets[static_cast<size_t>(b)];
    }
    sum = after.sum - before.sum;
  }

  double Mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }

  // Interpolated inside the containing log bin (~4.4% resolution).
  double Percentile(double p) const {
    if (count == 0) return 0.0;
    const double target = p * static_cast<double>(count);
    double seen = 0.0;
    for (int b = 0; b < obs::Histogram::kNumBuckets; ++b) {
      const double n = static_cast<double>(buckets[static_cast<size_t>(b)]);
      if (n > 0 && seen + n >= target) {
        const double lo = b == 0 ? 0.0 : obs::Histogram::BucketUpperBound(b - 1);
        double hi = obs::Histogram::BucketUpperBound(b);
        if (!std::isfinite(hi)) hi = lo;
        return lo + (hi - lo) * (target - seen) / n;
      }
      seen += n;
    }
    return 0.0;
  }
};

// ---------------------------------------------------------------------------
// The run.

class ServeRun {
 public:
  ServeRun(const RunArgs& args, RunResult* result)
      : args_(args), spec_(SpecFor(args.workload)), result_(result) {}

  void Run();

 private:
  PhaseResult Phase(double rate, double seconds, bool keep_samples,
                    const LoadOptions& options);
  void Warm(serve::InferenceSession& session) const;
  void CheckSamples(const std::vector<ReadSample>& samples);
  void CheckIngestedQueryable();
  double Ladder(int64_t* top_inflight);
  double Saturate();
  void TracedLayers(const PhaseResult& untraced);
  void Replays(const PhaseResult& traced, SpanLog& spans);

  const RunArgs args_;
  const Spec spec_;
  RunResult* result_;
  std::unique_ptr<Stack> stack_;
  Universe universe_;
  Ledger ledger_;
  uint64_t next_id_ = 1;
  uint64_t phase_index_ = 0;
  uint64_t traced_version_ = 0;  // graph version when the traced phase ended
};

PhaseResult ServeRun::Phase(double rate, double seconds, bool keep_samples,
                            const LoadOptions& options) {
  ServeTraffic traffic(spec_.kind, &universe_, &ledger_,
                       args_.seed * 1000003ULL + (++phase_index_),
                       keep_samples);
  auto phase = RunOpenLoop("127.0.0.1", stack_->server->port(), rate,
                           seconds, next_id_, traffic, options);
  WIDEN_CHECK(phase.ok()) << phase.status().ToString();
  next_id_ += phase->outcomes.size() + 1;
  result_->Check(phase->transport_errors == 0, "transport errors in a phase");
  if (keep_samples) CheckSamples(traffic.samples);
  return std::move(phase).value();
}

void ServeRun::Warm(serve::InferenceSession& session) const {
  if (spec_.kind != Kind::kWarm) return;
  for (size_t i = 0; i < universe_.hot.size(); i += 32) {
    const size_t end = std::min(universe_.hot.size(), i + 32);
    std::vector<graph::NodeId> chunk(universe_.hot.begin() + static_cast<long>(i),
                                     universe_.hot.begin() + static_cast<long>(end));
    WIDEN_CHECK(session.Embed(chunk).ok());
  }
}

// Rebuilds the GraphDelta the server built for `payload` (NetServer's
// DispatchIngest: node k of the request is -1-k on the wire).
serve::GraphDelta DeltaFor(const serve::InferenceSession& session,
                           const net::IngestPayload& payload) {
  serve::GraphDelta delta = session.NewDelta();
  const auto first = static_cast<graph::NodeId>(delta.first_new_id());
  for (size_t i = 0; i < payload.node_types.size(); ++i) {
    const auto begin = payload.features.begin() +
                       static_cast<long>(i) * payload.feature_dim;
    delta.AddNode(payload.node_types[i],
                  std::vector<float>(begin, begin + payload.feature_dim));
  }
  for (const net::WireEdge& e : payload.edges) {
    auto resolve = [&](int32_t raw) {
      return raw >= 0 ? raw : first + static_cast<graph::NodeId>(-1 - raw);
    };
    delta.AddEdge(resolve(e.u), resolve(e.v), e.type);
  }
  return delta;
}

bool SameBits(const T::Tensor& t, const std::vector<float>& floats) {
  return t.size() == static_cast<int64_t>(floats.size()) &&
         std::memcmp(t.data(), floats.data(), floats.size() * sizeof(float)) == 0;
}

// Sampled Embed responses must be bitwise-equal to a direct
// InferenceSession::Embed at the same graph version, and Predict responses
// the argmax of ClassifyRows. Samples whose version is ambiguous (an ingest
// was in flight) are skipped; the rest are replayed in version order on a
// fresh session that re-applies the acked ingests.
void ServeRun::CheckSamples(const std::vector<ReadSample>& samples) {
  std::map<uint64_t, std::vector<const ReadSample*>> by_version;
  for (const ReadSample& s : samples) {
    if (s.v_lo == s.v_hi) by_version[s.v_lo].push_back(&s);
  }
  std::shared_ptr<serve::InferenceSession> live = stack_->server->session();
  std::unique_ptr<serve::InferenceSession> replay;
  const bool versions_moved = live->graph_version() != 0;
  if (versions_moved) replay = stack_->FreshSession();
  int64_t checked = 0;
  int64_t mismatched = 0;
  for (const auto& [version, group] : by_version) {
    serve::InferenceSession* session = live.get();
    if (versions_moved) {
      while (replay->graph_version() < version) {
        const uint64_t next = replay->graph_version() + 1;
        auto it = ledger_.by_version.find(next);
        WIDEN_CHECK(it != ledger_.by_version.end()) << "no ingest for v" << next;
        auto applied = replay->Ingest(
            DeltaFor(*replay, ledger_.payloads[static_cast<size_t>(it->second)]));
        WIDEN_CHECK(applied.ok() && *applied == next);
      }
      session = replay.get();
    }
    for (const ReadSample* s : group) {
      auto direct = session->Embed(s->nodes);
      bool ok = direct.ok();
      if (ok && s->predict) {
        ok = T::ArgMaxRows(session->ClassifyRows(*direct)) == s->labels;
      } else if (ok) {
        ok = SameBits(*direct, s->floats);
      }
      ++checked;
      mismatched += ok ? 0 : 1;
    }
  }
  Note("output check: %lld sampled responses compared, %lld mismatched, "
       "%zu skipped (version in flight)",
       static_cast<long long>(checked), static_cast<long long>(mismatched),
       samples.size() - static_cast<size_t>(checked));
  result_->attempted += checked;
  result_->failed += mismatched;
  result_->Check(mismatched == 0, "responses differ from direct session calls");
  result_->Check(checked > 0, "no response could be checked");
}

// Every acked Ingest node must be queryable over the wire, with the same
// bits as a direct call at the final version.
void ServeRun::CheckIngestedQueryable() {
  if (ledger_.fresh.empty()) return;
  auto client = serve::net::NetClient::Connect("127.0.0.1", stack_->server->port());
  WIDEN_CHECK(client.ok());
  int64_t bad = 0;
  std::shared_ptr<serve::InferenceSession> live = stack_->server->session();
  for (size_t i = 0; i < ledger_.fresh.size(); i += 32) {
    net::NetRequest request;
    request.id = next_id_++;
    request.op = net::NetOp::kEmbed;
    request.nodes.assign(ledger_.fresh.begin() + static_cast<long>(i),
                         ledger_.fresh.begin() + static_cast<long>(
                             std::min(ledger_.fresh.size(), i + 32)));
    auto response = (*client)->Call(request);
    auto direct = live->Embed(request.nodes);
    if (!response.ok() || response->code != StatusCode::kOk || !direct.ok() ||
        !SameBits(*direct, response->floats)) {
      ++bad;
    }
  }
  Note("ingest check: %zu acked nodes queried, %lld bad chunks",
       ledger_.fresh.size(), static_cast<long long>(bad));
  result_->attempted += 1;
  result_->failed += bad > 0 ? 1 : 0;
  result_->Check(bad == 0, "an acked ingest node is not queryable");
}

double Rung(double k) {
  return kLadderBaseRate * std::pow(2.0, k / kRungsPerOctave);
}

// The rate on the fixed ladder (rung k = 25 req/s x 2^(k/24), up to
// kLadderTop) at which a probe meets the SLO half the time. A probe meets
// it when its read p95, failures counted as misses, is within the SLO and
// its backlog does not grow (a probe holds a few hundred requests on the
// slow workloads, too few for a p99 with ten samples beyond it).
//
// Near capacity one probe's verdict is noisy: the queue is a random walk,
// and the host's speed drifts over seconds. So the search is a staircase:
// it starts at ~2x the fixed rate, steps up a rung span after a pass and
// down after a fail, and halves the span at every reversal (an octave
// first, then 12, 6, 3 and 1 rungs). Probes are short while the span is
// wide and four times longer once it is one rung, where a small overload
// must show as a growing backlog. The result is the rate at the mean rung
// of kFineProbes one-rung probes, which hover around the point where
// passes and fails balance.
double ServeRun::Ladder(int64_t* top_inflight) {
  int k = std::clamp(static_cast<int>(std::lround(
                         kRungsPerOctave *
                         std::log2(2.0 * spec_.fixed_rate / kLadderBaseRate))),
                     0, kLadderTop);
  int span = kRungsPerOctave;
  int last_dir = 0;
  int top = -1;
  std::vector<double> fine;  // rungs probed with a span of one
  for (int i = 0; i < kMaxLadderProbes && fine.size() < kFineProbes; ++i) {
    const double probe_s =
        (span == 1 ? 4.0 : 1.0) * kCoarseProbeShare * args_.seconds;
    const PhaseResult phase = Phase(Rung(k), probe_s, false, LoadOptions());
    const PhaseStats s = Analyze(phase);
    const bool pass = s.slo_p95_ms <= kSloMs && !s.backlog_grew;
    Note("ladder: %8.1f req/s  p95 %8.2f ms  failed %lld  backlog %s -> %s",
         Rung(k), s.slo_p95_ms, static_cast<long long>(s.failed),
         s.backlog_grew ? "grew" : "flat", pass ? "pass" : "fail");
    if (k >= top) {
      top = k;
      *top_inflight = phase.inflight_max;
    }
    if (span == 1) fine.push_back(k);
    const int dir = pass ? 1 : -1;
    if (last_dir != 0 && dir != last_dir) span = std::max(1, span / 2);
    last_dir = dir;
    k = std::clamp(k + dir * span, 0, kLadderTop);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (fine.empty()) return Rung(k);
  double sum = 0.0;
  for (double rung : fine) sum += rung;
  return Rung(sum / static_cast<double>(fine.size()));
}

// OK responses per second while the generator keeps kSaturationWindow
// requests outstanding, so the server is never idle: the median over
// kSaturationBursts short bursts with pauses between them.
double ServeRun::Saturate() {
  LoadOptions options;
  options.window = kSaturationWindow;
  const double burst_s = kSaturationShare * args_.seconds / kSaturationBursts;
  std::vector<double> throughputs;
  for (int b = 0; b < kSaturationBursts; ++b) {
    const PhaseResult phase = Phase(Rung(kLadderTop), burst_s, false, options);
    int64_t ok = 0;
    Clock::time_point last = phase.start;
    for (const Outcome& o : phase.outcomes) {
      if (!o.ok()) continue;
      ++ok;
      last = std::max(last, o.done);
    }
    result_->attempted += static_cast<int64_t>(phase.outcomes.size());
    result_->failed += static_cast<int64_t>(phase.outcomes.size()) - ok;
    throughputs.push_back(static_cast<double>(ok) /
                          SecondsBetween(phase.start, last));
    std::this_thread::sleep_for(SecondsToDuration(0.5 * burst_s));
  }
  const double throughput = Percentile(throughputs, 0.5);
  Note("saturation: %d bursts of %.2f s, %d outstanding: median %.1f req/s "
       "(min %.1f, max %.1f)", kSaturationBursts, burst_s, kSaturationWindow,
       throughput, Percentile(throughputs, 0.0), Percentile(throughputs, 1.0));
  return throughput;
}

void ServeRun::Run() {
  // ---- Generator self-check (coordinated omission). ----
  const SelfCheckResult check = RunGeneratorSelfCheck();
  Note("generator self-check (%.0f ms stall): open loop p99 %.1f ms lag p99 "
       "%.2f ms -> %s; send-then-wait p99 %.1f ms lag p99 %.1f ms -> %s",
       check.stall_ms, check.open_p99_ms, check.open_lag_p99_ms,
       check.open_passes ? "caught" : "MISSED", check.wait_p99_ms,
       check.wait_lag_p99_ms,
       check.wait_passes ? "NOT CAUGHT" : "flagged as invalid");
  result_->Check(check.open_passes, "open-loop generator missed the stall");
  result_->Check(!check.wait_passes,
                 "self-check did not flag the send-then-wait generator");

  // ---- Set-up: the median of kSetups, keeping the last stack. ----
  std::vector<double> setups;
  for (int i = 0; i < (args_.trace ? 1 : kSetups); ++i) {
    stack_.reset();
    const Clock::time_point t0 = Clock::now();
    stack_ = BuildStack(args_, spec_);
    setups.push_back(SecondsBetween(t0, Clock::now()));
  }
  result_->Set("setup_s", Percentile(setups, 0.5));
  Note("set-up: %.4f s median of %zu (min %.4f, max %.4f)",
       Percentile(setups, 0.5), setups.size(), Percentile(setups, 0.0),
       Percentile(setups, 1.0));
  universe_ = MakeUniverse(stack_->graph, args_.seed);
  Warm(*stack_->server->session());

  // ---- Fixed-rate phase. ----
  const double fixed_s = kFixedShare * args_.seconds;
  const PhaseResult fixed = Phase(spec_.fixed_rate, fixed_s, true, LoadOptions());
  const PhaseStats stats = Analyze(fixed);
  result_->attempted += stats.attempted;
  result_->failed += stats.failed;
  Note("fixed rate %.0f req/s for %.1f s: %lld requests (%zu OK reads, %zu OK "
       "ingests, %lld failed: %lld rejected, %lld expired, %lld unanswered); "
       "read p50 %.3f ms p99 %.3f ms; lag p99 %.3f ms",
       spec_.fixed_rate, fixed_s, static_cast<long long>(stats.attempted),
       stats.read_ms.size(), stats.ingest_ms.size(),
       static_cast<long long>(stats.failed),
       static_cast<long long>(stats.rejected),
       static_cast<long long>(stats.expired),
       static_cast<long long>(stats.unanswered), Percentile(stats.read_ms, 0.5),
       Percentile(stats.read_ms, 0.99), Percentile(stats.lag_ms, 0.99));
  // Taken before the saturation bursts and the ladder, whose top rungs
  // queue tens of thousands of requests: peak memory describes the stack
  // at its fixed rate.
  result_->Set("peak_rss_mb", PeakRssMb());

  if (args_.trace) {
    TracedLayers(fixed);
  } else {
    result_->Set("op_p50_ms", WindowedPercentile(stats.op_ms, 0.50));
    result_->Set("op_p95_ms", WindowedPercentile(stats.op_ms, 0.95));
    result_->Set("capacity_per_s", Saturate());
  }
  CheckIngestedQueryable();
}

void ServeRun::TracedLayers(const PhaseResult& untraced) {
  SpanLog spans;
  // Steady clock <-> flight-recorder axis.
  const int64_t axis_offset_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now().time_since_epoch())
          .count() -
      obs::MonotonicMicros();
  auto to_steady = [&](int64_t monotonic_us) {
    return Clock::time_point(std::chrono::microseconds(monotonic_us + axis_offset_us));
  };

  // ---- Traced fixed-rate phase. ----
  std::unordered_map<uint64_t, obs::FlightRecord> records;
  LoadOptions traced_options;
  traced_options.trace_ids = true;
  traced_options.health_probe_hz = kHealthProbeHz;
  traced_options.on_tick = [&records] {
    for (const obs::FlightRecord& r : obs::FlightRecorder::Get().Snapshot()) {
      if (r.trace_id != 0) records[r.trace_id] = r;
    }
  };
  const Counters before = ReadCounters(*stack_);
  const PhaseResult traced =
      Phase(spec_.fixed_rate, kFixedShare * args_.seconds, false, traced_options);
  traced_version_ = ledger_.max_acked;
  traced_options.on_tick();
  const Counters after = ReadCounters(*stack_);
  const PhaseStats stats = Analyze(traced);
  const PhaseStats base = Analyze(untraced);

  RunResult& r = *result_;
  r.Set("net.health_rtt_us_p50", Percentile(traced.health_rtt_us, 0.5));
  const HistDelta linger(before.linger, after.linger);
  r.Set("batcher.linger_us_p50", linger.Percentile(0.50));
  r.Set("batcher.linger_us_p99", linger.Percentile(0.99));
  r.Set("batcher.batch_nodes_mean",
        HistDelta(before.batch_nodes, after.batch_nodes).Mean());
  const HistDelta embed(before.embed_us, after.embed_us);
  r.Set("session.embed_us_p50", embed.Percentile(0.50));
  r.Set("session.embed_us_p99", embed.Percentile(0.99));
  const int64_t base_rows = after.session.base_hits - before.session.base_hits;
  const int64_t store_rows = after.session.store_hits - before.session.store_hits;
  const int64_t cold_rows = after.session.cold_encodes - before.session.cold_encodes;
  const int64_t rows = base_rows + store_rows + cold_rows;
  r.Set("session.rows", static_cast<double>(rows));
  r.Set("session.cold_frac", rows > 0 ? static_cast<double>(cold_rows) / rows : 0.0);
  r.Set("session.store_hit_frac",
        rows > 0 ? static_cast<double>(store_rows) / rows : 0.0);
  r.Set("session.invalidated_per_ingest",
        HistDelta(before.invalidated, after.invalidated).Mean());
  r.Set("client.read_p50_ms", Percentile(stats.read_ms, 0.50));
  r.Set("client.read_p99_ms", Percentile(stats.read_ms, 0.99));
  r.Set("client.ingest_p50_ms", Percentile(stats.ingest_ms, 0.50));
  r.Set("client.ingest_p99_ms", Percentile(stats.ingest_ms, 0.99));
  r.Set("client.failed_frac",
        static_cast<double>(stats.failed) / std::max<int64_t>(1, stats.attempted));
  r.Set("client.samples", static_cast<double>(stats.op_ms.size()));
  r.Set("gen.lag_p99_ms", Percentile(stats.lag_ms, 0.99));
  const double base_p50 = Percentile(base.op_ms, 0.5);
  r.Set("obs.trace_overhead_frac",
        base_p50 > 0 ? Percentile(stats.op_ms, 0.5) / base_p50 - 1.0 : 0.0);
  r.attempted += stats.attempted;
  r.failed += stats.failed;

  // Client spans joined to the server's flight records by trace id.
  double client_us = 0.0;
  double unattributed_us = 0.0;
  int64_t joined = 0;
  for (size_t i = 0; i < traced.outcomes.size(); ++i) {
    const Outcome& o = traced.outcomes[i];
    if (!o.ok()) continue;
    const uint64_t client =
        spans.Add("client.request", 0, o.due, o.done);
    spans.Add("gen.lag", client, o.due, o.sent);
    auto it = records.find(traced.first_id + i);
    if (it == records.end()) continue;
    const obs::FlightRecord& rec = it->second;
    const Clock::time_point admitted = to_steady(rec.admitted_us);
    const uint64_t server =
        spans.Add("server.request", client, admitted, to_steady(rec.replied_us));
    const Clock::time_point formed =
        admitted + std::chrono::microseconds(rec.queue_us);
    spans.Add("server.queue", server, admitted, formed);
    spans.Add("server.encode", server, formed,
              formed + std::chrono::microseconds(rec.encode_us));
    const double total = std::chrono::duration<double, std::micro>(o.done - o.due).count();
    const double lag = std::chrono::duration<double, std::micro>(o.sent - o.due).count();
    client_us += total;
    unattributed_us += std::max(0.0, total - lag - static_cast<double>(rec.total_us()));
    ++joined;
  }
  r.Set("trace.unattributed_frac", client_us > 0 ? unattributed_us / client_us : 0.0);
  Note("trace: %lld of %zu traced requests joined to flight records",
       static_cast<long long>(joined), traced.outcomes.size());

  // ---- Ladder, for the overload-side counters. ----
  const Counters ladder_before = ReadCounters(*stack_);
  int64_t top_inflight = 0;
  const double max_rps = Ladder(&top_inflight);
  Note("capacity at the %.0f ms SLO: %.1f req/s (in flight at the top rung: "
       "%lld)", kSloMs, max_rps, static_cast<long long>(top_inflight));
  r.Set("client.max_rps_at_slo", max_rps);
  const Counters ladder_after = ReadCounters(*stack_);
  r.Set("gen.inflight_max", static_cast<double>(top_inflight));
  r.Set("net.overload_rejections",
        static_cast<double>(ladder_after.net.overload_rejections -
                            ladder_before.net.overload_rejections));
  r.Set("batcher.expired",
        static_cast<double>(ladder_after.expired - ladder_before.expired));

  Replays(traced, spans);
  const std::string path = args_.out_dir + "/trace-" + args_.workload + "-seed" +
                           std::to_string(args_.seed) + ".json";
  if (spans.WriteJson(path, 20000).ok()) Note("spans written to %s", path.c_str());
}

// Replays the captured inputs into each lower layer's public entry point.
void ServeRun::Replays(const PhaseResult& traced, SpanLog& spans) {
  RunResult& r = *result_;
  std::unique_ptr<serve::InferenceSession> session = stack_->FreshSession();
  Warm(*session);

  // Acked ingests, in version order, into InferenceSession::Ingest.
  std::vector<double> ingest_us;
  for (const auto& [version, index] : ledger_.by_version) {
    if (version > traced_version_ || version != session->graph_version() + 1) {
      break;
    }
    const serve::GraphDelta delta =
        DeltaFor(*session, ledger_.payloads[static_cast<size_t>(index)]);
    const Clock::time_point t0 = Clock::now();
    auto applied = session->Ingest(delta);
    const Clock::time_point t1 = Clock::now();
    WIDEN_CHECK(applied.ok());
    spans.Add("session.ingest", 0, t0, t1);
    ingest_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  r.Set("session.ingest_us_p50", Percentile(ingest_us, 0.50));
  r.Set("session.ingest_us_p99", Percentile(ingest_us, 0.99));

  // The traced arrival schedule (its first 2 s) into a standalone
  // RequestBatcher; each request's span has the batch's Embed call (stamped
  // by the batcher) as its child.
  {
    serve::RequestBatcher batcher(session.get(), serve::BatcherOptions());
    struct Done {
      std::vector<serve::RequestContext> contexts;
      std::vector<Clock::time_point> submitted, finished;
      std::mutex mu;
      std::condition_variable cv;
      size_t completed = 0;
    } done;
    std::vector<size_t> reads;
    for (size_t i = 0; i < traced.requests.size(); ++i) {
      if (IsRead(traced.requests[i].op) &&
          traced.outcomes[i].due - traced.start <= std::chrono::seconds(2)) {
        reads.push_back(i);
      }
    }
    done.contexts.resize(reads.size());
    done.submitted.resize(reads.size());
    done.finished.resize(reads.size());
    const Clock::time_point start = Clock::now();
    for (size_t k = 0; k < reads.size(); ++k) {
      const net::NetRequest& request = traced.requests[reads[k]];
      std::this_thread::sleep_until(start + (traced.outcomes[reads[k]].due - traced.start));
      serve::RequestBatcher::SubmitOptions options;
      options.context = &done.contexts[k];
      done.submitted[k] = Clock::now();
      auto finish = [&done, k] {
        std::lock_guard<std::mutex> lock(done.mu);
        done.finished[k] = Clock::now();
        ++done.completed;
        done.cv.notify_all();
      };
      if (request.op == net::NetOp::kPredict) {
        batcher.SubmitPredict(request.nodes, options,
                              [finish](widen::StatusOr<std::vector<int32_t>>) { finish(); });
      } else {
        batcher.SubmitEmbed(request.nodes, options,
                            [finish](widen::StatusOr<T::Tensor>) { finish(); });
      }
    }
    {
      std::unique_lock<std::mutex> lock(done.mu);
      done.cv.wait(lock, [&] { return done.completed == reads.size(); });
    }
    batcher.Shutdown();
    const int64_t axis_offset_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now().time_since_epoch())
            .count() -
        obs::MonotonicMicros();
    for (size_t k = 0; k < reads.size(); ++k) {
      const uint64_t id =
          spans.Add("batcher.request", 0, done.submitted[k], done.finished[k]);
      const serve::RequestContext& c = done.contexts[k];
      const Clock::time_point formed(
          std::chrono::microseconds(c.batch_formed_us + axis_offset_us));
      spans.Add("session.embed", id, formed,
                formed + std::chrono::microseconds(c.encode_us));
    }
  }

  // Cold ids into the encoder entry points: EncodeColdMean, then its parts
  // (SampleTargetState, EncodeTarget) on the same per-node RNG stream.
  std::vector<graph::NodeId> cold;
  for (const net::NetRequest& request : traced.requests) {
    for (graph::NodeId v : request.nodes) {
      if (v < universe_.base_nodes &&
          std::find(cold.begin(), cold.end(), v) == cold.end()) {
        cold.push_back(v);
      }
    }
    if (cold.size() >= 48) break;
  }
  auto weights = core::LoadServingWeights(stack_->ckpt);
  WIDEN_CHECK(weights.ok());
  const graph::HeteroGraphView view(stack_->graph);
  ReplayEncoder(view, weights->params, stack_->config, cold, spans, r);
  ProfileKernels(
      [&] {
        for (graph::NodeId v : cold) {
          T::InferenceScope inference;
          core::EncodeColdMean(view, weights->params, stack_->config, v,
                               nullptr);
        }
      },
      static_cast<double>(cold.size()), r);
}

}  // namespace

RunResult RunServe(const RunArgs& args) {
  RunResult result;
  ServeRun(args, &result).Run();
  return result;
}

}  // namespace perfbench
