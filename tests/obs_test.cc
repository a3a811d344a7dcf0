// Tests for src/obs/: metric correctness against serial references,
// histogram percentile error bounds, concurrency (CI runs this binary under
// ThreadSanitizer), Chrome trace JSON well-formedness via a real JSON
// parse-back (the shared util/json parser), roofline-profiler FLOP/byte
// exactness against closed-form counts, and the contract that disabled
// paths never allocate.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/memprof.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/stage.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/file_util.h"
#include "util/json.h"
#include "util/logging.h"

// ---------------------------------------------------------------------------
// Allocation counting: every global operator new bumps a counter, so tests
// can assert that a code path performed zero heap allocations. The aligned
// forms matter too — sharded metrics are cache-line aligned.
// ---------------------------------------------------------------------------

namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size > 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align),
                     size > 0 ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

// GCC's -Wmismatched-new-delete models the DEFAULT operator new when it
// inlines these replacements, so pairing our malloc-backed new with free()
// looks mismatched to it even though the pairing is exact. Silence it for
// the replacement block only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace widen::obs {
namespace {

// Exporter output must be real JSON, not something that merely looks like
// it — parse it back with the shared util/json parser (obs_test used to
// carry its own; util/json.h is now the single implementation).
Json ParseJsonOrDie(const std::string& text) {
  auto parsed = Json::Parse(text);
  WIDEN_CHECK(parsed.ok()) << parsed.status().ToString() << "\nin: " << text;
  return *std::move(parsed);
}

// ---------------------------------------------------------------------------
// Counters and gauges.
// ---------------------------------------------------------------------------

TEST(CounterTest, MatchesSerialReference) {
  Counter* c = MetricsRegistry::Get().GetCounter("test_counter_serial_total",
                                                 "serial reference");
  int64_t reference = 0;
  for (int i = 1; i <= 1000; ++i) {
    c->Add(i);
    reference += i;
  }
  c->Increment();
  ++reference;
  EXPECT_EQ(c->Value(), reference);
}

TEST(CounterTest, RegistryReturnsStableAddress) {
  Counter* a = MetricsRegistry::Get().GetCounter("test_counter_stable_total",
                                                 "stable address");
  Counter* b = MetricsRegistry::Get().GetCounter("test_counter_stable_total",
                                                 "stable address");
  EXPECT_EQ(a, b);
}

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  Counter* c = MetricsRegistry::Get().GetCounter(
      "test_counter_concurrent_total", "hammered from many threads");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kPerThread; ++i) c->Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c->Value(), int64_t{kThreads} * kPerThread);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge* g =
      MetricsRegistry::Get().GetGauge("test_gauge_value", "set and add");
  g->Set(2.5);
  EXPECT_DOUBLE_EQ(g->Value(), 2.5);
  g->Add(-1.25);
  EXPECT_DOUBLE_EQ(g->Value(), 1.25);
  g->Set(0.0);
  EXPECT_DOUBLE_EQ(g->Value(), 0.0);
}

TEST(GaugeTest, ConcurrentAddsAreExact) {
  Gauge* g = MetricsRegistry::Get().GetGauge("test_gauge_concurrent",
                                             "concurrent CAS adds");
  g->Set(0.0);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([g] {
      for (int i = 0; i < kPerThread; ++i) g->Add(0.5);
    });
  }
  for (std::thread& t : threads) t.join();
  // 0.5 is exactly representable: the CAS-loop sum is exact.
  EXPECT_DOUBLE_EQ(g->Value(), 0.5 * kThreads * kPerThread);
}

// ---------------------------------------------------------------------------
// Histograms.
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketBoundsContainTheirValues) {
  // Every recorded value must satisfy bound(b-1) < v <= bound(b).
  const double values[] = {1e-4, 0.01, 0.5,    1.0,    1.5,   2.0,
                           3.0,  17.0, 1000.0, 4096.5, 1e6,   1e9};
  for (double v : values) {
    const int b = Histogram::BucketIndex(v);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, Histogram::kNumBuckets);
    EXPECT_LE(v, Histogram::BucketUpperBound(b)) << "value " << v;
    if (b > 0) {
      EXPECT_GT(v, Histogram::BucketUpperBound(b - 1)) << "value " << v;
    }
  }
  // Non-positive and tiny values land in the catch-all first bin.
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(-3.0), 0);
}

TEST(HistogramTest, MatchesSerialReference) {
  Histogram* h = MetricsRegistry::Get().GetHistogram(
      "test_hist_serial_us", "compared against a serial reference");
  // Deterministic LCG spread across several orders of magnitude.
  uint64_t state = 0x9e3779b97f4a7c15ull;
  std::vector<int64_t> reference(Histogram::kNumBuckets, 0);
  int64_t count = 0;
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double v = 0.5 * static_cast<double>((state >> 33) % 2000000);
    h->Record(v);
    ++reference[Histogram::BucketIndex(v)];
    ++count;
    sum += v;  // halves: exact in double
  }
  EXPECT_EQ(h->TotalCount(), count);
  EXPECT_DOUBLE_EQ(h->Sum(), sum);
  EXPECT_DOUBLE_EQ(h->Mean(), sum / static_cast<double>(count));
  for (int b = 0; b < Histogram::kNumBuckets; ++b) {
    ASSERT_EQ(h->BucketCount(b), reference[b]) << "bucket " << b;
  }
}

TEST(HistogramTest, PercentileWithinBinResolution) {
  Histogram* h = MetricsRegistry::Get().GetHistogram(
      "test_hist_percentile_us", "uniform 1..1000");
  EXPECT_DOUBLE_EQ(h->Percentile(0.5), 0.0);  // empty
  for (int i = 1; i <= 1000; ++i) h->Record(static_cast<double>(i));
  // Log-bucket bins are 2^(1/16) wide (~4.4% relative); allow 6%.
  const struct {
    double p;
    double exact;
  } cases[] = {{0.50, 500.0}, {0.95, 950.0}, {0.99, 990.0}};
  for (const auto& c : cases) {
    const double got = h->Percentile(c.p);
    EXPECT_NEAR(got, c.exact, 0.06 * c.exact) << "p" << c.p;
  }
  // Extremes stay inside the recorded range's bins.
  EXPECT_LE(h->Percentile(0.0), 1.0 * 1.05);
  EXPECT_GE(h->Percentile(1.0), 1000.0 * 0.95);
  EXPECT_LE(h->Percentile(1.0), 1000.0 * 1.05);
}

TEST(HistogramTest, ConcurrentRecordsAreExact) {
  Histogram* h = MetricsRegistry::Get().GetHistogram(
      "test_hist_concurrent_us", "hammered from many threads");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h] {
      for (int i = 0; i < kPerThread; ++i) {
        h->Record(static_cast<double>(i % 100 + 1));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h->TotalCount(), int64_t{kThreads} * kPerThread);
  // Per thread: 500 full 1..100 cycles, each summing to 5050.
  EXPECT_DOUBLE_EQ(h->Sum(), static_cast<double>(kThreads) * 500.0 * 5050.0);
}

TEST(MetricsRegistryTest, ResetAllZeroesButKeepsAddresses) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  Counter* c = registry.GetCounter("test_reset_total", "reset survivor");
  Histogram* h = registry.GetHistogram("test_reset_us", "reset survivor");
  c->Add(5);
  h->Record(3.0);
  registry.ResetAll();
  EXPECT_EQ(c->Value(), 0);
  EXPECT_EQ(h->TotalCount(), 0);
  EXPECT_EQ(registry.GetCounter("test_reset_total", "reset survivor"), c);
  c->Increment();
  EXPECT_EQ(c->Value(), 1);
}

TEST(MetricsRegistryTest, EmptyHelpIsALookup) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  Counter* owner = registry.GetCounter("test_lookup_total", "owner help");
  EXPECT_EQ(registry.GetCounter("test_lookup_total", ""), owner);
  EXPECT_EQ(owner->help(), "owner help");
}

// One name, one # HELP line: a second site registering the same metric with
// different help text is a bug that would otherwise surface only as whichever
// site happened to register first.
TEST(MetricsRegistryDeathTest, ReRegisteringWithDifferentHelpAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MetricsRegistry& registry = MetricsRegistry::Get();
  registry.GetCounter("test_help_counter_total", "first help");
  registry.GetGauge("test_help_gauge", "first help");
  registry.GetHistogram("test_help_us", "first help");
  EXPECT_DEATH(registry.GetCounter("test_help_counter_total", "second help"),
               "different help string");
  EXPECT_DEATH(registry.GetGauge("test_help_gauge", "second help"),
               "different help string");
  EXPECT_DEATH(registry.GetHistogram("test_help_us", "second help"),
               "different help string");
}

// ---------------------------------------------------------------------------
// Exporters.
// ---------------------------------------------------------------------------

TEST(ExportTest, PrometheusTextContainsRegisteredMetrics) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  registry.GetCounter("test_prom_total", "a counter")->Add(7);
  registry.GetGauge("test_prom_gauge", "a gauge")->Set(1.5);
  Histogram* h = registry.GetHistogram("test_prom_us", "a histogram");
  h->Record(2.0);
  h->Record(100.0);

  const std::string text = registry.DumpPrometheus();
  EXPECT_NE(text.find("# HELP test_prom_total a counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_total counter"), std::string::npos);
  EXPECT_NE(text.find("test_prom_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("test_prom_gauge 1.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_us histogram"), std::string::npos);
  // Cumulative buckets end in the mandatory +Inf bucket == _count.
  EXPECT_NE(text.find("test_prom_us_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_us_count 2"), std::string::npos);
  EXPECT_NE(text.find("test_prom_us_sum 102"), std::string::npos);
}

TEST(ExportTest, JsonDumpParsesAndCarriesValues) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  registry.GetCounter("test_json_total", "json counter")->Add(42);
  Histogram* h = registry.GetHistogram("test_json_us", "json histogram");
  for (int i = 1; i <= 100; ++i) h->Record(static_cast<double>(i));

  const Json root = ParseJsonOrDie(registry.DumpJson());
  ASSERT_TRUE(root.is_object());

  const Json* counters = root.Find("counters");
  ASSERT_NE(counters, nullptr);
  const Json* counter = counters->Find("test_json_total");
  ASSERT_NE(counter, nullptr);
  EXPECT_TRUE(counter->is_number());
  EXPECT_DOUBLE_EQ(counter->number_value(), 42.0);

  const Json* histograms = root.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const Json* hist = histograms->Find("test_json_us");
  ASSERT_NE(hist, nullptr);
  ASSERT_NE(hist->Find("count"), nullptr);
  EXPECT_DOUBLE_EQ(hist->Find("count")->number_value(), 100.0);
  ASSERT_NE(hist->Find("p50"), nullptr);
  EXPECT_NEAR(hist->Find("p50")->number_value(), 50.0, 0.06 * 50.0);
}

TEST(ExportTest, WriteMetricsProducesBothFormats) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  registry.GetCounter("test_write_total", "file write")->Add(3);
  ASSERT_TRUE(registry.WriteMetrics("obs_test_metrics.prom").ok());
  auto prom = ReadFileToString("obs_test_metrics.prom");
  ASSERT_TRUE(prom.ok());
  EXPECT_NE(prom->find("test_write_total"), std::string::npos);
  auto json = ReadFileToString("obs_test_metrics.prom.json");
  ASSERT_TRUE(json.ok());
  EXPECT_TRUE(Json::Parse(*json).ok());
  std::remove("obs_test_metrics.prom");
  std::remove("obs_test_metrics.prom.json");
}

// ---------------------------------------------------------------------------
// Tracing.
// ---------------------------------------------------------------------------

TEST(TraceTest, ChromeJsonRoundTripsThroughParser) {
  TraceRecorder& recorder = TraceRecorder::Get();
  recorder.Clear();
  recorder.Start();
  {
    StageScope outer(Stage::kTrainEpoch);
    {
      StageScope inner(Stage::kSupervisedBatches);
    }
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([] { StageScope worker(Stage::kRunBatch); });
  }
  for (std::thread& t : threads) t.join();
  recorder.Stop();
  ASSERT_EQ(recorder.EventCount(), 4u);

  const Json root = ParseJsonOrDie(recorder.ExportChromeJson());
  const Json* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array_items().size(), 4u);

  int workers = 0;
  for (const Json& e : events->array_items()) {
    ASSERT_TRUE(e.is_object());
    ASSERT_NE(e.Find("name"), nullptr);
    ASSERT_NE(e.Find("ph"), nullptr);
    EXPECT_EQ(e.Find("ph")->string_value(), "X");
    ASSERT_NE(e.Find("pid"), nullptr);
    ASSERT_NE(e.Find("tid"), nullptr);
    ASSERT_NE(e.Find("ts"), nullptr);
    ASSERT_NE(e.Find("dur"), nullptr);
    EXPECT_GE(e.Find("ts")->number_value(), 0.0);
    EXPECT_GE(e.Find("dur")->number_value(), 0.0);
    // Each event carries its stage's table name and category.
    const std::string name = e.Find("name")->string_value();
    const std::string cat = e.Find("cat")->string_value();
    if (name == "run_batch") {
      EXPECT_EQ(cat, "serve");
      ++workers;
    } else {
      EXPECT_TRUE(name == "train_epoch" || name == "supervised_batches")
          << name;
      EXPECT_EQ(cat, "train");
    }
  }
  EXPECT_EQ(workers, 2);

  // The file form parses too.
  ASSERT_TRUE(recorder.WriteChromeJson("obs_test_trace.json").ok());
  auto from_file = ReadFileToString("obs_test_trace.json");
  ASSERT_TRUE(from_file.ok());
  EXPECT_TRUE(Json::Parse(*from_file).ok());
  std::remove("obs_test_trace.json");
  recorder.Clear();
}

TEST(TraceTest, NestedSpansRecordTheirDepth) {
  TraceRecorder& recorder = TraceRecorder::Get();
  recorder.Clear();
  recorder.Start();
  {
    StageScope outer(Stage::kTrainEpoch);
    StageScope inner(Stage::kRefreshSweep);
  }
  recorder.Stop();
  // Inner closes first; both landed, and the nesting shows on the shared
  // time axis: the inner event lies inside the outer one.
  ASSERT_EQ(recorder.EventCount(), 2u);
  const Json root = ParseJsonOrDie(recorder.ExportChromeJson());
  double outer_ts = -1, outer_end = -1, inner_ts = -1, inner_end = -1;
  for (const Json& e : root.Find("traceEvents")->array_items()) {
    const double ts = e.Find("ts")->number_value();
    const double end = ts + e.Find("dur")->number_value();
    if (e.Find("name")->string_value() == "train_epoch") {
      outer_ts = ts;
      outer_end = end;
    } else {
      inner_ts = ts;
      inner_end = end;
    }
  }
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_end, outer_end);
  EXPECT_GE(outer_ts, 0.0);
  EXPECT_LE(outer_end, static_cast<double>(MonotonicMicros()));
  recorder.Clear();
}

TEST(TraceTest, BufferStopsAtTheCapCountsDropsAndResumesAfterClear) {
  SetMetricsEnabled(true);
  TraceRecorder& recorder = TraceRecorder::Get();
  recorder.Clear();
  recorder.Start();
  // kRunBatch has a trace category and no other sink.
  for (size_t i = 0; i < TraceRecorder::kMaxEvents; ++i) {
    StageScope scope(Stage::kRunBatch);
  }
  EXPECT_EQ(recorder.EventCount(), TraceRecorder::kMaxEvents);

  // The first drop registers the dropped-span counter; count from there.
  { StageScope probe(Stage::kRunBatch); }
  Counter* dropped =
      MetricsRegistry::Get().GetCounter("widen_trace_dropped_spans_total", "");
  const int64_t counted_before = dropped->Value();
  const size_t dropped_before = recorder.DroppedCount();
  constexpr int kBeyondCap = 1000;
  for (int i = 0; i < kBeyondCap; ++i) StageScope scope(Stage::kRunBatch);
  EXPECT_EQ(recorder.EventCount(), TraceRecorder::kMaxEvents);
  EXPECT_EQ(dropped->Value() - counted_before, kBeyondCap);
  EXPECT_EQ(recorder.DroppedCount() - dropped_before,
            static_cast<size_t>(kBeyondCap));

  recorder.Clear();
  { StageScope scope(Stage::kRunBatch); }
  EXPECT_EQ(recorder.EventCount(), 1u);
  recorder.Stop();
  recorder.Clear();
}

// ---------------------------------------------------------------------------
// Disabled paths are free.
// ---------------------------------------------------------------------------

TEST(DisabledPathTest, NoAllocationsAndNoRecording) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  // Resolve (and therefore allocate) everything while still enabled.
  Counter* c = registry.GetCounter("test_disabled_total", "frozen");
  Gauge* g = registry.GetGauge("test_disabled_gauge", "frozen");
  Histogram* h = registry.GetHistogram("test_disabled_us", "frozen");
  c->Add(1);
  g->Set(4.0);
  h->Record(1.0);
  { StageScope resolve(Stage::kEmbed); }  // registers the stage histogram
  Histogram* embed_us = registry.GetHistogram("widen_serve_embed_us", "");
  const int64_t embed_count = embed_us->TotalCount();
  TraceRecorder::Get().Stop();  // tracing off
  Profiler::Get().Stop();       // profiler off
  const size_t trace_events = TraceRecorder::Get().EventCount();

  SetMetricsEnabled(false);
  const int64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    c->Increment();
    g->Set(9.0);
    h->Record(123.0);
    // Every stage, so every sink kind (trace, profiler, histogram) is
    // priced with its switch off.
    for (const StageInfo& info : kStages) StageScope scope(info.stage);
  }
  const int64_t allocations_after =
      g_allocations.load(std::memory_order_relaxed);
  SetMetricsEnabled(true);

  EXPECT_EQ(allocations_after - allocations_before, 0);
  EXPECT_EQ(c->Value(), 1);            // frozen while disabled
  EXPECT_DOUBLE_EQ(g->Value(), 4.0);
  EXPECT_EQ(h->TotalCount(), 1);
  EXPECT_EQ(embed_us->TotalCount(), embed_count);
  EXPECT_EQ(TraceRecorder::Get().EventCount(), trace_events);
}

TEST(DisabledPathTest, ProfilerHooksAreFreeAndRecordNothing) {
  Profiler& profiler = Profiler::Get();
  profiler.Stop();
  profiler.Reset();
  ASSERT_FALSE(ProfilerEnabled());

  const int64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    StageScope stage(Stage::kForward);
    ScopedOpProfile op(ProfOp::kMatMul, 1000, 4000);
    ProfileParallelDispatch(4);
    MemProfRecordTensorAlloc(64);
    MemProfRecordGradAlloc(64);
    MemProfRecordTapeNode();
  }
  const int64_t allocations_after =
      g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(allocations_after - allocations_before, 0);
  EXPECT_EQ(profiler.Totals(ProfOp::kMatMul).calls, 0);
  EXPECT_EQ(profiler.PhaseWallNs(Stage::kForward), 0);
  for (const StageInfo& info : kStages) {
    const Profiler::StageTotals t = profiler.Totals(info.stage);
    EXPECT_EQ(t.tensor_allocs, 0) << info.name;
    EXPECT_EQ(t.tape_nodes, 0) << info.name;
    EXPECT_EQ(t.parallel_chunks, 0) << info.name;
  }
}

// ---------------------------------------------------------------------------
// Roofline profiler: FLOP/byte exactness against closed-form counts.
//
// These literals pin the analytic convention of DESIGN.md §12 (FLOPs count
// elementary float ops; bytes are 4 x (elements read + elements written),
// an accumulation counting as one read plus one write). If an op's formula
// in tensor/ops.cc changes, the convention changed — update DESIGN.md too.
// ---------------------------------------------------------------------------

namespace T = widen::tensor;

// Starts recording around each test body; other suites in this binary never
// see an enabled profiler because gtest runs tests sequentially.
class ProfilerExactnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Profiler::Get().Start();
    Profiler::Get().Reset();
  }
  void TearDown() override {
    Profiler::Get().Stop();
    Profiler::Get().Reset();
  }

  static T::Tensor Filled(int64_t rows, int64_t cols) {
    std::vector<float> values(static_cast<size_t>(rows * cols));
    for (size_t i = 0; i < values.size(); ++i) {
      values[i] = 0.01f * static_cast<float>(i % 97) - 0.3f;
    }
    return T::Tensor::FromVector(T::Shape::Matrix(rows, cols), values);
  }
};

TEST_F(ProfilerExactnessTest, MatMulForwardCountsAreExact) {
  const int64_t m = 7, k = 5, n = 3;
  T::Tensor a = Filled(m, k);
  T::Tensor b = Filled(k, n);
  T::Tensor c = T::MatMul(a, b);
  const Profiler::OpTotals totals = Profiler::Get().Totals(ProfOp::kMatMul);
  EXPECT_EQ(totals.calls, 1);
  EXPECT_EQ(totals.flops, 2 * m * n * k);                // 210
  EXPECT_EQ(totals.bytes, 4 * (m * k + k * n + m * n));  // 284
  EXPECT_GE(totals.wall_ns, 0);
}

TEST_F(ProfilerExactnessTest, MatMulBackwardCountsAreExactAndPhased) {
  const int64_t m = 4, k = 6, n = 2;
  T::Tensor a = Filled(m, k).set_requires_grad(true);
  T::Tensor b = Filled(k, n).set_requires_grad(true);
  T::Tensor loss = T::SumAll(T::MatMul(a, b));
  Profiler::Get().Reset();  // keep only the backward pass
  loss.Backward();
  // Both inputs need grads: two GEMM passes, dC read twice, each dX pass
  // reads the other operand and accumulates into dX (one read + one write).
  const int64_t passes = 2;
  const Profiler::OpTotals totals = Profiler::Get().Totals(ProfOp::kMatMul);
  EXPECT_EQ(totals.calls, 1);
  EXPECT_EQ(totals.flops, 2 * m * n * k * passes);
  EXPECT_EQ(totals.bytes,
            4 * (passes * m * n + (k * n + 2 * m * k) + (m * k + 2 * k * n)));
  // Backward() opens the backward stage on its own: the whole pass must be
  // attributed there even though this test never opened a stage scope.
  EXPECT_EQ(Profiler::Get().Totals(ProfOp::kMatMul, Stage::kBackward).calls, 1);
  EXPECT_EQ(Profiler::Get().Totals(ProfOp::kMatMul, Stage::kOther).calls, 0);
}

TEST_F(ProfilerExactnessTest, SoftmaxRowsCountsAreExact) {
  const int64_t m = 3, n = 8;
  T::Tensor a = Filled(m, n).set_requires_grad(true);
  T::Tensor loss = T::SumAll(T::SoftmaxRows(a));
  const Profiler::OpTotals fwd = Profiler::Get().Totals(ProfOp::kSoftmaxRows);
  EXPECT_EQ(fwd.calls, 1);
  EXPECT_EQ(fwd.flops, 5 * m * n);      // max, sub, exp, sum, div per element
  EXPECT_EQ(fwd.bytes, 4 * 2 * m * n);  // read x, write softmax(x)

  Profiler::Get().Reset();
  loss.Backward();
  const Profiler::OpTotals bwd = Profiler::Get().Totals(ProfOp::kSoftmaxRows);
  EXPECT_EQ(bwd.calls, 1);
  EXPECT_EQ(bwd.flops, 5 * m * n);
  EXPECT_EQ(bwd.bytes, 4 * 4 * m * n);  // read dy and y, accumulate dx
}

TEST_F(ProfilerExactnessTest, PhaseScopesAttributeOpsAndSelfTime) {
  const int64_t m = 8, k = 8, n = 8;
  T::Tensor a = Filled(m, k);
  T::Tensor b = Filled(k, n);
  {
    StageScope stage(Stage::kSampling);
    T::Tensor c = T::MatMul(a, b);
  }
  EXPECT_EQ(Profiler::Get().Totals(ProfOp::kMatMul, Stage::kSampling).calls, 1);
  EXPECT_EQ(Profiler::Get().Totals(ProfOp::kMatMul, Stage::kOther).calls, 0);
  EXPECT_GT(Profiler::Get().PhaseWallNs(Stage::kSampling), 0);

  // Nested profiler stages: each op lands in the innermost stage, and the
  // outer stage records SELF time, so the two never double-count the wall
  // time both scopes span. Stages without a profiler sink (run_batch)
  // change neither attribution nor self time.
  const int64_t before_ns = MonotonicNanos();
  {
    StageScope outer(Stage::kEmbed);
    StageScope trace_only(Stage::kRunBatch);
    T::Tensor c = T::MatMul(a, b);
    {
      StageScope inner(Stage::kColdEncode);
      T::Tensor d = T::MatMul(a, b);
    }
  }
  const int64_t elapsed_ns = MonotonicNanos() - before_ns;
  const Profiler& profiler = Profiler::Get();
  EXPECT_EQ(profiler.Totals(ProfOp::kMatMul, Stage::kEmbed).calls, 1);
  EXPECT_EQ(profiler.Totals(ProfOp::kMatMul, Stage::kColdEncode).calls, 1);
  EXPECT_EQ(profiler.Totals(ProfOp::kMatMul, Stage::kRunBatch).calls, 0);
  const int64_t outer_self = profiler.PhaseWallNs(Stage::kEmbed);
  const int64_t inner_self = profiler.PhaseWallNs(Stage::kColdEncode);
  EXPECT_GT(outer_self, 0);
  EXPECT_GT(inner_self, 0);
  EXPECT_LE(outer_self + inner_self, elapsed_ns);
  EXPECT_EQ(profiler.PhaseWallNs(Stage::kRunBatch), 0);
}

TEST_F(ProfilerExactnessTest, DumpJsonParsesAndCarriesAnalyticFlops) {
  const int64_t m = 5, k = 4, n = 6;
  T::Tensor a = Filled(m, k);
  T::Tensor b = Filled(k, n);
  T::Tensor c = T::MatMul(a, b);

  const Json root = ParseJsonOrDie(Profiler::Get().DumpJson());
  const Json* ops = root.Find("ops");
  ASSERT_NE(ops, nullptr);
  ASSERT_TRUE(ops->is_array());
  bool found = false;
  for (const Json& row : ops->array_items()) {
    const Json* op_name = row.Find("op");
    if (op_name == nullptr || op_name->string_value() != "MatMul") continue;
    found = true;
    EXPECT_EQ(row.Find("flops")->int_value(), 2 * m * n * k);
    EXPECT_EQ(row.Find("bytes")->int_value(), 4 * (m * k + k * n + m * n));
  }
  EXPECT_TRUE(found) << root.Dump();
  ASSERT_NE(root.Find("roofline"), nullptr);
  ASSERT_NE(root.Find("memory"), nullptr);
}

// ---------------------------------------------------------------------------
// Prometheus exposition stays self-consistent while writers are live.
// ---------------------------------------------------------------------------

TEST(ExportTest, PrometheusHistogramSeriesAreConsistentUnderWrites) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  Histogram* h = registry.GetHistogram("test_prom_race_us", "raced");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t state = 0x2545f4914f6cdd1dull;
    while (!stop.load(std::memory_order_relaxed)) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      h->Record(static_cast<double>((state >> 33) % 100000));
    }
  });

  // Every dump taken mid-stream must satisfy the exposition invariants:
  // cumulative buckets nondecreasing and +Inf == _count. Before histograms
  // were snapshotted once per dump, a Record() landing between per-bucket
  // reads could violate both.
  for (int round = 0; round < 25; ++round) {
    const std::string text = registry.DumpPrometheus();
    std::vector<double> cumulative;
    double count = -1.0;
    size_t pos = 0;
    while ((pos = text.find("test_prom_race_us_", pos)) != std::string::npos) {
      const size_t line_end = text.find('\n', pos);
      const std::string line = text.substr(pos, line_end - pos);
      const double value = std::atof(line.substr(line.rfind(' ')).c_str());
      if (line.compare(0, 25, "test_prom_race_us_bucket{") == 0) {
        cumulative.push_back(value);
      } else if (line.compare(0, 24, "test_prom_race_us_count ") == 0) {
        count = value;
      }
      pos = line_end;
    }
    ASSERT_FALSE(cumulative.empty());
    ASSERT_GE(count, 0.0);
    for (size_t i = 1; i < cumulative.size(); ++i) {
      ASSERT_LE(cumulative[i - 1], cumulative[i]) << "round " << round;
    }
    // The last bucket line is the mandatory +Inf bucket.
    ASSERT_EQ(cumulative.back(), count) << "round " << round;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

}  // namespace
}  // namespace widen::obs
