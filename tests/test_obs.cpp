// Observability layer: Chrome-trace structural invariants (balanced B/E,
// per-tid monotonic timestamps, drop-whole overflow), histogram bucket math
// against a hand-computed oracle, Prometheus/JSON exposition, and registry
// determinism — the Table V traffic counters must not depend on how many
// kernel threads computed the updates.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/runner.hpp"
#include "net/socket.hpp"
#include "net/telemetry_http.hpp"
#include "obs/exporter.hpp"
#include "obs/http_exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/process_stats.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace fedguard::obs {
namespace {

// ---- Trace-file parsing helpers ----------------------------------------------

struct ParsedEvent {
  std::string name;
  std::string category;
  char phase = '?';
  double ts_us = 0.0;
  int tid = -1;
};

std::string extract_string(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const auto begin = line.find(needle);
  if (begin == std::string::npos) return "";
  const auto end = line.find('"', begin + needle.size());
  return line.substr(begin + needle.size(), end - begin - needle.size());
}

double extract_number(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto begin = line.find(needle);
  if (begin == std::string::npos) return -1.0;
  return std::stod(line.substr(begin + needle.size()));
}

/// Parse the one-event-per-line trace file written by TraceSession.
std::vector<ParsedEvent> parse_trace_file(const std::string& path) {
  std::ifstream file{path};
  EXPECT_TRUE(file.is_open()) << "trace file missing: " << path;
  std::vector<ParsedEvent> events;
  std::string line;
  while (std::getline(file, line)) {
    if (line.find("\"ph\"") == std::string::npos) continue;  // header/footer
    ParsedEvent event;
    event.name = extract_string(line, "name");
    event.category = extract_string(line, "cat");
    const std::string phase = extract_string(line, "ph");
    event.phase = phase.empty() ? '?' : phase[0];
    event.ts_us = extract_number(line, "ts");
    event.tid = static_cast<int>(extract_number(line, "tid"));
    events.push_back(std::move(event));
  }
  return events;
}

std::string temp_path(const char* stem) {
  return ::testing::TempDir() + stem;
}

class ObsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { util::set_log_level(util::LogLevel::Warn); }
};

// ---- Chrome-trace structural invariants ---------------------------------------

TEST_F(ObsTest, TraceEventsAreBalancedAndMonotonicPerThread) {
  const std::string path = temp_path("trace_balanced.json");
  {
    TraceSession session{path};
    ASSERT_TRUE(TraceSession::active());
    auto burst = [] {
      for (int i = 0; i < 20; ++i) {
        Span outer{"round", "outer"};
        Span inner{"pool.task", "inner"};
      }
    };
    std::thread a{burst};
    std::thread b{burst};
    burst();
    a.join();
    b.join();
    EXPECT_EQ(session.dropped_spans(), 0u);
  }  // destructor flushes and uninstalls
  ASSERT_FALSE(TraceSession::active());

  const std::vector<ParsedEvent> events = parse_trace_file(path);
  ASSERT_EQ(events.size(), 3u * 20u * 2u * 2u) << "3 threads x 20 x 2 spans x B/E";

  // Per tid: B/E nest like parentheses (never negative, ends at zero), E
  // closes the span the matching B opened, and timestamps never go backwards.
  std::map<int, std::vector<std::string>> stacks;
  std::map<int, double> last_ts;
  for (const ParsedEvent& event : events) {
    ASSERT_GE(event.tid, 0);
    ASSERT_GE(event.ts_us, 0.0);
    if (last_ts.count(event.tid) != 0) {
      EXPECT_GE(event.ts_us, last_ts[event.tid])
          << "timestamps must be monotonic within tid " << event.tid;
    }
    last_ts[event.tid] = event.ts_us;
    auto& stack = stacks[event.tid];
    if (event.phase == 'B') {
      stack.push_back(event.name);
    } else {
      ASSERT_EQ(event.phase, 'E');
      ASSERT_FALSE(stack.empty()) << "E without matching B on tid " << event.tid;
      EXPECT_EQ(stack.back(), event.name) << "spans must close LIFO";
      stack.pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
  }
}

TEST_F(ObsTest, OverflowDropsWholeSpansAndKeepsTraceBalanced) {
  const std::string path = temp_path("trace_overflow.json");
  std::uint64_t dropped = 0;
  {
    // Capacity 4 events = two complete spans; the rest must drop whole.
    TraceSession session{path, 4};
    for (int i = 0; i < 10; ++i) Span span{"round", "tiny"};
    dropped = session.dropped_spans();
  }
  EXPECT_EQ(dropped, 8u);
  const std::vector<ParsedEvent> events = parse_trace_file(path);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_EQ(events[1].phase, 'E');
  EXPECT_EQ(events[2].phase, 'B');
  EXPECT_EQ(events[3].phase, 'E');
}

TEST_F(ObsTest, SpansAreNoOpsWithoutAnActiveSession) {
  ASSERT_FALSE(TraceSession::active());
  Span span{"round", "orphan"};  // must not crash or allocate a buffer
  SUCCEED();
}

// ---- Histogram oracle ----------------------------------------------------------

TEST_F(ObsTest, HistogramBucketsMatchHandComputedOracle) {
  Registry registry;  // local instance: immune to other tests' instruments
  const std::vector<double> bounds{1.0, 2.0, 5.0};
  Histogram hist = registry.histogram("oracle_seconds", bounds);
  for (const double v : {0.5, 1.0, 1.5, 2.0, 3.0, 10.0}) hist.observe(v);

  // le is inclusive (Prometheus): 1.0 lands in le="1", 2.0 in le="2".
  EXPECT_EQ(hist.bucket_counts(), (std::vector<std::uint64_t>{2, 2, 1, 1}));
  EXPECT_EQ(hist.count(), 6u);
  EXPECT_DOUBLE_EQ(hist.sum(), 18.0);

  const std::string text = registry.prometheus_text();
  EXPECT_NE(text.find("# TYPE oracle_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("oracle_seconds_bucket{le=\"1\"} 2"), std::string::npos);
  EXPECT_NE(text.find("oracle_seconds_bucket{le=\"2\"} 4"), std::string::npos);
  EXPECT_NE(text.find("oracle_seconds_bucket{le=\"5\"} 5"), std::string::npos);
  EXPECT_NE(text.find("oracle_seconds_bucket{le=\"+Inf\"} 6"), std::string::npos);
  EXPECT_NE(text.find("oracle_seconds_sum 18"), std::string::npos);
  EXPECT_NE(text.find("oracle_seconds_count 6"), std::string::npos);
}

TEST_F(ObsTest, LabeledHistogramSplicesLeIntoExistingBlock) {
  Registry registry;
  // 0.25 is exactly representable, so the le label renders without a
  // 17-digit decimal tail.
  const std::vector<double> bounds{0.25};
  Histogram hist = registry.histogram("net_client_rtt_seconds{client=\"3\"}", bounds);
  hist.observe(0.05);
  const std::string text = registry.prometheus_text();
  EXPECT_NE(
      text.find("net_client_rtt_seconds_bucket{client=\"3\",le=\"0.25\"} 1"),
      std::string::npos);
  EXPECT_NE(text.find("net_client_rtt_seconds_sum{client=\"3\"}"), std::string::npos);
  EXPECT_NE(text.find("net_client_rtt_seconds_count{client=\"3\"} 1"),
            std::string::npos);
}

TEST_F(ObsTest, CountersAndGaugesKeepLabelIdentity) {
  Registry registry;
  Counter a = registry.counter("frames_total{client=\"0\"}");
  Counter b = registry.counter("frames_total{client=\"1\"}");
  a.add(3);
  b.add(5);
  EXPECT_EQ(registry.counter_value("frames_total{client=\"0\"}"), 3u);
  EXPECT_EQ(registry.counter_value("frames_total{client=\"1\"}"), 5u);
  EXPECT_EQ(registry.counter_value("frames_total{client=\"9\"}"), 0u);

  Gauge depth = registry.gauge("queue_depth");
  depth.add(4);
  depth.sub(1);
  EXPECT_EQ(depth.value(), 3);
  depth.set(-2);
  EXPECT_EQ(depth.value(), -2);
}

TEST_F(ObsTest, InertHandlesAreSafeNoOps) {
  Counter counter;
  Gauge gauge;
  Histogram hist;
  counter.add(7);
  gauge.set(9);
  hist.observe(1.0);
  EXPECT_FALSE(counter.valid());
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_TRUE(hist.bucket_counts().empty());
}

TEST_F(ObsTest, DefaultBucketOverrideAppliesOnlyToLaterHistograms) {
  Registry registry;
  Histogram before = registry.histogram("h_before");
  registry.set_default_buckets({1.0, 2.0});
  Histogram after = registry.histogram("h_after");
  EXPECT_EQ(before.upper_bounds().size(), Registry::default_buckets().size());
  ASSERT_EQ(after.upper_bounds().size(), 2u);
  EXPECT_DOUBLE_EQ(after.upper_bounds()[0], 1.0);
  EXPECT_THROW(registry.set_default_buckets({2.0, 1.0}), std::invalid_argument);
}

TEST_F(ObsTest, JsonSnapshotCarriesEveryInstrument) {
  Registry registry;
  registry.counter("c_total").add(2);
  registry.gauge("g_now").set(-4);
  const std::vector<double> bounds{1.0};
  registry.histogram("h_seconds", bounds).observe(0.5);
  const std::string json = registry.json_snapshot();
  EXPECT_NE(json.find("\"c_total\":2"), std::string::npos);
  EXPECT_NE(json.find("\"g_now\":-4"), std::string::npos);
  EXPECT_NE(json.find("\"h_seconds\":{\"le\":[1],\"counts\":[1,0],\"count\":1"),
            std::string::npos);
}

// ---- Bucket-spec parsing (obs_histogram_buckets descriptor key) ---------------

TEST_F(ObsTest, ParseHistogramBucketsAcceptsAscendingSpec) {
  const std::vector<double> bounds = parse_histogram_buckets("0.001,0.01,0.1,1");
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 0.001);
  EXPECT_DOUBLE_EQ(bounds[3], 1.0);
}

TEST_F(ObsTest, ParseHistogramBucketsRejectsBadSpecs) {
  EXPECT_THROW((void)parse_histogram_buckets(""), std::invalid_argument);
  EXPECT_THROW((void)parse_histogram_buckets("1,garbage"), std::invalid_argument);
  EXPECT_THROW((void)parse_histogram_buckets("2,1"), std::invalid_argument);
}

// ---- Round exporter ------------------------------------------------------------

TEST_F(ObsTest, RoundExporterWritesMetricsTraceAndJsonl) {
  ObsOptions options;
  options.trace_path = temp_path("exporter_trace.json");
  options.metrics_path = temp_path("exporter_metrics.prom");
  options.flush_every_rounds = 1;
  ASSERT_TRUE(options.enabled());
  {
    RoundExporter exporter{options};
    { Span span{"round", "round:0"}; }
    round_tick(0);
    round_tick(1);
  }
  std::ifstream prom{options.metrics_path};
  ASSERT_TRUE(prom.is_open());
  std::ifstream jsonl{options.metrics_path + ".jsonl"};
  ASSERT_TRUE(jsonl.is_open());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(jsonl, line)) {
    ++lines;
    EXPECT_EQ(line.find("{\"round\":"), 0u);
    EXPECT_NE(line.find("\"metrics\":{"), std::string::npos);
  }
  EXPECT_EQ(lines, 2u);
  const std::vector<ParsedEvent> events = parse_trace_file(options.trace_path);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].category, "round");
}

// ---- Registry determinism across kernel thread counts -------------------------

struct TrafficDeltas {
  std::uint64_t rounds = 0;
  std::uint64_t upload = 0;
  std::uint64_t download = 0;
  std::uint64_t sampled = 0;
  std::uint64_t from_history_upload = 0;
  std::uint64_t from_history_download = 0;
};

TrafficDeltas run_and_measure(std::size_t kernel_threads) {
  core::ExperimentConfig config = core::ExperimentConfig::small_scale();
  config.train_samples = 320;
  config.test_samples = 80;
  config.auxiliary_samples = 40;
  config.num_clients = 4;
  config.clients_per_round = 2;
  config.rounds = 2;
  config.client.local_epochs = 1;
  config.strategy = core::StrategyKind::FedAvg;
  config.seed = 4242;
  config.kernel.threads = kernel_threads;

  Registry& registry = Registry::global();
  const std::uint64_t rounds0 = registry.counter_value("fl_rounds_total");
  const std::uint64_t upload0 = registry.counter_value("fl_upload_bytes_total");
  const std::uint64_t download0 = registry.counter_value("fl_download_bytes_total");
  const std::uint64_t sampled0 = registry.counter_value("fl_sampled_clients_total");

  const fl::RunHistory history = core::run_experiment(config);

  TrafficDeltas deltas;
  deltas.rounds = registry.counter_value("fl_rounds_total") - rounds0;
  deltas.upload = registry.counter_value("fl_upload_bytes_total") - upload0;
  deltas.download = registry.counter_value("fl_download_bytes_total") - download0;
  deltas.sampled = registry.counter_value("fl_sampled_clients_total") - sampled0;
  for (const fl::RoundRecord& record : history.rounds) {
    deltas.from_history_upload += record.server_upload_bytes;
    deltas.from_history_download += record.server_download_bytes;
  }
  return deltas;
}

TEST_F(ObsTest, TrafficCountersAreDeterministicAcrossKernelThreads) {
  const TrafficDeltas one = run_and_measure(1);
  const TrafficDeltas four = run_and_measure(4);

  EXPECT_EQ(one.rounds, 2u);
  EXPECT_EQ(four.rounds, 2u);
  EXPECT_EQ(one.sampled, 4u) << "2 rounds x 2 clients";
  EXPECT_EQ(one.upload, four.upload)
      << "Table V traffic must not depend on kernel parallelism";
  EXPECT_EQ(one.download, four.download);
  EXPECT_EQ(one.sampled, four.sampled);
  // RoundRecord traffic fields are views over the registry counters: summing
  // the per-round deltas reproduces the counter totals bit-for-bit.
  EXPECT_EQ(one.upload, one.from_history_upload);
  EXPECT_EQ(one.download, one.from_history_download);
  EXPECT_EQ(four.upload, four.from_history_upload);
  EXPECT_EQ(four.download, four.from_history_download);
}

// ---- Quantile estimation -------------------------------------------------------

TEST_F(ObsTest, EstimateQuantileMatchesHandMath) {
  // Buckets (0,1], (1,2], (2,4], (4,+Inf) with counts 2, 2, 4, 0: total 8.
  const std::vector<double> bounds{1.0, 2.0, 4.0};
  const std::vector<std::uint64_t> counts{2, 2, 4, 0};
  // p50 → rank 4 → 2nd hit inside (1,2] (cumulative 2 before it):
  // 1 + (4-2)/2 * (2-1) = 2.0.
  EXPECT_DOUBLE_EQ(estimate_quantile(bounds, counts, 0.50), 2.0);
  // p25 → rank 2 → last hit of (0,1]: 0 + 2/2 * 1 = 1.0.
  EXPECT_DOUBLE_EQ(estimate_quantile(bounds, counts, 0.25), 1.0);
  // p100 clamps to the last finite upper bound even with an empty +Inf tail.
  EXPECT_DOUBLE_EQ(estimate_quantile(bounds, counts, 1.0), 4.0);
  // No observations → 0.
  const std::vector<std::uint64_t> empty{0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(estimate_quantile(bounds, empty, 0.5), 0.0);
}

TEST_F(ObsTest, JsonSnapshotCarriesQuantilesAfterSum) {
  Registry registry;
  Histogram hist = registry.histogram("q_seconds", std::vector<double>{1.0, 2.0});
  hist.observe(0.5);
  hist.observe(1.5);
  const std::string json = registry.json_snapshot();
  // The pinned prefix (le/counts/count/sum) stays first; quantiles follow.
  const auto sum_pos = json.find("\"sum\":");
  const auto p50_pos = json.find("\"p50\":");
  ASSERT_NE(sum_pos, std::string::npos);
  ASSERT_NE(p50_pos, std::string::npos);
  EXPECT_LT(sum_pos, p50_pos);
  EXPECT_NE(json.find("\"p90\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

// ---- zero_all vs concurrent scrape ---------------------------------------------

TEST_F(ObsTest, ZeroAllNeverExposesHalfZeroedSnapshot) {
  // Contract (documented on Registry::zero_all): a scrape sees either the
  // fully pre-reset or the fully post-reset registry, never a mix. All cells
  // hold the same value, so any exposition mixing states is detectable.
  // The writer's adds are lock-free and one cell at a time, so a scrape that
  // overlaps them legitimately sees a mix; a seqlock-style generation
  // (odd while the adds run) lets the scraper judge only the scrapes that
  // did not overlap an add loop, which leaves zero_all() as the only writer
  // they race with.
  Registry registry;
  std::vector<Counter> counters;
  counters.reserve(16);
  for (int i = 0; i < 16; ++i) {
    counters.push_back(registry.counter("race_c" + std::to_string(i) + "_total"));
  }
  std::atomic<std::uint64_t> generation{0};
  std::atomic<bool> stop{false};
  std::atomic<int> mixed{0};
  std::atomic<int> checked{0};
  std::thread scraper{[&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t before = generation.load(std::memory_order_acquire);
      const auto values = registry.counter_values();
      std::atomic_thread_fence(std::memory_order_acquire);
      if (before % 2 != 0 || generation.load(std::memory_order_relaxed) != before) continue;
      bool any_set = false;
      bool any_zero = false;
      for (const auto& [name, value] : values) {
        (value != 0 ? any_set : any_zero) = true;
      }
      if (any_set && any_zero) mixed.fetch_add(1, std::memory_order_relaxed);
      checked.fetch_add(1, std::memory_order_relaxed);
    }
  }};
  // Keep going past 200 iterations until the scraper has judged at least one
  // scrape, however the two threads get scheduled.
  for (int iteration = 0;
       iteration < 200 || (checked.load(std::memory_order_relaxed) == 0 && iteration < 1000000);
       ++iteration) {
    generation.fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    for (auto& counter : counters) counter.add(7);
    generation.fetch_add(1, std::memory_order_release);
    registry.zero_all();
  }
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  EXPECT_GT(checked.load(), 0) << "no scrape fell outside an add loop";
  EXPECT_EQ(mixed.load(), 0) << "scrape observed a half-zeroed registry";
}

// ---- Cross-process trace plumbing ----------------------------------------------

TEST_F(ObsTest, TraceFileCarriesTraceContextArgs) {
  const std::string path = temp_path("ctx_trace.json");
  {
    TraceSession session{path};
    set_trace_context({make_trace_id(42, 3), 3});
    { Span span{"round", "round:3"}; }
    set_trace_context({});
  }
  std::ifstream file{path};
  std::string text{std::istreambuf_iterator<char>{file}, {}};
  char expected[32];
  std::snprintf(expected, sizeof expected, "%016llx",
                static_cast<unsigned long long>(make_trace_id(42, 3)));
  EXPECT_NE(text.find(std::string{"\"trace_id\":\""} + expected), std::string::npos);
  EXPECT_NE(text.find("\"round\":3"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ObsTest, MakeTraceIdIsSeedAndRoundSensitive) {
  EXPECT_NE(make_trace_id(1, 0), make_trace_id(1, 1));
  EXPECT_NE(make_trace_id(1, 0), make_trace_id(2, 0));
  EXPECT_EQ(make_trace_id(7, 5), make_trace_id(7, 5));
  EXPECT_NE(make_trace_id(0, 0), 0u) << "trace id 0 means 'none'";
}

TEST_F(ObsTest, TakeEventsIngestRoundTripKeepsForeignPidLane) {
  std::vector<TraceEventRecord> shipped;
  {
    // Relay-only producer (empty path): events are only consumable via
    // take_events, nothing is written at destruction.
    TraceSession producer{std::string{}};
    producer.set_pid(1234);
    { Span span{"layer.forward", "0:linear"}; }
    shipped = producer.take_events();
    ASSERT_EQ(shipped.size(), 2u);  // B + E
    EXPECT_EQ(shipped[0].pid, 1234);
    EXPECT_TRUE(producer.take_events().empty()) << "take_events drains";
  }
  EXPECT_FALSE(ingest_into_active_session(shipped))
      << "no active session: events are dropped, not crashed on";

  const std::string path = temp_path("ingest_trace.json");
  {
    TraceSession consumer{path};
    EXPECT_TRUE(ingest_into_active_session(shipped));
  }
  std::ifstream file{path};
  std::string text{std::istreambuf_iterator<char>{file}, {}};
  EXPECT_NE(text.find("\"pid\":1234"), std::string::npos)
      << "ingested events keep the sender's pid lane";
  EXPECT_NE(text.find("0:linear"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ObsTest, CounterDeltaTrackerReturnsGrowthSinceLastTake) {
  Registry registry;
  Counter counter = registry.counter("delta_total");
  counter.add(5);
  CounterDeltaTracker tracker;
  auto first = tracker.take(registry);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].second, 5u);
  EXPECT_TRUE(tracker.take(registry).empty()) << "no growth, no entries";
  counter.add(3);
  auto second = tracker.take(registry);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].first, "delta_total");
  EXPECT_EQ(second[0].second, 3u);
}

TEST_F(ObsTest, ProcessStatsProbeSamplesInvariantGauges) {
  ProcessStatsProbe probe;
  Registry& registry = Registry::global();
  const std::uint64_t samples0 =
      registry.counter_value("obs_alloc_probe_samples_total");
  probe.sample();
  EXPECT_EQ(registry.counter_value("obs_alloc_probe_samples_total"), samples0 + 1);
#if defined(__unix__)
  const std::string json = registry.json_snapshot();
  const auto pos = json.find("\"obs_rss_bytes\":");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_GT(std::stoll(json.substr(pos + 16)), 0) << "RSS reads nonzero on unix";
#endif
}

// ---- HTTP exposition units -----------------------------------------------------

std::span<const std::byte> bytes_of(std::string_view text) {
  return std::as_bytes(std::span{text.data(), text.size()});
}

TEST_F(ObsTest, LooksLikeHttpAcceptsPrefixesAndRejectsFrames) {
  EXPECT_TRUE(looks_like_http(bytes_of("G")));
  EXPECT_TRUE(looks_like_http(bytes_of("GET /")));
  EXPECT_TRUE(looks_like_http(bytes_of("HEAD /metrics")));
  EXPECT_FALSE(looks_like_http(bytes_of("MNGF")));  // frame magic on the wire
  EXPECT_FALSE(looks_like_http(bytes_of("POST /")));
  EXPECT_FALSE(looks_like_http(bytes_of("GEX")));
}

TEST_F(ObsTest, ParseHttpRequestLifecycle) {
  EXPECT_EQ(parse_http_request(bytes_of("GET /metr")).status,
            HttpParseStatus::NeedMore);
  const HttpRequest ready = parse_http_request(bytes_of("GET /metrics HTTP/1.0\r\n\r\n"));
  EXPECT_EQ(ready.status, HttpParseStatus::Ready);
  EXPECT_EQ(ready.path, "/metrics");
  EXPECT_EQ(parse_http_request(bytes_of("PUT /x HTTP/1.0\r\n\r\n")).status,
            HttpParseStatus::Bad);
  // Oversized preamble with no request-line terminator: Bad, not NeedMore.
  const std::string oversized = "GET /" + std::string(kMaxHttpRequestBytes, 'a');
  EXPECT_EQ(parse_http_request(bytes_of(oversized)).status, HttpParseStatus::Bad);
}

TEST_F(ObsTest, HttpResponseForRoutesEndpoints) {
  HttpResponder responder;
  responder.metrics_text = [] { return std::string{"up 1\n"}; };
  const std::string ok = http_response_for(responder, "/metrics");
  EXPECT_NE(ok.find("200"), std::string::npos);
  EXPECT_NE(ok.find("up 1"), std::string::npos);
  EXPECT_NE(http_response_for(responder, "/nope").find("404"), std::string::npos);
  // /metrics.json has no callback wired: 503, not a crash.
  EXPECT_NE(http_response_for(responder, "/metrics.json").find("503"),
            std::string::npos);
}

TEST_F(ObsTest, HealthzJsonReportsProgressCounters) {
  Registry& registry = Registry::global();
  Counter rounds = registry.counter("healthz_rounds_total");
  Counter degraded = registry.counter("healthz_degraded_total");
  rounds.add(4);
  degraded.add(1);
  const std::string body =
      healthz_json("healthz_rounds_total", "healthz_degraded_total");
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(body.find("\"rounds_completed\":4"), std::string::npos);
  EXPECT_NE(body.find("\"degraded_rounds\":1"), std::string::npos);
  // Empty degraded-counter name omits the field entirely.
  EXPECT_EQ(healthz_json("healthz_rounds_total", "").find("degraded"),
            std::string::npos);
}

TEST_F(ObsTest, TelemetryHttpServerAnswersLiveScrapes) {
  Counter marker = Registry::global().counter("live_scrape_marker_total");
  marker.add(9);
  net::TelemetryHttpServer server{
      0, net::make_registry_responder("live_scrape_marker_total", "")};
  ASSERT_NE(server.port(), 0) << "ephemeral bind must report the real port";

  const auto scrape = [&](const std::string& path) {
    net::TcpStream stream = net::TcpStream::connect("127.0.0.1", server.port());
    stream.set_receive_timeout(std::chrono::milliseconds{5000});
    const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
    stream.send_all(std::as_bytes(std::span{request.data(), request.size()}));
    std::string response;
    std::byte chunk[2048];
    std::size_t transferred = 0;
    while (stream.read_some(chunk, transferred) == net::IoStatus::Ready) {
      response.append(reinterpret_cast<const char*>(chunk), transferred);
    }
    return response;
  };

  const std::string metrics = scrape("/metrics");
  EXPECT_NE(metrics.find("200"), std::string::npos);
  EXPECT_NE(metrics.find("live_scrape_marker_total 9"), std::string::npos);
  const std::string health = scrape("/healthz");
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health.find("\"rounds_completed\":9"), std::string::npos);
  EXPECT_NE(scrape("/nope").find("404"), std::string::npos);
}

}  // namespace
}  // namespace fedguard::obs
