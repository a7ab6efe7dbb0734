// Observability overhead gate: the same m=50, d=100k server round measured
// three ways — with no TraceSession installed (spans are one relaxed atomic
// load each; the registry instruments still run, as they do in every build),
// fully traced into a real trace file, and untraced with a live HTTP
// /metrics endpoint plus one continuously polling scraper attached.
//
// On a shared VM the host moves a 5–10 ms memory-bound round by far more
// than 3% from one second to the next, so the three legs run interleaved in
// one process: kBlocks blocks, each timing kRoundsPerLeg rounds of every leg,
// and each block's traced and scraped times are divided by the same block's
// untraced time. The blocks cycle through all six leg orders, so every leg
// runs in every position and after every other leg equally often (a leg
// that follows the scraped one runs measurably slower). BM_ObsOverhead
// reports the medians of the ratios over the blocks (traced_ratio,
// scraped_ratio) in BENCH_obs.json; scripts/check_obs_overhead.py fails the
// tier-1 `--obs` gate when either costs more than 3% extra over the
// untraced round (see docs/OBSERVABILITY.md).

#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <stop_token>
#include <thread>
#include <vector>

#include "defenses/fedavg.hpp"
#include "defenses/update_matrix.hpp"
#include "net/socket.hpp"
#include "net/telemetry_http.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace fedguard;

constexpr std::size_t kClients = 50;   // paper: m = 50 sampled per round
constexpr std::size_t kDim = 100000;   // ψ dimension ≈ the Mlp classifier
constexpr std::size_t kBlocks = 90;    // a multiple of 6: each leg order equally often
constexpr std::size_t kRoundsPerLeg = 5;
constexpr char kTracePath[] = "bench_obs_trace.json";

std::vector<std::vector<float>> make_psi_sources() {
  util::Rng rng{42};
  std::vector<std::vector<float>> sources(kClients);
  for (auto& psi : sources) {
    psi.resize(kDim);
    for (auto& v : psi) v = rng.uniform_float(-1.0f, 1.0f);
  }
  return sources;
}

/// The server-side round body with the production instrumentation pattern:
/// round-phase spans, traffic counters, and a round-latency observation. The
/// legs differ only in what is attached while it runs.
class ObsRound {
 public:
  ObsRound() : sources_{make_psi_sources()}, partials_(1), global_(kDim, 0.0f) {}

  /// Runs `rounds` rounds; returns their wall time in nanoseconds.
  std::uint64_t run(std::size_t rounds) {
    const std::uint64_t begin_ns = obs::now_ns();
    for (std::size_t r = 0; r < rounds; ++r) {
      const std::uint64_t start_ns = obs::now_ns();
      FEDGUARD_TRACE_SPAN("round", "round:bench");
      {
        FEDGUARD_TRACE_SPAN("round", "collect");
        arena_.reset(kClients, kDim);
        for (std::size_t k = 0; k < kClients; ++k) {
          const defenses::UpdateRow row = arena_.row(k);
          std::memcpy(row.psi.data(), sources_[k].data(), kDim * sizeof(float));
          row.meta->client_id = static_cast<int>(k);
          row.meta->num_samples = 100;
        }
        upload_.add(kClients * kDim * sizeof(float));
      }
      {
        FEDGUARD_TRACE_SPAN("round", "aggregate");
        context_.global_parameters = global_;
        strategy_.partial_aggregate_into(context_, defenses::UpdateView{arena_}, 0,
                                         partials_[0]);
        strategy_.merge_partials_into(context_, partials_, result_);
      }
      for (std::size_t i = 0; i < kDim; ++i) {
        global_[i] += 0.5f * (result_.parameters[i] - global_[i]);
      }
      round_seconds_.observe(static_cast<double>(obs::now_ns() - start_ns) * 1e-9);
      benchmark::DoNotOptimize(global_.data());
      benchmark::ClobberMemory();
    }
    return obs::now_ns() - begin_ns;
  }

 private:
  std::vector<std::vector<float>> sources_;
  defenses::FedAvgAggregator strategy_;
  defenses::UpdateMatrix arena_;
  std::vector<defenses::ShardPartial> partials_;
  defenses::AggregationResult result_;
  std::vector<float> global_;
  defenses::AggregationContext context_;
  obs::Counter upload_ = obs::Registry::global().counter("bench_obs_upload_bytes_total");
  obs::Histogram round_seconds_ = obs::Registry::global().histogram("bench_obs_round_seconds");
};

/// One full GET /metrics exchange against the live exposition server.
void scrape_once(std::uint16_t port) {
  try {
    net::TcpStream stream = net::TcpStream::connect("127.0.0.1", port);
    stream.set_receive_timeout(std::chrono::milliseconds{1000});
    constexpr char kRequest[] = "GET /metrics HTTP/1.0\r\n\r\n";
    stream.send_all(std::as_bytes(std::span{kRequest, sizeof(kRequest) - 1}));
    std::byte chunk[4096];
    std::size_t transferred = 0;
    while (stream.read_some(chunk, transferred) == net::IoStatus::Ready) {
    }
  } catch (const std::exception&) {
    // A scrape lost to shutdown races is fine; the gate measures round cost.
  }
}

enum Leg : std::size_t { kUntraced, kTraced, kScraped, kLegs };

/// The six orders the blocks cycle through.
constexpr Leg kOrders[6][kLegs] = {
    {kUntraced, kTraced, kScraped}, {kUntraced, kScraped, kTraced},
    {kTraced, kUntraced, kScraped}, {kTraced, kScraped, kUntraced},
    {kScraped, kUntraced, kTraced}, {kScraped, kTraced, kUntraced}};

/// Times kRoundsPerLeg rounds of one leg, after one untimed round that lets
/// the leg's attachments reach their steady state. Traced: a TraceSession
/// records every span into a real file. Scraped: a TelemetryHttpServer
/// answers a scraper that polls /metrics every 10 ms — the deployed steady
/// state (Prometheus attached), held to the same 3% budget as tracing.
std::uint64_t time_leg(ObsRound& round, Leg leg) {
  std::unique_ptr<obs::TraceSession> session;
  std::unique_ptr<net::TelemetryHttpServer> server;
  std::jthread scraper;  // last: stops and joins before the server goes
  if (leg == kTraced) {
    // Room for every span of the leg: a dropped span is cheaper than a
    // recorded one and would flatter the gate.
    session = std::make_unique<obs::TraceSession>(kTracePath, 1u << 12);
  } else if (leg == kScraped) {
    server = std::make_unique<net::TelemetryHttpServer>(
        0, net::make_registry_responder("bench_obs_upload_bytes_total", ""));
    scraper = std::jthread{[port = server->port()](const std::stop_token& stop) {
      while (!stop.stop_requested()) {
        scrape_once(port);
        std::this_thread::sleep_for(std::chrono::milliseconds{10});
      }
    }};
  }
  (void)round.run(1);
  return round.run(kRoundsPerLeg);
}

void BM_ObsOverhead(benchmark::State& state) {
  ObsRound round;
  std::vector<double> traced_ratio;
  std::vector<double> scraped_ratio;
  std::vector<double> untraced_ms;
  for (auto _ : state) {
    for (std::size_t block = 0; block < kBlocks; ++block) {
      std::array<double, kLegs> ns{};
      for (const Leg leg : kOrders[block % 6]) {
        ns[leg] = static_cast<double>(time_leg(round, leg));
      }
      traced_ratio.push_back(ns[kTraced] / ns[kUntraced]);
      scraped_ratio.push_back(ns[kScraped] / ns[kUntraced]);
      untraced_ms.push_back(ns[kUntraced] * 1e-6 / static_cast<double>(kRoundsPerLeg));
    }
  }
  std::remove(kTracePath);
  state.counters["blocks"] = static_cast<double>(kBlocks);
  state.counters["untraced_round_ms"] = util::median(std::span<const double>{untraced_ms});
  state.counters["traced_ratio"] = util::median(std::span<const double>{traced_ratio});
  state.counters["scraped_ratio"] = util::median(std::span<const double>{scraped_ratio});
}

// One iteration: the blocks inside it are the repetitions.
BENCHMARK(BM_ObsOverhead)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
