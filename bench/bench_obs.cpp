// Observability overhead gate: the same m=50, d=100k server round measured
// three ways — with no TraceSession installed (spans are one relaxed atomic
// load each; the registry instruments still run, as they do in every build),
// fully traced into a real trace file, and untraced with a live HTTP
// /metrics endpoint plus one continuously polling scraper attached.
// BENCH_obs.json captures all three; scripts/check_obs_overhead.py fails the
// tier-1 `--obs` gate when the traced or scraped round costs more than 3%
// extra over the untraced baseline (see docs/OBSERVABILITY.md).

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>

#include "defenses/fedavg.hpp"
#include "defenses/update_matrix.hpp"
#include "net/socket.hpp"
#include "net/telemetry_http.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace {

using namespace fedguard;

constexpr std::size_t kClients = 50;   // paper: m = 50 sampled per round
constexpr std::size_t kDim = 100000;   // ψ dimension ≈ the Mlp classifier

std::vector<std::vector<float>> make_psi_sources() {
  util::Rng rng{42};
  std::vector<std::vector<float>> sources(kClients);
  for (auto& psi : sources) {
    psi.resize(kDim);
    for (auto& v : psi) v = rng.uniform_float(-1.0f, 1.0f);
  }
  return sources;
}

/// One server-side round body with the production instrumentation pattern:
/// round-phase spans, traffic counters, and a round-latency observation. The
/// only difference between the two benchmark variants is whether a
/// TraceSession is installed while it runs.
void run_obs_round(benchmark::State& state, bool traced) {
  const auto sources = make_psi_sources();
  defenses::FedAvgAggregator strategy;
  defenses::UpdateMatrix arena;
  std::vector<defenses::ShardPartial> partials(1);
  defenses::AggregationResult result;
  std::vector<float> global(kDim, 0.0f);
  defenses::AggregationContext context;
  obs::Registry& registry = obs::Registry::global();
  obs::Counter upload = registry.counter("bench_obs_upload_bytes_total");
  obs::Histogram round_seconds = registry.histogram("bench_obs_round_seconds");

  std::unique_ptr<obs::TraceSession> session;
  const std::string trace_path = "bench_obs_trace.json";
  if (traced) {
    // Big enough that no span is dropped at realistic iteration counts (the
    // drop path is cheaper than the append path and would flatter the gate).
    session = std::make_unique<obs::TraceSession>(trace_path, 1u << 20);
  }

  for (auto _ : state) {
    const std::uint64_t start_ns = obs::now_ns();
    FEDGUARD_TRACE_SPAN("round", "round:bench");
    {
      FEDGUARD_TRACE_SPAN("round", "collect");
      arena.reset(kClients, kDim);
      for (std::size_t k = 0; k < kClients; ++k) {
        const defenses::UpdateRow row = arena.row(k);
        std::memcpy(row.psi.data(), sources[k].data(), kDim * sizeof(float));
        row.meta->client_id = static_cast<int>(k);
        row.meta->num_samples = 100;
      }
      upload.add(kClients * kDim * sizeof(float));
    }
    {
      FEDGUARD_TRACE_SPAN("round", "aggregate");
      context.global_parameters = global;
      strategy.partial_aggregate_into(context, defenses::UpdateView{arena}, 0, partials[0]);
      strategy.merge_partials_into(context, partials, result);
    }
    for (std::size_t i = 0; i < kDim; ++i) {
      global[i] += 0.5f * (result.parameters[i] - global[i]);
    }
    round_seconds.observe(static_cast<double>(obs::now_ns() - start_ns) * 1e-9);
    benchmark::DoNotOptimize(global.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kClients * kDim));
  if (session != nullptr) {
    session.reset();  // flush + uninstall before unlinking the file
    std::remove(trace_path.c_str());
  }
}

void BM_ObsRoundUntraced(benchmark::State& state) { run_obs_round(state, false); }
void BM_ObsRoundTraced(benchmark::State& state) { run_obs_round(state, true); }

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

/// The live-exposition overhead leg: the same untraced round body while a
/// TelemetryHttpServer answers a continuously polling scraper. This is the
/// deployed steady state (Prometheus attached), so the same 3% budget as the
/// traced leg applies (scripts/check_obs_overhead.py).
void BM_ObsRoundScraped(benchmark::State& state) {
  net::TelemetryHttpServer server{
      0, net::make_registry_responder("bench_obs_upload_bytes_total", "")};
  std::atomic<bool> stop{false};
  std::thread scraper{[&server, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      scrape_once(server.port());
      std::this_thread::sleep_for(std::chrono::milliseconds{10});
    }
  }};
  run_obs_round(state, false);
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
}

// Medians over repetitions keep the 3% gate stable on a loaded 1-core box.
BENCHMARK(BM_ObsRoundUntraced)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);
BENCHMARK(BM_ObsRoundTraced)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);
BENCHMARK(BM_ObsRoundScraped)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

}  // namespace
