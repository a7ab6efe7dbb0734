// Distributed deployment demo — the paper's testbed shape (§IV-E: one server
// process, clients as separate processes over ethernet).
//
// Run as separate processes:
//   terminal 1: ./distributed_demo --role server --port 7700 --clients 4 --rounds 6
//   terminal 2: ./distributed_demo --role client --id 0 --port 7700
//   ...         ./distributed_demo --role client --id 3 --port 7700 --attack sign_flip
//
// Or run the whole federation in one process with threads (default):
//   ./distributed_demo
//
// Chaos flags (see docs/ROBUSTNESS.md) build one seeded fl::FaultPlan that
// the socket clients act out, so the fault-tolerance path can be watched live
// (an in-process run plays the same plan through fl::ServerConfig):
//   ./distributed_demo --drop 0.25 --disconnect 0.1 --fault-seed 7
// Fault kinds: --drop, --delay (+ --delay-ms), --truncate, --bitflip,
// --disconnect, --never-connect; each takes a per-round probability. The same
// --fault-seed replays the identical fault schedule.
//
// Two-tier topology (docs/SHARDING.md): --shards N runs N epoll-reactor edge
// aggregators under one root merger, with --clients-per-shard M TCP clients
// each. Shard-failure chaos kills a shard mid-run and demonstrates graceful
// degradation (the federation finishes on the surviving shards):
//   ./distributed_demo --shards 4 --clients-per-shard 3 --kill-shard 1 --kill-round 2
//
// Observability (server/demo roles; see docs/OBSERVABILITY.md):
//   --trace trace.json      Chrome trace_event output (open at ui.perfetto.dev)
//   --metrics metrics.prom  Prometheus text + per-round snapshots (.jsonl)
//   --metrics-port 9464     Live /metrics, /metrics.json and /healthz over
//                           HTTP: the root serves PORT, and every shard data
//                           port also answers scrapes. The sharded demo
//                           self-checks the endpoints mid-federation and
//                           prints a FAIL: line when a scrape does not come
//                           back healthy.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <thread>

#include "core/cli.hpp"
#include "core/report.hpp"
#include "data/partition.hpp"
#include "data/synthetic_mnist.hpp"
#include "defenses/fedguard.hpp"
#include "defenses/fedavg.hpp"
#include "net/remote.hpp"
#include "net/shard.hpp"
#include "net/socket.hpp"
#include "obs/exporter.hpp"
#include "util/logging.hpp"

namespace {

using namespace fedguard;

/// Build a RoundExporter from --trace/--metrics, or null when neither is set.
std::unique_ptr<obs::RoundExporter> exporter_from_options(
    const core::CliOptions& options) {
  obs::ObsOptions obs_options;
  obs_options.trace_path = options.get("trace", "");
  obs_options.metrics_path = options.get("metrics", "");
  if (!obs_options.enabled()) return nullptr;
  return std::make_unique<obs::RoundExporter>(obs_options);
}

constexpr std::size_t kTrainSamples = 800;
constexpr std::uint64_t kDataSeed = 77;

/// One-shot HTTP/1.0 scrape of 127.0.0.1:`port`; returns the raw response
/// ("" on connect/send/receive failure).
std::string http_get(std::uint16_t port, const std::string& path) {
  try {
    net::TcpStream stream = net::TcpStream::connect("127.0.0.1", port);
    stream.set_receive_timeout(std::chrono::milliseconds{2000});
    const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
    stream.send_all(std::as_bytes(std::span{request.data(), request.size()}));
    std::string response;
    std::byte chunk[512];
    std::size_t transferred = 0;
    while (stream.read_some(chunk, transferred) == net::IoStatus::Ready) {
      response.append(reinterpret_cast<const char*>(chunk), transferred);
    }
    return response;
  } catch (const std::exception&) {
    return "";
  }
}

/// Retry `path` on `port` until the predicate holds (the scrape races
/// federation startup) or ~4s elapse.
bool probe_until(std::uint16_t port, const std::string& path,
                 const std::string& needle) {
  for (int attempt = 0; attempt < 40; ++attempt) {
    const std::string response = http_get(port, path);
    if (response.find("200") != std::string::npos &&
        response.find(needle) != std::string::npos) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{100});
  }
  return false;
}

models::CvaeSpec demo_cvae() {
  models::CvaeSpec spec;
  spec.hidden = 96;
  spec.latent = 2;
  return spec;
}

/// The demo's FedGuard strategy; the server calls this once per shard.
std::unique_ptr<defenses::AggregationStrategy> demo_fedguard() {
  defenses::FedGuardConfig fg;
  fg.cvae_spec = demo_cvae();
  fg.total_samples = 100;
  return std::make_unique<defenses::FedGuardAggregator>(fg, models::ClassifierArch::Mlp,
                                                        models::ImageGeometry{},
                                                        kDataSeed ^ 0xf9ULL);
}

fl::ClientConfig demo_client_config() {
  fl::ClientConfig config;
  config.local_epochs = 2;
  config.batch_size = 16;
  config.cvae_epochs = 30;
  config.cvae_batch_size = 8;
  config.cvae_learning_rate = 3e-3f;
  return config;
}

fl::FaultPlan plan_from_options(const core::CliOptions& options) {
  fl::FaultPlan plan;
  plan.drop_probability = options.get_double("drop", 0.0);
  plan.delay_probability = options.get_double("delay", 0.0);
  plan.delay_ms = static_cast<std::size_t>(options.get_int("delay-ms", 20));
  plan.truncate_probability = options.get_double("truncate", 0.0);
  plan.bit_flip_probability = options.get_double("bitflip", 0.0);
  plan.disconnect_probability = options.get_double("disconnect", 0.0);
  plan.never_connect_probability = options.get_double("never-connect", 0.0);
  plan.seed = static_cast<std::uint64_t>(options.get_int("fault-seed", 1));
  return plan;
}

/// Every process derives the same deterministic partition, so a client only
/// needs its id to know its shard — no data ever crosses the network (the
/// FL premise).
std::unique_ptr<fl::Client> make_client(int id, std::size_t num_clients) {
  const data::Dataset train = data::generate_synthetic_mnist(kTrainSamples, kDataSeed);
  const data::Partition partition =
      data::dirichlet_partition(train, num_clients, 10.0, kDataSeed ^ 0xd17ULL);
  return std::make_unique<fl::Client>(
      id, train, partition[static_cast<std::size_t>(id)], demo_client_config(),
      models::ClassifierArch::Mlp, models::ImageGeometry{}, demo_cvae(),
      kDataSeed ^ (0xc11ULL + static_cast<std::uint64_t>(id)));
}

int run_server(const core::CliOptions& options) {
  const auto clients = static_cast<std::size_t>(options.get_int("clients", 4));
  const auto rounds = static_cast<std::size_t>(options.get_int("rounds", 6));
  const auto port = static_cast<std::uint16_t>(options.get_int("port", 7700));

  const data::Dataset test = data::generate_synthetic_mnist(200, kDataSeed ^ 0x7e57ULL);
  net::HierarchicalServerConfig config;  // one shard: a single-tier server
  config.port = port;
  config.expected_clients = clients;
  config.clients_per_round = std::max<std::size_t>(1, clients / 2 + 1);
  config.rounds = rounds;
  config.seed = kDataSeed;
  // Survive a chaos run: bound every wait, tolerate absent clients.
  config.accept_timeout_ms = static_cast<std::size_t>(options.get_int("accept-ms", 30000));
  config.round_timeout_ms = static_cast<std::size_t>(options.get_int("round-ms", 30000));
  config.min_clients = static_cast<std::size_t>(options.get_int("min-clients", 0));
  config.eject_after_failures = 3;
  config.http_port = static_cast<std::uint16_t>(options.get_int("metrics-port", 0));
  net::HierarchicalServer server{config, demo_fedguard, test, models::ClassifierArch::Mlp,
                                 models::ImageGeometry{}};
  std::printf("server listening on port %u, waiting for %zu clients...\n",
              static_cast<unsigned>(server.shard_port(0)), clients);
  const auto exporter = exporter_from_options(options);
  const fl::RunHistory history = server.run();
  std::printf("\nfinal accuracy: %.2f%% (strategy %s)\n",
              history.rounds.back().test_accuracy * 100.0, history.strategy.c_str());
  core::print_fault_summary(std::cout, history);
  return 0;
}

int run_client(const core::CliOptions& options) {
  const int id = static_cast<int>(options.get_int("id", 0));
  const auto port = static_cast<std::uint16_t>(options.get_int("port", 7700));
  const std::string host = options.get("host", "127.0.0.1");
  const auto clients = static_cast<std::size_t>(options.get_int("clients", 4));

  auto client = make_client(id, clients);
  std::unique_ptr<attacks::ModelAttack> attack;
  const std::string attack_name = options.get("attack", "none");
  if (attack_name != "none") {
    attack = attacks::make_model_attack(attacks::attack_type_from_string(attack_name), {});
    if (attack) client->corrupt_with_model_attack(attack.get());
  }
  std::printf("client %d connecting to %s:%u%s\n", id, host.c_str(),
              static_cast<unsigned>(port), attack ? " (malicious)" : "");
  const fl::FaultPlan plan = plan_from_options(options);
  fl::FaultInjector injector{plan};
  net::RemoteClientOptions remote_options;
  if (plan.any()) remote_options.faults = &injector;
  // Separate-process clients ship their spans and counter deltas upstream so
  // the server's trace holds the whole federation (docs/OBSERVABILITY.md).
  remote_options.relay_telemetry = true;
  const std::size_t served = net::run_remote_client(host, port, *client, remote_options);
  std::printf("client %d served %zu rounds (%zu faults injected)\n", id, served,
              injector.total_injected());
  return 0;
}

int run_threaded_demo(const core::CliOptions& options) {
  std::printf("single-process demo: FedGuard server + 4 TCP clients (1 sign-flipper)\n\n");
  const fl::FaultPlan plan = plan_from_options(options);
  fl::FaultInjector injector{plan};
  if (plan.any()) {
    std::printf("chaos plan active (seed %llu): drop %.2f delay %.2f truncate %.2f "
                "bitflip %.2f disconnect %.2f never-connect %.2f\n\n",
                static_cast<unsigned long long>(plan.seed), plan.drop_probability,
                plan.delay_probability, plan.truncate_probability,
                plan.bit_flip_probability, plan.disconnect_probability,
                plan.never_connect_probability);
  }
  const data::Dataset test = data::generate_synthetic_mnist(200, kDataSeed ^ 0x7e57ULL);
  net::HierarchicalServerConfig config;  // one shard on an ephemeral port
  config.expected_clients = 4;
  config.clients_per_round = 3;
  config.rounds = 6;
  config.seed = kDataSeed;
  config.eject_after_failures = 3;
  if (plan.any()) {
    // Chaos runs need bounded waits and tolerance for absent clients.
    config.round_timeout_ms = 5000;
    config.accept_timeout_ms = 5000;
    config.min_clients = 1;
  }
  config.http_port = static_cast<std::uint16_t>(options.get_int("metrics-port", 0));
  net::HierarchicalServer server{config, demo_fedguard, test, models::ClassifierArch::Mlp,
                                 models::ImageGeometry{}};
  const std::uint16_t port = server.shard_port(0);

  const attacks::SignFlipAttack sign_flip;
  std::vector<std::unique_ptr<fl::Client>> clients;
  std::vector<std::thread> threads;
  // Build every client before spawning any thread: a later push_back can
  // reallocate `clients` while an earlier thread dereferences clients[id].
  for (int id = 0; id < 4; ++id) {
    clients.push_back(make_client(id, 4));
    if (id == 3) clients.back()->corrupt_with_model_attack(&sign_flip);
  }
  for (int id = 0; id < 4; ++id) {
    threads.emplace_back([&, id] {
      net::RemoteClientOptions remote_options;
      if (plan.any()) remote_options.faults = &injector;
      (void)net::run_remote_client("127.0.0.1", port, *clients[id], remote_options);
    });
  }
  const auto exporter = exporter_from_options(options);
  const fl::RunHistory history = server.run();
  for (auto& thread : threads) thread.join();

  for (const auto& round : history.rounds) {
    std::printf("round %zu: accuracy %5.1f%% | rejected malicious %zu/%zu | "
                "%.1f KB down over TCP\n",
                round.round, round.test_accuracy * 100.0, round.rejected_malicious,
                round.sampled_malicious,
                static_cast<double>(round.server_download_bytes) / 1e3);
  }
  if (plan.any()) {
    std::printf("\n%zu faults injected by the plan\n", injector.total_injected());
    core::print_fault_summary(std::cout, history);
  }
  return 0;
}

/// Two-tier federation in one process: N reactor shards + root merger, with
/// M TCP clients per shard connecting to their owner shard's port. With
/// --kill-shard/--kill-round the run doubles as a shard-failure chaos drill:
/// it asserts the federation degrades gracefully (all rounds complete, the
/// killed shard is the only casualty) instead of just hoping.
int run_sharded_demo(const core::CliOptions& options) {
  const auto shards = static_cast<std::size_t>(options.get_int("shards", 2));
  const auto per_shard =
      static_cast<std::size_t>(options.get_int("clients-per-shard", 2));
  const auto rounds = static_cast<std::size_t>(options.get_int("rounds", 4));
  const long long kill_shard = options.get_int("kill-shard", -1);
  const auto kill_round = static_cast<std::size_t>(options.get_int("kill-round", 1));
  const std::size_t num_clients = shards * per_shard;
  std::printf("two-tier demo: %zu shards x %zu clients, FedAvg root merge, %zu rounds\n",
              shards, per_shard, rounds);
  if (kill_shard >= 0) {
    std::printf("chaos: shard %lld dies at the start of round %zu\n", kill_shard,
                kill_round);
  }

  const data::Dataset test = data::generate_synthetic_mnist(200, kDataSeed ^ 0x7e57ULL);
  net::HierarchicalServerConfig config;
  config.shards = shards;
  config.expected_clients = num_clients;
  config.clients_per_round = std::max<std::size_t>(1, num_clients / 2 + 1);
  config.rounds = rounds;
  config.seed = kDataSeed;
  config.accept_timeout_ms = static_cast<std::size_t>(options.get_int("accept-ms", 30000));
  config.round_timeout_ms = static_cast<std::size_t>(options.get_int("round-ms", 30000));
  const auto metrics_port =
      static_cast<std::uint16_t>(options.get_int("metrics-port", 0));
  config.http_port = metrics_port;
  if (kill_shard >= 0) {
    config.shard_kill_predicate = [kill_shard, kill_round](std::size_t shard,
                                                           std::size_t round) {
      return shard == static_cast<std::size_t>(kill_shard) && round == kill_round;
    };
  }
  net::HierarchicalServer server{
      config, [] { return std::make_unique<defenses::FedAvgAggregator>(); }, test,
      models::ClassifierArch::Mlp, models::ImageGeometry{}};

  const attacks::SignFlipAttack sign_flip;
  std::vector<std::unique_ptr<fl::Client>> clients;
  std::vector<std::thread> threads;
  for (std::size_t id = 0; id < num_clients; ++id) {
    clients.push_back(make_client(static_cast<int>(id), num_clients));
    if (id + 1 == num_clients) clients.back()->corrupt_with_model_attack(&sign_flip);
  }
  for (std::size_t id = 0; id < num_clients; ++id) {
    const std::uint16_t port = server.shard_port(server.shard_of(id));
    threads.emplace_back([&clients, id, port] {
      (void)net::run_remote_client("127.0.0.1", port, *clients[id], {});
    });
  }
  const auto exporter = exporter_from_options(options);
  // Mid-federation scrape smoke check: while the rounds run, hit the root's
  // /healthz (standalone listener) and shard 0's data port /metrics (reactor
  // auto-detection) and record whether both answered healthy.
  std::atomic<bool> root_healthy{false};
  std::atomic<bool> shard_healthy{false};
  std::thread probe;
  if (metrics_port != 0) {
    const std::uint16_t shard0_port = server.shard_port(0);
    probe = std::thread{[&, shard0_port] {
      root_healthy = probe_until(metrics_port, "/healthz", "\"status\":\"ok\"");
      shard_healthy = probe_until(shard0_port, "/metrics", "net_shard_rounds_total");
    }};
  }
  const fl::RunHistory history = server.run();
  for (auto& thread : threads) thread.join();
  if (probe.joinable()) probe.join();
  if (metrics_port != 0) {
    if (!root_healthy) {
      std::printf("FAIL: root /healthz on port %u never answered healthy\n",
                  static_cast<unsigned>(metrics_port));
      return 1;
    }
    if (!shard_healthy) {
      std::printf("FAIL: shard 0 data-port /metrics scrape never answered\n");
      return 1;
    }
    std::printf("live telemetry verified mid-run (root /healthz + shard /metrics)\n");
  }

  for (const auto& round : history.rounds) {
    std::printf("round %zu: accuracy %5.1f%% | sampled %zu | stragglers %zu\n",
                round.round, round.test_accuracy * 100.0, round.sampled_clients,
                round.stragglers);
  }
  if (kill_shard >= 0) {
    // Graceful-degradation assertions: the run must survive a dead shard.
    const std::size_t expected_live = shards - 1;
    if (history.rounds.size() != rounds) {
      std::printf("FAIL: only %zu of %zu rounds completed after shard kill\n",
                  history.rounds.size(), rounds);
      return 1;
    }
    if (server.live_shards() > expected_live) {
      std::printf("FAIL: killed shard still reports alive\n");
      return 1;
    }
    const fl::RoundRecord& last = history.rounds.back();
    if (last.sampled_clients == 0) {
      std::printf("FAIL: final round sampled nobody\n");
      return 1;
    }
    // (run() has already shut the surviving shards down gracefully, so
    // live_shards() is 0 here by design; the assertions above checked the
    // degradation itself.)
    std::printf("\ngraceful degradation held: shard %lld died, %zu rounds "
                "completed on the survivors, final accuracy %.1f%%\n",
                kill_shard, history.rounds.size(), last.test_accuracy * 100.0);
  } else {
    std::printf("\nfinal accuracy: %.2f%% over %zu shards\n",
                history.rounds.back().test_accuracy * 100.0, shards);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const core::CliOptions options = core::CliOptions::parse(argc, argv);
  util::set_log_level(util::LogLevel::Warn);
  const std::string role = options.get("role", "demo");
  if (role == "server") return run_server(options);
  if (role == "client") return run_client(options);
  if (options.get_int("shards", 0) > 0) return run_sharded_demo(options);
  return run_threaded_demo(options);
}
