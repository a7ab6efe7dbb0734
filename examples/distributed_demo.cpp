// Distributed deployment demo — the paper's testbed shape (§IV-E: one server
// process, clients as separate processes over ethernet).
//
// The federation is an ExperimentConfig: every descriptor key is a flag
// (docs/CONFIG_REFERENCE.md), on top of this demo's defaults (4 clients, 3
// sampled per round, 6 rounds, FedGuard, one sign-flipper). It is built by
// core::build_federation, so every process given the same flags derives the
// same data partition and the same malicious clients.
//
// One process, one TCP client thread per client (default):
//   ./distributed_demo
// Separate processes, all given the same flags:
//   terminal 1: ./distributed_demo --role server --port 7700
//   terminal 2: ./distributed_demo --role client --id 0 --port 7700
//   ...         ./distributed_demo --role client --id 3 --port 7700
// Shard s listens on port + s, and client k dials its shard's port.
//
// Chaos: the fault_* keys build one seeded fl::FaultPlan that the socket
// clients act out (docs/ROBUSTNESS.md); the same fault_seed replays the same
// fault schedule:
//   ./distributed_demo --fault_drop_probability 0.25 --fault_disconnect_probability 0.1
//
// Two-tier topology (docs/SHARDING.md): --shards N runs N epoll-reactor edge
// aggregators under one root merger. --kill-shard/--kill-round kill a shard
// mid-run, and the demo checks that the federation degrades gracefully (it
// finishes on the surviving shards):
//   ./distributed_demo --shards 2 --num_clients 4 --kill-shard 1 --kill-round 1
//
// Observability (docs/OBSERVABILITY.md): --obs_trace_path, --obs_metrics_path,
// and --obs_http_port PORT for live /metrics, /metrics.json and /healthz: the
// root serves PORT, and every shard data port also answers scrapes. The demo
// then checks both endpoints mid-run and prints a FAIL: line when a scrape
// does not come back healthy.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <iostream>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/cli.hpp"
#include "core/config_file.hpp"
#include "core/report.hpp"
#include "core/runner.hpp"
#include "net/remote.hpp"
#include "net/shard.hpp"
#include "net/socket.hpp"
#include "obs/exporter.hpp"
#include "util/logging.hpp"

namespace {

using namespace fedguard;

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

/// The demo's defaults; flags apply on top.
void demo_defaults(core::ExperimentConfig& config) {
  config.num_clients = 4;
  config.clients_per_round = 3;
  config.rounds = 6;
  config.train_samples = 800;
  config.test_samples = 200;
  config.attack = attacks::AttackType::SignFlip;
  config.malicious_fraction = 0.25;
  config.client.local_epochs = 2;
  config.client.cvae_epochs = 30;
  // Chaos runs: a dropped reply costs one bounded wait, and the federation
  // starts with whoever joined.
  config.remote_round_timeout_ms = 5000;
  config.min_clients = 1;
  config.seed = 77;
}

/// What a demo process was asked to do, besides the federation itself.
struct Role {
  std::string name = "demo";  // demo | server | client
  std::size_t id = 0;         // client role: which client of the federation
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;     // shard 0's port (shard s: port + s); 0 = ephemeral
  bool kill = false;
  std::size_t kill_shard = 0;
  std::size_t kill_round = 1;
};

/// The demo's own flags, checked against the federation they address.
Role role_from(const core::CliOptions& options, const core::ExperimentConfig& config) {
  Role role;
  role.name = options.get("role", role.name);
  if (role.name != "demo" && role.name != "server" && role.name != "client") {
    throw std::invalid_argument{"config: unknown role '" + role.name + "' (demo|server|client)"};
  }
  role.id = options.get_size("id", 0);
  if (role.id >= config.num_clients) {
    throw std::invalid_argument{"config: id " + std::to_string(role.id) +
                                " is not a client of " + std::to_string(config.num_clients)};
  }
  role.host = options.get("host", role.host);
  role.port = core::to_port(options.get("port", role.name == "demo" ? "0" : "7700"), "port");
  role.kill = options.has("kill-shard");
  role.kill_shard = options.get_size("kill-shard", 0);
  role.kill_round = options.get_size("kill-round", role.kill_round);
  if (role.kill && role.kill_shard >= config.shards) {
    throw std::invalid_argument{"config: kill-shard " + std::to_string(role.kill_shard) +
                                " is not a shard of " + std::to_string(config.shards)};
  }
  return role;
}

/// One client of the federation, served over TCP from this process.
int run_client(const core::ExperimentConfig& config, const Role& role) {
  const core::Federation federation = core::build_federation(config);
  fl::Client& client = *federation.clients.at(role.id);
  const auto port =
      static_cast<std::uint16_t>(role.port + role.id * config.shards / config.num_clients);
  std::printf("client %zu connecting to %s:%u%s\n", role.id, role.host.c_str(),
              static_cast<unsigned>(port), client.malicious() ? " (malicious)" : "");
  fl::FaultInjector injector{config.fault_plan};
  net::RemoteClientOptions options;
  if (config.fault_plan.any()) options.faults = &injector;
  // Separate-process clients ship their spans and counter deltas upstream so
  // the server's trace holds the whole federation (docs/OBSERVABILITY.md).
  options.relay_telemetry = true;
  const std::size_t served = net::run_remote_client(role.host, port, client, options);
  std::printf("client %zu served %zu rounds (%zu faults injected)\n", role.id, served,
              injector.total_injected());
  return 0;
}

/// The root and its shards; in the demo role, every client too, each on its
/// own thread dialing its shard.
int run_server(const core::ExperimentConfig& config, const Role& role) {
  const core::Federation federation = core::build_federation(config);
  net::HierarchicalServerConfig server_config =
      core::hierarchical_server_config(federation.config);
  server_config.port = role.port;
  if (role.kill) {
    server_config.shard_kill_predicate = [role](std::size_t shard, std::size_t round) {
      return shard == role.kill_shard && round == role.kill_round;
    };
  }
  net::HierarchicalServer server{
      server_config,
      [&] { return core::make_strategy(federation.config, federation.auxiliary_set); },
      federation.test_set, federation.config.arch, federation.config.geometry()};
  std::printf("%s over %zu shard(s): %zu clients, %zu sampled per round, %zu rounds\n",
              core::to_string(config.strategy), config.shards, config.num_clients,
              config.clients_per_round, config.rounds);
  if (role.kill) {
    std::printf("chaos: shard %zu dies at the start of round %zu\n", role.kill_shard,
                role.kill_round);
  }

  fl::FaultInjector injector{config.fault_plan};
  std::vector<std::thread> threads;
  if (role.name == "demo") {
    for (std::size_t id = 0; id < config.num_clients; ++id) {
      const std::uint16_t port = server.shard_port(server.shard_of(id));
      threads.emplace_back([&, id, port] {
        net::RemoteClientOptions options;
        if (config.fault_plan.any()) options.faults = &injector;
        (void)net::run_remote_client("127.0.0.1", port, *federation.clients[id], options);
      });
    }
  } else {
    std::printf("server listening on port %u, waiting for %zu clients...\n",
                static_cast<unsigned>(server.shard_port(0)), config.num_clients);
  }
  std::unique_ptr<obs::RoundExporter> exporter;
  if (config.obs.enabled()) exporter = std::make_unique<obs::RoundExporter>(config.obs);
  // Mid-federation scrape check: while the rounds run, hit the root's
  // /healthz (standalone listener) and shard 0's data port /metrics (reactor
  // auto-detection) and record whether both answered healthy.
  const std::uint16_t http_port = config.obs.http_port;
  std::atomic<bool> root_healthy{false};
  std::atomic<bool> shard_healthy{false};
  std::thread probe;
  if (http_port != 0) {
    const std::uint16_t shard0_port = server.shard_port(0);
    probe = std::thread{[&, shard0_port] {
      root_healthy = probe_until(http_port, "/healthz", "\"status\":\"ok\"");
      shard_healthy = probe_until(shard0_port, "/metrics", "net_shard_rounds_total");
    }};
  }
  const fl::RunHistory history = server.run();
  for (auto& thread : threads) thread.join();
  if (probe.joinable()) probe.join();
  if (http_port != 0) {
    if (!root_healthy) {
      std::printf("FAIL: root /healthz on port %u never answered healthy\n",
                  static_cast<unsigned>(http_port));
      return 1;
    }
    if (!shard_healthy) {
      std::printf("FAIL: shard 0 data-port /metrics scrape never answered\n");
      return 1;
    }
    std::printf("live telemetry verified mid-run (root /healthz + shard /metrics)\n");
  }

  std::printf("\n");
  for (const auto& round : history.rounds) {
    std::printf("round %zu: accuracy %5.1f%% | sampled %zu | rejected malicious %zu/%zu | "
                "stragglers %zu | %.1f KB down over TCP\n",
                round.round, round.test_accuracy * 100.0, round.sampled_clients,
                round.rejected_malicious, round.sampled_malicious, round.stragglers,
                static_cast<double>(round.server_download_bytes) / 1e3);
  }
  if (config.fault_plan.any()) {
    if (role.name == "demo") {
      std::printf("\n%zu faults injected by the plan\n", injector.total_injected());
    }
    core::print_fault_summary(std::cout, history);
  }
  if (history.rounds.size() != config.rounds) {
    std::printf("FAIL: only %zu of %zu rounds completed\n", history.rounds.size(),
                config.rounds);
    return 1;
  }
  const fl::RoundRecord& last = history.rounds.back();
  if (role.kill) {
    // Graceful-degradation checks: the run must survive a dead shard. (run()
    // has already shut the surviving shards down, so live_shards() is 0 here
    // by design.)
    if (server.live_shards() > config.shards - 1) {
      std::printf("FAIL: killed shard still reports alive\n");
      return 1;
    }
    if (last.sampled_clients == 0) {
      std::printf("FAIL: final round sampled nobody\n");
      return 1;
    }
    std::printf("\ngraceful degradation held: shard %zu died, %zu rounds completed on the "
                "survivors, final accuracy %.1f%%\n",
                role.kill_shard, history.rounds.size(), last.test_accuracy * 100.0);
  } else {
    std::printf("\nfinal accuracy: %.2f%% over %zu shard(s) (strategy %s)\n",
                last.test_accuracy * 100.0, config.shards, history.strategy.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const core::CliOptions options = core::CliOptions::parse(
      argc, argv, {"role", "id", "host", "port", "kill-shard", "kill-round"});
  const core::ExperimentConfig config =
      core::parse_or_exit([&] { return core::experiment_config(options, demo_defaults); });
  const Role role = core::parse_or_exit([&] { return role_from(options, config); });
  util::set_log_level(util::LogLevel::Warn);
  return role.name == "client" ? run_client(config, role) : run_server(config, role);
}
