// Connection-scaling bench for the sharded reactor tier: how many concurrent
// framed clients a federation sustains, single-tier (one epoll shard) vs
// two-tier (4 epoll shards + root merger).
//
// The clients are simulated: one client-side Reactor holds every outbound
// socket and answers each RoundRequest with a canned RoundReply (encoded once
// per round, shared across the fleet) — no local training, so the measured
// cost is connection handling and frame fan-in/fan-out, which is what the
// reactor refactor changes. Results go to BENCH_reactor.json via
// scripts/run_all_benches.sh.
//
// Flags (core/cli.hpp; this bench builds no ExperimentConfig, so any other
// flag is rejected):
//   --clients N   fleet size (default 2048)
//   --shards S    shard count of the two-tier scenario (default 4)
//   --rounds R    rounds per scenario (default 2)
//   --seed S      (default 42)
//   --out PATH    JSON artifact (default BENCH_reactor.json)
//   --quiet       suppress per-round logging

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/cli.hpp"
#include "data/synthetic_mnist.hpp"
#include "defenses/fedavg.hpp"
#include "net/reactor.hpp"
#include "net/shard.hpp"
#include "util/logging.hpp"

namespace {

using namespace fedguard;

/// One reactor holding the whole simulated fleet. Canned protocol: Hello on
/// connect, echo every RoundRequest with a shared pre-encoded RoundReply.
class CannedFleet {
 public:
  CannedFleet() {
    net::Reactor::Callbacks callbacks;
    callbacks.on_message = [this](net::Reactor::ConnectionId id, net::Message&& message) {
      handle(id, std::move(message));
    };
    reactor_ = std::make_unique<net::Reactor>(std::move(callbacks));
  }

  void add_client(std::uint16_t port, int client_id) {
    const auto id = reactor_->add_connection(net::TcpStream::connect("127.0.0.1", port));
    reactor_->send(id, net::Message{net::MessageType::Hello, net::encode_hello(client_id)});
    if (++added_ % 64 == 0) (void)reactor_->poll_once(std::chrono::milliseconds{0});
  }

  /// Drain queued hellos so the servers can finish registration.
  void flush() {
    while (reactor_->pending_write_bytes() != 0) {
      (void)reactor_->poll_once(std::chrono::milliseconds{5});
    }
  }

  /// Serve canned replies until `done` flips (the server run finished).
  void serve(const std::atomic<bool>& done) {
    while (!done.load(std::memory_order_acquire)) {
      (void)reactor_->poll_once(std::chrono::milliseconds{5});
    }
  }

  [[nodiscard]] std::size_t replies_sent() const noexcept { return replies_sent_; }

 private:
  void handle(net::Reactor::ConnectionId id, net::Message&& message) {
    if (message.type != net::MessageType::RoundRequest) return;
    const net::RoundRequest request = net::decode_round_request(message.payload);
    if (canned_round_ != request.round || canned_.payload.empty()) {
      const std::vector<float> psi(request.global_parameters.size(), 0.001f);
      net::RoundReply reply;
      reply.round = request.round;
      reply.meta.client_id = -1;  // servers map replies by connection, not id
      reply.meta.num_samples = 1;
      reply.psi = psi;
      canned_ = net::Message{net::MessageType::RoundReply, net::encode_round_reply(reply)};
      canned_round_ = request.round;
    }
    (void)reactor_->send(id, canned_);
    ++replies_sent_;
  }

  std::unique_ptr<net::Reactor> reactor_;
  net::Message canned_;
  std::size_t canned_round_ = static_cast<std::size_t>(-1);
  std::size_t added_ = 0;
  std::size_t replies_sent_ = 0;
};

struct ScenarioResult {
  std::string topology;
  std::size_t shards = 1;
  std::size_t clients = 0;
  std::size_t rounds = 0;
  double total_seconds = 0.0;
  double mean_round_seconds = 0.0;
  double replies_per_second = 0.0;
  std::size_t stragglers = 0;
  bool completed = false;
};

ScenarioResult summarize(const std::string& topology, std::size_t shards,
                         std::size_t clients, std::size_t rounds,
                         const fl::RunHistory& history, double total_seconds) {
  ScenarioResult result;
  result.topology = topology;
  result.shards = shards;
  result.clients = clients;
  result.rounds = rounds;
  result.total_seconds = total_seconds;
  result.completed = history.rounds.size() == rounds;
  double round_seconds = 0.0;
  std::size_t replies = 0;
  for (const auto& record : history.rounds) {
    round_seconds += record.round_seconds;
    result.stragglers += record.stragglers;
    replies += record.sampled_clients - record.stragglers;
  }
  if (!history.rounds.empty()) {
    result.mean_round_seconds = round_seconds / static_cast<double>(history.rounds.size());
  }
  if (round_seconds > 0.0) {
    result.replies_per_second = static_cast<double>(replies) / round_seconds;
  }
  return result;
}

ScenarioResult run_tiers(std::size_t clients, std::size_t shards, std::size_t rounds,
                         std::uint64_t seed, const data::Dataset& test,
                         models::ImageGeometry geometry) {
  net::HierarchicalServerConfig config;
  config.shards = shards;
  config.expected_clients = clients;
  config.clients_per_round = clients;
  config.rounds = rounds;
  config.seed = seed;
  config.accept_timeout_ms = 120000;
  config.round_timeout_ms = 120000;
  net::HierarchicalServer server{
      config, [] { return std::make_unique<defenses::FedAvgAggregator>(); }, test,
      models::ClassifierArch::Mlp, geometry};

  const auto start = std::chrono::steady_clock::now();
  CannedFleet fleet;
  for (std::size_t i = 0; i < clients; ++i) {
    fleet.add_client(server.shard_port(server.shard_of(i)), static_cast<int>(i));
  }
  fleet.flush();
  std::atomic<bool> done{false};
  fl::RunHistory history;
  std::thread server_thread{[&] {
    history = server.run();
    done.store(true, std::memory_order_release);
  }};
  fleet.serve(done);
  server_thread.join();
  const double total =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return summarize(shards == 1 ? "single-tier" : "two-tier", shards, clients, rounds, history,
                   total);
}

std::string fmt(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.4f", value);
  return buffer;
}

std::string to_json(const std::vector<ScenarioResult>& results) {
  std::string out;
  out += "{\n  \"schema\": \"fedguard-reactor-bench-v1\",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    out += "    {\"topology\": \"" + r.topology + "\",";
    out += " \"shards\": " + std::to_string(r.shards) + ",";
    out += " \"clients\": " + std::to_string(r.clients) + ",";
    out += " \"rounds\": " + std::to_string(r.rounds) + ",";
    out += " \"completed\": " + std::string{r.completed ? "true" : "false"} + ",\n";
    out += "     \"total_seconds\": " + fmt(r.total_seconds) + ",";
    out += " \"mean_round_seconds\": " + fmt(r.mean_round_seconds) + ",";
    out += " \"replies_per_second\": " + fmt(r.replies_per_second) + ",";
    out += " \"stragglers\": " + std::to_string(r.stragglers) + "}";
    out += i + 1 < results.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const core::CliOptions options =
      core::CliOptions::parse(argc, argv, {"clients", "shards", "rounds", "seed", "out", "quiet"});
  std::size_t clients = 0;
  std::size_t shards = 0;
  std::size_t rounds = 0;
  std::uint64_t seed = 0;
  core::parse_or_exit([&] {
    options.reject_settings();
    clients = options.get_size("clients", 2048);
    shards = options.get_size("shards", 4);
    rounds = options.get_size("rounds", 2);
    seed = options.get_size("seed", 42);
  });
  const std::string out_path = options.get("out", "BENCH_reactor.json");
  if (options.has("quiet")) util::set_log_level(util::LogLevel::Warn);

  // Tiny eval task: the bench measures connection scaling, not learning.
  const models::ImageGeometry geometry{1, 8, 8, 10};
  data::SyntheticMnistOptions data_options;
  data_options.image_size = 8;
  const data::Dataset test = data::generate_synthetic_mnist(64, seed ^ 0x7e57ULL, data_options);

  std::vector<ScenarioResult> results;
  std::printf("reactor scaling bench: %zu simulated clients, %zu rounds\n", clients, rounds);
  results.push_back(run_tiers(clients, 1, rounds, seed, test, geometry));
  results.push_back(run_tiers(clients, shards, rounds, seed, test, geometry));

  bool ok = true;
  for (const ScenarioResult& r : results) {
    std::printf("  %-11s shards=%zu clients=%zu total %.2fs mean round %.3fs "
                "replies/s %.0f stragglers %zu%s\n",
                r.topology.c_str(), r.shards, r.clients, r.total_seconds,
                r.mean_round_seconds, r.replies_per_second, r.stragglers,
                r.completed ? "" : "  [INCOMPLETE]");
    ok = ok && r.completed && r.stragglers == 0;
  }

  std::FILE* file = std::fopen(out_path.c_str(), "wb");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 2;
  }
  const std::string json = to_json(results);
  std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
  std::printf("connection-scaling numbers written to %s\n", out_path.c_str());
  return ok ? 0 : 1;
}
