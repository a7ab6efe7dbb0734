#pragma once
// Two-tier hierarchical federation (ROADMAP item 2): edge ShardAggregators
// each own a client cohort on their own reactor thread and partially
// aggregate uploads as they arrive; a root HierarchicalServer samples
// clients, fans the round out to the shards, merges their ShardPartials
// through the strategy's mergeable-accumulator seam, applies the server
// learning rate, and evaluates. docs/SHARDING.md has the topology diagram
// and the exact-merge vs metadata-routing contract.
//
// Client ownership is contiguous by id: client c of N belongs to shard
// floor(c*S/N) and connects to that shard's port, speaking the unchanged
// Hello/RoundRequest/RoundReply protocol — run_remote_client works verbatim
// against a shard. Within a shard, round cohort slots follow the root's
// sample order, and exact strategies (FedAvg) fold replies into the partial
// in ascending slot order as they land (dynamic batching, no per-round
// barrier), so the streamed fold is bit-identical to the batch fold.
//
// Threading: each shard runs one reactor thread; the root communicates
// through a mutex-guarded mailbox (start_round / stop) plus Reactor::wake,
// and collects partials with a deadline-bounded condition-variable wait.
// A shard that dies (kill) or misses the deadline simply contributes an
// empty partial — the root merges whatever arrived (graceful degradation).

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "data/dataset.hpp"
#include "defenses/aggregation.hpp"
#include "fl/metrics.hpp"
#include "models/classifier.hpp"
#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "net/telemetry_http.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/thread_annotations.hpp"

namespace fedguard::net {

struct ShardConfig {
  std::size_t shard_id = 0;
  /// Reactor cycle length; bounds command-pickup latency.
  std::chrono::milliseconds poll_timeout{20};
  /// Per-round reply-collection deadline; the shard publishes whatever
  /// arrived when it expires.
  std::chrono::milliseconds round_timeout{30000};
  /// Close connections idle longer than this between rounds (0 = never).
  std::chrono::milliseconds idle_timeout{0};
  /// Kernel accept backlog: shards absorb hundreds of near-simultaneous
  /// joins at federation start.
  int listen_backlog = 1024;
  util::WireCodec psi_codec = util::WireCodec::Fp32;
  std::size_t psi_chunk = util::kDefaultQ8ChunkSize;
  /// Dedicated live-scrape port (0 = none). Either way the data port also
  /// answers HTTP scrapes — the reactor auto-detects GET/HEAD prefixes.
  std::uint16_t http_port = 0;
};

/// Edge aggregator: owns a listener + reactor + one cohort of clients and a
/// private strategy instance (thread confinement — strategies keep scratch).
class ShardAggregator {
 public:
  ShardAggregator(ShardConfig config,
                  std::unique_ptr<defenses::AggregationStrategy> strategy);
  ~ShardAggregator();
  ShardAggregator(const ShardAggregator&) = delete;
  ShardAggregator& operator=(const ShardAggregator&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return listener_.port(); }
  [[nodiscard]] std::size_t shard_id() const noexcept { return config_.shard_id; }

  /// Clients that have completed the Hello handshake (root's accept gate).
  [[nodiscard]] std::size_t registered_clients() const;
  [[nodiscard]] bool alive() const;

  /// Fan one round out to this shard's slice of the sample. `cohort` lists
  /// the sampled client ids this shard owns, in root sample order (= cohort
  /// slot order); the RoundRequest frame (encoded and CRC'd once by the
  /// root) and the raw globals (for the strategy's AggregationContext) are
  /// shared across shards and cohort connections.
  struct RoundCommand {
    std::size_t round = 0;
    std::vector<int> cohort;
    SharedFrame request_frame;
    std::shared_ptr<const std::vector<float>> global_parameters;
    std::size_t theta_dim = 0;
  };
  void start_round(RoundCommand command);

  /// Frame bytes this shard moved for one round: RoundRequest frames it
  /// enqueued, and RoundReply frames it received and decoded.
  struct RoundTraffic {
    std::size_t request_bytes = 0;
    std::size_t reply_bytes = 0;
  };

  /// Block until this shard publishes `round`'s partial or `deadline`
  /// passes. True = `out` holds the partial (possibly with client_count 0
  /// when nobody in the cohort replied) and `traffic` the round's bytes.
  bool wait_partial(std::chrono::steady_clock::time_point deadline, std::size_t round,
                    defenses::ShardPartial& out, RoundTraffic& traffic);

  /// Graceful stop: broadcast Shutdown to the cohort, close, join.
  void shutdown();
  /// Chaos stop: drop every link and the listener without a word (clients
  /// see a dead peer) and join. Idempotent, as is shutdown().
  void kill();

 private:
  enum class Command { None, Round, Shutdown, Kill };

  void thread_main();
  [[nodiscard]] Command take_command(RoundCommand& round_command);
  void begin_round(RoundCommand command);
  void handle_message(Reactor::ConnectionId connection, Message&& message);
  void handle_reply(Reactor::ConnectionId connection, const Message& message);
  void handle_telemetry(const Message& message);
  void fold_ready_rows();
  void finish_round_if_done();
  void publish_partial();
  void stop(bool graceful);

  ShardConfig config_;
  std::unique_ptr<defenses::AggregationStrategy> strategy_;
  TcpListener listener_;
  std::unique_ptr<TcpListener> http_listener_;  // ShardConfig::http_port != 0
  Reactor reactor_;

  // ---- Reactor-thread-only round state (no locks needed) --------------------
  std::unordered_map<int, Reactor::ConnectionId> client_connections_;
  std::unordered_map<Reactor::ConnectionId, int> connection_clients_;
  bool in_round_ = false;
  RoundCommand round_command_;
  std::chrono::steady_clock::time_point round_deadline_;
  defenses::UpdateMatrix arena_;
  std::unordered_map<Reactor::ConnectionId, std::size_t> pending_slots_;
  std::vector<bool> slot_filled_;
  std::size_t slots_missing_ = 0;  // cohort members with no live connection
  std::size_t next_fold_ = 0;      // exact path: first unfolded slot
  bool exact_ = false;
  defenses::ShardPartial building_;
  RoundTraffic traffic_;
  std::vector<std::size_t> filled_slots_;  // selection scratch (metadata path)
  std::vector<Reactor::ConnectionId> scratch_connection_ids_;  // stop() iteration

  // ---- Root <-> shard mailbox ----------------------------------------------
  mutable util::Mutex mutex_;
  util::CondVar cv_;
  Command command_ FEDGUARD_GUARDED_BY(mutex_) = Command::None;
  RoundCommand pending_round_ FEDGUARD_GUARDED_BY(mutex_);
  std::size_t registered_ FEDGUARD_GUARDED_BY(mutex_) = 0;
  bool published_ FEDGUARD_GUARDED_BY(mutex_) = false;
  std::size_t published_round_ FEDGUARD_GUARDED_BY(mutex_) = 0;
  defenses::ShardPartial published_partial_ FEDGUARD_GUARDED_BY(mutex_);
  RoundTraffic published_traffic_ FEDGUARD_GUARDED_BY(mutex_);
  bool running_ FEDGUARD_GUARDED_BY(mutex_) = true;

  // Per-shard instruments (docs/OBSERVABILITY.md §net_shard_*).
  obs::Counter replies_total_;
  obs::Counter corrupt_frames_total_;
  obs::Counter rounds_total_;
  obs::Counter timeouts_total_;
  obs::Counter telemetry_reports_total_;
  obs::Counter telemetry_events_total_;
  obs::Gauge arena_capacity_bytes_;

  std::thread thread_;  // last member: starts after everything is built
};

struct HierarchicalServerConfig {
  std::size_t shards = 2;              // S edge aggregators
  std::size_t expected_clients = 4;    // N, contiguously partitioned over S
  std::size_t clients_per_round = 2;   // m, sampled over all N
  std::size_t rounds = 1;
  float server_learning_rate = 1.0f;
  std::size_t eval_batch_size = 256;
  std::uint64_t seed = 1;
  std::size_t accept_timeout_ms = 30000;
  std::size_t round_timeout_ms = 30000;
  std::size_t reactor_poll_timeout_ms = 20;
  std::size_t reactor_idle_timeout_ms = 0;  // 0 = no idle sweep
  util::WireCodec psi_codec = util::WireCodec::Fp32;
  std::size_t psi_chunk = util::kDefaultQ8ChunkSize;
  /// Live scrape base port (0 = exposition off): the root serves http_port
  /// via a standalone TelemetryHttpServer; shard i serves http_port + 1 + i
  /// on its own reactor. Shard data ports additionally auto-detect scrapes.
  std::uint16_t http_port = 0;
  /// Chaos hook: (shard, round) -> kill that shard at the round's start.
  std::function<bool(std::size_t, std::size_t)> shard_kill_predicate;
};

/// Root merger: samples with fl::Server's rng semantics, drives the shards,
/// merges their partials, applies η, evaluates.
class HierarchicalServer {
 public:
  /// `strategy_factory` builds one private strategy instance per shard plus
  /// the root's merge instance (call count: shards + 1).
  HierarchicalServer(
      HierarchicalServerConfig config,
      const std::function<std::unique_ptr<defenses::AggregationStrategy>()>& strategy_factory,
      const data::Dataset& test_set, models::ClassifierArch arch,
      models::ImageGeometry geometry);
  ~HierarchicalServer();
  HierarchicalServer(const HierarchicalServer&) = delete;
  HierarchicalServer& operator=(const HierarchicalServer&) = delete;

  /// The shard that owns client id c (contiguous partition floor(c*S/N)).
  [[nodiscard]] std::size_t shard_of(std::size_t client_id) const noexcept;
  [[nodiscard]] std::uint16_t shard_port(std::size_t shard) const;
  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] std::size_t live_shards() const;

  /// Block until every expected client registered with its shard; throws
  /// std::runtime_error at the accept deadline.
  void await_clients();
  [[nodiscard]] fl::RoundRecord run_round(std::size_t round);
  /// await_clients + all rounds + graceful shutdown of every shard.
  [[nodiscard]] fl::RunHistory run();

  [[nodiscard]] std::span<const float> global_parameters() const noexcept {
    return global_parameters_;
  }
  void kill_shard(std::size_t shard);

 private:
  void evaluate_round(fl::RoundRecord& record);

  HierarchicalServerConfig config_;
  std::unique_ptr<TelemetryHttpServer> http_server_;  // config.http_port != 0
  std::vector<std::unique_ptr<ShardAggregator>> shards_;
  std::unique_ptr<defenses::AggregationStrategy> merge_strategy_;
  const data::Dataset& test_set_;
  models::ImageGeometry geometry_;
  std::unique_ptr<models::Classifier> eval_classifier_;
  std::vector<float> global_parameters_;
  util::Rng rng_;
  // Round-persistent scratch.
  std::vector<std::size_t> sampled_;
  std::vector<std::vector<int>> cohorts_;
  std::vector<defenses::ShardPartial> partials_;
  defenses::AggregationResult result_;
  std::vector<std::size_t> eval_indices_;
  obs::Counter rounds_total_;
  obs::Counter degraded_rounds_total_;
  obs::Histogram round_seconds_;
};

}  // namespace fedguard::net
