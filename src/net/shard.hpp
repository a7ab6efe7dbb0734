#pragma once
// The socket transport of the round engine: edge ShardAggregators each own a
// client cohort on their own reactor thread and partially aggregate uploads
// as they arrive, with the strategy instance the engine lends shard s; the
// root HierarchicalServer (an fl::RoundEngine) fans each round out to the
// shards and hands their ShardPartials to the engine's strategy-free merge.
// A single-tier socket federation is S = 1. docs/SHARDING.md has the
// topology diagram and the exact-merge vs metadata-routing contract;
// docs/ROBUSTNESS.md the fault model.
//
// Client ownership is contiguous by id: client c of N belongs to shard
// floor(c*S/N) and connects to that shard's port, speaking the
// Hello/RoundRequest/RoundReply protocol of net::run_remote_client. Within a
// shard, round cohort slots follow the root's sample order, and exact
// strategies (FedAvg) fold replies into the partial in ascending slot order
// as they land (dynamic batching, no per-round barrier), so the streamed fold
// is bit-identical to the batch fold.
//
// Fault policy: the root waits for the clients up to an accept deadline
// (the engine's accept rule, min_clients, allows a partial federation) and
// gives lost clients a readmission window at each round boundary. Each shard resolves every cohort
// slot once: filled, or failed as a dropout (link closed while pending, or
// absent at dispatch), a timeout (pending at the round deadline) or a corrupt
// reply (CRC, framing or shape failure). The engine turns those outcomes into
// consecutive-failure ejection; ejected ids are closed and refused on rejoin.
//
// Threading: each shard runs one reactor thread; the root communicates
// through a mutex-guarded mailbox (start_round / eject / stop) plus
// Reactor::wake, and collects results with a deadline-bounded
// condition-variable wait. A shard that dies (kill) or misses the deadline
// contributes nothing — the root merges whatever arrived.

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "data/dataset.hpp"
#include "defenses/aggregation.hpp"
#include "fl/round_engine.hpp"
#include "models/classifier.hpp"
#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "net/telemetry_http.hpp"
#include "obs/metrics.hpp"
#include "util/thread_annotations.hpp"

namespace fedguard::net {

struct ShardConfig {
  std::size_t shard_id = 0;
  /// Data port (0 = ephemeral, read back via port()). It also answers HTTP
  /// scrapes: the reactor auto-detects GET/HEAD prefixes.
  std::uint16_t port = 0;
  /// Per-round reply-collection deadline; the shard publishes whatever
  /// arrived when it expires.
  std::chrono::milliseconds round_timeout{30000};
};

/// Edge aggregator: owns a listener + reactor + one cohort of clients, and
/// borrows a strategy instance that only its reactor thread touches (thread
/// confinement — strategies keep scratch).
class ShardAggregator {
 public:
  /// `strategy` must outlive the shard.
  ShardAggregator(ShardConfig config, defenses::AggregationStrategy& strategy);
  ~ShardAggregator();
  ShardAggregator(const ShardAggregator&) = delete;
  ShardAggregator& operator=(const ShardAggregator&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return listener_.port(); }

  /// True while `client_id` has a live, Hello-registered link to this shard.
  [[nodiscard]] bool registered(int client_id) const;
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

  /// One published round: the partial over the filled slots, the frame bytes
  /// this shard moved (RoundRequest frames it enqueued, RoundReply frames it
  /// received and decoded), and every cohort member that did not contribute.
  struct RoundResult {
    defenses::ShardPartial partial;
    std::size_t request_bytes = 0;
    std::size_t reply_bytes = 0;
    std::vector<fl::ClientFailure> failures;
  };

  /// Block until this shard publishes `round` or `deadline` passes. True =
  /// `out` holds the round (its partial has client_count 0 when nobody in
  /// the cohort replied).
  bool wait_result(std::chrono::steady_clock::time_point deadline, std::size_t round,
                   RoundResult& out);

  /// Close `client_id`'s link and refuse its future Hellos.
  void eject(int client_id);

  /// Graceful stop: broadcast Shutdown to the cohort, close, join.
  void shutdown();
  /// Chaos stop: drop every link and the listener without a word (clients
  /// see a dead peer) and join. Idempotent, as is shutdown().
  void kill();

 private:
  enum class Command { None, Round, Shutdown, Kill };
  enum class Slot : std::uint8_t { Pending, Filled, Failed };

  void thread_main();
  [[nodiscard]] Command take_command(RoundCommand& round_command,
                                     std::vector<int>& ejected);
  void ban(int client_id);
  void begin_round(RoundCommand command);
  void handle_message(Reactor::ConnectionId connection, Message&& message);
  void handle_hello(Reactor::ConnectionId connection, const Message& message);
  void handle_reply(Reactor::ConnectionId connection, const Message& message);
  void handle_telemetry(const Message& message);
  void handle_close(Reactor::ConnectionId connection);
  /// Resolve `slot` as failed; a no-op unless it is still pending.
  void fail_slot(std::size_t slot, fl::FailureKind kind);
  /// fail_slot for the slot waiting on `connection`, if any.
  void fail_pending(Reactor::ConnectionId connection, fl::FailureKind kind);
  void fold_ready_rows();
  void finish_round_if_done();
  void publish();
  void stop(bool graceful);

  ShardConfig config_;
  defenses::AggregationStrategy& strategy_;
  TcpListener listener_;
  Reactor reactor_;

  // ---- Reactor-thread-only state (no locks needed) --------------------------
  std::unordered_map<int, Reactor::ConnectionId> client_connections_;
  std::unordered_map<Reactor::ConnectionId, int> connection_clients_;
  std::unordered_set<int> banned_;  // ejected ids
  // Request→reply round-trip latency per client, resolved at Hello so the
  // reply path does no registry lookup.
  std::unordered_map<int, obs::Histogram> rtt_;
  bool in_round_ = false;
  RoundCommand round_command_;
  std::chrono::steady_clock::time_point round_deadline_;
  std::uint64_t dispatch_ns_ = 0;
  defenses::UpdateMatrix arena_;
  std::unordered_map<Reactor::ConnectionId, std::size_t> pending_slots_;
  std::vector<Slot> slots_;
  std::size_t next_fold_ = 0;  // exact path: first unresolved slot
  bool exact_ = false;
  RoundResult building_;
  std::vector<std::size_t> filled_slots_;  // selection scratch (metadata path)
  std::vector<Reactor::ConnectionId> scratch_connection_ids_;  // stop() iteration

  // ---- Root <-> shard mailbox ----------------------------------------------
  mutable util::Mutex mutex_;
  util::CondVar cv_;
  Command command_ FEDGUARD_GUARDED_BY(mutex_) = Command::None;
  RoundCommand pending_round_ FEDGUARD_GUARDED_BY(mutex_);
  std::vector<int> pending_ejections_ FEDGUARD_GUARDED_BY(mutex_);
  std::unordered_set<int> registered_ FEDGUARD_GUARDED_BY(mutex_);
  bool published_ FEDGUARD_GUARDED_BY(mutex_) = false;
  std::size_t published_round_ FEDGUARD_GUARDED_BY(mutex_) = 0;
  RoundResult published_result_ FEDGUARD_GUARDED_BY(mutex_);
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

struct HierarchicalServerConfig : fl::RoundConfig {
  std::size_t expected_clients = 4;  // N, contiguously partitioned over S
  /// Shard i listens on port + i; 0 binds every shard to an ephemeral port
  /// (read back via shard_port()).
  std::uint16_t port = 0;
  /// Wait this long for the N clients to join; then the engine's accept
  /// rule (RoundConfig::min_clients) decides whether the run starts.
  std::size_t accept_timeout_ms = 30000;
  /// Per-round deadline; cohort slots still pending then are timeouts.
  std::size_t round_timeout_ms = 30000;
  /// How long to wait at a round boundary for lost clients to rejoin.
  std::size_t readmit_timeout_ms = 2000;
  /// Root live-scrape port (0 = off), served by a standalone
  /// TelemetryHttpServer. Shard data ports auto-detect scrapes regardless.
  std::uint16_t http_port = 0;
  /// Chaos hook: (shard, round) -> kill that shard at the round's start.
  std::function<bool(std::size_t, std::size_t)> shard_kill_predicate;
};

/// Root of the socket transport: drives the shards for the round engine.
class HierarchicalServer final : public fl::RoundEngine {
 public:
  /// `strategy_factory` is called once per shard, here; shard s aggregates
  /// with the engine's instance s.
  HierarchicalServer(HierarchicalServerConfig config,
                     const defenses::StrategyFactory& strategy_factory,
                     const data::Dataset& test_set, models::ClassifierArch arch,
                     models::ImageGeometry geometry);
  ~HierarchicalServer() override;

  [[nodiscard]] std::uint16_t shard_port(std::size_t shard) const;
  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] std::size_t live_shards() const;

  /// Block until every expected client registered with its shard, or the
  /// accept deadline; then admit the clients that joined (the engine's
  /// accept rule throws std::runtime_error when fewer than min_clients did).
  void await_clients();
  /// await_clients + all rounds + graceful shutdown of every shard.
  [[nodiscard]] fl::RunHistory run() override;

  void kill_shard(std::size_t shard);

 private:
  void collect(std::size_t round, std::span<const std::size_t> sampled,
               std::span<const float> psi0, fl::Collection& out) override;
  std::span<const defenses::ShardPartial> partials(std::size_t round,
                                                   std::span<const float> psi0) override;
  void on_ejected(std::size_t client) override;
  [[nodiscard]] bool joined(std::size_t client) const;
  /// Readmission window: wait for universe members of live shards to rejoin.
  void readmit_lost_clients();

  HierarchicalServerConfig config_;
  std::unique_ptr<TelemetryHttpServer> http_server_;  // config.http_port != 0
  std::vector<std::unique_ptr<ShardAggregator>> shards_;
  // Round-persistent scratch.
  std::vector<std::vector<int>> cohorts_;
  std::vector<defenses::ShardPartial> partials_;
  ShardAggregator::RoundResult result_;
  obs::Counter degraded_rounds_total_;
};

}  // namespace fedguard::net
