#include "net/shard.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/telemetry_relay.hpp"
#include "obs/exporter.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace fedguard::net {

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

namespace {

/// Reactor cycle length: bounds how long a root command waits for pickup.
constexpr milliseconds kPollTimeout{20};
/// Kernel accept backlog: shards absorb hundreds of near-simultaneous joins
/// at federation start.
constexpr int kListenBacklog = 1024;

}  // namespace

// ---- ShardAggregator ---------------------------------------------------------

ShardAggregator::ShardAggregator(ShardConfig config,
                                 std::unique_ptr<defenses::AggregationStrategy> strategy)
    : config_{config},
      strategy_{std::move(strategy)},
      listener_{config.port, kListenBacklog},
      reactor_{Reactor::Callbacks{
          // on_accept: nothing until the peer introduces itself with Hello.
          nullptr,
          [this](Reactor::ConnectionId id, Message&& message) {
            handle_message(id, std::move(message));
          },
          [this](Reactor::ConnectionId id) { handle_close(id); },
          [this](Reactor::ConnectionId id, const DecodeError& error) {
            corrupt_frames_total_.add(1);
            // The pending reply on this link is lost either way; no client
            // resends, so the slot fails now instead of at the deadline.
            fail_pending(id, fl::FailureKind::Corrupt);
            // BadCrc leaves the byte stream in sync; everything else means
            // desync and the reactor drops the link regardless.
            return error.code() == DecodeErrorCode::BadCrc;
          }}} {
  if (!strategy_) {
    throw std::invalid_argument{"ShardAggregator: null strategy"};
  }
  const std::string label = "{shard=\"" + std::to_string(config_.shard_id) + "\"}";
  auto& registry = obs::Registry::global();
  replies_total_ = registry.counter("net_shard_replies_total" + label);
  corrupt_frames_total_ = registry.counter("net_shard_corrupt_frames_total" + label);
  rounds_total_ = registry.counter("net_shard_rounds_total" + label);
  timeouts_total_ = registry.counter("net_shard_timeouts_total" + label);
  telemetry_reports_total_ = registry.counter("net_shard_telemetry_reports_total" + label);
  telemetry_events_total_ = registry.counter("net_shard_telemetry_events_total" + label);
  arena_capacity_bytes_ = registry.gauge("obs_arena_capacity_bytes" + label);
  // Live exposition: the data port answers HTTP scrapes (the reactor
  // auto-detects them).
  reactor_.set_http_responder(make_registry_responder(
      "net_shard_rounds_total" + label, "net_shard_timeouts_total" + label));
  thread_ = std::thread{[this] { thread_main(); }};
}

ShardAggregator::~ShardAggregator() { kill(); }

bool ShardAggregator::registered(int client_id) const {
  util::MutexLock lock{mutex_};
  return registered_.count(client_id) != 0;
}

bool ShardAggregator::alive() const {
  util::MutexLock lock{mutex_};
  return running_;
}

void ShardAggregator::start_round(RoundCommand command) {
  {
    util::MutexLock lock{mutex_};
    if (!running_) return;  // dead shard: the root's wait_result will time out
    command_ = Command::Round;
    pending_round_ = std::move(command);
    published_ = false;
  }
  reactor_.wake();
}

bool ShardAggregator::wait_result(Clock::time_point deadline, std::size_t round,
                                  RoundResult& out) {
  util::MutexLock lock{mutex_};
  while (!(published_ && published_round_ == round)) {
    if (!running_) return false;
    const auto now = Clock::now();
    if (now >= deadline) return false;
    const auto remaining =
        std::chrono::duration_cast<milliseconds>(deadline - now) + milliseconds{1};
    (void)cv_.wait_for(mutex_, remaining);
  }
  // Moved, so no idle copy of a partial's accumulators (two doubles per
  // parameter on the exact path) stays resident between rounds.
  out = std::move(published_result_);
  published_ = false;
  return true;
}

void ShardAggregator::eject(int client_id) {
  {
    util::MutexLock lock{mutex_};
    if (!running_) return;
    pending_ejections_.push_back(client_id);
  }
  reactor_.wake();
}

void ShardAggregator::shutdown() {
  {
    util::MutexLock lock{mutex_};
    if (running_) command_ = Command::Shutdown;
  }
  reactor_.wake();
  if (thread_.joinable()) thread_.join();
}

void ShardAggregator::kill() {
  {
    util::MutexLock lock{mutex_};
    if (running_) command_ = Command::Kill;
  }
  reactor_.wake();
  if (thread_.joinable()) thread_.join();
}

void ShardAggregator::thread_main() {
  reactor_.listen(listener_);
  std::vector<int> ejected;
  for (;;) {
    reactor_.poll_once(kPollTimeout);
    RoundCommand round_command;
    const Command command = take_command(round_command, ejected);
    for (const int client_id : ejected) ban(client_id);
    switch (command) {
      case Command::Round:
        begin_round(std::move(round_command));
        break;
      case Command::Shutdown:
        stop(/*graceful=*/true);
        return;
      case Command::Kill:
        stop(/*graceful=*/false);
        return;
      case Command::None:
        break;
    }
    finish_round_if_done();
  }
}

ShardAggregator::Command ShardAggregator::take_command(RoundCommand& round_command,
                                                       std::vector<int>& ejected) {
  util::MutexLock lock{mutex_};
  const Command command = command_;
  if (command == Command::Round) round_command = std::move(pending_round_);
  command_ = Command::None;
  ejected.swap(pending_ejections_);
  pending_ejections_.clear();
  return command;
}

void ShardAggregator::ban(int client_id) {
  banned_.insert(client_id);
  const auto it = client_connections_.find(client_id);
  if (it != client_connections_.end()) reactor_.close_connection(it->second);
}

void ShardAggregator::begin_round(RoundCommand command) {
  FEDGUARD_TRACE_SPAN("net.shard", "begin:" + std::to_string(command.round));
  round_command_ = std::move(command);
  const std::size_t cohort_size = round_command_.cohort.size();
  const std::size_t psi_dim = round_command_.global_parameters->size();
  arena_.reset(cohort_size, psi_dim, round_command_.theta_dim);
  arena_capacity_bytes_.set(static_cast<std::int64_t>(arena_.capacity_bytes()));
  slots_.assign(cohort_size, Slot::Pending);
  pending_slots_.clear();
  next_fold_ = 0;
  exact_ = strategy_->supports_exact_merge();
  building_.partial.clear();
  building_.partial.shard_id = config_.shard_id;
  building_.partial.exact = exact_;
  building_.request_bytes = 0;
  building_.reply_bytes = 0;
  building_.failures.clear();
  in_round_ = true;
  round_deadline_ = Clock::now() + config_.round_timeout;
  dispatch_ns_ = obs::now_ns();

  // Every cohort connection queues the root's one frame: no per-shard
  // payload copy, no per-client framing or CRC.
  for (std::size_t slot = 0; slot < cohort_size; ++slot) {
    const auto it = client_connections_.find(round_command_.cohort[slot]);
    if (it == client_connections_.end() ||
        !reactor_.send_frame(it->second, round_command_.request_frame)) {
      fail_slot(slot, fl::FailureKind::Dropout);  // absent at dispatch
      continue;
    }
    building_.request_bytes += round_command_.request_frame->size();
    pending_slots_[it->second] = slot;
  }
  finish_round_if_done();  // an entirely-absent cohort publishes immediately
}

void ShardAggregator::handle_message(Reactor::ConnectionId connection, Message&& message) {
  switch (message.type) {
    case MessageType::Hello:
      handle_hello(connection, message);
      return;
    case MessageType::RoundReply:
      handle_reply(connection, message);
      return;
    case MessageType::TelemetryReport:
      handle_telemetry(message);
      return;
    default:
      // RoundRequest/Shutdown are server->client only; a peer sending them
      // upstream is confused but harmless. Ignore.
      return;
  }
}

void ShardAggregator::handle_hello(Reactor::ConnectionId connection, const Message& message) {
  int client_id = -1;
  try {
    client_id = decode_hello(message.payload);
  } catch (const DecodeError&) {
    corrupt_frames_total_.add(1);
    reactor_.close_connection(connection);
    return;
  }
  if (banned_.count(client_id) != 0) {
    reactor_.close_connection(connection);  // ejected: refuse the rejoin
    return;
  }
  const auto it = client_connections_.find(client_id);
  if (it != client_connections_.end() && it->second != connection) {
    // Rejoin: the newest link for an id wins; closing the stale one fires
    // on_close, which erases the old map entries before we insert the new.
    reactor_.close_connection(it->second);
  }
  client_connections_[client_id] = connection;
  connection_clients_[connection] = client_id;
  if (rtt_.count(client_id) == 0) {
    rtt_.emplace(client_id, obs::Registry::global().histogram(
                                "net_client_rtt_seconds{client=\"" +
                                std::to_string(client_id) + "\"}"));
  }
  util::MutexLock lock{mutex_};
  registered_.insert(client_id);
}

void ShardAggregator::handle_close(Reactor::ConnectionId connection) {
  // A cohort member whose link dies while its reply is pending can no
  // longer answer this round.
  fail_pending(connection, fl::FailureKind::Dropout);
  const auto it = connection_clients_.find(connection);
  if (it == connection_clients_.end()) return;
  client_connections_.erase(it->second);
  {
    util::MutexLock lock{mutex_};
    registered_.erase(it->second);
  }
  connection_clients_.erase(it);
}

void ShardAggregator::fail_pending(Reactor::ConnectionId connection, fl::FailureKind kind) {
  const auto it = pending_slots_.find(connection);
  if (it == pending_slots_.end()) return;
  const std::size_t slot = it->second;
  pending_slots_.erase(it);
  fail_slot(slot, kind);
}

void ShardAggregator::fail_slot(std::size_t slot, fl::FailureKind kind) {
  if (slots_[slot] != Slot::Pending) return;
  slots_[slot] = Slot::Failed;
  building_.failures.push_back(
      {static_cast<std::size_t>(round_command_.cohort[slot]), kind});
  if (exact_) fold_ready_rows();
}

void ShardAggregator::handle_reply(Reactor::ConnectionId connection, const Message& message) {
  const auto pending = pending_slots_.find(connection);
  if (pending == pending_slots_.end()) return;  // not sampled, resolved, or late
  const std::size_t slot = pending->second;
  std::size_t reply_round = 0;
  try {
    reply_round = decode_round_reply_into(message.payload, arena_.row(slot));
  } catch (const DecodeError&) {
    // The frame CRC passed but the reply does not fit the round arena: the
    // link stays in sync, but this round's reply is lost.
    corrupt_frames_total_.add(1);
    fail_pending(connection, fl::FailureKind::Corrupt);
    return;
  }
  building_.reply_bytes += kFrameHeaderBytes + message.payload.size();
  if (reply_round != round_command_.round) return;  // stale answer, keep waiting
  // The row is filed under the id this connection said Hello as, whatever
  // id its payload names: a peer cannot answer for another client.
  const int client_id = round_command_.cohort[slot];
  arena_.meta(slot).client_id = client_id;
  pending_slots_.erase(pending);
  slots_[slot] = Slot::Filled;
  replies_total_.add(1);
  rtt_.at(client_id).observe(static_cast<double>(obs::now_ns() - dispatch_ns_) * 1e-9);
  if (exact_) fold_ready_rows();
}

void ShardAggregator::handle_telemetry(const Message& message) {
  // Observational-only by contract: decode failures count as corrupt traffic
  // but never touch round state or the link (the frame CRC already passed).
  TelemetryFrame report;
  try {
    report = decode_telemetry_report(message.payload);
  } catch (const DecodeError&) {
    corrupt_frames_total_.add(1);
    return;
  }
  telemetry_reports_total_.add(1);
  telemetry_events_total_.add(ingest_telemetry_report(report, obs::now_ns()));
}

void ShardAggregator::fold_ready_rows() {
  // Dynamic batching: fold filled slots the moment every slot before them is
  // resolved. Total fold order is ascending slot order over the filled slots
  // (publish folds any remainder the same way), which is exactly the batch
  // fold order — the bit-identity contract of fold_exact_update.
  while (next_fold_ < slots_.size() && slots_[next_fold_] != Slot::Pending) {
    if (slots_[next_fold_] == Slot::Filled) {
      defenses::fold_exact_update(building_.partial, arena_.psi(next_fold_),
                                  arena_.meta(next_fold_));
    }
    ++next_fold_;
  }
}

void ShardAggregator::finish_round_if_done() {
  if (!in_round_) return;
  if (!pending_slots_.empty() && Clock::now() < round_deadline_) return;
  timeouts_total_.add(pending_slots_.size());
  pending_slots_.clear();
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    fail_slot(slot, fl::FailureKind::Timeout);  // a no-op for resolved slots
  }
  publish();
}

void ShardAggregator::publish() {
  FEDGUARD_TRACE_SPAN("net.shard", "publish:" + std::to_string(round_command_.round));
  filled_slots_.clear();
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot] == Slot::Filled) filled_slots_.push_back(slot);
  }
  if (exact_) {
    fold_ready_rows();  // every slot is resolved by now
  } else if (!filled_slots_.empty()) {
    const defenses::UpdateView view = filled_slots_.size() == arena_.count()
                                          ? defenses::UpdateView{arena_}
                                          : defenses::UpdateView{arena_, filled_slots_};
    defenses::AggregationContext context;
    context.round = round_command_.round;
    context.global_parameters = *round_command_.global_parameters;
    strategy_->partial_aggregate_into(context, view, config_.shard_id, building_.partial);
  }
  // (0 replies: the partial stays cleared with client_count == 0 — the root
  // skips it when merging.)
  in_round_ = false;
  rounds_total_.add(1);
  {
    util::MutexLock lock{mutex_};
    published_result_ = std::move(building_);
    published_ = true;
    published_round_ = round_command_.round;
  }
  cv_.notify_all();
}

void ShardAggregator::stop(bool graceful) {
  if (graceful) {
    scratch_connection_ids_.clear();
    for (const auto& [client_id, connection] : client_connections_) {
      (void)client_id;
      scratch_connection_ids_.push_back(connection);
    }
    const auto bye = std::make_shared<const std::vector<std::byte>>(
        encode_frame({MessageType::Shutdown, {}}));
    for (const Reactor::ConnectionId connection : scratch_connection_ids_) {
      (void)reactor_.send_frame(connection, bye);
    }
    // Drain the farewell frames (bounded: peers may already be gone).
    const auto flush_deadline = Clock::now() + milliseconds{1000};
    while (reactor_.pending_write_bytes() > 0 && Clock::now() < flush_deadline) {
      reactor_.poll_once(milliseconds{10});
    }
  }
  reactor_.stop_listening();
  listener_.close();  // late joiners now get ECONNREFUSED instead of queueing
  // Every link goes, registered or not: a rejoin accepted mid-handshake (even
  // during the flush above) must not leave its peer waiting for a frame.
  reactor_.close_all();
  {
    util::MutexLock lock{mutex_};
    running_ = false;
  }
  cv_.notify_all();
}

// ---- HierarchicalServer ------------------------------------------------------

namespace {

std::unique_ptr<defenses::AggregationStrategy> checked(
    std::unique_ptr<defenses::AggregationStrategy> strategy) {
  if (!strategy) {
    throw std::invalid_argument{"HierarchicalServer: strategy_factory returned null"};
  }
  return strategy;
}

}  // namespace

HierarchicalServer::HierarchicalServer(HierarchicalServerConfig config,
                                       const StrategyFactory& strategy_factory,
                                       const data::Dataset& test_set,
                                       models::ClassifierArch arch,
                                       models::ImageGeometry geometry)
    : HierarchicalServer{std::move(config), strategy_factory, checked(strategy_factory()),
                         test_set, arch, geometry} {}

HierarchicalServer::HierarchicalServer(
    HierarchicalServerConfig config, const StrategyFactory& strategy_factory,
    std::unique_ptr<defenses::AggregationStrategy> merge_strategy,
    const data::Dataset& test_set, models::ClassifierArch arch,
    models::ImageGeometry geometry)
    : RoundEngine{config, *merge_strategy, config.expected_clients, test_set, arch, geometry},
      config_{std::move(config)},
      merge_strategy_{std::move(merge_strategy)},
      degraded_rounds_total_{obs::Registry::global().counter("net_root_degraded_rounds_total")} {
  if (config_.expected_clients < config_.shards) {
    throw std::invalid_argument{
        "HierarchicalServer: expected_clients must be >= shards "
        "(every shard owns at least one client)"};
  }
  shards_.reserve(config_.shards);
  for (std::size_t shard = 0; shard < config_.shards; ++shard) {
    ShardConfig shard_config;
    shard_config.shard_id = shard;
    if (config_.port != 0) shard_config.port = static_cast<std::uint16_t>(config_.port + shard);
    shard_config.round_timeout =
        milliseconds{static_cast<std::int64_t>(config_.round_timeout_ms)};
    shards_.push_back(
        std::make_unique<ShardAggregator>(shard_config, checked(strategy_factory())));
  }
  if (config_.http_port != 0) {
    http_server_ = std::make_unique<TelemetryHttpServer>(
        config_.http_port,
        make_registry_responder("fl_rounds_total", "net_root_degraded_rounds_total"));
  }
}

HierarchicalServer::~HierarchicalServer() {
  for (auto& shard : shards_) shard->kill();
}

std::uint16_t HierarchicalServer::shard_port(std::size_t shard) const {
  return shards_.at(shard)->port();
}

std::size_t HierarchicalServer::live_shards() const {
  std::size_t live = 0;
  for (const auto& shard : shards_) {
    if (shard->alive()) ++live;
  }
  return live;
}

bool HierarchicalServer::joined(std::size_t client) const {
  return shards_[shard_of(client)]->registered(static_cast<int>(client));
}

void HierarchicalServer::await_clients() {
  const auto deadline = Clock::now() + milliseconds{
      static_cast<std::int64_t>(config_.accept_timeout_ms)};
  std::vector<std::size_t> present;
  for (;;) {
    present.clear();
    for (std::size_t client = 0; client < config_.expected_clients; ++client) {
      if (joined(client)) present.push_back(client);
    }
    if (present.size() == config_.expected_clients || Clock::now() >= deadline) break;
    std::this_thread::sleep_for(milliseconds{10});
  }
  admit(std::move(present));
}

void HierarchicalServer::kill_shard(std::size_t shard) {
  util::log_warn("hierarchical server: killing shard %zu", shard);
  shards_.at(shard)->kill();
}

void HierarchicalServer::readmit_lost_clients() {
  auto lost = [this] {
    return std::any_of(universe().begin(), universe().end(), [this](std::size_t client) {
      return shards_[shard_of(client)]->alive() && !joined(client);
    });
  };
  const auto deadline = Clock::now() + milliseconds{
      static_cast<std::int64_t>(config_.readmit_timeout_ms)};
  while (lost() && Clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds{2});
  }
}

void HierarchicalServer::on_ejected(std::size_t client) {
  shards_[shard_of(client)]->eject(static_cast<int>(client));
}

void HierarchicalServer::collect(std::size_t round, std::span<const std::size_t> sampled,
                                 std::span<const float> psi0, fl::Collection& out) {
  if (config_.shard_kill_predicate) {
    for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
      if (shards_[shard]->alive() && config_.shard_kill_predicate(shard, round)) {
        kill_shard(shard);
      }
    }
  }
  readmit_lost_clients();

  // Per-shard cohorts by client ownership, in sample order (cohort slot
  // order == sample order, the fold-order contract).
  cohorts_.resize(shards_.size());
  for (auto& cohort : cohorts_) cohort.clear();
  for (const std::size_t client : sampled) {
    cohorts_[shard_of(client)].push_back(static_cast<int>(client));
  }

  // The broadcast is framed (header + CRC) once per round; every shard and
  // cohort connection then shares this one buffer.
  RoundRequest request;
  request.round = round;
  request.want_decoder = strategy().wants_decoders();
  request.psi_codec = config_.psi_codec;
  request.psi_chunk = config_.psi_chunk;
  request.trace_id = obs::make_trace_id(config_.seed, round);
  request.global_parameters.assign(psi0.begin(), psi0.end());
  const auto frame =
      std::make_shared<const std::vector<std::byte>>(encode_round_request_frame(request));
  const auto globals =
      std::make_shared<const std::vector<float>>(std::move(request.global_parameters));
  const std::size_t theta_dim =
      strategy().wants_decoders() ? strategy().decoder_parameter_count() : 0;
  std::vector<bool> dispatched(shards_.size(), false);
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    if (cohorts_[shard].empty() || !shards_[shard]->alive()) continue;
    ShardAggregator::RoundCommand command;
    command.round = round;
    command.cohort = cohorts_[shard];
    command.request_frame = frame;
    command.global_parameters = globals;
    command.theta_dim = theta_dim;
    shards_[shard]->start_round(std::move(command));
    dispatched[shard] = true;
  }

  // Shards publish at their own round_timeout; give them that plus slack for
  // the mailbox hop so a healthy shard never misses the root deadline.
  const auto deadline = Clock::now() +
      milliseconds{static_cast<std::int64_t>(config_.round_timeout_ms)} + 4 * kPollTimeout +
      milliseconds{500};
  bool degraded = false;
  std::size_t merged_clients = 0;
  partials_.resize(shards_.size());
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    partials_[shard].clear();
    if (cohorts_[shard].empty()) continue;
    if (!dispatched[shard] || !shards_[shard]->wait_result(deadline, round, result_)) {
      // A dead shard's cohort is unreachable (dropouts); a live one that
      // missed the deadline timed out.
      const fl::FailureKind kind = shards_[shard]->alive() ? fl::FailureKind::Timeout
                                                            : fl::FailureKind::Dropout;
      util::log_warn("hierarchical server: shard %zu missed round %zu", shard, round);
      for (const int client : cohorts_[shard]) {
        out.failures.push_back({static_cast<std::size_t>(client), kind});
      }
      degraded = true;
      continue;
    }
    partials_[shard] = std::move(result_.partial);
    merged_clients += partials_[shard].client_count;
    out.upload_bytes += result_.request_bytes;
    out.download_bytes += result_.reply_bytes;
    out.failures.insert(out.failures.end(), result_.failures.begin(), result_.failures.end());
  }
  // Nothing arrived: the model carries over unchanged.
  if (degraded || merged_clients == 0) degraded_rounds_total_.add(1);
}

std::span<const defenses::ShardPartial> HierarchicalServer::partials(
    std::size_t /*round*/, std::span<const float> /*psi0*/) {
  return partials_;
}

fl::RunHistory HierarchicalServer::run() {
  await_clients();
  fl::RunHistory history = RoundEngine::run();
  for (auto& shard : shards_) {
    if (shard->alive()) shard->shutdown();
  }
  return history;
}

}  // namespace fedguard::net
