#include "net/remote.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "net/telemetry_relay.hpp"
#include "obs/exporter.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace fedguard::net {

namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

milliseconds remaining_until(Clock::time_point deadline) noexcept {
  const auto left =
      std::chrono::duration_cast<milliseconds>(deadline - Clock::now());
  return std::max(left, milliseconds{0});
}

}  // namespace

/// One accepted client: its link, liveness, and failure streak.
struct RemoteServer::Session {
  int client_id = -1;
  TcpStream stream;
  bool connected = false;
  bool ejected = false;
  std::size_t consecutive_failures = 0;
  // Request→reply round-trip latency, labelled per client; the handle is
  // resolved once at accept so the reply path does no registry lookup.
  obs::Histogram rtt;
};

RemoteServer::RemoteServer(RemoteServerConfig config,
                           defenses::AggregationStrategy& strategy,
                           const data::Dataset& test_set, models::ClassifierArch arch,
                           models::ImageGeometry geometry)
    : config_{config},
      strategy_{strategy},
      test_set_{test_set},
      geometry_{geometry},
      listener_{config.port},
      eval_classifier_{std::make_unique<models::Classifier>(arch, geometry, config.seed)},
      rng_{config.seed} {
  if (config_.expected_clients == 0) {
    throw std::invalid_argument{"RemoteServer: expected_clients must be > 0"};
  }
  if (config_.clients_per_round == 0 ||
      config_.clients_per_round > config_.expected_clients) {
    throw std::invalid_argument{"RemoteServer: clients_per_round out of range"};
  }
  if (config_.min_clients > config_.expected_clients) {
    throw std::invalid_argument{"RemoteServer: min_clients exceeds expected_clients"};
  }
  global_parameters_ = eval_classifier_->parameters_flat();
  auto& registry = obs::Registry::global();
  rounds_total_ = registry.counter("net_rounds_total");
  upload_bytes_total_ = registry.counter("net_upload_bytes_total");
  download_bytes_total_ = registry.counter("net_download_bytes_total");
  dropouts_total_ = registry.counter("net_dropouts_total");
  timeouts_total_ = registry.counter("net_timeouts_total");
  corrupt_frames_total_ = registry.counter("net_corrupt_frames_total");
  ejected_clients_total_ = registry.counter("net_ejected_clients_total");
  round_seconds_ = registry.histogram("net_round_seconds");
  arena_capacity_bytes_ = registry.gauge("obs_arena_capacity_bytes");
  if (config_.http_port != 0) {
    http_server_ = std::make_unique<TelemetryHttpServer>(
        config_.http_port, make_registry_responder("net_rounds_total", ""));
  }
}

void RemoteServer::accept_clients(std::vector<Session>& sessions) {
  const auto deadline = Clock::now() + milliseconds{
      static_cast<std::int64_t>(config_.accept_timeout_ms)};
  while (sessions.size() < config_.expected_clients) {
    const milliseconds left = remaining_until(deadline);
    if (left.count() == 0) break;
    std::optional<TcpStream> stream = listener_.accept_within(left);
    if (!stream) break;  // deadline expired with no pending connection
    try {
      stream->set_receive_timeout(std::min(left, milliseconds{5000}));
      const Message hello = stream->receive_message();
      if (hello.type != MessageType::Hello) {
        util::log_warn("remote server: rejecting connection (expected Hello)");
        continue;
      }
      const int client_id = decode_hello(hello.payload);
      const bool duplicate =
          std::any_of(sessions.begin(), sessions.end(),
                      [client_id](const Session& s) { return s.client_id == client_id; });
      if (duplicate) {
        throw std::runtime_error{"RemoteServer: duplicate client id " +
                                 std::to_string(client_id)};
      }
      Session session;
      session.client_id = client_id;
      session.stream = std::move(*stream);
      session.connected = true;
      session.rtt = obs::Registry::global().histogram(
          "net_client_rtt_seconds{client=\"" + std::to_string(client_id) + "\"}");
      sessions.push_back(std::move(session));
    } catch (const SocketTimeout&) {
      util::log_warn("remote server: rejecting connection (Hello deadline expired)");
    } catch (const DecodeError& e) {
      util::log_warn("remote server: rejecting connection (corrupt Hello: %s)", e.what());
    } catch (const ConnectionClosed&) {
      // The peer gave up mid-handshake; keep accepting others.
    }
  }
  const std::size_t required =
      config_.min_clients == 0 ? config_.expected_clients : config_.min_clients;
  if (sessions.size() < required) {
    throw std::runtime_error{
        "RemoteServer: only " + std::to_string(sessions.size()) + " of " +
        std::to_string(config_.expected_clients) + " clients connected within " +
        std::to_string(config_.accept_timeout_ms) + " ms (minimum " +
        std::to_string(required) + ")"};
  }
  // Deterministic session order regardless of connection timing.
  std::sort(sessions.begin(), sessions.end(),
            [](const Session& a, const Session& b) { return a.client_id < b.client_id; });
}

void RemoteServer::readmit_disconnected(std::vector<Session>& sessions) {
  auto lost = [&sessions] {
    return std::count_if(sessions.begin(), sessions.end(), [](const Session& s) {
      return !s.ejected && !s.connected;
    });
  };
  if (lost() == 0) return;
  const auto deadline = Clock::now() + milliseconds{
      static_cast<std::int64_t>(config_.readmit_timeout_ms)};
  while (lost() > 0) {
    const milliseconds left = remaining_until(deadline);
    if (left.count() == 0) break;
    std::optional<TcpStream> stream = listener_.accept_within(left);
    if (!stream) break;
    try {
      stream->set_receive_timeout(std::min(left, milliseconds{1000}));
      const Message hello = stream->receive_message();
      if (hello.type != MessageType::Hello) continue;
      const int client_id = decode_hello(hello.payload);
      const auto it = std::find_if(
          sessions.begin(), sessions.end(),
          [client_id](const Session& s) { return s.client_id == client_id; });
      if (it == sessions.end() || it->ejected || it->connected) {
        continue;  // unknown, ejected, or already-live id: refuse the rejoin
      }
      it->stream = std::move(*stream);
      it->connected = true;
      util::log_info("remote server: client %d rejoined", client_id);
    } catch (const std::exception&) {
      // Malformed or abandoned rejoin attempt; drop it and keep waiting.
    }
  }
}

void RemoteServer::evaluate_round(fl::RoundRecord& record) {
  eval_classifier_->load_parameters_flat(global_parameters_);
  std::size_t correct = 0;
  std::vector<std::size_t> indices;
  for (std::size_t start = 0; start < test_set_.size();
       start += config_.eval_batch_size) {
    const std::size_t n = std::min(config_.eval_batch_size, test_set_.size() - start);
    indices.resize(n);
    for (std::size_t i = 0; i < n; ++i) indices[i] = start + i;
    const data::Dataset::Batch batch = test_set_.gather(indices);
    correct += static_cast<std::size_t>(
        eval_classifier_->evaluate_accuracy(batch.images, batch.labels) *
            static_cast<double>(n) +
        0.5);
  }
  record.test_accuracy = test_set_.empty()
                             ? 0.0
                             : static_cast<double>(correct) /
                                   static_cast<double>(test_set_.size());
}

fl::RoundRecord RemoteServer::run_round(std::size_t round,
                                        std::vector<Session>& sessions) {
  const std::uint64_t round_start_ns = obs::now_ns();
  const std::uint64_t trace_id = obs::make_trace_id(config_.seed, round);
  obs::set_trace_context({trace_id, 0, round});
  FEDGUARD_TRACE_SPAN("round", "round:" + std::to_string(round));
  fl::RoundRecord record;
  record.round = round;
  // RoundRecord traffic/fault fields are deltas of the registry counters over
  // this round; only this (server) thread increments them.
  const std::uint64_t upload0 = upload_bytes_total_.value();
  const std::uint64_t download0 = download_bytes_total_.value();
  const std::uint64_t dropouts0 = dropouts_total_.value();
  const std::uint64_t timeouts0 = timeouts_total_.value();
  const std::uint64_t corrupt0 = corrupt_frames_total_.value();
  const std::uint64_t ejected0 = ejected_clients_total_.value();

  auto finalize = [&] {
    record.server_upload_bytes = upload_bytes_total_.value() - upload0;
    record.server_download_bytes = download_bytes_total_.value() - download0;
    record.dropouts = dropouts_total_.value() - dropouts0;
    record.timeouts = timeouts_total_.value() - timeouts0;
    record.corrupt_frames = corrupt_frames_total_.value() - corrupt0;
    record.ejected_clients = ejected_clients_total_.value() - ejected0;
    {
      FEDGUARD_TRACE_SPAN("round", "eval");
      evaluate_round(record);
    }
    const double seconds =
        static_cast<double>(obs::now_ns() - round_start_ns) * 1e-9;
    record.round_seconds = seconds;
    round_seconds_.observe(seconds);
    rounds_total_.add(1);
    obs::round_tick(round);
  };

  // Failed links get one readmission window per round boundary.
  readmit_disconnected(sessions);

  auto fail = [&](Session& session) {
    ++session.consecutive_failures;
    if (config_.eject_after_failures > 0 && !session.ejected &&
        session.consecutive_failures >= config_.eject_after_failures) {
      session.ejected = true;
      session.connected = false;
      session.stream.close();
      ejected_clients_total_.add(1);
      util::log_warn("remote server: ejecting client %d after %zu consecutive failures",
                     session.client_id, session.consecutive_failures);
    }
  };
  auto drop_link = [](Session& session) {
    session.connected = false;
    session.stream.close();
  };

  // Sample from the surviving (non-ejected) population; the universe keeps
  // the fl::Server index semantics so both paths draw identical samples from
  // the same seed while nobody has been ejected.
  std::vector<std::size_t> universe;
  universe.reserve(sessions.size());
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    if (!sessions[i].ejected) universe.push_back(i);
  }
  if (universe.empty()) {
    util::log_warn("remote server: round %zu has no surviving clients", round);
    finalize();
    return record;
  }
  std::vector<std::size_t> sampled;  // session indices, in sample order
  {
    FEDGUARD_TRACE_SPAN("round", "sample");
    const std::size_t per_round = std::min(config_.clients_per_round, universe.size());
    const std::vector<std::size_t> drawn =
        rng_.sample_without_replacement(universe.size(), per_round);
    sampled.reserve(drawn.size());
    for (const std::size_t k : drawn) sampled.push_back(universe[k]);
  }
  record.sampled_clients = sampled.size();

  // One arena slot per sampled client, in sample order; each reply
  // deserializes straight into its slot's row.
  arena_.reset(sampled.size(), global_parameters_.size(),
               strategy_.wants_decoders() ? strategy_.decoder_parameter_count() : 0);
  arena_capacity_bytes_.set(static_cast<std::int64_t>(arena_.capacity_bytes()));
  row_filled_.assign(sampled.size(), false);

  // Broadcast the round request to the sampled clients...
  RoundRequest request;
  request.round = round;
  request.want_decoder = strategy_.wants_decoders();
  request.psi_codec = config_.psi_codec;
  request.psi_chunk = config_.psi_chunk;
  request.trace_id = trace_id;
  request.global_parameters = global_parameters_;
  const std::vector<std::byte> request_payload = encode_round_request(request);
  struct Pending {
    std::size_t session_index;
    std::size_t slot;      // position in sample order
    std::uint64_t sent_ns; // request send time (per-client RTT)
  };
  std::vector<Pending> pending;
  pending.reserve(sampled.size());
  {
    FEDGUARD_TRACE_SPAN("round", "broadcast");
    for (std::size_t slot = 0; slot < sampled.size(); ++slot) {
      Session& session = sessions[sampled[slot]];
      if (!session.connected) {
        dropouts_total_.add(1);
        fail(session);
        continue;
      }
      try {
        FEDGUARD_TRACE_SPAN("net.frame", "send:" + std::to_string(session.client_id));
        session.stream.set_send_timeout(
            milliseconds{static_cast<std::int64_t>(config_.round_timeout_ms)});
        session.stream.send_message({MessageType::RoundRequest, request_payload});
        upload_bytes_total_.add(kFrameHeaderBytes + request_payload.size());
        pending.push_back({sampled[slot], slot, obs::now_ns()});
      } catch (const std::exception&) {
        dropouts_total_.add(1);
        drop_link(session);
        fail(session);
      }
    }
  }

  // ...then collect their updates under the round deadline, multiplexed over
  // all pending links so one dead client costs the deadline at most once per
  // round, not once per client.
  {
  FEDGUARD_TRACE_SPAN("round", "collect");
  const auto deadline = Clock::now() + milliseconds{
      static_cast<std::int64_t>(config_.round_timeout_ms)};
  while (!pending.empty()) {
    const milliseconds left = remaining_until(deadline);
    if (left.count() == 0) break;
    std::vector<pollfd> fds;
    fds.reserve(pending.size());
    for (const Pending& p : pending) {
      fds.push_back({sessions[p.session_index].stream.fd(), POLLIN, 0});
    }
    const int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                             static_cast<int>(left.count()));
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error{"RemoteServer: poll failed"};
    }
    if (ready == 0) break;  // round deadline expired
    std::vector<Pending> still_pending;
    still_pending.reserve(pending.size());
    for (std::size_t i = 0; i < pending.size(); ++i) {
      Session& session = sessions[pending[i].session_index];
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        still_pending.push_back(pending[i]);
        continue;
      }
      try {
        FEDGUARD_TRACE_SPAN("net.frame", "recv:" + std::to_string(session.client_id));
        session.stream.set_receive_timeout(std::max(remaining_until(deadline),
                                                    milliseconds{1}));
        const Message reply = session.stream.receive_message();
        if (reply.type == MessageType::TelemetryReport) {
          // Round-boundary telemetry from a relaying client: ingest it and
          // keep waiting for the actual reply on the same link.
          (void)ingest_telemetry_report(decode_telemetry_report(reply.payload),
                                        obs::now_ns());
          still_pending.push_back(pending[i]);
          continue;
        }
        if (reply.type != MessageType::RoundReply) {
          throw DecodeError{DecodeErrorCode::BadType,
                            "RemoteServer: expected RoundReply"};
        }
        const std::size_t slot = pending[i].slot;
        const std::size_t reply_round =
            decode_round_reply_into(reply.payload, arena_.row(slot));
        download_bytes_total_.add(kFrameHeaderBytes + reply.payload.size());
        if (reply_round != round) {
          // A delayed answer to an earlier round: real traffic, stale data.
          // The slot stays unfilled (its row holds the stale bytes until the
          // current round's reply overwrites them); keep listening for this
          // round's reply on the same link.
          still_pending.push_back(pending[i]);
          continue;
        }
        session.rtt.observe(static_cast<double>(obs::now_ns() - pending[i].sent_ns) *
                            1e-9);
        row_filled_[slot] = true;
        session.consecutive_failures = 0;
      } catch (const DecodeError& e) {
        corrupt_frames_total_.add(1);
        // An intact-but-CRC-bad or wrong-shape frame leaves the stream in
        // sync; anything else (truncation, bad magic, oversized length) means
        // the byte stream can no longer be trusted.
        if (e.code() != DecodeErrorCode::BadCrc &&
            e.code() != DecodeErrorCode::BadShape) {
          drop_link(session);
        }
        fail(session);
      } catch (const SocketTimeout&) {
        timeouts_total_.add(1);
        drop_link(session);  // mid-frame stall: the link is desynced
        fail(session);
      } catch (const std::exception&) {
        dropouts_total_.add(1);
        drop_link(session);
        fail(session);
      }
    }
    pending = std::move(still_pending);
  }
  for (const Pending& p : pending) {
    timeouts_total_.add(1);
    fail(sessions[p.session_index]);
  }
  }

  // Compact: the aggregation sees a row-index view over the slots that
  // filled, in sample order — no update data moves.
  row_indices_.clear();
  for (std::size_t slot = 0; slot < sampled.size(); ++slot) {
    if (row_filled_[slot]) row_indices_.push_back(slot);
  }
  for (const std::size_t slot : row_indices_) {
    if (arena_.meta(slot).truly_malicious) ++record.sampled_malicious;
  }

  if (!row_indices_.empty()) {
    FEDGUARD_TRACE_SPAN("round", "aggregate");
    const defenses::UpdateView updates{arena_, row_indices_};
    defenses::AggregationContext context;
    context.round = round;
    context.global_parameters = global_parameters_;
    strategy_.aggregate_into(context, updates, result_);
    if (result_.parameters.size() != global_parameters_.size()) {
      throw std::runtime_error{"RemoteServer: wrong aggregate dimension"};
    }
    for (std::size_t i = 0; i < global_parameters_.size(); ++i) {
      global_parameters_[i] += config_.server_learning_rate *
                               (result_.parameters[i] - global_parameters_[i]);
    }
    const defenses::DetectionStats detection =
        defenses::compute_detection_stats(updates, result_);
    record.rejected_clients = result_.rejected_clients.size();
    record.rejected_malicious = detection.true_positives;
    record.rejected_benign = detection.false_positives;
  } else {
    util::log_warn("remote server: round %zu collected no updates (model unchanged)",
                   round);
  }

  finalize();
  return record;
}

fl::RunHistory RemoteServer::run() {
  std::vector<Session> sessions;
  accept_clients(sessions);
  util::log_info("remote server: %zu/%zu clients connected on port %u", sessions.size(),
                 config_.expected_clients, static_cast<unsigned>(port()));

  fl::RunHistory history;
  history.strategy = strategy_.name();
  for (std::size_t round = 0; round < config_.rounds; ++round) {
    fl::RoundRecord record = run_round(round, sessions);
    util::log_info(
        "remote round %zu: acc %.2f%%, %zu/%zu responded (timeouts %zu, dropouts %zu, "
        "corrupt %zu)",
        round, record.test_accuracy * 100.0,
        record.sampled_clients - record.dropouts - record.timeouts -
            record.corrupt_frames,
        record.sampled_clients, record.timeouts, record.dropouts,
        record.corrupt_frames);
    history.rounds.push_back(std::move(record));
  }

  for (auto& session : sessions) {
    if (!session.connected) continue;
    try {
      session.stream.send_message({MessageType::Shutdown, {}});
    } catch (const std::exception&) {
      // A link that dies during shutdown is already accounted for.
    }
  }
  // Refuse late reconnection attempts so lingering clients fail fast instead
  // of queueing on a federation that has ended.
  listener_.close();
  return history;
}

namespace {

TcpStream connect_with_backoff(const std::string& host, std::uint16_t port,
                               std::size_t attempts, std::size_t backoff_ms) {
  std::size_t backoff = std::max<std::size_t>(backoff_ms, 1);
  for (std::size_t attempt = 1;; ++attempt) {
    try {
      return TcpStream::connect(host, port);
    } catch (const std::exception&) {
      if (attempt >= attempts) throw;
      std::this_thread::sleep_for(milliseconds{static_cast<std::int64_t>(backoff)});
      backoff = std::min<std::size_t>(backoff * 2, 2000);
    }
  }
}

}  // namespace

std::size_t run_remote_client(const std::string& host, std::uint16_t port,
                              fl::Client& client, const RemoteClientOptions& options) {
  FaultInjector* faults = options.faults;
  if (faults && faults->never_connects(client.id())) {
    faults->record(FaultKind::NeverConnect);
    return 0;
  }
  TcpStream stream =
      connect_with_backoff(host, port, options.connect_attempts, options.backoff_ms);
  stream.send_message({MessageType::Hello, encode_hello(client.id())});

  // Telemetry relay: own a relay-only (no file) TraceSession so round spans
  // can be drained into TelemetryReport frames — unless the process already
  // has a session (in-process harness sharing the server's), whose events we
  // must not steal.
  std::unique_ptr<obs::TraceSession> relay_session;
  obs::CounterDeltaTracker delta_tracker;
  if (options.relay_telemetry && !obs::TraceSession::active()) {
    relay_session = std::make_unique<obs::TraceSession>(std::string{});
    relay_session->set_pid(static_cast<int>(::getpid()));
  }
  auto send_telemetry = [&](std::uint64_t round, std::uint64_t trace_id) {
    if (!relay_session) return;
    const TelemetryFrame report = build_telemetry_report(
        *relay_session, static_cast<std::uint32_t>(::getpid()),
        static_cast<std::uint32_t>(client.id()), round, trace_id,
        delta_tracker.take(obs::Registry::global()));
    if (report.events.empty() && report.counter_deltas.empty()) return;
    try {
      stream.send_all(
          encode_frame({MessageType::TelemetryReport, encode_telemetry_report(report)}));
    } catch (const std::exception&) {
      // Best-effort by contract: a lost report never affects the federation;
      // a genuinely dead link surfaces at the next receive.
    }
  };

  std::size_t reconnects_left = options.reconnect_attempts;
  // Rejoin after a lost link: reconnect + re-Hello with doubling backoff.
  // Gives up (returns false) once the retry budget is spent — e.g. when the
  // federation has ended and the server refuses connections.
  auto rejoin = [&]() -> bool {
    std::size_t backoff = std::max<std::size_t>(options.backoff_ms, 1);
    while (reconnects_left > 0) {
      --reconnects_left;
      std::this_thread::sleep_for(milliseconds{static_cast<std::int64_t>(backoff)});
      backoff = std::min<std::size_t>(backoff * 2, 2000);
      try {
        stream = TcpStream::connect(host, port);
        stream.send_message({MessageType::Hello, encode_hello(client.id())});
        return true;
      } catch (const std::exception&) {
      }
    }
    return false;
  };

  std::size_t rounds_served = 0;
  // Reused across rounds: the ψ0 frame lands in one receive buffer and
  // decodes into one parameter vector instead of two fresh allocations.
  Message message;
  RoundRequest request;
  for (;;) {
    try {
      stream.receive_message_into(message);
    } catch (const std::exception&) {
      if (!rejoin()) return rounds_served;
      continue;
    }
    if (message.type == MessageType::Shutdown) break;
    if (message.type != MessageType::RoundRequest) {
      throw std::runtime_error{"run_remote_client: unexpected message"};
    }
    decode_round_request_into(message.payload, request);
    // Adopt the server's trace context for the round's work: every span below
    // (per-layer training included) gets stamped with the federation-wide id.
    obs::set_trace_context(
        {request.trace_id, request.parent_span, request.round});
    const FaultKind fault =
        faults ? faults->decide(client.id(), request.round) : FaultKind::None;
    if (fault == FaultKind::Drop) {
      // Crash-before-work: no training, no reply; the server's round
      // deadline expires. Matches the in-process straggler semantics (a
      // straggler never runs its round).
      faults->record(FaultKind::Drop);
      continue;
    }

    defenses::ClientUpdate update =
        client.run_round(request.global_parameters, request.round);
    if (!request.want_decoder) update.theta.clear();  // don't ship unused θ
    RoundReply reply;
    reply.round = request.round;
    reply.trace_id = request.trace_id;
    // Honor the server's ψ codec offer unless this client is configured as a
    // legacy fp32 uploader; a nonsense chunk offer falls back to the default
    // rather than failing the encode.
    reply.psi_codec = options.force_fp32 ? util::WireCodec::Fp32 : request.psi_codec;
    reply.psi_chunk =
        request.psi_chunk == 0 ? util::kDefaultQ8ChunkSize : request.psi_chunk;
    reply.update = std::move(update);
    const std::vector<std::byte> frame = encode_round_reply_frame(reply);

    switch (fault) {
      case FaultKind::None:
        // Telemetry travels first so the aggregator can fold this round's
        // client spans while merging this round (reply order is irrelevant
        // to correctness — both frames share the link FIFO).
        send_telemetry(request.round, request.trace_id);
        stream.send_all(frame);
        ++rounds_served;
        break;
      case FaultKind::Delay:
        faults->record(FaultKind::Delay);
        std::this_thread::sleep_for(
            milliseconds{static_cast<std::int64_t>(faults->plan().delay_ms)});
        send_telemetry(request.round, request.trace_id);
        stream.send_all(frame);
        ++rounds_served;
        break;
      case FaultKind::BitFlip: {
        faults->record(FaultKind::BitFlip);
        std::vector<std::byte> corrupted = frame;
        const std::size_t payload_bits = (frame.size() - kFrameHeaderBytes) * 8;
        const std::size_t bit =
            faults->corrupt_bit(client.id(), request.round, payload_bits);
        corrupted[kFrameHeaderBytes + bit / 8] ^=
            std::byte{static_cast<unsigned char>(1u << (bit % 8))};
        stream.send_all(corrupted);
        break;
      }
      case FaultKind::Truncate: {
        faults->record(FaultKind::Truncate);
        const std::size_t keep =
            kFrameHeaderBytes + (frame.size() - kFrameHeaderBytes) / 2;
        stream.send_all(std::span<const std::byte>{frame.data(), keep});
        stream.close();
        if (!rejoin()) return rounds_served;
        break;
      }
      case FaultKind::Disconnect: {
        faults->record(FaultKind::Disconnect);
        stream.send_all(std::span<const std::byte>{frame.data(), kFrameHeaderBytes / 2});
        stream.close();
        if (!rejoin()) return rounds_served;
        break;
      }
      case FaultKind::NeverConnect:
      case FaultKind::Drop:
        break;  // handled above; unreachable
    }
  }
  return rounds_served;
}

std::size_t run_remote_client(const std::string& host, std::uint16_t port,
                              fl::Client& client) {
  return run_remote_client(host, port, client, RemoteClientOptions{});
}

}  // namespace fedguard::net
