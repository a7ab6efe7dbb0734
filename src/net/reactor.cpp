#include "net/reactor.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "util/logging.hpp"

namespace fedguard::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error{std::string{what} + ": " + std::strerror(errno)};
}

epoll_event make_event(std::uint32_t events, std::uint64_t tag) noexcept {
  epoll_event event{};
  event.events = events;
  event.data.u64 = tag;
  return event;
}

}  // namespace

Reactor::Reactor(Callbacks callbacks) : callbacks_{std::move(callbacks)} {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_errno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    throw_errno("eventfd");
  }
  epoll_event event = make_event(EPOLLIN, kWakeTag);
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event) != 0) {
    ::close(wake_fd_);
    ::close(epoll_fd_);
    throw_errno("epoll_ctl(wake)");
  }
}

Reactor::~Reactor() {
  // Destruction is not a graceful shutdown: streams close via RAII and
  // on_close is not fired (the owner tearing the reactor down already knows).
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void Reactor::listen(TcpListener& listener) {
  if (listener_ != nullptr) throw std::logic_error{"Reactor::listen: already listening"};
  listener.set_nonblocking(true);
  // Level-triggered on purpose: when accept_pending stops early (EMFILE) the
  // queued peer re-triggers the next cycle instead of being lost.
  epoll_event event = make_event(EPOLLIN, kListenerTag);
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener.fd(), &event) != 0) {
    throw_errno("epoll_ctl(listener)");
  }
  listener_ = &listener;
}

void Reactor::stop_listening() {
  if (listener_ != nullptr) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listener_->fd(), nullptr);
    listener_ = nullptr;
  }
}

void Reactor::set_http_responder(obs::HttpResponder responder) {
  http_ = std::move(responder);
}

Reactor::ConnectionId Reactor::register_connection(TcpStream stream) {
  stream.set_nonblocking(true);
  const ConnectionId id = next_id_++;
  Connection connection;
  connection.stream = std::move(stream);
  connection.read_buffer.resize(kFrameHeaderBytes);
  connection.last_activity = std::chrono::steady_clock::now();
  const int fd = connection.stream.fd();
  connections_.emplace(id, std::move(connection));
  epoll_event event = make_event(EPOLLIN | EPOLLET | EPOLLRDHUP, id);
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
    connections_.erase(id);
    throw_errno("epoll_ctl(connection)");
  }
  return id;
}

Reactor::ConnectionId Reactor::add_connection(TcpStream stream) {
  return register_connection(std::move(stream));
}

void Reactor::accept_pending() {
  // on_accept may call stop_listening; re-check registration every lap so an
  // accept loop never outlives the listener's borrow.
  while (listener_ != nullptr) {
    std::optional<TcpStream> stream = listener_->accept_nonblocking();
    if (!stream) break;
    const ConnectionId id = register_connection(std::move(*stream));
    if (callbacks_.on_accept) callbacks_.on_accept(id);
  }
}

std::size_t Reactor::poll_once(std::chrono::milliseconds timeout) {
  epoll_event events[64];
  int ready;
  for (;;) {
    ready = ::epoll_wait(epoll_fd_, events, 64, static_cast<int>(timeout.count()));
    if (ready >= 0) break;
    if (errno == EINTR) continue;
    throw_errno("epoll_wait");
  }
  std::size_t handled = 0;
  for (int i = 0; i < ready; ++i) {
    const std::uint64_t tag = events[i].data.u64;
    const std::uint32_t mask = events[i].events;
    ++handled;
    if (tag == kWakeTag) {
      std::uint64_t drained = 0;
      while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
      }
      continue;
    }
    if (tag == kListenerTag) {
      accept_pending();
      continue;
    }
    // The connection may have been dropped by an earlier event in this batch.
    if (connections_.find(tag) == connections_.end()) continue;
    if ((mask & (EPOLLHUP | EPOLLERR)) != 0) {
      // Fatal socket state. EPOLLRDHUP alone (peer half-close) still lets the
      // read path drain buffered bytes first, so it is not handled here.
      drop(tag);
      continue;
    }
    if ((mask & EPOLLOUT) != 0) handle_writable(tag);
    if (connections_.find(tag) == connections_.end()) continue;
    if ((mask & (EPOLLIN | EPOLLRDHUP)) != 0) handle_readable(tag);
  }
  return handled;
}

void Reactor::handle_readable(ConnectionId id) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  Connection& connection = it->second;
  connection.last_activity = std::chrono::steady_clock::now();
  // Edge-triggered: drain until WouldBlock or the connection drops.
  for (;;) {
    if (connection.read_state == Connection::ReadState::Http &&
        connection.read_buffer.size() - connection.read_pos < 128) {
      // HTTP request lines arrive without a length prefix: grow the buffer
      // incrementally; the parser rejects anything past kMaxHttpRequestBytes.
      connection.read_buffer.resize(connection.read_pos + 512);
    }
    std::span<std::byte> remaining{connection.read_buffer.data() + connection.read_pos,
                                   connection.read_buffer.size() - connection.read_pos};
    std::size_t transferred = 0;
    IoStatus status;
    try {
      status = connection.stream.read_some(remaining, transferred);
    } catch (const std::exception& error) {
      util::log_warn("reactor: read error on connection %llu: %s",
                     static_cast<unsigned long long>(id), error.what());
      drop(id);
      return;
    }
    if (status == IoStatus::WouldBlock) return;
    if (status == IoStatus::Closed) {
      // EOF after a header promised more payload is a truncated frame, as in
      // TcpStream::receive_message; EOF between or inside headers is a close.
      if (connection.read_state == Connection::ReadState::Payload &&
          callbacks_.on_decode_error) {
        (void)callbacks_.on_decode_error(
            id, DecodeError{DecodeErrorCode::Truncated, "reactor: peer closed mid-payload"});
      }
      drop(id);
      return;
    }
    connection.read_pos += transferred;
    if (connection.read_state == Connection::ReadState::HttpDrain) {
      // Response already queued; anything else the scraper sends (request
      // headers, pipelined requests) is discarded until the close.
      connection.read_pos = 0;
      continue;
    }
    if (connection.read_state == Connection::ReadState::Http) {
      if (!advance_http(id, connection)) return;
      continue;
    }
    if (connection.read_state == Connection::ReadState::Header &&
        http_.enabled() && connection.read_pos >= 5 &&
        obs::looks_like_http(
            {connection.read_buffer.data(), connection.read_pos})) {
      // A scraper, not a federation peer: the buffered prefix is an HTTP
      // method token, which can never collide with the FGNM frame magic.
      connection.read_state = Connection::ReadState::Http;
      connection.read_buffer.resize(connection.read_pos);
      if (!advance_http(id, connection)) return;
      continue;
    }
    if (connection.read_pos == connection.read_buffer.size()) {
      if (!advance_frame(id, connection)) return;
    }
  }
}

bool Reactor::advance_http(ConnectionId id, Connection& connection) {
  const obs::HttpRequest request = obs::parse_http_request(
      {connection.read_buffer.data(), connection.read_pos});
  if (request.status == obs::HttpParseStatus::NeedMore) return true;
  if (request.status == obs::HttpParseStatus::Bad) {
    // Garbage or oversized request line: same fate as a desynced frame
    // stream, and the drop never touches any other connection.
    drop(id);
    return false;
  }
  const std::string response = obs::http_response_for(http_, request.path);
  const std::span<const std::byte> bytes = std::as_bytes(std::span{response});
  connection.read_state = Connection::ReadState::HttpDrain;
  connection.read_pos = 0;
  connection.close_after_flush = true;
  return send_frame(id, std::make_shared<const std::vector<std::byte>>(bytes.begin(),
                                                                       bytes.end()));
}

bool Reactor::advance_frame(ConnectionId id, Connection& connection) {
  if (connection.read_state == Connection::ReadState::Header) {
    try {
      connection.header = decode_frame_header(connection.read_buffer);
    } catch (const DecodeError& error) {
      // A bad header (magic/type/length) desyncs the byte stream: the
      // callback is informed but the connection cannot be saved.
      if (callbacks_.on_decode_error) (void)callbacks_.on_decode_error(id, error);
      drop(id);
      return false;
    }
    connection.read_pos = 0;
    if (connection.header.payload_bytes == 0) {
      return advance_frame_payload_done(id, connection);
    }
    connection.read_state = Connection::ReadState::Payload;
    connection.read_buffer.resize(connection.header.payload_bytes);
    return true;
  }
  return advance_frame_payload_done(id, connection);
}

bool Reactor::advance_frame_payload_done(ConnectionId id, Connection& connection) {
  try {
    verify_payload_crc(connection.header, connection.read_buffer);
  } catch (const DecodeError& error) {
    // CRC mismatch on a well-framed payload: the stream is still in sync, so
    // the callback may elect to keep the connection.
    const bool keep =
        callbacks_.on_decode_error ? callbacks_.on_decode_error(id, error) : false;
    if (!keep) {
      drop(id);
      return false;
    }
    connection.read_state = Connection::ReadState::Header;
    connection.read_buffer.assign(kFrameHeaderBytes, std::byte{0});
    connection.read_pos = 0;
    return true;
  }
  Message message;
  message.type = connection.header.type;
  message.payload = std::move(connection.read_buffer);
  connection.read_state = Connection::ReadState::Header;
  connection.read_buffer.assign(kFrameHeaderBytes, std::byte{0});
  connection.read_pos = 0;
  if (callbacks_.on_message) callbacks_.on_message(id, std::move(message));
  // The callback may have closed the connection (e.g. a protocol violation).
  return connections_.find(id) != connections_.end();
}

bool Reactor::send(ConnectionId id, const Message& message) {
  return send_frame(id, std::make_shared<const std::vector<std::byte>>(encode_frame(message)));
}

bool Reactor::send_frame(ConnectionId id, SharedFrame frame) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return false;
  Connection& connection = it->second;
  connection.write_queue.push_back(std::move(frame));
  flush_writes(id, connection);
  return connections_.find(id) != connections_.end();
}

void Reactor::handle_writable(ConnectionId id) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  it->second.last_activity = std::chrono::steady_clock::now();
  flush_writes(id, it->second);
}

void Reactor::arm_writes(Connection& connection, int fd, ConnectionId id, bool enabled) {
  if (connection.write_armed == enabled) return;
  const std::uint32_t base = EPOLLIN | EPOLLET | EPOLLRDHUP;
  epoll_event event = make_event(enabled ? (base | EPOLLOUT) : base, id);
  // EPOLL_CTL_MOD re-checks readiness, so arming after a partial write never
  // misses the socket becoming writable in between.
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &event) != 0) {
    throw_errno("epoll_ctl(mod)");
  }
  connection.write_armed = enabled;
}

void Reactor::flush_writes(ConnectionId id, Connection& connection) {
  while (!connection.write_queue.empty()) {
    const std::vector<std::byte>& front = *connection.write_queue.front();
    std::span<const std::byte> remaining{front.data() + connection.write_offset,
                                         front.size() - connection.write_offset};
    std::size_t transferred = 0;
    IoStatus status;
    try {
      status = connection.stream.write_some(remaining, transferred);
    } catch (const std::exception& error) {
      util::log_warn("reactor: write error on connection %llu: %s",
                     static_cast<unsigned long long>(id), error.what());
      drop(id);
      return;
    }
    if (status == IoStatus::Closed) {
      drop(id);
      return;
    }
    if (status == IoStatus::WouldBlock) {
      arm_writes(connection, connection.stream.fd(), id, true);
      return;
    }
    connection.write_offset += transferred;
    if (connection.write_offset == front.size()) {
      connection.write_queue.pop_front();
      connection.write_offset = 0;
    }
  }
  if (connection.close_after_flush) {
    // One-shot HTTP exchange fully written: close our end.
    drop(id);
    return;
  }
  arm_writes(connection, connection.stream.fd(), id, false);
}

std::size_t Reactor::pending_write_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& [id, connection] : connections_) {
    for (const SharedFrame& frame : connection.write_queue) total += frame->size();
    total -= connection.write_offset;
  }
  return total;
}

void Reactor::close_connection(ConnectionId id) { drop(id); }

void Reactor::drop(ConnectionId id) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.stream.fd(), nullptr);
  connections_.erase(it);
  if (callbacks_.on_close) callbacks_.on_close(id);
}

void Reactor::close_all() {
  scratch_ids_.clear();
  for (const auto& [id, connection] : connections_) scratch_ids_.push_back(id);
  for (const ConnectionId id : scratch_ids_) drop(id);
}

std::size_t Reactor::sweep_idle(std::chrono::milliseconds max_idle) {
  const auto cutoff = std::chrono::steady_clock::now() - max_idle;
  scratch_ids_.clear();
  for (const auto& [id, connection] : connections_) {
    if (connection.last_activity < cutoff) scratch_ids_.push_back(id);
  }
  for (const ConnectionId id : scratch_ids_) drop(id);
  return scratch_ids_.size();
}

void Reactor::wake() {
  const std::uint64_t one = 1;
  // Best-effort: a full eventfd counter already guarantees a pending wakeup.
  (void)!::write(wake_fd_, &one, sizeof(one));
}

}  // namespace fedguard::net
