#pragma once
// RAII wrappers over POSIX TCP sockets: the transport for the distributed
// federation. Length-framed, CRC-checked messages with optional per-call
// deadlines so a dead or slow peer surfaces as a typed error instead of
// hanging the caller forever.
//
// Error taxonomy (all derive from std::runtime_error):
//   SocketTimeout    — a deadline expired before the peer produced data
//   ConnectionClosed — the peer closed / reset the connection
//   DecodeError      — bytes arrived but the frame is corrupt (net/message.hpp)

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "net/message.hpp"

namespace fedguard::net {

/// A receive/accept deadline expired (SO_RCVTIMEO / poll).
class SocketTimeout : public std::runtime_error {
 public:
  explicit SocketTimeout(const std::string& what) : std::runtime_error{what} {}
};

/// The peer closed or reset the connection (EOF, ECONNRESET, EPIPE).
class ConnectionClosed : public std::runtime_error {
 public:
  explicit ConnectionClosed(const std::string& what) : std::runtime_error{what} {}
};

/// Outcome of a non-blocking partial read/write (reactor fast path). The
/// helpers retry EINTR internally, so the caller only ever sees these three.
enum class IoStatus {
  Ready,       // made progress (>= 1 byte moved)
  WouldBlock,  // the socket buffer is empty/full right now (EAGAIN)
  Closed,      // the peer closed or reset the connection
};

/// Connected byte stream. Movable, closes on destruction.
class TcpStream {
 public:
  TcpStream() = default;
  explicit TcpStream(int fd) noexcept : fd_{fd} {}
  ~TcpStream();
  TcpStream(TcpStream&& other) noexcept;
  TcpStream& operator=(TcpStream&& other) noexcept;
  TcpStream(const TcpStream&) = delete;
  TcpStream& operator=(const TcpStream&) = delete;

  /// Connect to host:port (IPv4 dotted or "localhost").
  /// Throws std::runtime_error on failure.
  [[nodiscard]] static TcpStream connect(const std::string& host, std::uint16_t port);

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Deadline for subsequent receives (SO_RCVTIMEO); zero restores blocking
  /// forever. Expiry raises SocketTimeout from recv_all / receive_message.
  void set_receive_timeout(std::chrono::milliseconds timeout);
  /// Deadline for subsequent sends (SO_SNDTIMEO); zero restores blocking.
  void set_send_timeout(std::chrono::milliseconds timeout);
  /// Block until the stream is readable or `timeout` elapses (poll).
  [[nodiscard]] bool wait_readable(std::chrono::milliseconds timeout) const;

  /// Switch the descriptor between blocking and O_NONBLOCK mode. Reactor
  /// connections run non-blocking; the request/reply helpers below
  /// (send_all/recv_all/receive_message) assume blocking mode.
  void set_nonblocking(bool enabled);

  /// Edge-triggered-safe partial read: one recv() into `data`, retrying
  /// EINTR. Ready sets `transferred` (>= 1); WouldBlock/Closed leave it 0.
  /// Callers drain in a loop until WouldBlock so an EPOLLET wakeup is never
  /// lost. Throws std::runtime_error only for unexpected errno values.
  [[nodiscard]] IoStatus read_some(std::span<std::byte> data, std::size_t& transferred);
  /// Edge-triggered-safe partial write (MSG_NOSIGNAL); same contract as
  /// read_some with EAGAIN reported as WouldBlock instead of a timeout.
  [[nodiscard]] IoStatus write_some(std::span<const std::byte> data,
                                    std::size_t& transferred);

  /// Full-buffer send; throws ConnectionClosed / SocketTimeout /
  /// std::runtime_error.
  void send_all(std::span<const std::byte> data);
  /// Full-buffer receive; throws ConnectionClosed / SocketTimeout /
  /// std::runtime_error.
  void recv_all(std::span<std::byte> data);

  /// Send one framed message.
  void send_message(const Message& message);
  /// Receive one framed message with full validation (magic, type, length
  /// bound, payload CRC). Throws DecodeError for corrupt frames — including
  /// a peer that closes mid-payload (DecodeErrorCode::Truncated) — and
  /// SocketTimeout / ConnectionClosed for transport failures.
  [[nodiscard]] Message receive_message();
  /// receive_message into `message`, reusing its payload buffer's capacity
  /// (a client receiving a multi-MB ψ0 every round allocates it once).
  void receive_message_into(Message& message);

  void close() noexcept;

 private:
  int fd_ = -1;
};

/// Listening socket. Binding port 0 selects an ephemeral port (see port()).
class TcpListener {
 public:
  /// `backlog` sizes the kernel pending-connection queue; shard listeners
  /// that expect hundreds of near-simultaneous joins pass more than the
  /// request/reply default.
  explicit TcpListener(std::uint16_t port, int backlog = 128);
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] int fd() const noexcept { return fd_; }
  /// Block until a client connects (retries EINTR / ECONNABORTED).
  [[nodiscard]] TcpStream accept();
  /// Accept with a deadline: nullopt when `timeout` elapses with no pending
  /// connection (poll-based; never blocks past the deadline).
  [[nodiscard]] std::optional<TcpStream> accept_within(std::chrono::milliseconds timeout);
  /// Non-blocking mode for the listening descriptor itself (reactor use).
  void set_nonblocking(bool enabled);
  /// Reactor accept path: nullopt when no connection is pending (EAGAIN) or
  /// when the process is out of descriptors (EMFILE/ENFILE — logged and
  /// survivable: the pending peer stays queued and is retried on the next
  /// readiness event). Retries EINTR and already-aborted connections.
  [[nodiscard]] std::optional<TcpStream> accept_nonblocking();
  /// Stop listening: subsequent connection attempts are refused (late
  /// reconnecting clients fail fast instead of queueing forever).
  void close() noexcept;

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace fedguard::net
