#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "util/logging.hpp"
#include "util/serialize.hpp"

namespace fedguard::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error{what + ": " + std::strerror(errno)};
}

timeval to_timeval(std::chrono::milliseconds timeout) noexcept {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  return tv;
}

void set_fd_nonblocking(int fd, bool enabled, const char* what) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) throw_errno(std::string{what} + ": fcntl(F_GETFL)");
  const int wanted = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (wanted != flags && ::fcntl(fd, F_SETFL, wanted) != 0) {
    throw_errno(std::string{what} + ": fcntl(F_SETFL)");
  }
}

}  // namespace

TcpStream::~TcpStream() { close(); }

TcpStream::TcpStream(TcpStream&& other) noexcept : fd_{other.fd_} { other.fd_ = -1; }

TcpStream& TcpStream::operator=(TcpStream&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void TcpStream::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpStream TcpStream::connect(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &address.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error{"TcpStream::connect: bad address " + host};
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0) {
    ::close(fd);
    throw_errno("connect");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpStream{fd};
}

void TcpStream::set_receive_timeout(std::chrono::milliseconds timeout) {
  const timeval tv = to_timeval(timeout);
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    throw_errno("setsockopt(SO_RCVTIMEO)");
  }
}

void TcpStream::set_send_timeout(std::chrono::milliseconds timeout) {
  const timeval tv = to_timeval(timeout);
  if (::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
    throw_errno("setsockopt(SO_SNDTIMEO)");
  }
}

bool TcpStream::wait_readable(std::chrono::milliseconds timeout) const {
  pollfd pfd{fd_, POLLIN, 0};
  for (;;) {
    const int n = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll");
    }
    return n > 0;
  }
}

void TcpStream::set_nonblocking(bool enabled) {
  set_fd_nonblocking(fd_, enabled, "TcpStream::set_nonblocking");
}

IoStatus TcpStream::read_some(std::span<std::byte> data, std::size_t& transferred) {
  transferred = 0;
  if (data.empty()) return IoStatus::Ready;
  for (;;) {
    const ssize_t n = ::recv(fd_, data.data(), data.size(), 0);
    if (n > 0) {
      transferred = static_cast<std::size_t>(n);
      return IoStatus::Ready;
    }
    if (n == 0) return IoStatus::Closed;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::WouldBlock;
    if (errno == ECONNRESET) return IoStatus::Closed;
    throw_errno("read_some");
  }
}

IoStatus TcpStream::write_some(std::span<const std::byte> data, std::size_t& transferred) {
  transferred = 0;
  if (data.empty()) return IoStatus::Ready;
  for (;;) {
    const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
    if (n > 0) {
      transferred = static_cast<std::size_t>(n);
      return IoStatus::Ready;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return IoStatus::WouldBlock;
    if (n == 0 || errno == EPIPE || errno == ECONNRESET) return IoStatus::Closed;
    throw_errno("write_some");
  }
}

void TcpStream::send_all(std::span<const std::byte> data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        throw SocketTimeout{"send: deadline expired"};
      }
      if (n == 0 || errno == EPIPE || errno == ECONNRESET) {
        throw ConnectionClosed{"send: connection closed"};
      }
      throw_errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

void TcpStream::recv_all(std::span<std::byte> data) {
  std::size_t received = 0;
  while (received < data.size()) {
    const ssize_t n = ::recv(fd_, data.data() + received, data.size() - received, 0);
    if (n == 0) throw ConnectionClosed{"recv: connection closed"};
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw SocketTimeout{"recv: deadline expired"};
      }
      if (errno == ECONNRESET) throw ConnectionClosed{"recv: connection reset"};
      throw_errno("recv");
    }
    received += static_cast<std::size_t>(n);
  }
}

void TcpStream::send_message(const Message& message) {
  send_all(encode_frame(message));
}

Message TcpStream::receive_message() {
  Message message;
  receive_message_into(message);
  return message;
}

void TcpStream::receive_message_into(Message& message) {
  std::array<std::byte, kFrameHeaderBytes> header{};
  recv_all(header);
  const FrameHeader parsed = decode_frame_header(header);
  message.type = parsed.type;
  message.payload.resize(parsed.payload_bytes);
  if (parsed.payload_bytes > 0) {
    try {
      recv_all(message.payload);
    } catch (const ConnectionClosed&) {
      // The header promised more bytes than the peer delivered: that is a
      // corrupt (truncated) frame, not a clean transport shutdown.
      throw DecodeError{DecodeErrorCode::Truncated,
                        "receive_message: peer closed mid-payload"};
    }
  }
  verify_payload_crc(parsed, message.payload);
}

TcpListener::TcpListener(std::uint16_t port, int backlog) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0) {
    ::close(fd_);
    throw_errno("bind");
  }
  if (::listen(fd_, backlog) != 0) {
    ::close(fd_);
    throw_errno("listen");
  }
  socklen_t length = sizeof(address);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&address), &length) != 0) {
    ::close(fd_);
    throw_errno("getsockname");
  }
  port_ = ntohs(address.sin_port);
}

TcpListener::~TcpListener() { close(); }

void TcpListener::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpStream TcpListener::accept() {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0) {
      // A signal or a peer that aborted while queued is not a listener
      // failure; keep waiting for the next connection.
      if (errno == EINTR || errno == ECONNABORTED) continue;
      throw_errno("accept");
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return TcpStream{fd};
  }
}

void TcpListener::set_nonblocking(bool enabled) {
  set_fd_nonblocking(fd_, enabled, "TcpListener::set_nonblocking");
}

std::optional<TcpStream> TcpListener::accept_nonblocking() {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return std::nullopt;
      if (errno == EMFILE || errno == ENFILE) {
        // Descriptor exhaustion: survivable back-pressure, not a listener
        // fault. The pending peer stays in the kernel queue (level-triggered
        // registration retries it once fds free up).
        util::log_warn("accept: out of file descriptors (EMFILE/ENFILE)");
        return std::nullopt;
      }
      throw_errno("accept");
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return TcpStream{fd};
  }
}

std::optional<TcpStream> TcpListener::accept_within(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    const int wait = static_cast<int>(std::max<std::int64_t>(remaining.count(), 0));
    pollfd pfd{fd_, POLLIN, 0};
    const int n = ::poll(&pfd, 1, wait);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll(accept)");
    }
    if (n == 0) return std::nullopt;
    return accept();
  }
}

}  // namespace fedguard::net
