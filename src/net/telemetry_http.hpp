#pragma once
// Standalone live-scrape server: one TcpListener + Reactor + thread serving
// the obs::HttpResponder endpoints (/metrics, /metrics.json, /healthz) on a
// dedicated port. This is the exposition path for processes that do NOT
// already run a reactor — the in-process fl::Server simulation and the
// HierarchicalServer root — while shard tiers instead host scrapes as
// auto-detected connections on their existing data-port reactor
// (Reactor::set_http_responder).
//
// The serving thread only ever touches the registry expositions (thread-safe
// by the Registry contract), so starting one alongside a running federation
// is free of coordination: construct it after the exporter exists, destroy
// it before teardown. All scrape traffic is HTTP/1.0 one-shot exchanges;
// a peer that speaks FGNM frames at this port is dropped on decode.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "obs/http_exposition.hpp"

namespace fedguard::net {

class TelemetryHttpServer {
 public:
  /// Bind `port` (0 = ephemeral, see port()) and start the serving thread.
  /// Throws std::runtime_error when the port cannot be bound.
  TelemetryHttpServer(std::uint16_t port, obs::HttpResponder responder);
  /// Stops the serving thread and closes the listener.
  ~TelemetryHttpServer();

  TelemetryHttpServer(const TelemetryHttpServer&) = delete;
  TelemetryHttpServer& operator=(const TelemetryHttpServer&) = delete;

  /// The actually bound port.
  [[nodiscard]] std::uint16_t port() const noexcept { return listener_.port(); }

 private:
  void serve();

  TcpListener listener_;
  Reactor reactor_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// The default responder most hosts want: global-registry expositions plus a
/// healthz derived from the given progress counters (either may be "" to
/// omit that healthz field).
[[nodiscard]] obs::HttpResponder make_registry_responder(
    const std::string& rounds_counter, const std::string& degraded_counter);

}  // namespace fedguard::net
