#pragma once
// Client side of the socket federation: a loop suitable for a standalone
// process (see examples/distributed_demo.cpp). Connect (with retry/backoff)
// to the owning shard of a net::HierarchicalServer, announce the client id,
// answer RoundRequests with locally trained updates until Shutdown, and
// rejoin if the link drops. An optional fl::FaultInjector deterministically
// perturbs the reply path for chaos testing (docs/ROBUSTNESS.md).

#include <cstdint>
#include <string>

#include "fl/client.hpp"
#include "fl/fault_plan.hpp"
#include "net/socket.hpp"

namespace fedguard::net {

/// Client-side retry/backoff policy and optional chaos injection.
struct RemoteClientOptions {
  /// Connection attempts during the initial join (covers a server that is
  /// still binding); backoff doubles per attempt starting at backoff_ms.
  std::size_t connect_attempts = 8;
  /// Reconnection attempts after a lost link mid-run; when exhausted the
  /// client gives up gracefully (returns the rounds served so far).
  std::size_t reconnect_attempts = 4;
  std::size_t backoff_ms = 25;
  /// Ship a TelemetryReport frame (trace-buffer flush + counter deltas) after
  /// each answered round. The client installs its own relay-only TraceSession
  /// unless one is already active in the process — in-process harnesses that
  /// share the server's session keep sole ownership of it.
  bool relay_telemetry = false;
  /// Deterministic chaos injection; not owned, may be null (no faults).
  fl::FaultInjector* faults = nullptr;
};

/// Client endpoint: serves rounds from `client` until the server shuts the
/// session down, the link is lost beyond the retry budget, or (under a fault
/// plan) the injector decides this client never connects. Returns the number
/// of rounds fully served.
std::size_t run_remote_client(const std::string& host, std::uint16_t port,
                              fl::Client& client, const RemoteClientOptions& options);
std::size_t run_remote_client(const std::string& host, std::uint16_t port,
                              fl::Client& client);

}  // namespace fedguard::net
