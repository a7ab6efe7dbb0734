#pragma once
// Seeded fault plans for the federation, one plan for both transports.
// Robust-FL frameworks treat crash/omission faults as first-class alongside
// Byzantine updates; this harness makes every such fault *replayable*: all
// decisions derive from (plan seed, client id, round) alone — never from
// wall-clock time or thread scheduling — so a chaos run reproduces
// byte-identical round records from its seed.
//
// Socket clients (net::run_remote_client) act a plan out on their reply
// path; the in-process fl::Server plays the same plan and records what a
// shard would see, so one plan gives the same round records on either
// transport (docs/ROBUSTNESS.md):
//
//   Drop        client crashes before doing the round's work: no training,
//               no reply — the server's round deadline expires (timeout)
//   Delay       reply is sent delay_ms late (a straggler that still makes
//               the deadline unless delay_ms exceeds it)
//   Truncate    full header + partial payload, then the link closes — the
//               server sees a truncated frame (corrupt)
//   BitFlip     one payload bit flipped in an otherwise intact frame — the
//               CRC check catches it (corrupt); the link stays usable
//   Disconnect  the link closes mid-header — the server sees EOF (dropout)
//   NeverConnect  the client process never joins the federation at all
//               (exercises the accept-phase deadline)
//
// Truncate, BitFlip and Disconnect clients train before they spoil the
// reply. Per-kind injection counters let tests assert that the server-side
// round records account for every injected fault exactly.

#include <array>
#include <atomic>
#include <cstdint>

#include "util/rng.hpp"

namespace fedguard::fl {

enum class FaultKind : std::size_t {
  None = 0,
  Drop,
  Delay,
  Truncate,
  BitFlip,
  Disconnect,
  NeverConnect,
};
inline constexpr std::size_t kFaultKindCount = 7;

[[nodiscard]] const char* to_string(FaultKind kind) noexcept;

/// Per-round fault probabilities (independent; at most one fault fires per
/// (client, round), chosen by a single uniform draw over the cumulative
/// probabilities in declaration order).
struct FaultPlan {
  double drop_probability = 0.0;
  double delay_probability = 0.0;
  double truncate_probability = 0.0;
  double bit_flip_probability = 0.0;
  double disconnect_probability = 0.0;
  /// Per *client* (not per round): the client never connects at all.
  double never_connect_probability = 0.0;
  std::size_t delay_ms = 20;
  std::uint64_t seed = 1;

  /// True when any probability is non-zero (i.e. the plan injects anything).
  [[nodiscard]] bool any() const noexcept;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) noexcept;

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  /// Whether this client sits out the whole federation (seed-derived).
  [[nodiscard]] bool never_connects(int client_id) const noexcept;

  /// The fault to inject for (client, round). Pure function of the plan.
  [[nodiscard]] FaultKind decide(int client_id, std::size_t round) const noexcept;

  /// Deterministic bit index in [0, payload_bits) for the BitFlip fault.
  [[nodiscard]] std::size_t corrupt_bit(int client_id, std::size_t round,
                                        std::size_t payload_bits) const noexcept;

  /// Record that a fault was actually applied (clients call this as they
  /// inject; counters are atomic because clients run on their own threads).
  void record(FaultKind kind) noexcept;
  [[nodiscard]] std::size_t injected(FaultKind kind) const noexcept;
  [[nodiscard]] std::size_t total_injected() const noexcept;

 private:
  /// Independent generator for a (stream, step) pair derived from the seed.
  [[nodiscard]] util::Rng stream(std::uint64_t tag, std::uint64_t a,
                                 std::uint64_t b) const noexcept;

  FaultPlan plan_;  // immutable after construction; decide() is pure
  // Deliberately lock-free (layer 4 of the static-analysis gate audits every
  // lock): clients bump these from their own threads, relaxed order is enough
  // because tests only read them after the federation has joined.
  std::array<std::atomic<std::size_t>, kFaultKindCount> counts_{};
};

}  // namespace fedguard::fl
