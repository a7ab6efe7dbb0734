#pragma once
// Wire protocol for the distributed deployment mode: the paper runs the
// server and 100 clients as separate processes over 10 Gb ethernet (§IV-E).
// Frames are length-prefixed and CRC-checked; payloads use the
// util::serialize primitives.
//
// Frame layout: u32 magic "FGNM" | u32 type | u64 payload bytes |
//               u32 crc32(payload) | payload.
//
// Round-trip per federated round:
//   server -> client : RoundRequest { round, server_lr-applied ψ0, want_theta }
//   client -> server : RoundReply   { round, ClientUpdate }
//   server -> client : Shutdown     (at the end of the run)
//
// The reply carries the round number it answers so the server can discard
// stale replies (a delayed client answering a round the server already gave
// up on) instead of mistaking them for the current round's update.
//
// Decoders never trust the peer: a malformed frame raises a typed
// DecodeError (bad magic, oversized length, CRC mismatch, truncation) so the
// server can count corrupt traffic separately from transport failures.

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "defenses/aggregation.hpp"
#include "util/serialize.hpp"

namespace fedguard::net {

enum class MessageType : std::uint32_t {
  Hello = 1,         // client -> server: announce client id
  RoundRequest = 2,  // server -> client: global parameters for this round
  RoundReply = 3,    // client -> server: trained (possibly poisoned) update
  Shutdown = 4,      // server -> client: terminate
  // client -> aggregator (and any lower tier -> upper tier): trace-buffer
  // flush + metric deltas for the round just answered. Purely observational:
  // a lost or corrupt TelemetryReport never affects the federation (bad-CRC
  // frames keep the link, same DecodeError policy as replies).
  TelemetryReport = 5,
};

struct Message {
  MessageType type;
  std::vector<std::byte> payload;
};

/// Why a received frame failed to decode.
enum class DecodeErrorCode {
  BadMagic,   // frame does not start with kFrameMagic (desynced stream)
  BadType,    // type field outside the MessageType range
  Oversized,  // length field exceeds kMaxPayloadBytes (corrupt length)
  BadCrc,     // payload CRC32 does not match the header (bit corruption)
  Truncated,  // buffer/stream ended before the declared payload length
  BadShape,   // well-framed reply whose ψ/θ counts don't fit the round arena
  BadCodec,   // ψ codec tag outside the WireCodec range
};
[[nodiscard]] const char* to_string(DecodeErrorCode code) noexcept;

/// Typed decode failure: corrupt traffic, as opposed to transport errors
/// (SocketTimeout / ConnectionClosed in net/socket.hpp).
class DecodeError : public std::runtime_error {
 public:
  DecodeError(DecodeErrorCode code, const std::string& what)
      : std::runtime_error{what}, code_{code} {}
  [[nodiscard]] DecodeErrorCode code() const noexcept { return code_; }

 private:
  DecodeErrorCode code_;
};

/// CRC-32 (IEEE 802.3, reflected) of `data`. Slicing-by-16: sixteen bytes
/// per step through sixteen 256-entry tables, the same value as the classic
/// one-table bytewise loop.
[[nodiscard]] std::uint32_t crc32(std::span<const std::byte> data) noexcept;

struct FrameHeader {
  MessageType type = MessageType::Hello;
  std::size_t payload_bytes = 0;
  std::uint32_t payload_crc = 0;
};

/// Parse + validate the fixed-size frame header. Throws DecodeError on bad
/// magic, unknown type, or an oversized length; the CRC is checked later,
/// once the payload is available (verify_payload_crc / decode_frame).
[[nodiscard]] FrameHeader decode_frame_header(std::span<const std::byte> header);

/// Throws DecodeError{BadCrc} if `payload` does not hash to `header.payload_crc`.
void verify_payload_crc(const FrameHeader& header, std::span<const std::byte> payload);

/// Decode a complete framed buffer (header + payload) with full validation.
/// Throws DecodeError; never returns a partially-decoded message.
[[nodiscard]] Message decode_frame(std::span<const std::byte> buffer);

/// Serialize a message into a framed byte buffer.
[[nodiscard]] std::vector<std::byte> encode_frame(const Message& message);

/// A complete encoded frame (header + payload) shared, read-only, by every
/// connection it is queued on: a broadcast is encoded and CRC'd once, then
/// enqueued N times without a copy.
using SharedFrame = std::shared_ptr<const std::vector<std::byte>>;

/// Payload encoders / decoders. Decoders throw DecodeError{Truncated} on
/// short payloads.
[[nodiscard]] std::vector<std::byte> encode_hello(int client_id);
[[nodiscard]] int decode_hello(std::span<const std::byte> payload);

struct RoundRequest {
  std::size_t round = 0;
  bool want_decoder = false;  // FedGuard asks for θ alongside ψ
  // ψ-upload codec negotiation: the server states the encoding (and q8 chunk
  // size) it would like reply ψ spans in. A client that cannot (or will not)
  // quantize ignores the offer and answers fp32 — the reply self-tags its
  // codec, so mixed fleets interoperate without a capability handshake.
  util::WireCodec psi_codec = util::WireCodec::Fp32;
  std::size_t psi_chunk = util::kDefaultQ8ChunkSize;
  // Cross-process trace context (obs::TraceContext): the root derives
  // trace_id from (run seed, round) and every receiving process installs it
  // around its round work, so spans recorded on any host correlate under one
  // id. 0 = tracing off; purely observational either way.
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
  std::vector<float> global_parameters;
};
[[nodiscard]] std::vector<std::byte> encode_round_request(const RoundRequest& request);
/// The whole RoundRequest frame in one buffer — exactly
/// encode_frame({RoundRequest, encode_round_request(request)}), without the
/// intermediate payload copy. The server's ψ0 broadcast.
[[nodiscard]] std::vector<std::byte> encode_round_request_frame(const RoundRequest& request);
[[nodiscard]] RoundRequest decode_round_request(std::span<const std::byte> payload);
/// Decode into `out`, reusing its ψ0 vector's capacity (the client loop keeps
/// one RoundRequest across rounds instead of allocating ψ0 per round).
void decode_round_request_into(std::span<const std::byte> payload, RoundRequest& out);

/// A client's answer to one RoundRequest, tagged with the round it answers.
struct RoundReply {
  std::size_t round = 0;
  // Trace context echo: the trace_id of the RoundRequest this reply answers
  // (0 when the request carried none), so a reply is correlatable even when
  // it arrives after the server moved on to another round.
  std::uint64_t trace_id = 0;
  // Encoding of the ψ span in this reply (self-describing; normally echoes
  // the request's offer). θ always travels fp32 — it is FedGuard-only, tiny
  // relative to ψ, and feeds the defense's decoder reconstruction directly.
  util::WireCodec psi_codec = util::WireCodec::Fp32;
  std::size_t psi_chunk = util::kDefaultQ8ChunkSize;
  defenses::ClientUpdate update;
};
[[nodiscard]] std::vector<std::byte> encode_round_reply(const RoundReply& reply);
/// The whole RoundReply frame in one buffer (see encode_round_request_frame).
[[nodiscard]] std::vector<std::byte> encode_round_reply_frame(const RoundReply& reply);
[[nodiscard]] RoundReply decode_round_reply(std::span<const std::byte> payload);

/// Zero-copy decode: ψ is deserialized straight into `row.psi` (whose size is
/// the expected dimension) and θ into `row.theta`, with the metadata fields
/// written through `row.meta`. Throws DecodeError{BadShape} if the reply's ψ
/// count differs from row.psi.size() or its θ count exceeds the row's θ
/// capacity — the frame was intact (CRC passed), the peer just sent the wrong
/// model shape, so the link itself stays trustworthy. Returns the round the
/// reply answers (the caller decides whether it is stale).
[[nodiscard]] std::size_t decode_round_reply_into(std::span<const std::byte> payload,
                                                  defenses::UpdateRow row);

/// One span event inside a TelemetryReport. Timestamps are relative to the
/// report's own epoch (the smallest ts in the report) because peer processes
/// do not share a steady_clock origin; the ingesting side rebases them into
/// its clock domain against the frame's arrival time.
struct TelemetrySpanEvent {
  std::string name;
  std::string category;
  std::uint64_t rel_ts_ns = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t round = 0;
  std::int32_t tid = 0;
  char phase = 'B';
};

/// Round-boundary telemetry shipped up the aggregation tree: the reporter's
/// trace-buffer flush plus its counter deltas since the previous report.
/// Observational-only by contract — receivers count and ingest it but never
/// let it influence round logic.
struct TelemetryFrame {
  std::uint32_t sender_pid = 0;  // Perfetto lane for the reporter's spans
  std::uint32_t sender_id = 0;   // client id (or shard id) of the reporter
  std::uint64_t round = 0;
  std::uint64_t trace_id = 0;
  std::vector<TelemetrySpanEvent> events;
  // (counter name, delta) pairs; the receiver re-registers them under an
  // origin label so reporters never collide with local instruments.
  std::vector<std::pair<std::string, std::uint64_t>> counter_deltas;
};
[[nodiscard]] std::vector<std::byte> encode_telemetry_report(const TelemetryFrame& report);
[[nodiscard]] TelemetryFrame decode_telemetry_report(std::span<const std::byte> payload);

/// Exact on-wire frame size for a RoundReply (traffic accounting parity
/// between the simulator and the socket deployment). The two-argument form
/// assumes the fp32 ψ codec.
[[nodiscard]] std::size_t client_update_frame_bytes(std::size_t psi_count,
                                                    std::size_t theta_count);
[[nodiscard]] std::size_t client_update_frame_bytes(std::size_t psi_count,
                                                    std::size_t theta_count,
                                                    util::WireCodec psi_codec,
                                                    std::size_t psi_chunk);

inline constexpr std::uint32_t kFrameMagic = 0x46474e4d;  // "FGNM"
inline constexpr std::size_t kFrameHeaderBytes = 20;  // magic + type + length + crc
// 1 GiB sanity bound: a corrupt length must not trigger a huge allocation.
inline constexpr std::size_t kMaxPayloadBytes = 1ULL << 30;

}  // namespace fedguard::net
