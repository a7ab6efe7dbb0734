#include "net/message.hpp"

#include <array>
#include <bit>

#include "obs/trace.hpp"
#include "util/serialize.hpp"

namespace fedguard::net {

const char* to_string(DecodeErrorCode code) noexcept {
  switch (code) {
    case DecodeErrorCode::BadMagic: return "bad_magic";
    case DecodeErrorCode::BadType: return "bad_type";
    case DecodeErrorCode::Oversized: return "oversized";
    case DecodeErrorCode::BadCrc: return "bad_crc";
    case DecodeErrorCode::Truncated: return "truncated";
    case DecodeErrorCode::BadShape: return "bad_shape";
    case DecodeErrorCode::BadCodec: return "bad_codec";
  }
  return "unknown";
}

namespace {

// Slicing-by-16 CRC tables: kCrcTables[0] is the classic reflected table;
// kCrcTables[k][b] is the CRC register contribution of byte b followed by k
// zero bytes, so sixteen lookups fold sixteen input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 16>;

constexpr CrcTables make_crc_tables() noexcept {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t value = i;
    for (int bit = 0; bit < 8; ++bit) {
      value = (value >> 1) ^ ((value & 1u) ? 0xedb88320u : 0u);
    }
    tables[0][i] = value;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t previous = tables[k - 1][i];
      tables[k][i] = (previous >> 8) ^ tables[0][previous & 0xffu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = make_crc_tables();

// The word loads below read the stream in little-endian order (as the whole
// wire format does, via memcpy'd native integers).
static_assert(std::endian::native == std::endian::little,
              "crc32's sliced loop assumes a little-endian host");

// Frame building without a payload copy: reserve the header, let the payload
// encoder append after it, then seal the header over the appended bytes.
util::ByteWriter begin_frame(std::size_t payload_bytes) {
  util::ByteWriter writer;
  writer.reserve(kFrameHeaderBytes + payload_bytes);
  writer.write_raw(std::array<std::byte, kFrameHeaderBytes>{});
  return writer;
}

std::vector<std::byte> seal_frame(MessageType type, util::ByteWriter& writer) {
  std::vector<std::byte> frame = writer.release();
  const std::span<const std::byte> payload =
      std::span<const std::byte>{frame}.subspan(kFrameHeaderBytes);
  std::byte* header = frame.data();
  util::store_trivial(header, kFrameMagic);
  util::store_trivial(header + 4, static_cast<std::uint32_t>(type));
  util::store_trivial(header + 8, static_cast<std::uint64_t>(payload.size()));
  util::store_trivial(header + 16, crc32(payload));
  return frame;
}

util::WireCodec read_codec_tag(util::ByteReader& reader) {
  const std::uint32_t tag = reader.read_u32();
  if (tag > static_cast<std::uint32_t>(util::WireCodec::Fp16)) {
    throw DecodeError{DecodeErrorCode::BadCodec,
                      "unknown psi codec tag " + std::to_string(tag)};
  }
  return static_cast<util::WireCodec>(tag);
}

void write_psi_span(util::ByteWriter& writer, util::WireCodec codec,
                    std::span<const float> psi, std::size_t chunk) {
  switch (codec) {
    case util::WireCodec::Q8: writer.write_q8_span(psi, chunk); return;
    case util::WireCodec::Fp16: writer.write_f16_span(psi); return;
    case util::WireCodec::Fp32: break;
  }
  writer.write_f32_span(psi);
}

// All three codecs share the leading u64 element count (already consumed by
// the caller for shape validation); this reads the codec-specific remainder.
void read_psi_span(util::ByteReader& reader, util::WireCodec codec, std::span<float> out) {
  switch (codec) {
    case util::WireCodec::Q8: reader.read_q8_into(out); return;
    case util::WireCodec::Fp16: reader.read_f16_into(out); return;
    case util::WireCodec::Fp32: break;
  }
  reader.read_f32_into(out);
}

// round, want_decoder, psi codec, psi chunk, trace_id, parent_span: the
// RoundRequest fields ahead of the ψ0 span.
constexpr std::size_t kRoundRequestFieldBytes = 8 + 4 + 4 + 4 + 8 + 8;

void write_round_request(util::ByteWriter& writer, const RoundRequest& request) {
  writer.write_u64(request.round);
  writer.write_u32(request.want_decoder ? 1 : 0);
  writer.write_u32(static_cast<std::uint32_t>(request.psi_codec));
  writer.write_u32(static_cast<std::uint32_t>(request.psi_chunk));
  writer.write_u64(request.trace_id);
  writer.write_u64(request.parent_span);
  writer.write_f32_span(request.global_parameters);
}

void write_round_reply(util::ByteWriter& writer, const RoundReply& reply) {
  writer.write_u64(reply.round);
  writer.write_u64(reply.trace_id);
  writer.write_u32(static_cast<std::uint32_t>(reply.update.client_id));
  writer.write_u64(reply.update.num_samples);
  writer.write_u32(reply.update.truly_malicious ? 1 : 0);
  writer.write_u32(static_cast<std::uint32_t>(reply.psi_codec));
  write_psi_span(writer, reply.psi_codec, reply.update.psi, reply.psi_chunk);
  writer.write_f32_span(reply.update.theta);
}

}  // namespace

std::uint32_t crc32(std::span<const std::byte> data) noexcept {
  const auto& t = kCrcTables;
  std::uint32_t crc = 0xffffffffu;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  for (; n >= 16; n -= 16, p += 16) {
    const std::uint32_t a = util::load_trivial<std::uint32_t>(p) ^ crc;
    const auto b = util::load_trivial<std::uint32_t>(p + 4);
    const auto c = util::load_trivial<std::uint32_t>(p + 8);
    const auto d = util::load_trivial<std::uint32_t>(p + 12);
    crc = t[15][a & 0xffu] ^ t[14][(a >> 8) & 0xffu] ^ t[13][(a >> 16) & 0xffu] ^
          t[12][a >> 24] ^ t[11][b & 0xffu] ^ t[10][(b >> 8) & 0xffu] ^
          t[9][(b >> 16) & 0xffu] ^ t[8][b >> 24] ^ t[7][c & 0xffu] ^
          t[6][(c >> 8) & 0xffu] ^ t[5][(c >> 16) & 0xffu] ^ t[4][c >> 24] ^
          t[3][d & 0xffu] ^ t[2][(d >> 8) & 0xffu] ^ t[1][(d >> 16) & 0xffu] ^ t[0][d >> 24];
  }
  for (; n > 0; --n, ++p) {
    crc = (crc >> 8) ^ t[0][(crc ^ std::to_integer<std::uint32_t>(*p)) & 0xffu];
  }
  return crc ^ 0xffffffffu;
}

FrameHeader decode_frame_header(std::span<const std::byte> header) {
  if (header.size() < kFrameHeaderBytes) {
    throw DecodeError{DecodeErrorCode::Truncated,
                      "frame header: " + std::to_string(header.size()) + " of " +
                          std::to_string(kFrameHeaderBytes) + " bytes"};
  }
  util::ByteReader reader{header};
  if (reader.read_u32() != kFrameMagic) {
    throw DecodeError{DecodeErrorCode::BadMagic, "frame: bad magic"};
  }
  const std::uint32_t type = reader.read_u32();
  if (type < static_cast<std::uint32_t>(MessageType::Hello) ||
      type > static_cast<std::uint32_t>(MessageType::TelemetryReport)) {
    throw DecodeError{DecodeErrorCode::BadType,
                      "frame: unknown message type " + std::to_string(type)};
  }
  FrameHeader parsed;
  parsed.type = static_cast<MessageType>(type);
  parsed.payload_bytes = static_cast<std::size_t>(reader.read_u64());
  if (parsed.payload_bytes > kMaxPayloadBytes) {
    throw DecodeError{DecodeErrorCode::Oversized,
                      "frame: payload length " + std::to_string(parsed.payload_bytes) +
                          " exceeds " + std::to_string(kMaxPayloadBytes)};
  }
  parsed.payload_crc = reader.read_u32();
  return parsed;
}

void verify_payload_crc(const FrameHeader& header, std::span<const std::byte> payload) {
  const std::uint32_t actual = crc32(payload);
  if (actual != header.payload_crc) {
    throw DecodeError{DecodeErrorCode::BadCrc, "frame: payload CRC mismatch"};
  }
}

Message decode_frame(std::span<const std::byte> buffer) {
  const FrameHeader header = decode_frame_header(buffer);
  if (buffer.size() < kFrameHeaderBytes + header.payload_bytes) {
    throw DecodeError{DecodeErrorCode::Truncated,
                      "frame: " + std::to_string(buffer.size() - kFrameHeaderBytes) +
                          " of " + std::to_string(header.payload_bytes) +
                          " payload bytes"};
  }
  const std::span<const std::byte> payload =
      buffer.subspan(kFrameHeaderBytes, header.payload_bytes);
  verify_payload_crc(header, payload);
  return Message{header.type, {payload.begin(), payload.end()}};
}

std::vector<std::byte> encode_frame(const Message& message) {
  util::ByteWriter writer = begin_frame(message.payload.size());
  writer.write_raw(message.payload);
  return seal_frame(message.type, writer);
}

std::vector<std::byte> encode_hello(int client_id) {
  util::ByteWriter writer;
  writer.write_u32(static_cast<std::uint32_t>(client_id));
  return writer.release();
}

int decode_hello(std::span<const std::byte> payload) {
  try {
    util::ByteReader reader{payload};
    return static_cast<int>(reader.read_u32());
  } catch (const std::out_of_range&) {
    throw DecodeError{DecodeErrorCode::Truncated, "decode_hello: truncated payload"};
  }
}

std::vector<std::byte> encode_round_request(const RoundRequest& request) {
  FEDGUARD_TRACE_SPAN("serialize", "encode_round_request");
  util::ByteWriter writer;
  write_round_request(writer, request);
  return writer.release();
}

std::vector<std::byte> encode_round_request_frame(const RoundRequest& request) {
  FEDGUARD_TRACE_SPAN("serialize", "encode_round_request");
  util::ByteWriter writer = begin_frame(
      kRoundRequestFieldBytes + util::f32_vector_wire_size(request.global_parameters.size()));
  write_round_request(writer, request);
  return seal_frame(MessageType::RoundRequest, writer);
}

RoundRequest decode_round_request(std::span<const std::byte> payload) {
  RoundRequest request;
  decode_round_request_into(payload, request);
  return request;
}

void decode_round_request_into(std::span<const std::byte> payload, RoundRequest& out) {
  FEDGUARD_TRACE_SPAN("serialize", "decode_round_request");
  util::ByteReader reader{payload};
  try {
    out.round = static_cast<std::size_t>(reader.read_u64());
    out.want_decoder = reader.read_u32() != 0;
    out.psi_codec = read_codec_tag(reader);
    out.psi_chunk = static_cast<std::size_t>(reader.read_u32());
    out.trace_id = reader.read_u64();
    out.parent_span = reader.read_u64();
    const auto count = static_cast<std::size_t>(reader.read_u64());
    // Bound the declared count by the bytes actually present before sizing
    // the destination: a corrupt count must not become a huge allocation.
    if (count > reader.remaining() / sizeof(float)) throw std::out_of_range{"psi0 count"};
    out.global_parameters.resize(count);
    reader.read_f32_into(out.global_parameters);
  } catch (const std::out_of_range&) {
    throw DecodeError{DecodeErrorCode::Truncated,
                      "decode_round_request: truncated payload"};
  }
}

std::vector<std::byte> encode_round_reply(const RoundReply& reply) {
  FEDGUARD_TRACE_SPAN("serialize", "encode_round_reply");
  util::ByteWriter writer;
  write_round_reply(writer, reply);
  return writer.release();
}

std::vector<std::byte> encode_round_reply_frame(const RoundReply& reply) {
  FEDGUARD_TRACE_SPAN("serialize", "encode_round_reply");
  util::ByteWriter writer =
      begin_frame(client_update_frame_bytes(reply.update.psi.size(), reply.update.theta.size(),
                                            reply.psi_codec, reply.psi_chunk) -
                  kFrameHeaderBytes);
  write_round_reply(writer, reply);
  return seal_frame(MessageType::RoundReply, writer);
}

RoundReply decode_round_reply(std::span<const std::byte> payload) {
  util::ByteReader reader{payload};
  RoundReply reply;
  try {
    reply.round = static_cast<std::size_t>(reader.read_u64());
    reply.trace_id = reader.read_u64();
    reply.update.client_id = static_cast<int>(reader.read_u32());
    reply.update.num_samples = static_cast<std::size_t>(reader.read_u64());
    reply.update.truly_malicious = reader.read_u32() != 0;
    reply.psi_codec = read_codec_tag(reader);
    const auto psi_count = static_cast<std::size_t>(reader.read_u64());
    reply.update.psi.resize(psi_count);
    read_psi_span(reader, reply.psi_codec, reply.update.psi);
    const auto theta_count = static_cast<std::size_t>(reader.read_u64());
    reply.update.theta = reader.read_f32_vector(theta_count);
  } catch (const std::out_of_range&) {
    throw DecodeError{DecodeErrorCode::Truncated,
                      "decode_round_reply: truncated payload"};
  }
  return reply;
}

std::size_t decode_round_reply_into(std::span<const std::byte> payload,
                                    defenses::UpdateRow row) {
  FEDGUARD_TRACE_SPAN("serialize", "decode_round_reply");
  util::ByteReader reader{payload};
  try {
    const auto round = static_cast<std::size_t>(reader.read_u64());
    static_cast<void>(reader.read_u64());  // trace_id echo: not needed here
    row.meta->client_id = static_cast<int>(reader.read_u32());
    row.meta->num_samples = static_cast<std::size_t>(reader.read_u64());
    row.meta->truly_malicious = reader.read_u32() != 0;
    const util::WireCodec psi_codec = read_codec_tag(reader);
    const auto psi_count = static_cast<std::size_t>(reader.read_u64());
    if (psi_count != row.psi.size()) {
      throw DecodeError{DecodeErrorCode::BadShape,
                        "decode_round_reply_into: psi count " + std::to_string(psi_count) +
                            " != expected " + std::to_string(row.psi.size())};
    }
    read_psi_span(reader, psi_codec, row.psi);
    const auto theta_count = static_cast<std::size_t>(reader.read_u64());
    row.meta->theta_count = theta_count;
    if (theta_count > row.theta.size()) {
      throw DecodeError{DecodeErrorCode::BadShape,
                        "decode_round_reply_into: theta count " + std::to_string(theta_count) +
                            " exceeds capacity " + std::to_string(row.theta.size())};
    }
    reader.read_f32_into(row.theta.subspan(0, theta_count));
    return round;
  } catch (const std::out_of_range&) {
    throw DecodeError{DecodeErrorCode::Truncated,
                      "decode_round_reply_into: truncated payload"};
  }
}

std::vector<std::byte> encode_telemetry_report(const TelemetryFrame& report) {
  FEDGUARD_TRACE_SPAN("serialize", "encode_telemetry_report");
  util::ByteWriter writer;
  writer.write_u32(report.sender_pid);
  writer.write_u32(report.sender_id);
  writer.write_u64(report.round);
  writer.write_u64(report.trace_id);
  writer.write_u64(report.events.size());
  for (const TelemetrySpanEvent& event : report.events) {
    writer.write_u64(event.rel_ts_ns);
    writer.write_u64(event.trace_id);
    writer.write_u64(event.round);
    writer.write_u32(static_cast<std::uint32_t>(event.tid));
    writer.write_u32(static_cast<std::uint32_t>(event.phase));
    writer.write_string(event.name);
    writer.write_string(event.category);
  }
  writer.write_u64(report.counter_deltas.size());
  for (const auto& [name, delta] : report.counter_deltas) {
    writer.write_string(name);
    writer.write_u64(delta);
  }
  return writer.release();
}

TelemetryFrame decode_telemetry_report(std::span<const std::byte> payload) {
  FEDGUARD_TRACE_SPAN("serialize", "decode_telemetry_report");
  util::ByteReader reader{payload};
  TelemetryFrame report;
  try {
    report.sender_pid = reader.read_u32();
    report.sender_id = reader.read_u32();
    report.round = reader.read_u64();
    report.trace_id = reader.read_u64();
    const auto event_count = static_cast<std::size_t>(reader.read_u64());
    // A declared count must at least fit in the payload (each event is ≥ 44
    // bytes on the wire) — rejects allocation bombs before the reserve.
    if (event_count > payload.size()) {
      throw DecodeError{DecodeErrorCode::Truncated,
                        "decode_telemetry_report: event count exceeds payload"};
    }
    report.events.reserve(event_count);
    for (std::size_t i = 0; i < event_count; ++i) {
      TelemetrySpanEvent event;
      event.rel_ts_ns = reader.read_u64();
      event.trace_id = reader.read_u64();
      event.round = reader.read_u64();
      event.tid = static_cast<std::int32_t>(reader.read_u32());
      event.phase = static_cast<char>(reader.read_u32());
      event.name = reader.read_string();
      event.category = reader.read_string();
      report.events.push_back(std::move(event));
    }
    const auto delta_count = static_cast<std::size_t>(reader.read_u64());
    if (delta_count > payload.size()) {
      throw DecodeError{DecodeErrorCode::Truncated,
                        "decode_telemetry_report: delta count exceeds payload"};
    }
    report.counter_deltas.reserve(delta_count);
    for (std::size_t i = 0; i < delta_count; ++i) {
      std::string name = reader.read_string();
      const std::uint64_t delta = reader.read_u64();
      report.counter_deltas.emplace_back(std::move(name), delta);
    }
  } catch (const std::out_of_range&) {
    throw DecodeError{DecodeErrorCode::Truncated,
                      "decode_telemetry_report: truncated payload"};
  }
  return report;
}

std::size_t client_update_frame_bytes(std::size_t psi_count, std::size_t theta_count) {
  return client_update_frame_bytes(psi_count, theta_count, util::WireCodec::Fp32,
                                   util::kDefaultQ8ChunkSize);
}

std::size_t client_update_frame_bytes(std::size_t psi_count, std::size_t theta_count,
                                      util::WireCodec psi_codec, std::size_t psi_chunk) {
  return kFrameHeaderBytes + sizeof(std::uint64_t) /*round*/ +
         sizeof(std::uint64_t) /*trace_id*/ +
         sizeof(std::uint32_t) /*id*/ + sizeof(std::uint64_t) /*n*/ +
         sizeof(std::uint32_t) /*malicious*/ + sizeof(std::uint32_t) /*psi codec tag*/ +
         util::codec_span_wire_size(psi_codec, psi_count, psi_chunk) +
         util::f32_vector_wire_size(theta_count);
}

}  // namespace fedguard::net
