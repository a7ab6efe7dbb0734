// Quantized ψ wire format (q8 / fp16): round-trip properties of the codec
// primitives in util/serialize, codec negotiation at the net::message layer,
// the NaN-laundering guarantee at the aggregation boundary, and two
// science-level checks — Krum still ejects attackers when honest uploads are
// q8-quantized, and a seeded smoke federation's accuracy drifts < 0.5 pp
// between fp32 and q8 transport.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "core/runner.hpp"
#include "defenses/fedavg.hpp"
#include "defenses/krum.hpp"
#include "net/message.hpp"
#include "strategy_path.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace fedguard {
namespace {

using util::ByteReader;
using util::ByteWriter;
using util::WireCodec;

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

std::vector<float> random_values(std::size_t n, util::Rng& rng, float lo = -4.0f,
                                 float hi = 4.0f) {
  std::vector<float> values(n);
  for (auto& v : values) v = rng.uniform_float(lo, hi);
  return values;
}

/// Encode with write_q8_span, check the exact wire size, decode with
/// read_q8_into, and require the reader to land exactly at the end.
std::vector<float> q8_wire_roundtrip(std::span<const float> values, std::size_t chunk) {
  ByteWriter writer;
  writer.write_q8_span(values, chunk);
  EXPECT_EQ(writer.size(), util::q8_span_wire_size(values.size(), chunk));
  ByteReader reader{writer.bytes()};
  EXPECT_EQ(reader.read_u64(), values.size());
  std::vector<float> decoded(values.size());
  reader.read_q8_into(decoded);
  EXPECT_TRUE(reader.exhausted());
  return decoded;
}

/// Independent restatement of the encoder's scale contract: the per-chunk
/// scale is (max - min) / 255 computed in double, cast to float, and nudged
/// up until scale * 255 covers the range (so the top of the range never
/// clamps and the dequantization error stays <= scale / 2).
float expected_chunk_scale(std::span<const float> chunk) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const float v : chunk) {
    if (!std::isfinite(v)) return kNan;
    lo = std::min(lo, static_cast<double>(v));
    hi = std::max(hi, static_cast<double>(v));
  }
  if (chunk.empty() || hi == lo) return 0.0f;
  float scale = static_cast<float>((hi - lo) / 255.0);
  while (static_cast<double>(scale) * 255.0 < hi - lo) {
    scale = std::nextafter(scale, std::numeric_limits<float>::infinity());
  }
  return scale;
}

/// |decoded - original| <= scale / 2 for every element, chunk by chunk (plus
/// a relative-epsilon allowance for the final double-to-float cast in the
/// decoder).
void expect_within_half_scale(std::span<const float> values, std::span<const float> decoded,
                              std::size_t chunk) {
  ASSERT_EQ(values.size(), decoded.size());
  for (std::size_t base = 0; base < values.size(); base += chunk) {
    const std::size_t len = std::min(chunk, values.size() - base);
    const float scale = expected_chunk_scale(values.subspan(base, len));
    ASSERT_TRUE(std::isfinite(scale));
    for (std::size_t i = base; i < base + len; ++i) {
      const double bound = static_cast<double>(scale) * 0.5000001 +
                           std::abs(static_cast<double>(values[i])) * 1.2e-7;
      EXPECT_LE(std::abs(static_cast<double>(decoded[i]) - values[i]), bound)
          << "element " << i << " scale " << scale;
    }
  }
}

TEST(Q8Codec, RoundTripErrorBoundAcrossShapes) {
  util::Rng rng{0x9b1ull};
  // Lengths straddling the chunk boundary x chunk sizes including degenerate 1.
  const std::size_t lengths[] = {1, 5, 255, 256, 257, 1000, 4099};
  const std::size_t chunks[] = {1, 7, 256, 1024};
  for (const std::size_t n : lengths) {
    for (const std::size_t chunk : chunks) {
      const std::vector<float> values = random_values(n, rng);
      const std::vector<float> decoded = q8_wire_roundtrip(values, chunk);
      expect_within_half_scale(values, decoded, chunk);
    }
  }
}

TEST(Q8Codec, MixedMagnitudeChunksQuantizeIndependently) {
  // One chunk spans [-1000, 1000], the next [-1e-3, 1e-3]: per-chunk scaling
  // must give the small chunk ~2e-5 resolution instead of the ~8 resolution a
  // global scale would impose.
  util::Rng rng{0x9b2ull};
  const std::size_t chunk = 64;
  std::vector<float> values = random_values(chunk, rng, -1000.0f, 1000.0f);
  const std::vector<float> small = random_values(chunk, rng, -1e-3f, 1e-3f);
  values.insert(values.end(), small.begin(), small.end());
  const std::vector<float> decoded = q8_wire_roundtrip(values, chunk);
  expect_within_half_scale(values, decoded, chunk);
  for (std::size_t i = chunk; i < 2 * chunk; ++i) {
    EXPECT_LE(std::abs(decoded[i] - values[i]), 1e-5f);
  }
}

TEST(Q8Codec, ConstantChunksDecodeExactly) {
  for (const float constant : {0.0f, 1.0f, -3.75f, 2.5e20f}) {
    const std::vector<float> values(300, constant);
    const std::vector<float> decoded = q8_wire_roundtrip(values, 128);
    for (const float v : decoded) {
      EXPECT_EQ(v, constant);
    }
  }
}

TEST(Q8Codec, SingleElementChunksAreExact) {
  util::Rng rng{0x9b3ull};
  const std::vector<float> values = random_values(17, rng);
  const std::vector<float> decoded = q8_wire_roundtrip(values, 1);
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(decoded[i], values[i]) << i;  // every chunk is constant
  }
}

TEST(Q8Codec, EmptySpan) {
  const std::vector<float> empty;
  const std::vector<float> decoded = q8_wire_roundtrip(empty, 256);
  EXPECT_TRUE(decoded.empty());
}

TEST(Q8Codec, ExtremeMagnitudesDoNotOverflow) {
  // Range ~6.8e38 exceeds float max; the scale computation must go through
  // double to stay finite.
  const std::vector<float> values = {3.4e38f, -3.4e38f, 0.0f, 1.7e38f};
  const std::vector<float> decoded = q8_wire_roundtrip(values, 256);
  for (const float v : decoded) {
    EXPECT_TRUE(std::isfinite(v));
  }
  expect_within_half_scale(values, decoded, 256);
}

TEST(Q8Codec, NonFiniteChunkPoisonsOnlyItsOwnChunk) {
  util::Rng rng{0x9b4ull};
  const std::size_t chunk = 32;
  std::vector<float> values = random_values(3 * chunk, rng);
  values[4] = kNan;          // chunk 0
  values[chunk + 9] = kInf;  // chunk 1
  const std::vector<float> decoded = q8_wire_roundtrip(values, chunk);
  for (std::size_t i = 0; i < 2 * chunk; ++i) {
    EXPECT_TRUE(std::isnan(decoded[i])) << i;
  }
  const std::span<const float> clean{values};
  expect_within_half_scale(clean.subspan(2 * chunk), std::span<const float>{decoded}.subspan(2 * chunk),
                           chunk);
}

TEST(Q8Codec, SimulatedRoundtripMatchesWireBitForBit) {
  // The in-process federation uses quantize_roundtrip_q8 instead of encoding
  // a payload; local/remote parity requires bit-identical results.
  util::Rng rng{0x9b5ull};
  for (const std::size_t chunk : {1u, 64u, 256u}) {
    std::vector<float> simulated = random_values(777, rng);
    const std::vector<float> decoded = q8_wire_roundtrip(simulated, chunk);
    util::quantize_roundtrip_q8(simulated, chunk);
    ASSERT_EQ(simulated.size(), decoded.size());
    EXPECT_EQ(std::memcmp(simulated.data(), decoded.data(),
                          simulated.size() * sizeof(float)),
              0)
        << "chunk " << chunk;
  }
}

TEST(Q8Codec, ZeroChunkSizeIsRejected) {
  ByteWriter writer;
  const std::vector<float> values(4, 1.0f);
  EXPECT_THROW(writer.write_q8_span(values, 0), std::invalid_argument);
  // A crafted payload claiming chunk size 0 must not divide by zero either.
  ByteWriter crafted;
  crafted.write_u64(4);
  crafted.write_u32(0);
  ByteReader reader{crafted.bytes()};
  ASSERT_EQ(reader.read_u64(), 4u);
  std::vector<float> out(4);
  EXPECT_THROW(reader.read_q8_into(out), std::out_of_range);
}

// ---- fp16 --------------------------------------------------------------------

TEST(F16Codec, ExactForRepresentableValues) {
  for (const float v : {0.0f, -0.0f, 1.0f, -1.0f, 0.5f, -2.75f, 1024.0f, 65504.0f}) {
    EXPECT_EQ(util::f16_bits_to_f32(util::f32_to_f16_bits(v)), v) << v;
  }
}

TEST(F16Codec, RelativeErrorWithinHalfUlp) {
  util::Rng rng{0x9b6ull};
  for (int i = 0; i < 2000; ++i) {
    const float v = rng.uniform_float(-100.0f, 100.0f);
    const float back = util::f16_bits_to_f32(util::f32_to_f16_bits(v));
    // binary16 has a 10-bit mantissa: round-to-nearest error <= 2^-11 relative
    // for normals, absolute <= 2^-25 in the subnormal range.
    const double tolerance = std::abs(static_cast<double>(v)) * 0x1p-11 + 0x1p-25;
    EXPECT_LE(std::abs(static_cast<double>(back) - v), tolerance) << v;
  }
}

TEST(F16Codec, SpecialsAndOverflow) {
  EXPECT_EQ(util::f16_bits_to_f32(util::f32_to_f16_bits(kInf)), kInf);
  EXPECT_EQ(util::f16_bits_to_f32(util::f32_to_f16_bits(-kInf)), -kInf);
  EXPECT_TRUE(std::isnan(util::f16_bits_to_f32(util::f32_to_f16_bits(kNan))));
  EXPECT_EQ(util::f16_bits_to_f32(util::f32_to_f16_bits(1e30f)), kInf);  // > 65504
  EXPECT_EQ(util::f16_bits_to_f32(util::f32_to_f16_bits(-1e30f)), -kInf);
  // Subnormal half range: representable on a 2^-24 grid.
  const float tiny = 1e-7f;
  const float back = util::f16_bits_to_f32(util::f32_to_f16_bits(tiny));
  EXPECT_LE(std::abs(back - tiny), 0x1p-25f);
  // Below half the smallest subnormal: flushes to zero.
  EXPECT_EQ(util::f16_bits_to_f32(util::f32_to_f16_bits(1e-9f)), 0.0f);
}

TEST(F16Codec, SpanRoundTripAndWireSize) {
  util::Rng rng{0x9b7ull};
  std::vector<float> values = random_values(513, rng);
  values[7] = kNan;
  ByteWriter writer;
  writer.write_f16_span(values);
  EXPECT_EQ(writer.size(), util::f16_span_wire_size(values.size()));
  ByteReader reader{writer.bytes()};
  ASSERT_EQ(reader.read_u64(), values.size());
  std::vector<float> decoded(values.size());
  reader.read_f16_into(decoded);
  EXPECT_TRUE(reader.exhausted());
  EXPECT_TRUE(std::isnan(decoded[7]));
  // Simulated roundtrip matches the wire path bit-for-bit (NaN included —
  // both collapse to the same quiet NaN).
  std::vector<float> simulated = values;
  util::quantize_roundtrip_f16(simulated);
  EXPECT_EQ(std::memcmp(simulated.data(), decoded.data(), decoded.size() * sizeof(float)),
            0);
}

// ---- codec metadata ----------------------------------------------------------

TEST(WireCodecNames, ParseAndToStringRoundTrip) {
  for (const WireCodec codec : {WireCodec::Fp32, WireCodec::Q8, WireCodec::Fp16}) {
    WireCodec parsed = WireCodec::Fp32;
    ASSERT_TRUE(util::parse_wire_codec(util::to_string(codec), parsed));
    EXPECT_EQ(parsed, codec);
  }
  WireCodec out = WireCodec::Fp32;
  EXPECT_FALSE(util::parse_wire_codec("int4", out));
  EXPECT_EQ(out, WireCodec::Fp32);
}

TEST(WireCodecNames, Q8CompressionRatioMeetsTarget) {
  // Table V scale: ψ ~= 100k parameters. The acceptance bar is >= 3.5x.
  const std::size_t dim = 101770;
  const double fp32 = static_cast<double>(util::f32_vector_wire_size(dim));
  const double q8 =
      static_cast<double>(util::codec_span_wire_size(WireCodec::Q8, dim, 256));
  const double fp16 =
      static_cast<double>(util::codec_span_wire_size(WireCodec::Fp16, dim, 256));
  EXPECT_GE(fp32 / q8, 3.5);
  EXPECT_GE(fp32 / fp16, 1.99);
}

// ---- message-layer negotiation -----------------------------------------------

TEST(CodecNegotiation, RoundRequestCarriesTheOffer) {
  net::RoundRequest request;
  request.round = 5;
  request.want_decoder = true;
  request.psi_codec = WireCodec::Q8;
  request.psi_chunk = 64;
  request.global_parameters = {1.0f, -2.0f, 3.5f};
  const net::RoundRequest decoded =
      net::decode_round_request(net::encode_round_request(request));
  EXPECT_EQ(decoded.round, 5u);
  EXPECT_TRUE(decoded.want_decoder);
  EXPECT_EQ(decoded.psi_codec, WireCodec::Q8);
  EXPECT_EQ(decoded.psi_chunk, 64u);
  EXPECT_EQ(decoded.global_parameters, request.global_parameters);
}

/// A reply plus the ψ and θ buffers its spans borrow.
struct ReplyWithData {
  std::vector<float> psi;
  std::vector<float> theta;
  net::RoundReply reply;
};

void make_reply(WireCodec codec, std::size_t chunk, util::Rng& rng, ReplyWithData& out) {
  out.psi = random_values(1000, rng);
  out.theta = random_values(37, rng);
  out.reply.round = 3;
  out.reply.psi_codec = codec;
  out.reply.psi_chunk = chunk;
  out.reply.meta.client_id = 11;
  out.reply.meta.num_samples = 120;
  out.reply.psi = out.psi;
  out.reply.theta = out.theta;
}

TEST(CodecNegotiation, QuantizedReplyFillsArenaRows) {
  util::Rng rng{0x9b9ull};
  ReplyWithData sent;
  make_reply(WireCodec::Q8, 256, rng, sent);
  defenses::UpdateMatrix arena;
  arena.reset(1, sent.psi.size(), sent.theta.size());
  const std::size_t round =
      net::decode_round_reply_into(net::encode_round_reply(sent.reply), arena.row(0));
  EXPECT_EQ(round, 3u);
  EXPECT_EQ(arena.meta(0).client_id, 11);
  std::vector<float> expected = sent.psi;
  util::quantize_roundtrip_q8(expected, 256);
  const std::span<const float> row = arena.psi(0);
  ASSERT_EQ(row.size(), expected.size());
  EXPECT_EQ(std::memcmp(row.data(), expected.data(), expected.size() * sizeof(float)), 0);
  const std::span<const float> theta = arena.theta(0);  // θ stays fp32-exact
  EXPECT_EQ(std::vector<float>(theta.begin(), theta.end()), sent.theta);
}

TEST(CodecNegotiation, LegacyFp32ReplySatisfiesAQ8OfferExactly) {
  // A client that ignores the server's q8 offer self-tags fp32; the decoder
  // follows the tag, so the federation interoperates and the upload stays
  // exact.
  util::Rng rng{0x9baull};
  ReplyWithData sent;
  make_reply(WireCodec::Fp32, 256, rng, sent);
  defenses::UpdateMatrix arena;
  arena.reset(1, sent.psi.size(), sent.theta.size());
  (void)net::decode_round_reply_into(net::encode_round_reply(sent.reply), arena.row(0));
  const std::span<const float> psi = arena.psi(0);
  EXPECT_EQ(std::vector<float>(psi.begin(), psi.end()), sent.psi);
}

TEST(CodecNegotiation, UnknownCodecTagIsRejected) {
  util::Rng rng{0x9bbull};
  ReplyWithData sent;
  make_reply(WireCodec::Fp32, 256, rng, sent);
  std::vector<std::byte> payload = net::encode_round_reply(sent.reply);
  // Payload layout: u64 round | u64 trace_id | u32 client | u64 samples |
  // u32 malicious | u32 codec tag | ψ | θ — the tag starts at byte 32.
  const std::uint32_t bogus = 7;
  std::memcpy(payload.data() + 32, &bogus, sizeof bogus);
  defenses::UpdateMatrix arena;
  arena.reset(1, sent.psi.size(), sent.theta.size());
  try {
    (void)net::decode_round_reply_into(payload, arena.row(0));
    FAIL() << "bogus codec tag decoded";
  } catch (const net::DecodeError& error) {
    EXPECT_EQ(error.code(), net::DecodeErrorCode::BadCodec);
  }
}

TEST(CodecNegotiation, FrameBytesHelperMatchesEncodedFrames) {
  util::Rng rng{0x9bcull};
  for (const WireCodec codec : {WireCodec::Fp32, WireCodec::Q8, WireCodec::Fp16}) {
    ReplyWithData sent;
    make_reply(codec, 64, rng, sent);
    const std::vector<std::byte> frame = net::encode_frame(
        {net::MessageType::RoundReply, net::encode_round_reply(sent.reply)});
    // The client's one-buffer reply frame is byte-identical.
    EXPECT_EQ(net::encode_round_reply_frame(sent.reply), frame) << util::to_string(codec);
    EXPECT_EQ(frame.size(),
              net::client_update_frame_bytes(sent.psi.size(), sent.theta.size(), codec, 64))
        << util::to_string(codec);
  }
}

// ---- aggregation-boundary semantics ------------------------------------------

TEST(QuantizedAggregation, NanPoisonedUploadStillRejectedAfterQuantization) {
  if (!util::asserts_enabled()) {
    GTEST_SKIP() << "FEDGUARD_CHECK_FINITE compiled out (FEDGUARD_ASSERTS=OFF)";
  }
  // Quantization must not launder a NaN upload into finite garbage: the chunk
  // dequantizes to NaN and the validate_view choke point still fires.
  util::Rng rng{0x9bdull};
  std::vector<strategy_path::Upload> updates(3);
  for (std::size_t i = 0; i < updates.size(); ++i) {
    updates[i].client_id = static_cast<int>(i);
    updates[i].num_samples = 100;
    updates[i].psi = random_values(512, rng);
  }
  updates[1].psi[300] = kNan;
  for (auto& update : updates) {
    util::quantize_roundtrip_q8(update.psi, 256);
  }
  ASSERT_TRUE(std::isnan(updates[1].psi[300]));
  defenses::FedAvgAggregator fedavg;
  const std::vector<float> global(512, 0.0f);
  defenses::AggregationContext context;
  context.global_parameters = global;
  EXPECT_THROW((void)strategy_path::aggregate(fedavg, context, updates), util::CheckError);
}

TEST(QuantizedAggregation, KrumStillEjectsAttackersUnderQ8HonestUploads) {
  // Robustness datapoint: quantization noise on honest updates (sigma ~
  // scale/2) must stay far below the attacker displacement Krum keys on.
  util::Rng rng{0x9beull};
  const std::size_t dim = 256;
  const std::vector<float> base = random_values(dim, rng, -0.5f, 0.5f);
  std::vector<strategy_path::Upload> updates(8);
  for (std::size_t i = 0; i < updates.size(); ++i) {
    updates[i].client_id = static_cast<int>(i);
    updates[i].num_samples = 100;
    updates[i].psi = base;
  }
  for (std::size_t i = 0; i < 6; ++i) {  // honest: base + small local noise, then q8
    for (auto& v : updates[i].psi) {
      v += static_cast<float>(rng.normal(0.0, 0.05));
    }
    util::quantize_roundtrip_q8(updates[i].psi, 64);
  }
  for (std::size_t i = 6; i < 8; ++i) {  // attackers: same-value poisoning, fp32
    updates[i].truly_malicious = true;
    std::fill(updates[i].psi.begin(), updates[i].psi.end(), 5.0f);
  }
  defenses::KrumAggregator krum{0.25, 3};
  const std::vector<float> global(dim, 0.0f);
  defenses::AggregationContext context;
  context.global_parameters = global;
  const defenses::AggregationResult result = strategy_path::aggregate(krum, context, updates);
  for (const int attacker : {6, 7}) {
    EXPECT_NE(std::find(result.rejected_clients.begin(), result.rejected_clients.end(),
                        attacker),
              result.rejected_clients.end())
        << "attacker " << attacker << " survived Krum under q8 honest uploads";
  }
}

// ---- end-to-end drift gate ---------------------------------------------------

TEST(QuantizedFederation, AccuracyDriftVsFp32WithinHalfPoint) {
  util::set_log_level(util::LogLevel::Warn);
  core::ExperimentConfig config = core::ExperimentConfig::small_scale();
  config.strategy = core::StrategyKind::FedAvg;
  config.train_samples = 600;
  config.test_samples = 400;
  config.auxiliary_samples = 50;
  config.num_clients = 8;
  config.clients_per_round = 5;
  config.rounds = 6;
  config.seed = 777;

  config.wire_codec = WireCodec::Fp32;
  const double fp32 = core::run_experiment(config).trailing_accuracy(3).mean;
  config.wire_codec = WireCodec::Q8;
  config.wire_chunk_size = 256;
  const double q8 = core::run_experiment(config).trailing_accuracy(3).mean;

  EXPECT_GT(fp32, 0.2);  // the smoke run actually learned something
  EXPECT_NEAR(q8, fp32, 0.005) << "q8 transport drifted more than 0.5 pp";
}

}  // namespace
}  // namespace fedguard
