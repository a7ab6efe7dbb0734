#include "util/serialize.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <ostream>

namespace fedguard::util {

namespace {
template <typename T>
void append_raw(std::vector<std::byte>& buffer, T value) {
  const auto old = buffer.size();
  buffer.resize(old + sizeof(T));
  store_trivial(buffer.data() + old, value);
}

// Per-chunk affine parameters: value ~= offset + scale * code, code in 0..255.
// The scale is nudged up to the next representable float when the double
// quotient rounds down, so (max - offset) / scale <= 255 holds exactly and
// the encoder never clamps — keeping the max dequantization error <= scale/2.
struct Q8ChunkParams {
  float scale;
  float offset;
};

Q8ChunkParams q8_chunk_params(std::span<const float> chunk) noexcept {
  float lo = std::numeric_limits<float>::infinity();
  float hi = -std::numeric_limits<float>::infinity();
  for (const float v : chunk) {
    if (!std::isfinite(v)) {
      // Poison the whole chunk: scale NaN makes every element dequantize to
      // NaN, which the aggregation-boundary finite check rejects — a client
      // cannot launder inf/NaN through quantization.
      return {std::numeric_limits<float>::quiet_NaN(), 0.0F};
    }
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double range = static_cast<double>(hi) - static_cast<double>(lo);
  if (range == 0.0) return {0.0F, lo};  // constant chunk decodes exactly
  auto scale = static_cast<float>(range / 255.0);
  if (static_cast<double>(scale) * 255.0 < range) {
    scale = std::nextafter(scale, std::numeric_limits<float>::infinity());
  }
  return {scale, lo};
}

std::uint8_t q8_encode(float value, const Q8ChunkParams& params) noexcept {
  if (params.scale == 0.0F) return 0;
  const double q = std::nearbyint((static_cast<double>(value) - static_cast<double>(params.offset)) /
                                  static_cast<double>(params.scale));
  return static_cast<std::uint8_t>(std::clamp(q, 0.0, 255.0));
}

float q8_decode(std::uint8_t code, const Q8ChunkParams& params) noexcept {
  return static_cast<float>(static_cast<double>(params.offset) +
                            static_cast<double>(params.scale) * static_cast<double>(code));
}
}  // namespace

std::string_view to_string(WireCodec codec) noexcept {
  switch (codec) {
    case WireCodec::Q8: return "q8";
    case WireCodec::Fp16: return "fp16";
    case WireCodec::Fp32: break;
  }
  return "fp32";
}

bool parse_wire_codec(std::string_view text, WireCodec& out) noexcept {
  if (text == "fp32") {
    out = WireCodec::Fp32;
  } else if (text == "q8") {
    out = WireCodec::Q8;
  } else if (text == "fp16") {
    out = WireCodec::Fp16;
  } else {
    return false;
  }
  return true;
}

std::uint16_t f32_to_f16_bits(float value) noexcept {
  std::uint32_t f = 0;
  std::memcpy(&f, &value, sizeof(f));
  const auto sign = static_cast<std::uint16_t>((f >> 16U) & 0x8000U);
  const std::uint32_t exp = (f >> 23U) & 0xFFU;
  const std::uint32_t mant = f & 0x7FFFFFU;
  if (exp == 0xFFU) {  // inf / NaN (NaN payloads collapse to a quiet NaN)
    return static_cast<std::uint16_t>(sign | 0x7C00U | (mant != 0 ? 0x0200U : 0U));
  }
  const int half_exp = static_cast<int>(exp) - 127 + 15;
  if (half_exp >= 0x1F) return static_cast<std::uint16_t>(sign | 0x7C00U);  // overflow -> inf
  if (half_exp <= 0) {
    if (half_exp < -10) return sign;  // underflows past subnormals -> signed zero
    // Subnormal half: shift the (implicit-1) mantissa into place, rounding
    // to nearest-even; a carry out of the mantissa lands in exponent 1,
    // which is exactly the right normalized value.
    const std::uint32_t full = mant | 0x800000U;
    const auto shift = static_cast<std::uint32_t>(14 - half_exp);  // 14..24
    std::uint32_t half = full >> shift;
    const std::uint32_t rem = full & ((1U << shift) - 1U);
    const std::uint32_t halfway = 1U << (shift - 1U);
    if (rem > halfway || (rem == halfway && (half & 1U) != 0)) ++half;
    return static_cast<std::uint16_t>(sign | half);
  }
  auto half = static_cast<std::uint32_t>(half_exp << 10U) | (mant >> 13U);
  const std::uint32_t rem = mant & 0x1FFFU;
  // Round to nearest-even; a mantissa carry bumps the exponent (and rounds
  // the largest finite halves up to inf, as IEEE requires).
  if (rem > 0x1000U || (rem == 0x1000U && (half & 1U) != 0)) ++half;
  return static_cast<std::uint16_t>(sign | half);
}

float f16_bits_to_f32(std::uint16_t bits) noexcept {
  const std::uint32_t sign = static_cast<std::uint32_t>(bits & 0x8000U) << 16U;
  std::uint32_t exp = (bits >> 10U) & 0x1FU;
  std::uint32_t mant = bits & 0x3FFU;
  std::uint32_t f = 0;
  if (exp == 0x1FU) {
    f = sign | 0x7F800000U | (mant << 13U);
  } else if (exp != 0) {
    f = sign | ((exp + 112U) << 23U) | (mant << 13U);
  } else if (mant == 0) {
    f = sign;
  } else {
    // Normalize a half subnormal: every half value is representable in f32.
    exp = 113U;
    while ((mant & 0x400U) == 0) {
      mant <<= 1U;
      --exp;
    }
    f = sign | (exp << 23U) | ((mant & 0x3FFU) << 13U);
  }
  float value = 0.0F;
  std::memcpy(&value, &f, sizeof(value));
  return value;
}

void write_bytes(std::ostream& out, std::span<const std::byte> bytes) {
  if (bytes.empty()) return;  // empty span has a null data(); never pass it on
  // The one sanctioned byte-pointer cast: char aliases anything.
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

bool read_bytes(std::istream& in, std::span<std::byte> bytes) {
  if (bytes.empty()) return static_cast<bool>(in);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(in);
}

void ByteWriter::write_u32(std::uint32_t value) { append_raw(buffer_, value); }
void ByteWriter::write_u64(std::uint64_t value) { append_raw(buffer_, value); }
void ByteWriter::write_f32(float value) { append_raw(buffer_, value); }

void ByteWriter::write_f32_span(std::span<const float> values) {
  write_u64(values.size());
  if (values.empty()) return;  // empty span has a null data(); memcpy is nonnull
  const auto old = buffer_.size();
  buffer_.resize(old + values.size_bytes());
  std::memcpy(buffer_.data() + old, values.data(), values.size_bytes());
}

void ByteWriter::write_q8_span(std::span<const float> values, std::size_t chunk_size) {
  if (chunk_size == 0) {
    throw std::invalid_argument{"write_q8_span: chunk_size must be positive"};
  }
  reserve(q8_span_wire_size(values.size(), chunk_size));
  write_u64(values.size());
  write_u32(static_cast<std::uint32_t>(chunk_size));
  for (std::size_t base = 0; base < values.size(); base += chunk_size) {
    const std::span<const float> chunk =
        values.subspan(base, std::min(chunk_size, values.size() - base));
    const Q8ChunkParams params = q8_chunk_params(chunk);
    write_f32(params.scale);
    write_f32(params.offset);
    const auto old = buffer_.size();
    buffer_.resize(old + chunk.size());
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      buffer_[old + i] = static_cast<std::byte>(
          std::isfinite(params.scale) ? q8_encode(chunk[i], params) : std::uint8_t{0});
    }
  }
}

void ByteWriter::write_f16_span(std::span<const float> values) {
  write_u64(values.size());
  const auto old = buffer_.size();
  buffer_.resize(old + values.size() * sizeof(std::uint16_t));
  for (std::size_t i = 0; i < values.size(); ++i) {
    store_trivial(buffer_.data() + old + i * sizeof(std::uint16_t), f32_to_f16_bits(values[i]));
  }
}

void ByteWriter::write_string(const std::string& value) {
  write_u64(value.size());
  if (value.empty()) return;
  const auto old = buffer_.size();
  buffer_.resize(old + value.size());
  std::memcpy(buffer_.data() + old, value.data(), value.size());
}

void ByteWriter::write_raw(std::span<const std::byte> bytes) {
  if (bytes.empty()) return;
  const auto old = buffer_.size();
  buffer_.resize(old + bytes.size());
  std::memcpy(buffer_.data() + old, bytes.data(), bytes.size());
}

void ByteReader::require(std::size_t count) const {
  // Compared against the bytes left, so that a corrupt length near 2^64
  // cannot wrap the sum and pass.
  if (count > data_.size() - offset_) {
    throw std::out_of_range{"ByteReader: buffer underrun"};
  }
}

std::uint32_t ByteReader::read_u32() {
  require(sizeof(std::uint32_t));
  const auto value = load_trivial<std::uint32_t>(data_.data() + offset_);
  offset_ += sizeof(value);
  return value;
}

std::uint64_t ByteReader::read_u64() {
  require(sizeof(std::uint64_t));
  const auto value = load_trivial<std::uint64_t>(data_.data() + offset_);
  offset_ += sizeof(value);
  return value;
}

float ByteReader::read_f32() {
  require(sizeof(float));
  const auto value = load_trivial<float>(data_.data() + offset_);
  offset_ += sizeof(value);
  return value;
}

void ByteReader::read_f32_into(std::span<float> out) {
  if (out.empty()) return;
  require(out.size() * sizeof(float));
  std::memcpy(out.data(), data_.data() + offset_, out.size() * sizeof(float));
  offset_ += out.size() * sizeof(float);
}

void ByteReader::read_q8_into(std::span<float> out) {
  const auto chunk_size = static_cast<std::size_t>(read_u32());
  if (out.empty()) return;
  if (chunk_size == 0) {
    throw std::out_of_range{"ByteReader: q8 payload with zero chunk size"};
  }
  for (std::size_t base = 0; base < out.size(); base += chunk_size) {
    const std::size_t len = std::min(chunk_size, out.size() - base);
    Q8ChunkParams params{};
    params.scale = read_f32();
    params.offset = read_f32();
    require(len);
    for (std::size_t i = 0; i < len; ++i) {
      out[base + i] = q8_decode(std::to_integer<std::uint8_t>(data_[offset_ + i]), params);
    }
    offset_ += len;
  }
}

void ByteReader::read_f16_into(std::span<float> out) {
  if (out.empty()) return;
  require(out.size() * sizeof(std::uint16_t));
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = f16_bits_to_f32(
        load_trivial<std::uint16_t>(data_.data() + offset_ + i * sizeof(std::uint16_t)));
  }
  offset_ += out.size() * sizeof(std::uint16_t);
}

std::string ByteReader::read_string() {
  const auto length = static_cast<std::size_t>(read_u64());
  if (length == 0) return {};
  require(length);
  std::string out(length, '\0');
  std::memcpy(out.data(), data_.data() + offset_, length);
  offset_ += length;
  return out;
}

void quantize_roundtrip_q8(std::span<float> values, std::size_t chunk_size) {
  if (chunk_size == 0) {
    throw std::invalid_argument{"quantize_roundtrip_q8: chunk_size must be positive"};
  }
  for (std::size_t base = 0; base < values.size(); base += chunk_size) {
    const std::span<float> chunk =
        values.subspan(base, std::min(chunk_size, values.size() - base));
    const Q8ChunkParams params = q8_chunk_params(chunk);
    for (float& v : chunk) {
      v = q8_decode(std::isfinite(params.scale) ? q8_encode(v, params) : std::uint8_t{0},
                    params);
    }
  }
}

void quantize_roundtrip_f16(std::span<float> values) noexcept {
  for (float& v : values) v = f16_bits_to_f32(f32_to_f16_bits(v));
}

void quantize_roundtrip(WireCodec codec, std::span<float> values, std::size_t chunk_size) {
  switch (codec) {
    case WireCodec::Q8: quantize_roundtrip_q8(values, chunk_size); break;
    case WireCodec::Fp16: quantize_roundtrip_f16(values); break;
    case WireCodec::Fp32: break;
  }
}

void save_f32_vector(const std::string& path, std::span<const float> values) {
  std::ofstream file{path, std::ios::binary | std::ios::trunc};
  if (!file) throw std::runtime_error{"save_f32_vector: cannot open " + path};
  std::vector<std::byte> buffer(sizeof(std::uint64_t) + values.size_bytes());
  store_trivial(buffer.data(), static_cast<std::uint64_t>(values.size()));
  if (!values.empty()) {
    std::memcpy(buffer.data() + sizeof(std::uint64_t), values.data(), values.size_bytes());
  }
  write_bytes(file, buffer);
  if (!file) throw std::runtime_error{"save_f32_vector: write failed for " + path};
}

std::vector<float> load_f32_vector(const std::string& path) {
  std::ifstream file{path, std::ios::binary};
  if (!file) throw std::runtime_error{"load_f32_vector: cannot open " + path};
  std::array<std::byte, sizeof(std::uint64_t)> header{};
  if (!read_bytes(file, header)) {
    throw std::runtime_error{"load_f32_vector: truncated file " + path};
  }
  const auto count = static_cast<std::size_t>(load_trivial<std::uint64_t>(header.data()));
  std::vector<std::byte> payload(count * sizeof(float));
  if (!read_bytes(file, payload)) {
    throw std::runtime_error{"load_f32_vector: truncated file " + path};
  }
  std::vector<float> out(count);
  if (count != 0) std::memcpy(out.data(), payload.data(), payload.size());
  return out;
}

}  // namespace fedguard::util
