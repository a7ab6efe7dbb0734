#pragma once
// Little-endian binary serialization primitives used for model parameter
// transfer and checkpointing. The traffic meter charges transfers at exactly
// the size these writers produce.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace fedguard::util {

// ---- Wire codecs --------------------------------------------------------------
// Encodings for float spans crossing the wire. Fp32 is the exact baseline;
// Q8 is a per-chunk affine uint8 quantization (scale + offset per chunk,
// max dequantization error <= scale/2); Fp16 is IEEE binary16 truncation
// with round-to-nearest-even. The numeric values are the on-wire tags.

enum class WireCodec : std::uint8_t { Fp32 = 0, Q8 = 1, Fp16 = 2 };

[[nodiscard]] std::string_view to_string(WireCodec codec) noexcept;
/// Accepts "fp32", "q8", "fp16"; returns false (out untouched) otherwise.
[[nodiscard]] bool parse_wire_codec(std::string_view text, WireCodec& out) noexcept;

/// Default elements per q8 chunk: small enough that one outlier only inflates
/// the scale of its own 256-value neighbourhood, large enough that the 8-byte
/// per-chunk header stays ~3% overhead.
inline constexpr std::size_t kDefaultQ8ChunkSize = 256;

// ---- memcpy-based load/store --------------------------------------------------
// Alignment- and aliasing-safe framing primitives: every place that used to
// reinterpret_cast a buffer pointer to a value type (UB when misaligned, and
// flagged by UBSan) goes through these instead.

/// Copy a trivially copyable value out of a byte buffer (must hold sizeof(T)).
template <typename T>
  requires std::is_trivially_copyable_v<T>
[[nodiscard]] T load_trivial(const std::byte* source) noexcept {
  T value;
  std::memcpy(&value, source, sizeof(T));
  return value;
}

/// Copy a trivially copyable value into a byte buffer (must hold sizeof(T)).
template <typename T>
  requires std::is_trivially_copyable_v<T>
void store_trivial(std::byte* target, const T& value) noexcept {
  std::memcpy(target, &value, sizeof(T));
}

// ---- iostream bridging --------------------------------------------------------
// std::iostream speaks char*; the single sanctioned byte-pointer cast in the
// library lives inside these two helpers (std::byte <-> char aliasing is
// always valid), so no other translation unit needs a reinterpret_cast for
// file framing.

/// Write a byte span to a binary stream.
void write_bytes(std::ostream& out, std::span<const std::byte> bytes);
/// Read exactly `bytes.size()` bytes; returns false on short read / error.
[[nodiscard]] bool read_bytes(std::istream& in, std::span<std::byte> bytes);

/// Growable binary output buffer.
class ByteWriter {
 public:
  void write_u32(std::uint32_t value);
  void write_u64(std::uint64_t value);
  void write_f32(float value);
  void write_f32_span(std::span<const float> values);
  /// Per-chunk affine uint8 quantization: u64 count, u32 chunk size, then per
  /// chunk [f32 scale][f32 offset][chunk u8 codes] with value ~= offset +
  /// scale * code. A chunk containing any non-finite value gets scale = NaN
  /// (every element dequantizes to NaN, so the aggregation-boundary finite
  /// check still fires); a constant chunk gets scale = 0 and decodes exactly.
  void write_q8_span(std::span<const float> values,
                     std::size_t chunk_size = kDefaultQ8ChunkSize);
  /// IEEE binary16: u64 count then count u16 half-floats (round-to-nearest-
  /// even, overflow to inf, NaN preserved).
  void write_f16_span(std::span<const float> values);
  void write_string(const std::string& value);
  /// Append `bytes` verbatim (no length prefix).
  void write_raw(std::span<const std::byte> bytes);
  /// Pre-size the buffer for `bytes` more bytes, so a large payload is
  /// written without reallocating (and re-copying) as it grows.
  void reserve(std::size_t bytes) { buffer_.reserve(buffer_.size() + bytes); }

  [[nodiscard]] const std::vector<std::byte>& bytes() const noexcept { return buffer_; }
  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }
  /// Move the written bytes out, leaving the writer empty: the copy-free
  /// alternative to bytes() for encoders that return their buffer.
  [[nodiscard]] std::vector<std::byte> release() noexcept { return std::exchange(buffer_, {}); }

 private:
  std::vector<std::byte> buffer_;
};

/// Sequential reader over a byte span. Throws std::out_of_range on underrun.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) noexcept : data_{data} {}

  [[nodiscard]] std::uint32_t read_u32();
  [[nodiscard]] std::uint64_t read_u64();
  [[nodiscard]] float read_f32();
  /// Deserialize out.size() floats directly into `out` (a pre-sized
  /// destination such as an arena row).
  void read_f32_into(std::span<float> out);
  /// Dequantize a write_q8_span payload (sans the u64 count, which the caller
  /// reads to size `out`) directly into `out` — the quantized twin of
  /// read_f32_into, so arena rows fill without an intermediate buffer.
  void read_q8_into(std::span<float> out);
  /// Decode a write_f16_span payload (sans the u64 count) into `out`.
  void read_f16_into(std::span<float> out);
  [[nodiscard]] std::string read_string();

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - offset_; }
  [[nodiscard]] bool exhausted() const noexcept { return offset_ == data_.size(); }

 private:
  void require(std::size_t count) const;

  std::span<const std::byte> data_;
  std::size_t offset_ = 0;
};

/// Serialized size in bytes of a float vector written via write_f32_span,
/// including the u64 length prefix.
[[nodiscard]] constexpr std::size_t f32_vector_wire_size(std::size_t count) noexcept {
  return sizeof(std::uint64_t) + count * sizeof(float);
}

/// Serialized size of write_q8_span: u64 count + u32 chunk size + one
/// (scale, offset) float pair per chunk + one byte per element.
[[nodiscard]] constexpr std::size_t q8_span_wire_size(std::size_t count,
                                                      std::size_t chunk_size) noexcept {
  const std::size_t chunks = chunk_size == 0 ? 0 : (count + chunk_size - 1) / chunk_size;
  return sizeof(std::uint64_t) + sizeof(std::uint32_t) + chunks * 2 * sizeof(float) + count;
}

/// Serialized size of write_f16_span: u64 count + two bytes per element.
[[nodiscard]] constexpr std::size_t f16_span_wire_size(std::size_t count) noexcept {
  return sizeof(std::uint64_t) + count * sizeof(std::uint16_t);
}

/// Serialized size of a float span under `codec` (including length prefix).
[[nodiscard]] constexpr std::size_t codec_span_wire_size(WireCodec codec, std::size_t count,
                                                         std::size_t chunk_size) noexcept {
  switch (codec) {
    case WireCodec::Q8: return q8_span_wire_size(count, chunk_size);
    case WireCodec::Fp16: return f16_span_wire_size(count);
    case WireCodec::Fp32: break;
  }
  return f32_vector_wire_size(count);
}

/// Quantize + dequantize `values` in place with exactly the arithmetic of
/// write_q8_span / read_q8_into, so an in-process federation can reproduce
/// the remote path's quantization noise bit-for-bit without buffering an
/// encoded payload.
void quantize_roundtrip_q8(std::span<float> values,
                           std::size_t chunk_size = kDefaultQ8ChunkSize);
/// Fp16 twin of quantize_roundtrip_q8.
void quantize_roundtrip_f16(std::span<float> values) noexcept;

/// Apply `codec`'s lossy roundtrip in place (Fp32 is a no-op).
void quantize_roundtrip(WireCodec codec, std::span<float> values, std::size_t chunk_size);

/// Portable IEEE binary16 conversions (round-to-nearest-even, overflow to
/// inf, NaN payloads collapsed to a quiet NaN).
[[nodiscard]] std::uint16_t f32_to_f16_bits(float value) noexcept;
[[nodiscard]] float f16_bits_to_f32(std::uint16_t bits) noexcept;

/// Write a float vector to a file (length-prefixed). Throws on I/O error.
void save_f32_vector(const std::string& path, std::span<const float> values);
/// Read a float vector written by save_f32_vector. Throws on I/O error.
[[nodiscard]] std::vector<float> load_f32_vector(const std::string& path);

}  // namespace fedguard::util
