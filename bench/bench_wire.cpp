// ψ wire-codec micro-bench: encode/decode cost and bytes-per-round for the
// three reply codecs (fp32 / q8 / fp16) at the paper's Table V traffic shape
// — m = 50 clients per round, ψ ≈ 100k parameters. run_all_benches.sh merges
// the JSON report into BENCH_wire.json; the wire_* counters carry the
// byte accounting (per ψ, per round, and the compression ratio vs fp32),
// which must agree with the traffic meters in fl::Server / net::HierarchicalServer
// (both charge util::codec_span_wire_size for the ψ direction). The socket
// round's byte path is timed at the paper CNN's ψ0: the frame CRC-32 and the
// one-buffer RoundRequest frame the root broadcasts every round.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/message.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace {

using namespace fedguard;
using util::WireCodec;

constexpr std::size_t kPsiDim = 101770;       // paper-scale CNN ψ (~100k params)
constexpr std::size_t kClientsPerRound = 50;  // paper m
constexpr std::size_t kChunk = util::kDefaultQ8ChunkSize;
constexpr std::size_t kPaperCnnDim = 1662752;  // Table II classifier, 6.65 MB fp32

std::vector<float> random_psi(std::uint64_t seed, std::size_t dim = kPsiDim) {
  std::vector<float> psi(dim);
  util::Rng rng{seed};
  for (auto& v : psi) v = rng.uniform_float(-0.5f, 0.5f);
  return psi;
}

void encode_psi(util::ByteWriter& writer, WireCodec codec, std::span<const float> psi) {
  switch (codec) {
    case WireCodec::Q8: writer.write_q8_span(psi, kChunk); return;
    case WireCodec::Fp16: writer.write_f16_span(psi); return;
    case WireCodec::Fp32: break;
  }
  writer.write_f32_span(psi);
}

void set_wire_counters(benchmark::State& state, WireCodec codec) {
  const auto bytes =
      static_cast<double>(util::codec_span_wire_size(codec, kPsiDim, kChunk));
  state.counters["wire_bytes_psi"] = bytes;
  state.counters["wire_bytes_round_m50"] = bytes * kClientsPerRound;
  state.counters["wire_ratio_vs_fp32"] =
      static_cast<double>(util::f32_vector_wire_size(kPsiDim)) / bytes;
}

void BM_WireEncode(benchmark::State& state, WireCodec codec) {
  const std::vector<float> psi = random_psi(21);
  for (auto _ : state) {
    util::ByteWriter writer;
    encode_psi(writer, codec, psi);
    benchmark::DoNotOptimize(writer.bytes().data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(util::codec_span_wire_size(codec, kPsiDim, kChunk)));
  set_wire_counters(state, codec);
}
BENCHMARK_CAPTURE(BM_WireEncode, fp32, WireCodec::Fp32)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_WireEncode, q8, WireCodec::Q8)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_WireEncode, fp16, WireCodec::Fp16)->Unit(benchmark::kMicrosecond);

void BM_WireDecode(benchmark::State& state, WireCodec codec) {
  const std::vector<float> psi = random_psi(22);
  util::ByteWriter writer;
  encode_psi(writer, codec, psi);
  std::vector<float> out(kPsiDim);
  for (auto _ : state) {
    util::ByteReader reader{writer.bytes()};
    if (reader.read_u64() != kPsiDim) {
      state.SkipWithError("psi count mismatch");
      break;
    }
    switch (codec) {
      case WireCodec::Q8: reader.read_q8_into(out); break;
      case WireCodec::Fp16: reader.read_f16_into(out); break;
      case WireCodec::Fp32: reader.read_f32_into(out); break;
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(writer.size()));
  set_wire_counters(state, codec);
}
BENCHMARK_CAPTURE(BM_WireDecode, fp32, WireCodec::Fp32)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_WireDecode, q8, WireCodec::Q8)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_WireDecode, fp16, WireCodec::Fp16)->Unit(benchmark::kMicrosecond);

// The in-process federation's substitute for encode+decode: the simulated
// quantization roundtrip applied to one arena ψ row.
void BM_WireSimulatedRoundtrip(benchmark::State& state, WireCodec codec) {
  const std::vector<float> psi = random_psi(23);
  std::vector<float> row = psi;
  for (auto _ : state) {
    row = psi;
    util::quantize_roundtrip(codec, row, kChunk);
    benchmark::DoNotOptimize(row.data());
  }
  set_wire_counters(state, codec);
}
BENCHMARK_CAPTURE(BM_WireSimulatedRoundtrip, q8, WireCodec::Q8)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_WireSimulatedRoundtrip, fp16, WireCodec::Fp16)
    ->Unit(benchmark::kMicrosecond);

// CRC-32 over one fp32 ψ0 frame payload: run by the root once per round and
// by every client to verify the frame it receives.
void BM_Crc32(benchmark::State& state) {
  const std::vector<float> psi = random_psi(24, kPaperCnnDim);
  const std::span<const std::byte> bytes = std::as_bytes(std::span{psi});
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::crc32(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_Crc32)->Unit(benchmark::kMillisecond);

// The root's whole per-round broadcast encode: header, fields, ψ0 and CRC in
// one buffer, shared by every shard and cohort connection.
void BM_EncodeRoundRequestFrame(benchmark::State& state) {
  net::RoundRequest request;
  request.global_parameters = random_psi(25, kPaperCnnDim);
  std::size_t frame_bytes = 0;
  for (auto _ : state) {
    const std::vector<std::byte> frame = net::encode_round_request_frame(request);
    frame_bytes = frame.size();
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame_bytes));
}
BENCHMARK(BM_EncodeRoundRequestFrame)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
