// Wire-protocol and distributed-federation tests (loopback TCP).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <thread>

#include "data/partition.hpp"
#include "data/synthetic_mnist.hpp"
#include "defenses/fedavg.hpp"
#include "defenses/fedguard.hpp"
#include "net/remote.hpp"
#include "net/shard.hpp"
#include "util/logging.hpp"

namespace fedguard::net {
namespace {

TEST(Messages, HelloRoundTrip) {
  const std::vector<std::byte> payload = encode_hello(42);
  EXPECT_EQ(decode_hello(payload), 42);
}

TEST(Messages, RoundRequestRoundTrip) {
  RoundRequest request;
  request.round = 7;
  request.want_decoder = true;
  request.global_parameters = {1.0f, -2.0f, 3.5f};
  const RoundRequest decoded = decode_round_request(encode_round_request(request));
  EXPECT_EQ(decoded.round, 7u);
  EXPECT_TRUE(decoded.want_decoder);
  EXPECT_EQ(decoded.global_parameters, request.global_parameters);
}

TEST(Messages, RoundReplyRoundTrip) {
  const std::vector<float> psi{0.5f, 1.5f};
  const std::vector<float> theta{9.0f};
  RoundReply reply;
  reply.round = 11;
  reply.meta.client_id = 3;
  reply.meta.num_samples = 120;
  reply.meta.truly_malicious = true;
  reply.psi = psi;
  reply.theta = theta;
  defenses::UpdateMatrix arena;
  arena.reset(1, psi.size(), theta.size());
  EXPECT_EQ(decode_round_reply_into(encode_round_reply(reply), arena.row(0)), 11u);
  const defenses::UpdateMeta& meta = arena.meta(0);
  EXPECT_EQ(meta.client_id, 3);
  EXPECT_EQ(meta.num_samples, 120u);
  EXPECT_TRUE(meta.truly_malicious);
  EXPECT_EQ(meta.theta_count, theta.size());
  EXPECT_EQ(std::vector<float>(arena.psi(0).begin(), arena.psi(0).end()), psi);
  EXPECT_EQ(std::vector<float>(arena.theta(0).begin(), arena.theta(0).end()), theta);
}

TEST(Messages, RoundReplyOfTheWrongShapeIsTyped) {
  const std::vector<float> psi(3, 1.0f);
  const std::vector<float> theta(5, 1.0f);
  RoundReply reply;
  reply.psi = psi;
  reply.theta = theta;
  const std::vector<std::byte> payload = encode_round_reply(reply);
  for (const auto& [psi_dim, theta_dim] : {std::pair{std::size_t{4}, std::size_t{5}},
                                           std::pair{std::size_t{3}, std::size_t{4}}}) {
    defenses::UpdateMatrix arena;
    arena.reset(1, psi_dim, theta_dim);
    try {
      (void)decode_round_reply_into(payload, arena.row(0));
      ADD_FAILURE() << "decoded into a " << psi_dim << "/" << theta_dim << " row";
    } catch (const DecodeError& e) {
      EXPECT_EQ(e.code(), DecodeErrorCode::BadShape);
    }
  }
}

TEST(Messages, RoundReplyWithAShortThetaIsBadShape) {
  // θ must fill the row's θ plane exactly, as ψ fills its own: one float
  // short, or none at all (a client that trained no CVAE), is a wrong shape.
  const std::vector<float> psi(3, 1.0f);
  for (const std::size_t theta_count : {std::size_t{4}, std::size_t{0}}) {
    const std::vector<float> theta(theta_count, 1.0f);
    RoundReply reply;
    reply.psi = psi;
    reply.theta = theta;
    defenses::UpdateMatrix arena;
    arena.reset(1, psi.size(), 5);
    try {
      (void)decode_round_reply_into(encode_round_reply(reply), arena.row(0));
      ADD_FAILURE() << "decoded a " << theta_count << "-float theta into a 5-float plane";
    } catch (const DecodeError& e) {
      EXPECT_EQ(e.code(), DecodeErrorCode::BadShape);
    }
  }
}

TEST(Messages, TruncatedPayloadThrows) {
  const std::vector<std::byte> payload = encode_round_request({});
  const std::span<const std::byte> truncated{payload.data(), payload.size() / 2};
  try {
    (void)decode_round_request(truncated);
    FAIL() << "truncated payload must not decode";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.code(), DecodeErrorCode::Truncated);
  }
}

TEST(Messages, FrameBytesMatchEncoding) {
  const std::vector<float> psi(100, 0.0f);
  const std::vector<float> theta(40, 0.0f);
  RoundReply reply;
  reply.psi = psi;
  reply.theta = theta;
  const Message message{MessageType::RoundReply, encode_round_reply(reply)};
  EXPECT_EQ(encode_frame(message).size(), client_update_frame_bytes(100, 40));
}

// ---- Corrupt-frame decoding: every malformation is a typed error ---------------

std::vector<std::byte> sample_frame() {
  RoundRequest request;
  request.round = 3;
  request.global_parameters = {1.0f, 2.0f, 3.0f, 4.0f};
  return encode_frame({MessageType::RoundRequest, encode_round_request(request)});
}

DecodeErrorCode decode_failure(std::span<const std::byte> buffer) {
  try {
    (void)decode_frame(buffer);
  } catch (const DecodeError& e) {
    return e.code();
  }
  ADD_FAILURE() << "corrupt frame decoded without error";
  return DecodeErrorCode::BadMagic;
}

TEST(Messages, SaneFrameDecodes) {
  const std::vector<std::byte> frame = sample_frame();
  const Message decoded = decode_frame(frame);
  EXPECT_EQ(decoded.type, MessageType::RoundRequest);
  EXPECT_EQ(decode_round_request(decoded.payload).global_parameters.size(), 4u);
}

TEST(Messages, BadMagicIsTyped) {
  std::vector<std::byte> frame = sample_frame();
  frame[0] ^= std::byte{0xff};
  EXPECT_EQ(decode_failure(frame), DecodeErrorCode::BadMagic);
}

TEST(Messages, BadTypeIsTyped) {
  std::vector<std::byte> frame = sample_frame();
  frame[4] = std::byte{99};  // type field (little-endian u32 at offset 4)
  EXPECT_EQ(decode_failure(frame), DecodeErrorCode::BadType);
}

TEST(Messages, OversizedLengthIsTyped) {
  std::vector<std::byte> frame = sample_frame();
  // Length field (little-endian u64 at offset 8): claim ~2^63 payload bytes.
  for (std::size_t i = 8; i < 16; ++i) frame[i] = std::byte{0x7f};
  EXPECT_EQ(decode_failure(frame), DecodeErrorCode::Oversized);
}

TEST(Messages, FlippedCrcIsTyped) {
  std::vector<std::byte> frame = sample_frame();
  frame[16] ^= std::byte{0x01};  // CRC field (offset 16)
  EXPECT_EQ(decode_failure(frame), DecodeErrorCode::BadCrc);
}

TEST(Messages, FlippedPayloadBitIsTyped) {
  std::vector<std::byte> frame = sample_frame();
  frame[kFrameHeaderBytes + 5] ^= std::byte{0x10};
  EXPECT_EQ(decode_failure(frame), DecodeErrorCode::BadCrc);
}

TEST(Messages, TruncatedFrameIsTyped) {
  const std::vector<std::byte> frame = sample_frame();
  EXPECT_EQ(decode_failure({frame.data(), frame.size() - 3}),
            DecodeErrorCode::Truncated);
  EXPECT_EQ(decode_failure({frame.data(), kFrameHeaderBytes - 1}),
            DecodeErrorCode::Truncated);
}

// ---- CRC-32: the sliced loop must keep the bytewise loop's values --------------

/// Bit-at-a-time reflected CRC-32: the definition, kept here as the oracle.
std::uint32_t reference_crc32(std::span<const std::byte> data) {
  std::uint32_t crc = 0xffffffffu;
  for (const std::byte b : data) {
    crc ^= std::to_integer<std::uint32_t>(b);
    for (int bit = 0; bit < 8; ++bit) crc = (crc >> 1) ^ ((crc & 1u) ? 0xedb88320u : 0u);
  }
  return crc ^ 0xffffffffu;
}

std::vector<std::byte> pseudo_random_bytes(std::size_t count, std::uint64_t seed) {
  std::vector<std::byte> bytes(count);
  for (std::byte& b : bytes) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    b = static_cast<std::byte>(seed >> 56);
  }
  return bytes;
}

TEST(Crc32, KnownAnswer) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(std::as_bytes(std::span{check.data(), check.size()})), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc32, SlicedMatchesBytewiseAtEveryShortLengthAndOffset) {
  const std::vector<std::byte> bytes = pseudo_random_bytes(16 + 64, 7);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t length = 0; length <= 64; ++length) {
      const std::span<const std::byte> window{bytes.data() + offset, length};
      ASSERT_EQ(crc32(window), reference_crc32(window))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32, SlicedMatchesBytewiseOnABroadcastSizedBuffer) {
  // 6.6 MB: the fp32 ψ0 of the paper CNN (d ≈ 1.66M), the frame the socket
  // round CRCs on both ends every round.
  const std::vector<std::byte> bytes = pseudo_random_bytes(6'630'000 + 3, 11);
  EXPECT_EQ(crc32(bytes), reference_crc32(bytes));
}

// ---- One-buffer frame encoders: byte-identical to payload + encode_frame -------

TEST(Messages, RoundRequestFrameEqualsFramedPayload) {
  RoundRequest request;
  request.round = 9;
  request.want_decoder = true;
  request.psi_codec = util::WireCodec::Q8;
  request.psi_chunk = 64;
  request.trace_id = 0x1234;
  request.global_parameters = {0.25f, -1.0f, 3.0f, 8.5f, -0.125f};
  EXPECT_EQ(encode_round_request_frame(request),
            encode_frame({MessageType::RoundRequest, encode_round_request(request)}));
}

TEST(Messages, RoundRequestDecodeIntoReusesTheVector) {
  RoundRequest request;
  request.round = 2;
  request.global_parameters.assign(1000, 0.5f);
  RoundRequest decoded;
  decode_round_request_into(encode_round_request(request), decoded);
  const float* storage = decoded.global_parameters.data();
  request.round = 3;
  request.global_parameters.assign(1000, -0.5f);
  decode_round_request_into(encode_round_request(request), decoded);
  EXPECT_EQ(decoded.round, 3u);
  EXPECT_EQ(decoded.global_parameters, request.global_parameters);
  EXPECT_EQ(decoded.global_parameters.data(), storage) << "ψ0 was reallocated";
}

TEST(Messages, RoundRequestWithInflatedCountIsTruncated) {
  RoundRequest request;
  request.global_parameters = {1.0f, 2.0f};
  std::vector<std::byte> payload = encode_round_request(request);
  // The u64 ψ0 count sits right after the 28 bytes of scalar fields: claim
  // far more floats than the payload holds.
  util::store_trivial(payload.data() + 28, std::uint64_t{1} << 40);
  RoundRequest decoded;
  try {
    decode_round_request_into(payload, decoded);
    FAIL() << "inflated ψ0 count must not decode";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.code(), DecodeErrorCode::Truncated);
  }
}

TEST(Sockets, LoopbackSendReceive) {
  TcpListener listener{0};
  std::thread client_thread{[port = listener.port()] {
    TcpStream stream = TcpStream::connect("127.0.0.1", port);
    stream.send_message({MessageType::Hello, encode_hello(5)});
    const Message echo = stream.receive_message();
    EXPECT_EQ(echo.type, MessageType::Shutdown);
  }};
  TcpStream server_side = listener.accept();
  const Message hello = server_side.receive_message();
  EXPECT_EQ(hello.type, MessageType::Hello);
  EXPECT_EQ(decode_hello(hello.payload), 5);
  server_side.send_message({MessageType::Shutdown, {}});
  client_thread.join();
}

TEST(Sockets, ConnectToClosedPortFails) {
  // Bind then immediately free a port so nothing is listening.
  std::uint16_t dead_port;
  {
    TcpListener listener{0};
    dead_port = listener.port();
  }
  EXPECT_THROW((void)TcpStream::connect("127.0.0.1", dead_port), std::runtime_error);
}

TEST(Sockets, ReceiveDeadlineRaisesSocketTimeout) {
  TcpListener listener{0};
  TcpStream client = TcpStream::connect("127.0.0.1", listener.port());
  TcpStream server_side = listener.accept();
  server_side.set_receive_timeout(std::chrono::milliseconds{50});
  EXPECT_THROW((void)server_side.receive_message(), SocketTimeout);
  (void)client;
}

TEST(Sockets, PeerClosingMidPayloadIsTruncatedFrame) {
  TcpListener listener{0};
  std::thread client_thread{[port = listener.port()] {
    TcpStream stream = TcpStream::connect("127.0.0.1", port);
    const std::vector<std::byte> frame =
        encode_frame({MessageType::Hello, encode_hello(7)});
    stream.send_all({frame.data(), frame.size() - 2});  // full header, short payload
  }};  // stream closes here, mid-frame
  TcpStream server_side = listener.accept();
  server_side.set_receive_timeout(std::chrono::milliseconds{2000});
  try {
    (void)server_side.receive_message();
    FAIL() << "truncated frame must not decode";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.code(), DecodeErrorCode::Truncated);
  }
  client_thread.join();
}

TEST(Sockets, CorruptBytesOnWireAreTypedErrors) {
  TcpListener listener{0};
  std::thread client_thread{[port = listener.port()] {
    TcpStream stream = TcpStream::connect("127.0.0.1", port);
    std::vector<std::byte> frame = encode_frame({MessageType::Hello, encode_hello(7)});
    frame[kFrameHeaderBytes] ^= std::byte{0x01};  // payload bit flip
    stream.send_all(frame);
    const Message ack = stream.receive_message();  // connection must survive
    EXPECT_EQ(ack.type, MessageType::Shutdown);
  }};
  TcpStream server_side = listener.accept();
  server_side.set_receive_timeout(std::chrono::milliseconds{2000});
  try {
    (void)server_side.receive_message();
    FAIL() << "corrupt frame must not decode";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.code(), DecodeErrorCode::BadCrc);
  }
  // A CRC failure leaves the stream framed: the link is still usable.
  server_side.send_message({MessageType::Shutdown, {}});
  client_thread.join();
}

// ---- Full distributed federations over loopback --------------------------------
// Single-tier socket federations: a HierarchicalServer with one shard.

struct RemoteFixture : ::testing::Test {
  static void SetUpTestSuite() { util::set_log_level(util::LogLevel::Warn); }

  void SetUp() override {
    geometry = models::ImageGeometry{1, 28, 28, 10};
    train = data::generate_synthetic_mnist(400, 601);
    test = data::generate_synthetic_mnist(120, 602);
    partition = data::iid_partition(train.size(), 4, 603);
  }

  fl::ClientConfig client_config(bool with_cvae) const {
    fl::ClientConfig config;
    config.local_epochs = 1;
    config.batch_size = 16;
    config.train_cvae = with_cvae;
    config.cvae_epochs = 10;
    config.cvae_batch_size = 8;
    config.cvae_learning_rate = 3e-3f;
    return config;
  }

  models::CvaeSpec cvae_spec() const {
    models::CvaeSpec spec;
    spec.hidden = 48;
    spec.latent = 2;
    return spec;
  }

  static HierarchicalServer::StrategyFactory fedavg() {
    return [] { return std::make_unique<defenses::FedAvgAggregator>(); };
  }

  models::ImageGeometry geometry;
  data::Dataset train;
  data::Dataset test;
  data::Partition partition;
};

TEST_F(RemoteFixture, FedAvgFederationOverTcp) {
  HierarchicalServerConfig config;
  config.expected_clients = 4;
  config.clients_per_round = 4;
  config.rounds = 4;
  config.seed = 604;
  HierarchicalServer server{config, fedavg(), test, models::ClassifierArch::Mlp, geometry};
  const std::uint16_t port = server.shard_port(0);

  std::vector<std::unique_ptr<fl::Client>> clients;
  std::vector<std::thread> threads;
  std::vector<std::size_t> rounds_served(4, 0);
  // Build every client before spawning any thread: a later push_back can
  // reallocate `clients` while an earlier thread dereferences clients[i].
  for (std::size_t i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<fl::Client>(
        static_cast<int>(i), train, partition[i], client_config(false),
        models::ClassifierArch::Mlp, geometry, cvae_spec(), 605 + i));
  }
  for (std::size_t i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      rounds_served[i] = run_remote_client("127.0.0.1", port, *clients[i]);
    });
  }
  const fl::RunHistory history = server.run();
  for (auto& thread : threads) thread.join();

  ASSERT_EQ(history.rounds.size(), 4u);
  EXPECT_GT(history.rounds.back().test_accuracy, 0.5)
      << "distributed FedAvg should train the model";
  EXPECT_GT(history.rounds.back().server_download_bytes, 0u);
  std::size_t total_served = 0;
  for (const std::size_t n : rounds_served) total_served += n;
  EXPECT_EQ(total_served, 4u * 4u);  // every client sampled every round (m = N)
}

TEST_F(RemoteFixture, FedGuardRejectsMaliciousClientOverTcp) {
  defenses::FedGuardConfig fg;
  fg.cvae_spec = cvae_spec();
  fg.total_samples = 40;
  const auto fedguard = [&] {
    return std::make_unique<defenses::FedGuardAggregator>(fg, models::ClassifierArch::Mlp,
                                                          geometry, 606);
  };

  HierarchicalServerConfig config;
  config.expected_clients = 4;
  config.clients_per_round = 4;
  config.rounds = 3;
  config.seed = 607;
  HierarchicalServer server{config, fedguard, test, models::ClassifierArch::Mlp, geometry};
  const std::uint16_t port = server.shard_port(0);

  const attacks::SameValueAttack attack{1.0f};
  std::vector<std::unique_ptr<fl::Client>> clients;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<fl::Client>(
        static_cast<int>(i), train, partition[i], client_config(true),
        models::ClassifierArch::Mlp, geometry, cvae_spec(), 608 + i));
    if (i == 3) clients.back()->corrupt_with_model_attack(&attack);
  }
  for (std::size_t i = 0; i < 4; ++i) {
    threads.emplace_back(
        [&, i] { (void)run_remote_client("127.0.0.1", port, *clients[i]); });
  }
  const fl::RunHistory history = server.run();
  for (auto& thread : threads) thread.join();

  // The poisoned client must be rejected in (at least) the later rounds and
  // the model must still train.
  std::size_t rejected_malicious = 0;
  for (const auto& round : history.rounds) rejected_malicious += round.rejected_malicious;
  EXPECT_GE(rejected_malicious, 2u);
  EXPECT_GT(history.rounds.back().test_accuracy, 0.4);
}

TEST_F(RemoteFixture, TrafficAsymmetryForDecoderStrategies) {
  // FedGuard's TCP download traffic must exceed its upload traffic by the
  // decoder bytes (Table V's asymmetry, now measured on real sockets).
  defenses::FedGuardConfig fg;
  fg.cvae_spec = cvae_spec();
  fg.total_samples = 20;
  const auto fedguard = [&] {
    return std::make_unique<defenses::FedGuardAggregator>(fg, models::ClassifierArch::Mlp,
                                                          geometry, 609);
  };

  HierarchicalServerConfig config;
  config.expected_clients = 2;
  config.clients_per_round = 2;
  config.rounds = 1;
  config.seed = 610;
  HierarchicalServer server{config, fedguard, test, models::ClassifierArch::Mlp, geometry};
  const std::uint16_t port = server.shard_port(0);

  std::vector<std::unique_ptr<fl::Client>> clients;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < 2; ++i) {
    clients.push_back(std::make_unique<fl::Client>(
        static_cast<int>(i), train, partition[i], client_config(true),
        models::ClassifierArch::Mlp, geometry, cvae_spec(), 611 + i));
  }
  for (std::size_t i = 0; i < 2; ++i) {
    threads.emplace_back(
        [&, i] { (void)run_remote_client("127.0.0.1", port, *clients[i]); });
  }
  const fl::RunHistory history = server.run();
  for (auto& thread : threads) thread.join();
  EXPECT_GT(history.rounds[0].server_download_bytes,
            history.rounds[0].server_upload_bytes);
}

// ---- Accept-phase fault tolerance ----------------------------------------------

TEST_F(RemoteFixture, AcceptDeadlineFailsLoudlyWhenClientsAreMissing) {
  // Regression: the server used to block forever when fewer than
  // expected_clients connected. Now the accept phase has a deadline and
  // reports the shortfall.
  HierarchicalServerConfig config;
  config.expected_clients = 2;
  config.clients_per_round = 2;
  config.rounds = 1;
  config.seed = 620;
  config.accept_timeout_ms = 300;
  HierarchicalServer server{config, fedavg(), test, models::ClassifierArch::Mlp, geometry};

  const auto start = std::chrono::steady_clock::now();
  try {
    (void)server.run();
    FAIL() << "run() must fail when no clients connect";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("0 of 2"), std::string::npos) << e.what();
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds{10}) << "accept must respect its deadline";
}

TEST_F(RemoteFixture, MinClientsAllowsPartialFederation) {
  // With min_clients set, the run proceeds over whoever showed up.
  HierarchicalServerConfig config;
  config.expected_clients = 3;
  config.clients_per_round = 3;
  config.rounds = 2;
  config.seed = 621;
  config.accept_timeout_ms = 500;
  config.min_clients = 1;
  HierarchicalServer server{config, fedavg(), test, models::ClassifierArch::Mlp, geometry};
  const std::uint16_t port = server.shard_port(0);

  fl::Client client{0,        train,    partition[0], client_config(false),
                    models::ClassifierArch::Mlp, geometry, cvae_spec(), 622};
  std::thread client_thread{[&] { (void)run_remote_client("127.0.0.1", port, client); }};
  const fl::RunHistory history = server.run();
  client_thread.join();

  ASSERT_EQ(history.rounds.size(), 2u);
  for (const auto& record : history.rounds) {
    EXPECT_EQ(record.sampled_clients, 1u);  // the universe shrank to who joined
    EXPECT_EQ(record.dropouts + record.timeouts + record.corrupt_frames, 0u);
  }
}

TEST_F(RemoteFixture, ShutdownClosesLinksThatNeverSaidHello) {
  // A link the shard accepted but never registered (a rejoin still in its
  // handshake at the end of the run) must close with the federation, or its
  // peer waits for a frame forever.
  HierarchicalServerConfig config;
  config.expected_clients = 1;
  config.clients_per_round = 1;
  config.rounds = 1;
  config.seed = 623;
  HierarchicalServer server{config, fedavg(), test, models::ClassifierArch::Mlp, geometry};
  const std::uint16_t port = server.shard_port(0);
  TcpStream silent = TcpStream::connect("127.0.0.1", port);

  fl::Client client{0,        train,    partition[0], client_config(false),
                    models::ClassifierArch::Mlp, geometry, cvae_spec(), 624};
  std::thread client_thread{[&] { (void)run_remote_client("127.0.0.1", port, client); }};
  ASSERT_EQ(server.run().rounds.size(), 1u);
  client_thread.join();

  silent.set_receive_timeout(std::chrono::milliseconds{2000});
  EXPECT_THROW((void)silent.receive_message(), ConnectionClosed);
}

// ---- A shard facing a hostile peer -----------------------------------------

/// A TelemetryReport payload whose first span name declares a length that
/// wraps `offset + length` past 2^64: without a wrap-proof bound the decoder
/// would try to allocate ~2^64 bytes.
std::vector<std::byte> wrapping_telemetry_payload() {
  util::ByteWriter writer;
  writer.write_u32(1);  // sender_pid
  writer.write_u32(2);  // sender_id
  writer.write_u64(0);  // round
  writer.write_u64(0);  // trace_id
  writer.write_u64(1);  // one span event
  writer.write_u64(0);  // rel_ts_ns
  writer.write_u64(0);  // trace_id
  writer.write_u64(0);  // round
  writer.write_u32(0);  // tid
  writer.write_u32(static_cast<std::uint32_t>('B'));
  const std::size_t offset = writer.size() + sizeof(std::uint64_t);  // after the length
  writer.write_u64(0 - static_cast<std::uint64_t>(offset));           // name length
  return writer.release();
}

TEST(Messages, TelemetryReportWithAWrappingLengthIsTruncated) {
  try {
    (void)decode_telemetry_report(wrapping_telemetry_payload());
    FAIL() << "a wrapping span-name length decoded";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.code(), DecodeErrorCode::Truncated);
  }
}

/// A TelemetryReport payload that declares `events` span events followed by
/// `event_bytes` zero bytes, then `deltas` counter deltas followed by
/// `delta_bytes` zero bytes. Zero bytes are minimal records: 48 for an event
/// (empty strings), 16 for a delta.
std::vector<std::byte> telemetry_payload(std::uint64_t events, std::size_t event_bytes,
                                         std::uint64_t deltas, std::size_t delta_bytes) {
  util::ByteWriter writer;
  writer.write_u32(1);  // sender_pid
  writer.write_u32(2);  // sender_id
  writer.write_u64(0);  // round
  writer.write_u64(0);  // trace_id
  writer.write_u64(events);
  writer.write_raw(std::vector<std::byte>(event_bytes));
  writer.write_u64(deltas);
  writer.write_raw(std::vector<std::byte>(delta_bytes));
  return writer.release();
}

TEST(Messages, TelemetryCountsAreBoundedByTheirMinimumRecordSize) {
  // 100 minimal events and 10 minimal deltas decode.
  const TelemetryFrame report = decode_telemetry_report(telemetry_payload(100, 4800, 10, 160));
  EXPECT_EQ(report.events.size(), 100u);
  EXPECT_EQ(report.counter_deltas.size(), 10u);
  // A count the bytes left cannot hold at the minimum record size is refused
  // by the count check, before anything is reserved for it, even when it
  // fits the payload's byte count (the old bound, which reserved 96 bytes of
  // events per payload byte).
  for (const auto& payload : {telemetry_payload(200, 4800, 0, 0),
                              telemetry_payload(0, 0, 400, 4800)}) {
    ASSERT_LE(200u, payload.size());
    try {
      (void)decode_telemetry_report(payload);
      ADD_FAILURE() << "an oversized count decoded";
    } catch (const DecodeError& e) {
      EXPECT_EQ(e.code(), DecodeErrorCode::Truncated);
      EXPECT_NE(std::string{e.what()}.find("count exceeds payload"), std::string::npos)
          << e.what();
    }
  }
}

std::unique_ptr<ShardAggregator> fedavg_shard() {
  ShardConfig config;
  config.round_timeout = std::chrono::milliseconds{10000};
  return std::make_unique<ShardAggregator>(config,
                                           std::make_unique<defenses::FedAvgAggregator>());
}

TEST(ShardPeers, TelemetryWithAWrappingLengthIsACorruptFrame) {
  // Any peer that can connect may send a TelemetryReport, Hello or not; a
  // hostile one must cost a corrupt-frame count, never the shard process.
  const std::unique_ptr<ShardAggregator> shard = fedavg_shard();
  const obs::Counter corrupt =
      obs::Registry::global().counter("net_shard_corrupt_frames_total{shard=\"0\"}");
  const std::uint64_t before = corrupt.value();
  TcpStream peer = TcpStream::connect("127.0.0.1", shard->port());
  peer.send_message({MessageType::TelemetryReport, wrapping_telemetry_payload()});
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{10};
  while (corrupt.value() == before && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
  EXPECT_EQ(corrupt.value(), before + 1);
  EXPECT_TRUE(shard->alive());
  shard->shutdown();
}

/// Connects a raw peer to `shard` as client 7 and starts round 0 with a
/// one-slot cohort for it: four zero globals and a `theta_dim` θ plane. The
/// peer has read its RoundRequest on return.
TcpStream join_round_as_client_7(ShardAggregator& shard, std::size_t theta_dim) {
  TcpStream peer = TcpStream::connect("127.0.0.1", shard.port());
  peer.send_message({MessageType::Hello, encode_hello(7)});
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{10};
  while (!shard.registered(7) && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
  EXPECT_TRUE(shard.registered(7));

  RoundRequest request;
  request.want_decoder = theta_dim > 0;
  request.global_parameters = {0.0f, 0.0f, 0.0f, 0.0f};
  ShardAggregator::RoundCommand command;
  command.cohort = {7};
  command.request_frame =
      std::make_shared<const std::vector<std::byte>>(encode_round_request_frame(request));
  command.global_parameters =
      std::make_shared<const std::vector<float>>(request.global_parameters);
  command.theta_dim = theta_dim;
  shard.start_round(std::move(command));

  peer.set_receive_timeout(std::chrono::milliseconds{10000});
  EXPECT_EQ(peer.receive_message().type, MessageType::RoundRequest);
  return peer;
}

TEST(ShardPeers, ReplyIsFiledUnderTheHelloId) {
  // A peer that said Hello as client 7 and names client 3 in its reply
  // answers for 7: the id a payload carries is not trusted.
  const std::unique_ptr<ShardAggregator> shard = fedavg_shard();
  TcpStream peer = join_round_as_client_7(*shard, 0);
  const std::vector<float> psi{1.0f, 2.0f, 3.0f, 4.0f};
  RoundReply reply;
  reply.meta.client_id = 3;
  reply.meta.num_samples = 10;
  reply.psi = psi;
  peer.send_message({MessageType::RoundReply, encode_round_reply(reply)});

  ShardAggregator::RoundResult result;
  ASSERT_TRUE(shard->wait_result(std::chrono::steady_clock::now() + std::chrono::seconds{10},
                                 0, result));
  EXPECT_EQ(result.partial.accepted_clients, (std::vector<int>{7}));
  EXPECT_TRUE(result.failures.empty());
  shard->shutdown();
}

TEST(ShardPeers, ShortThetaIsACorruptReply) {
  // A FedGuard reply whose θ is one float short of the decoder fails its
  // slot at decode. It must never reach the strategy, whose own dimension
  // check would throw on the shard's reactor thread and end the process.
  defenses::FedGuardConfig fedguard;
  fedguard.cvae_spec.hidden = 16;
  fedguard.cvae_spec.latent = 2;
  auto strategy = std::make_unique<defenses::FedGuardAggregator>(
      fedguard, models::ClassifierArch::Mlp, models::ImageGeometry{}, 1);
  const std::size_t theta_dim = strategy->decoder_parameter_count();
  ShardConfig config;
  config.round_timeout = std::chrono::milliseconds{10000};
  ShardAggregator shard{config, std::move(strategy)};
  const obs::Counter corrupt =
      obs::Registry::global().counter("net_shard_corrupt_frames_total{shard=\"0\"}");
  const std::uint64_t before = corrupt.value();
  TcpStream peer = join_round_as_client_7(shard, theta_dim);

  const std::vector<float> psi{1.0f, 2.0f, 3.0f, 4.0f};
  const std::vector<float> theta(theta_dim - 1, 0.0f);
  RoundReply reply;
  reply.meta.client_id = 7;
  reply.meta.num_samples = 10;
  reply.psi = psi;
  reply.theta = theta;
  peer.send_message({MessageType::RoundReply, encode_round_reply(reply)});

  ShardAggregator::RoundResult result;
  ASSERT_TRUE(shard.wait_result(std::chrono::steady_clock::now() + std::chrono::seconds{10},
                                0, result));
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures.front().client, 7u);
  EXPECT_EQ(result.failures.front().kind, fl::FailureKind::Corrupt);
  EXPECT_EQ(result.partial.client_count, 0u);
  EXPECT_EQ(corrupt.value(), before + 1);
  EXPECT_TRUE(shard.alive());
  shard.shutdown();
}

}  // namespace
}  // namespace fedguard::net
