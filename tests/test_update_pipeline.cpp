// Golden parity pin for the zero-copy update pipeline: the full round loop
// (in-process fl::Server and TCP net::HierarchicalServer with one shard,
// faults disabled) must
// reproduce these run histories bit-for-bit — accuracies (exact double bits),
// sampling/rejection counts, traffic bytes, and a hash of the final global
// parameter vector. The goldens were captured from the pipeline before the
// update arena (owned per-client update vectors, per-strategy
// re-concatenation) and still hold now that arena rows are the only form an
// upload takes, so any refactor of the update path that changes a single RNG
// draw or float summation order fails here.
//
// The pinned digests are exact only for the canonical build (Release, no
// sanitizers), for any FEDGUARD_MARCH: sanitizer instrumentation and -O0
// change float codegen (contraction, vectorization), which shifts low
// mantissa bits during training. Non-canonical builds skip the pins but still enforce the
// build-independent invariant — the in-process and remote pipelines agree
// bit-for-bit with each other (everything except the traffic columns, which
// legitimately differ by frame headers).
//
// Regenerate (only when a change is *supposed* to alter the science):
//   FEDGUARD_GOLDEN_PRINT=1 ./test_update_pipeline

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "data/partition.hpp"
#include "data/synthetic_mnist.hpp"
#include "defenses/fedavg.hpp"
#include "defenses/fedguard.hpp"
#include "defenses/geomed.hpp"
#include "defenses/krum.hpp"
#include "defenses/spectral.hpp"
#include "fl/server.hpp"
#include "net/remote.hpp"
#include "net/shard.hpp"
#include "tensor/kernels/kernel_arch.hpp"
#include "util/logging.hpp"

namespace fedguard {
namespace {

constexpr std::size_t kClients = 4;
constexpr std::size_t kClientsPerRound = 3;  // < N: exercises the sampling path
constexpr std::size_t kRounds = 3;

#if defined(NDEBUG) && !defined(FEDGUARD_SANITIZE_ACTIVE)
constexpr bool kCanonicalBuild = true;  // matches the build the pins came from
#else
constexpr bool kCanonicalBuild = false;
#endif

std::string hex64(std::uint64_t bits) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(bits));
  return buf;
}

std::string double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return hex64(bits);
}

// FNV-1a over the raw float bits: one flipped mantissa bit anywhere in the
// final global parameter vector changes the digest.
std::uint64_t param_digest(std::span<const float> params) {
  std::uint64_t h = 1469598103934665603ull;
  for (const float f : params) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &f, sizeof bits);
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

// Drop the per-round traffic columns (the only legitimate local/remote
// difference: the socket path charges real frame sizes, headers included).
std::string strip_traffic(const std::string& serialized) {
  std::string out;
  std::istringstream stream{serialized};
  std::string line;
  while (std::getline(stream, line)) {
    out += line.substr(0, line.find(" up="));
    out += '\n';
  }
  return out;
}

// First round's server download bytes out of a serialize() string (the ψ
// upload direction in paper terms; the codec-sensitive column).
std::uint64_t first_down_bytes(const std::string& serialized) {
  const std::size_t at = serialized.find(" down=");
  if (at == std::string::npos) return 0;
  return std::strtoull(serialized.c_str() + at + 6, nullptr, 10);
}

std::string serialize(const fl::RunHistory& history, std::span<const float> params) {
  std::string out;
  for (const auto& r : history.rounds) {
    out += "r" + std::to_string(r.round) + " acc=" + double_bits(r.test_accuracy) +
           " sampled=" + std::to_string(r.sampled_clients) +
           " mal=" + std::to_string(r.sampled_malicious) +
           " rej=" + std::to_string(r.rejected_clients) +
           " rejmal=" + std::to_string(r.rejected_malicious) +
           " rejben=" + std::to_string(r.rejected_benign) +
           " up=" + std::to_string(r.server_upload_bytes) +
           " down=" + std::to_string(r.server_download_bytes) + "\n";
  }
  out += "params=" + hex64(param_digest(params)) + "\n";
  return out;
}

// ---- Goldens (pre-refactor pipeline, Release, synthetic data) -----------------

const std::map<std::string, std::string>& golden_local() {
  static const std::map<std::string, std::string> goldens = {
      {"fedavg",
       "r0 acc=3fd0a3d70a3d70a4 sampled=3 mal=0 rej=0 rejmal=0 rejben=0 up=1221264 down=1221264\n"
       "r1 acc=3fe199999999999a sampled=3 mal=0 rej=0 rejmal=0 rejben=0 up=1221264 down=1221264\n"
       "r2 acc=3fe2e147ae147ae1 sampled=3 mal=0 rej=0 rejmal=0 rejben=0 up=1221264 down=1221264\n"
       "params=b405e49565a40bbb\n"},
      {"geomed",
       "r0 acc=3fd1eb851eb851ec sampled=3 mal=0 rej=0 rejmal=0 rejben=0 up=1221264 down=1221264\n"
       "r1 acc=3fe0a3d70a3d70a4 sampled=3 mal=0 rej=0 rejmal=0 rejben=0 up=1221264 down=1221264\n"
       "r2 acc=3fe3333333333333 sampled=3 mal=0 rej=0 rejmal=0 rejben=0 up=1221264 down=1221264\n"
       "params=27a70299719ecf00\n"},
      {"krum",
       "r0 acc=3fd7ae147ae147ae sampled=3 mal=0 rej=2 rejmal=0 rejben=2 up=1221264 down=1221264\n"
       "r1 acc=3fdae147ae147ae1 sampled=3 mal=0 rej=2 rejmal=0 rejben=2 up=1221264 down=1221264\n"
       "r2 acc=3fe0a3d70a3d70a4 sampled=3 mal=0 rej=2 rejmal=0 rejben=2 up=1221264 down=1221264\n"
       "params=e39449391e8bef09\n"},
      {"spectral",
       "r0 acc=3fdb851eb851eb85 sampled=3 mal=0 rej=1 rejmal=0 rejben=1 up=1221264 down=1221264\n"
       "r1 acc=3fe1eb851eb851ec sampled=3 mal=0 rej=1 rejmal=0 rejben=1 up=1221264 down=1221264\n"
       "r2 acc=3fdeb851eb851eb8 sampled=3 mal=0 rej=2 rejmal=0 rejben=2 up=1221264 down=1221264\n"
       "params=20273794b167e80e\n"},
      {"fedguard",
       "r0 acc=3fd3333333333333 sampled=3 mal=0 rej=1 rejmal=0 rejben=1 up=1221264 down=1695648\n"
       "r1 acc=3fdd70a3d70a3d71 sampled=3 mal=0 rej=1 rejmal=0 rejben=1 up=1221264 down=1695648\n"
       "r2 acc=3fe147ae147ae148 sampled=3 mal=0 rej=2 rejmal=0 rejben=2 up=1221264 down=1695648\n"
       "params=2f613987e00b6182\n"},
  };
  return goldens;
}

const std::map<std::string, std::string>& golden_remote() {
  // Accuracy bits and param digests are identical to the local goldens (the
  // socket layer must not change the science); only the traffic columns
  // differ — the remote path charges exact frame sizes, headers included
  // (the trace id adds 8 bytes each way).
  static const std::map<std::string, std::string> goldens = {
      {"fedavg",
       "r0 acc=3fd0a3d70a3d70a4 sampled=3 mal=0 rej=0 rejmal=0 rejben=0 up=1221408 down=1221456\n"
       "r1 acc=3fe199999999999a sampled=3 mal=0 rej=0 rejmal=0 rejben=0 up=1221408 down=1221456\n"
       "r2 acc=3fe2e147ae147ae1 sampled=3 mal=0 rej=0 rejmal=0 rejben=0 up=1221408 down=1221456\n"
       "params=b405e49565a40bbb\n"},
      {"geomed",
       "r0 acc=3fd1eb851eb851ec sampled=3 mal=0 rej=0 rejmal=0 rejben=0 up=1221408 down=1221456\n"
       "r1 acc=3fe0a3d70a3d70a4 sampled=3 mal=0 rej=0 rejmal=0 rejben=0 up=1221408 down=1221456\n"
       "r2 acc=3fe3333333333333 sampled=3 mal=0 rej=0 rejmal=0 rejben=0 up=1221408 down=1221456\n"
       "params=27a70299719ecf00\n"},
      {"krum",
       "r0 acc=3fd7ae147ae147ae sampled=3 mal=0 rej=2 rejmal=0 rejben=2 up=1221408 down=1221456\n"
       "r1 acc=3fdae147ae147ae1 sampled=3 mal=0 rej=2 rejmal=0 rejben=2 up=1221408 down=1221456\n"
       "r2 acc=3fe0a3d70a3d70a4 sampled=3 mal=0 rej=2 rejmal=0 rejben=2 up=1221408 down=1221456\n"
       "params=e39449391e8bef09\n"},
      {"spectral",
       "r0 acc=3fdb851eb851eb85 sampled=3 mal=0 rej=1 rejmal=0 rejben=1 up=1221408 down=1221456\n"
       "r1 acc=3fe1eb851eb851ec sampled=3 mal=0 rej=1 rejmal=0 rejben=1 up=1221408 down=1221456\n"
       "r2 acc=3fdeb851eb851eb8 sampled=3 mal=0 rej=2 rejmal=0 rejben=2 up=1221408 down=1221456\n"
       "params=20273794b167e80e\n"},
      {"fedguard",
       "r0 acc=3fd3333333333333 sampled=3 mal=0 rej=1 rejmal=0 rejben=1 up=1221408 down=1695816\n"
       "r1 acc=3fdd70a3d70a3d71 sampled=3 mal=0 rej=1 rejmal=0 rejben=1 up=1221408 down=1695816\n"
       "r2 acc=3fe147ae147ae148 sampled=3 mal=0 rej=2 rejmal=0 rejben=2 up=1221408 down=1695816\n"
       "params=2f613987e00b6182\n"},
  };
  return goldens;
}

struct PipelineGoldenTest : ::testing::Test {
  static void SetUpTestSuite() {
    util::set_log_level(util::LogLevel::Warn);
    // The pinned digests come from the serial kernel tier (the determinism
    // oracle). Pin it unless the caller forces a tier explicitly (the
    // run_tier1_tests.sh --kernel-arch matrix leg does); under a SIMD tier
    // the pins are skipped in check() and only local/remote parity holds.
    if (std::getenv("FEDGUARD_KERNEL_ARCH") == nullptr) {
      tensor::kernels::set_kernel_arch(tensor::kernels::KernelArch::Serial);
    }
  }

  void SetUp() override {
    geometry = models::ImageGeometry{1, 28, 28, 10};
    train = data::generate_synthetic_mnist(320, 901);
    test = data::generate_synthetic_mnist(100, 902);
    partition = data::iid_partition(train.size(), kClients, 903);
    auxiliary = data::generate_synthetic_mnist(200, 904);
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

  std::unique_ptr<defenses::AggregationStrategy> make_strategy(const std::string& name) const {
    if (name == "fedavg") return std::make_unique<defenses::FedAvgAggregator>();
    if (name == "geomed") return std::make_unique<defenses::GeoMedAggregator>();
    if (name == "krum") return std::make_unique<defenses::KrumAggregator>();
    if (name == "spectral") {
      defenses::SpectralConfig config;
      config.surrogate_dim = 512;
      config.pretrain_rounds = 3;
      config.pretrain_clients = 5;
      config.vae_epochs = 40;
      return std::make_unique<defenses::SpectralAggregator>(
          config, models::ClassifierArch::Mlp, geometry, auxiliary, 921);
    }
    if (name == "fedguard") {
      defenses::FedGuardConfig config;
      config.cvae_spec = cvae_spec();
      config.total_samples = 20;
      return std::make_unique<defenses::FedGuardAggregator>(
          config, models::ClassifierArch::Mlp, geometry, 920);
    }
    ADD_FAILURE() << "unknown strategy " << name;
    return nullptr;
  }

  std::vector<std::unique_ptr<fl::Client>> make_clients(bool with_cvae) const {
    std::vector<std::unique_ptr<fl::Client>> clients;
    for (std::size_t i = 0; i < kClients; ++i) {
      clients.push_back(std::make_unique<fl::Client>(
          static_cast<int>(i), train, partition[i], client_config(with_cvae),
          models::ClassifierArch::Mlp, geometry, cvae_spec(), 940 + i));
    }
    return clients;
  }

  std::string run_local(const std::string& name,
                        util::WireCodec codec = util::WireCodec::Fp32) const {
    auto strategy = make_strategy(name);
    auto clients = make_clients(strategy->wants_decoders());
    fl::ServerConfig config;
    config.clients_per_round = kClientsPerRound;
    config.rounds = kRounds;
    config.seed = 930;
    config.psi_codec = codec;
    fl::Server server{config, clients, *strategy, test, models::ClassifierArch::Mlp,
                      geometry};
    const fl::RunHistory history = server.run();
    return serialize(history, server.global_parameters());
  }

  std::string run_remote(const std::string& name,
                         util::WireCodec codec = util::WireCodec::Fp32) const {
    auto clients = make_clients(make_strategy(name)->wants_decoders());
    net::HierarchicalServerConfig config;
    config.expected_clients = kClients;
    config.clients_per_round = kClientsPerRound;
    config.rounds = kRounds;
    config.seed = 930;
    config.psi_codec = codec;
    net::HierarchicalServer server{config, [&] { return make_strategy(name); }, test,
                                   models::ClassifierArch::Mlp, geometry};
    const std::uint16_t port = server.shard_port(0);
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
      threads.emplace_back(
          [&, i] { (void)net::run_remote_client("127.0.0.1", port, *clients[i]); });
    }
    const fl::RunHistory history = server.run();
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(history.total_dropouts() + history.total_timeouts() +
                  history.total_corrupt_frames(),
              0u)
        << name << ": fault-free remote run saw faults; golden invalid";
    return serialize(history, server.global_parameters());
  }

  void check(const std::string& name, const std::string& path, const std::string& actual,
             const std::map<std::string, std::string>& goldens) const {
    if (std::getenv("FEDGUARD_GOLDEN_PRINT") != nullptr) {
      std::printf("GOLDEN[%s/%s] <<<\n%s>>>\n", name.c_str(), path.c_str(),
                  actual.c_str());
      std::fflush(stdout);
      return;
    }
    if (!kCanonicalBuild) return;  // pins only hold for the pinning build's codegen
    if (tensor::kernels::active_kernel_arch() != tensor::kernels::KernelArch::Serial) {
      return;  // SIMD tiers reorder distance reductions; only parity is pinned
    }
    const auto it = goldens.find(name);
    ASSERT_NE(it, goldens.end()) << name;
    EXPECT_EQ(actual, it->second) << name << "/" << path
                                  << ": run history diverged from the pinned pipeline";
  }

  models::ImageGeometry geometry;
  data::Dataset train;
  data::Dataset test;
  data::Dataset auxiliary;
  data::Partition partition;
};

TEST_F(PipelineGoldenTest, InProcessHistoriesMatchGoldens) {
  for (const auto& [name, golden] : golden_local()) {
    (void)golden;
    check(name, "local", run_local(name), golden_local());
  }
}

TEST_F(PipelineGoldenTest, Q8TransportKeepsLocalRemoteParity) {
  // Under the q8 ψ codec there are no pinned goldens (quantization
  // legitimately perturbs the science), but the in-process server's simulated
  // quantization roundtrip must reproduce the socket path's encode/decode
  // bit-for-bit — so local and remote histories still agree exactly, and the
  // ψ download shrinks by the codec's ~3.9x ratio in both meters.
  for (const std::string name : {"fedavg", "krum"}) {
    const std::string local_q8 = run_local(name, util::WireCodec::Q8);
    EXPECT_EQ(strip_traffic(local_q8), strip_traffic(run_remote(name, util::WireCodec::Q8)))
        << name << ": q8 in-process and remote pipelines diverged";
    EXPECT_GE(static_cast<double>(first_down_bytes(run_local(name))) /
                  static_cast<double>(first_down_bytes(local_q8)),
              3.5)
        << name << ": q8 ψ download did not shrink >= 3.5x";
  }
}

TEST_F(PipelineGoldenTest, RemoteHistoriesMatchGoldensAndLocalParity) {
  for (const auto& [name, golden] : golden_remote()) {
    (void)golden;
    const std::string remote = run_remote(name);
    check(name, "remote", remote, golden_remote());
    // Build-independent: the socket layer must not change the science.
    EXPECT_EQ(strip_traffic(run_local(name)), strip_traffic(remote))
        << name << ": in-process and remote pipelines diverged";
  }
}

}  // namespace
}  // namespace fedguard
