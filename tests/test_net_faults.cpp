// Seeded fault-injection (chaos) tests for the socket federation (a
// single-tier HierarchicalServer, S = 1): every fault kind x strategy
// combination must complete all rounds, account for each injected fault
// exactly in the round records, and replay byte-identical from the same
// fault seed.

#include <gtest/gtest.h>

#include <array>
#include <thread>

#include "data/partition.hpp"
#include "data/synthetic_mnist.hpp"
#include "defenses/fedavg.hpp"
#include "defenses/fedguard.hpp"
#include "defenses/krum.hpp"
#include "fl/fault_plan.hpp"
#include "net/remote.hpp"
#include "net/shard.hpp"
#include "obs/metrics.hpp"
#include "util/logging.hpp"

namespace fedguard::net {
namespace {

using fl::FaultInjector;
using fl::FaultKind;
using fl::FaultPlan;
using fl::kFaultKindCount;

enum class Strategy { FedAvg, Krum, FedGuard };

const char* to_label(Strategy strategy) {
  switch (strategy) {
    case Strategy::FedAvg: return "fedavg";
    case Strategy::Krum: return "krum";
    case Strategy::FedGuard: return "fedguard";
  }
  return "?";
}

struct ChaosResult {
  fl::RunHistory history;
  std::vector<float> final_parameters;
  std::array<std::size_t, kFaultKindCount> injected{};
};

struct ChaosFixture : ::testing::Test {
  static constexpr std::size_t kClients = 4;

  static void SetUpTestSuite() { util::set_log_level(util::LogLevel::Error); }

  void SetUp() override {
    geometry = models::ImageGeometry{1, 28, 28, 10};
    train = data::generate_synthetic_mnist(240, 901);
    test = data::generate_synthetic_mnist(80, 902);
    partition = data::iid_partition(train.size(), kClients, 903);
  }

  fl::ClientConfig client_config(bool with_cvae) const {
    fl::ClientConfig config;
    config.local_epochs = 1;
    config.batch_size = 16;
    config.train_cvae = with_cvae;
    config.cvae_epochs = 2;
    config.cvae_batch_size = 8;
    return config;
  }

  models::CvaeSpec cvae_spec() const {
    models::CvaeSpec spec;
    spec.hidden = 16;
    spec.latent = 2;
    return spec;
  }

  std::unique_ptr<defenses::AggregationStrategy> make_strategy(Strategy kind) const {
    switch (kind) {
      case Strategy::FedAvg: return std::make_unique<defenses::FedAvgAggregator>();
      case Strategy::Krum: return std::make_unique<defenses::KrumAggregator>(0.25, 2);
      case Strategy::FedGuard: {
        defenses::FedGuardConfig fg;
        fg.cvae_spec = cvae_spec();
        fg.total_samples = 20;
        return std::make_unique<defenses::FedGuardAggregator>(
            fg, models::ClassifierArch::Mlp, geometry, 904);
      }
    }
    throw std::logic_error{"unknown strategy"};
  }

  /// One full distributed run under `plan`. Everything seeded, nothing shared
  /// between invocations: calling this twice with the same arguments must
  /// produce identical results.
  ChaosResult run_chaos(Strategy kind, const FaultPlan& plan, std::size_t rounds = 3,
                        std::size_t round_timeout_ms = 4000) const {
    const bool with_cvae = kind == Strategy::FedGuard;
    HierarchicalServerConfig config;
    config.expected_clients = kClients;
    config.clients_per_round = 3;
    config.rounds = rounds;
    config.seed = 905;
    config.round_timeout_ms = round_timeout_ms;
    config.eject_after_failures = 3;
    config.min_clients = 1;  // tolerate never-connect plans
    config.accept_timeout_ms = plan.never_connect_probability > 0.0 ? 500 : 10000;
    HierarchicalServer server{config, [&] { return make_strategy(kind); }, test,
                              models::ClassifierArch::Mlp, geometry};
    const std::uint16_t port = server.shard_port(0);

    FaultInjector injector{plan};
    std::vector<std::unique_ptr<fl::Client>> clients;
    std::vector<std::thread> threads;
    // Build every client before spawning any thread: a later push_back can
    // reallocate `clients` while an earlier thread dereferences clients[i].
    for (std::size_t i = 0; i < kClients; ++i) {
      clients.push_back(std::make_unique<fl::Client>(
          static_cast<int>(i), train, partition[i], client_config(with_cvae),
          models::ClassifierArch::Mlp, geometry, cvae_spec(), 906 + i));
    }
    for (std::size_t i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        RemoteClientOptions options;
        options.faults = &injector;
        options.reconnect_attempts = 6;  // enough for repeated truncate/disconnect
                                         // rejoins, short futile loop at run end
        options.backoff_ms = 10;
        (void)run_remote_client("127.0.0.1", port, *clients[i], options);
      });
    }
    ChaosResult result;
    result.history = server.run();
    for (auto& thread : threads) thread.join();
    const std::span<const float> parameters = server.global_parameters();
    result.final_parameters.assign(parameters.begin(), parameters.end());
    for (std::size_t k = 0; k < kFaultKindCount; ++k) {
      result.injected[k] = injector.injected(static_cast<FaultKind>(k));
    }
    return result;
  }

  models::ImageGeometry geometry;
  data::Dataset train;
  data::Dataset test;
  data::Partition partition;
};

/// Field-by-field history comparison, excluding wall-clock round_seconds.
/// Every socket round also splits its stragglers exactly into fault classes.
void expect_histories_identical(const fl::RunHistory& a, const fl::RunHistory& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    const fl::RoundRecord& x = a.rounds[r];
    const fl::RoundRecord& y = b.rounds[r];
    for (const fl::RoundRecord* record : {&x, &y}) {
      EXPECT_EQ(record->stragglers,
                record->dropouts + record->timeouts + record->corrupt_frames)
          << "round " << r;
    }
    EXPECT_EQ(x.round, y.round) << "round " << r;
    EXPECT_EQ(x.test_accuracy, y.test_accuracy) << "round " << r;
    EXPECT_EQ(x.sampled_clients, y.sampled_clients) << "round " << r;
    EXPECT_EQ(x.sampled_malicious, y.sampled_malicious) << "round " << r;
    EXPECT_EQ(x.stragglers, y.stragglers) << "round " << r;
    EXPECT_EQ(x.dropouts, y.dropouts) << "round " << r;
    EXPECT_EQ(x.timeouts, y.timeouts) << "round " << r;
    EXPECT_EQ(x.corrupt_frames, y.corrupt_frames) << "round " << r;
    EXPECT_EQ(x.ejected_clients, y.ejected_clients) << "round " << r;
    EXPECT_EQ(x.rejected_clients, y.rejected_clients) << "round " << r;
    EXPECT_EQ(x.rejected_malicious, y.rejected_malicious) << "round " << r;
    EXPECT_EQ(x.rejected_benign, y.rejected_benign) << "round " << r;
    EXPECT_EQ(x.server_upload_bytes, y.server_upload_bytes) << "round " << r;
    EXPECT_EQ(x.server_download_bytes, y.server_download_bytes) << "round " << r;
  }
}

// ---- Per-kind fault accounting (server records == injector counters) -----------

TEST_F(ChaosFixture, DropPlanIsCountedAsTimeouts) {
  FaultPlan plan;
  plan.drop_probability = 0.35;
  plan.seed = 910;
  const ChaosResult result = run_chaos(Strategy::FedAvg, plan, 3, 1500);
  ASSERT_EQ(result.history.rounds.size(), 3u);
  EXPECT_GT(result.injected[static_cast<std::size_t>(FaultKind::Drop)], 0u);
  EXPECT_EQ(result.history.total_timeouts(),
            result.injected[static_cast<std::size_t>(FaultKind::Drop)]);
  EXPECT_EQ(result.history.total_dropouts(), 0u);
  EXPECT_EQ(result.history.total_corrupt_frames(), 0u);
}

TEST_F(ChaosFixture, TruncatePlanIsCountedAsCorruptFrames) {
  FaultPlan plan;
  plan.truncate_probability = 0.4;
  plan.seed = 911;
  const ChaosResult result = run_chaos(Strategy::FedAvg, plan);
  ASSERT_EQ(result.history.rounds.size(), 3u);
  EXPECT_GT(result.injected[static_cast<std::size_t>(FaultKind::Truncate)], 0u);
  EXPECT_EQ(result.history.total_corrupt_frames(),
            result.injected[static_cast<std::size_t>(FaultKind::Truncate)]);
  EXPECT_EQ(result.history.total_timeouts(), 0u);
}

TEST_F(ChaosFixture, BitFlipPlanIsCountedAsCorruptFrames) {
  FaultPlan plan;
  plan.bit_flip_probability = 0.4;
  plan.seed = 912;
  const ChaosResult result = run_chaos(Strategy::FedAvg, plan);
  ASSERT_EQ(result.history.rounds.size(), 3u);
  EXPECT_GT(result.injected[static_cast<std::size_t>(FaultKind::BitFlip)], 0u);
  EXPECT_EQ(result.history.total_corrupt_frames(),
            result.injected[static_cast<std::size_t>(FaultKind::BitFlip)]);
  // The CRC catches the flip without desyncing the link: no disconnects.
  EXPECT_EQ(result.history.total_dropouts(), 0u);
  EXPECT_EQ(result.history.total_timeouts(), 0u);
}

TEST_F(ChaosFixture, DisconnectPlanIsCountedAsDropouts) {
  FaultPlan plan;
  plan.disconnect_probability = 0.35;
  plan.seed = 913;
  const ChaosResult result = run_chaos(Strategy::FedAvg, plan);
  ASSERT_EQ(result.history.rounds.size(), 3u);
  EXPECT_GT(result.injected[static_cast<std::size_t>(FaultKind::Disconnect)], 0u);
  EXPECT_EQ(result.history.total_dropouts(),
            result.injected[static_cast<std::size_t>(FaultKind::Disconnect)]);
  EXPECT_EQ(result.history.total_corrupt_frames(), 0u);
}

TEST_F(ChaosFixture, DelayPlanChangesNothingButTiming) {
  FaultPlan plan;
  plan.delay_probability = 0.5;
  plan.delay_ms = 50;
  plan.seed = 914;
  const ChaosResult delayed = run_chaos(Strategy::FedAvg, plan);
  ASSERT_EQ(delayed.history.rounds.size(), 3u);
  EXPECT_GT(delayed.injected[static_cast<std::size_t>(FaultKind::Delay)], 0u);
  EXPECT_EQ(delayed.history.total_timeouts() + delayed.history.total_dropouts() +
                delayed.history.total_corrupt_frames(),
            0u);
  // A delay that makes the deadline is invisible to the science: the run is
  // bit-identical to a fault-free one.
  const ChaosResult clean = run_chaos(Strategy::FedAvg, FaultPlan{});
  expect_histories_identical(delayed.history, clean.history);
  EXPECT_EQ(delayed.final_parameters, clean.final_parameters);
}

TEST_F(ChaosFixture, NeverConnectPlanShrinksTheFederation) {
  FaultPlan plan;
  plan.never_connect_probability = 0.45;
  plan.seed = 915;
  FaultInjector probe{plan};
  std::size_t absent = 0;
  for (std::size_t i = 0; i < kClients; ++i) {
    if (probe.never_connects(static_cast<int>(i))) ++absent;
  }
  ASSERT_GT(absent, 0u) << "seed must make at least one client stay away";
  ASSERT_LT(absent, kClients) << "seed must leave at least one client alive";

  const ChaosResult result = run_chaos(Strategy::FedAvg, plan);
  ASSERT_EQ(result.history.rounds.size(), 3u);
  EXPECT_EQ(result.injected[static_cast<std::size_t>(FaultKind::NeverConnect)], absent);
  for (const auto& record : result.history.rounds) {
    EXPECT_LE(record.sampled_clients, kClients - absent);
    EXPECT_EQ(record.dropouts + record.timeouts + record.corrupt_frames, 0u);
  }
}

TEST_F(ChaosFixture, CorruptReplyFailsItsSlotWithoutWaitingForTheDeadline) {
  // No client resends a reply, so a corrupt one must fail its cohort slot at
  // once on every shard instead of holding the round to its deadline.
  constexpr std::size_t kDeadlineMs = 10000;
  HierarchicalServerConfig config;
  config.shards = 2;
  config.expected_clients = kClients;
  config.clients_per_round = 3;
  config.rounds = 2;
  config.seed = 916;
  config.round_timeout_ms = kDeadlineMs;
  HierarchicalServer server{config, [] { return std::make_unique<defenses::FedAvgAggregator>(); },
                            test, models::ClassifierArch::Mlp, geometry};
  FaultPlan plan;
  plan.bit_flip_probability = 1.0;
  plan.seed = 917;
  FaultInjector injector{plan};
  std::vector<std::unique_ptr<fl::Client>> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<fl::Client>(
        static_cast<int>(i), train, partition[i], client_config(false),
        models::ClassifierArch::Mlp, geometry, cvae_spec(), 918 + i));
  }
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kClients; ++i) {
    const std::uint16_t port = server.shard_port(server.shard_of(i));
    threads.emplace_back([&, i, port] {
      RemoteClientOptions options;
      options.faults = &injector;
      (void)run_remote_client("127.0.0.1", port, *clients[i], options);
    });
  }
  const fl::RunHistory history = server.run();
  for (auto& thread : threads) thread.join();

  ASSERT_EQ(history.rounds.size(), 2u);
  for (const fl::RoundRecord& record : history.rounds) {
    EXPECT_EQ(record.corrupt_frames, record.sampled_clients) << "round " << record.round;
    EXPECT_EQ(record.stragglers, record.sampled_clients) << "round " << record.round;
    EXPECT_LT(record.round_seconds, 0.25 * kDeadlineMs / 1000.0) << "round " << record.round;
  }
}

// ---- The chaos matrix: fault kinds x strategies, each replayable from seed -----

TEST_F(ChaosFixture, ChaosMatrixCompletesAndReplaysFromSeed) {
  struct PlanSpec {
    const char* label;
    FaultPlan plan;
  };
  std::vector<PlanSpec> specs;
  {
    FaultPlan p;
    p.drop_probability = 0.3;
    p.seed = 920;
    specs.push_back({"drop", p});
  }
  {
    FaultPlan p;
    p.delay_probability = 0.4;
    p.delay_ms = 30;
    p.seed = 921;
    specs.push_back({"delay", p});
  }
  {
    FaultPlan p;
    p.truncate_probability = 0.3;
    p.seed = 922;
    specs.push_back({"truncate", p});
  }
  {
    FaultPlan p;
    p.bit_flip_probability = 0.3;
    p.seed = 923;
    specs.push_back({"bitflip", p});
  }
  {
    FaultPlan p;
    p.disconnect_probability = 0.3;
    p.seed = 924;
    specs.push_back({"disconnect", p});
  }

  for (const Strategy strategy : {Strategy::FedAvg, Strategy::Krum, Strategy::FedGuard}) {
    for (const PlanSpec& spec : specs) {
      SCOPED_TRACE(std::string{to_label(strategy)} + " x " + spec.label);
      const ChaosResult first = run_chaos(strategy, spec.plan, 2, 1500);
      const ChaosResult second = run_chaos(strategy, spec.plan, 2, 1500);
      ASSERT_EQ(first.history.rounds.size(), 2u);
      // Same seed, same faults, same records, same model.
      EXPECT_EQ(first.injected, second.injected);
      expect_histories_identical(first.history, second.history);
      EXPECT_EQ(first.final_parameters, second.final_parameters);
      // Every injected fault shows up in the round records, in the right
      // column: drops expire the deadline, truncation/bit-flips corrupt
      // frames, mid-header disconnects read as dropouts.
      EXPECT_EQ(first.history.total_timeouts(),
                first.injected[static_cast<std::size_t>(FaultKind::Drop)]);
      EXPECT_EQ(first.history.total_corrupt_frames(),
                first.injected[static_cast<std::size_t>(FaultKind::Truncate)] +
                    first.injected[static_cast<std::size_t>(FaultKind::BitFlip)]);
      EXPECT_EQ(first.history.total_dropouts(),
                first.injected[static_cast<std::size_t>(FaultKind::Disconnect)]);
    }
  }
}

// ---- Acceptance scenario: 25% dropout, all rounds complete ---------------------

TEST_F(ChaosFixture, QuarterDropoutRunCompletesAllRounds) {
  FaultPlan plan;
  plan.drop_probability = 0.25;
  plan.seed = 930;
  const ChaosResult result = run_chaos(Strategy::FedAvg, plan, 4, 1500);

  ASSERT_EQ(result.history.rounds.size(), 4u) << "dropouts must not abort the run";
  const std::size_t drops = result.injected[static_cast<std::size_t>(FaultKind::Drop)];
  ASSERT_GT(drops, 0u);
  EXPECT_EQ(result.history.total_timeouts(), drops);
  for (const auto& record : result.history.rounds) {
    // Aggregation ran over whoever responded; accuracy stays a valid number.
    EXPECT_GE(record.test_accuracy, 0.0);
    EXPECT_LE(record.test_accuracy, 1.0);
    EXPECT_LE(record.timeouts, record.sampled_clients);
  }
  // Replaying the seed reproduces the counts and the final model exactly.
  const ChaosResult replay = run_chaos(Strategy::FedAvg, plan, 4, 1500);
  EXPECT_EQ(replay.injected, result.injected);
  expect_histories_identical(result.history, replay.history);
  EXPECT_EQ(replay.final_parameters, result.final_parameters);
}

// ---- Ejection policy -----------------------------------------------------------

TEST_F(ChaosFixture, ClientFailingEveryRoundIsEjected) {
  // A plan that makes every (client, round) drop would stall all clients, so
  // drive the server directly: one client connects and then never answers.
  HierarchicalServerConfig config;
  config.expected_clients = 1;
  config.clients_per_round = 1;
  config.rounds = 4;
  config.seed = 940;
  config.round_timeout_ms = 200;
  config.readmit_timeout_ms = 100;
  config.eject_after_failures = 2;
  HierarchicalServer server{config, [] { return std::make_unique<defenses::FedAvgAggregator>(); },
                            test, models::ClassifierArch::Mlp, geometry};
  const std::uint16_t port = server.shard_port(0);

  std::thread silent_client{[port] {
    TcpStream stream = TcpStream::connect("127.0.0.1", port);
    stream.send_message({MessageType::Hello, encode_hello(0)});
    // Swallow requests without ever answering until the server gives up on us.
    try {
      for (;;) (void)stream.receive_message();
    } catch (const std::exception&) {
    }
  }};
  const fl::RunHistory history = server.run();
  silent_client.join();

  ASSERT_EQ(history.rounds.size(), 4u);
  EXPECT_EQ(history.total_ejected(), 1u);
  EXPECT_EQ(history.rounds[0].timeouts, 1u);
  EXPECT_EQ(history.rounds[1].timeouts, 1u);
  EXPECT_EQ(history.rounds[1].ejected_clients, 1u);
  // Once ejected the client is out of the sampling universe: later rounds
  // run over an empty federation and keep the model unchanged.
  EXPECT_EQ(history.rounds[2].sampled_clients, 0u);
  EXPECT_EQ(history.rounds[3].sampled_clients, 0u);
  EXPECT_EQ(history.rounds[2].test_accuracy, history.rounds[3].test_accuracy);
}

// ---- Registry as the single source of truth -----------------------------------

// RoundRecord's fault and traffic fields are per-round deltas of the obs
// registry counters (fl_dropouts_total etc.), so summing the records must
// reproduce the counter deltas exactly — under a seeded chaos matrix that
// exercises dropouts, timeouts, and corrupt frames at once.
TEST_F(ChaosFixture, HistoryFaultTotalsMatchRegistryCounterDeltas) {
  FaultPlan plan;
  plan.drop_probability = 0.2;
  plan.truncate_probability = 0.15;
  plan.bit_flip_probability = 0.15;
  plan.disconnect_probability = 0.1;
  plan.seed = 950;

  obs::Registry& registry = obs::Registry::global();
  const std::uint64_t rounds0 = registry.counter_value("fl_rounds_total");
  const std::uint64_t upload0 = registry.counter_value("fl_upload_bytes_total");
  const std::uint64_t download0 = registry.counter_value("fl_download_bytes_total");
  const std::uint64_t dropouts0 = registry.counter_value("fl_dropouts_total");
  const std::uint64_t timeouts0 = registry.counter_value("fl_timeouts_total");
  const std::uint64_t corrupt0 = registry.counter_value("fl_corrupt_frames_total");
  const std::uint64_t ejected0 = registry.counter_value("fl_ejected_clients_total");

  const ChaosResult result = run_chaos(Strategy::FedAvg, plan, 3, 1500);
  ASSERT_EQ(result.history.rounds.size(), 3u);

  EXPECT_EQ(registry.counter_value("fl_rounds_total") - rounds0, 3u);
  EXPECT_EQ(registry.counter_value("fl_dropouts_total") - dropouts0,
            result.history.total_dropouts());
  EXPECT_EQ(registry.counter_value("fl_timeouts_total") - timeouts0,
            result.history.total_timeouts());
  EXPECT_EQ(registry.counter_value("fl_corrupt_frames_total") - corrupt0,
            result.history.total_corrupt_frames());
  EXPECT_EQ(registry.counter_value("fl_ejected_clients_total") - ejected0,
            result.history.total_ejected());

  std::size_t upload = 0;
  std::size_t download = 0;
  std::size_t faults = 0;
  for (const auto& record : result.history.rounds) {
    upload += record.server_upload_bytes;
    download += record.server_download_bytes;
    faults += record.dropouts + record.timeouts + record.corrupt_frames;
  }
  EXPECT_EQ(registry.counter_value("fl_upload_bytes_total") - upload0, upload);
  EXPECT_EQ(registry.counter_value("fl_download_bytes_total") - download0, download);
  ASSERT_GT(faults, 0u) << "the chaos plan must actually inject something";
}

}  // namespace
}  // namespace fedguard::net
