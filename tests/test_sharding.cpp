// Two-tier aggregation contract tests.
//
// Exact path (FedAvg): shard partials merged at the root must reproduce the
// single-tier weighted mean bit for bit — at shards=1 by construction (the
// fold order equals the batch order), at shards>1 as a pinned golden (only
// the double-precision numerator bracketing differs, which for these fixed
// fixtures never crosses a float rounding boundary).
//
// Metadata path (Krum / FedGuard): the selector runs per cohort, so its
// f-budget and threshold apply per shard and the accept set legitimately
// diverges from the unsharded run. These tests pin that divergence (the
// robustness cost that docs/SHARDING.md quantifies) instead of pretending
// the paths are equivalent.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <thread>
#include <vector>

#include "attacks/attack.hpp"
#include "data/partition.hpp"
#include "data/synthetic_mnist.hpp"
#include "defenses/fedavg.hpp"
#include "defenses/fedguard.hpp"
#include "defenses/krum.hpp"
#include "fl/server.hpp"
#include "kernel_threads.hpp"
#include "net/remote.hpp"
#include "net/shard.hpp"
#include "strategy_path.hpp"
#include "util/logging.hpp"

namespace fedguard {
namespace {

using defenses::AggregationContext;
using defenses::AggregationResult;
using defenses::ShardPartial;
using defenses::UpdateMatrix;
using defenses::UpdateView;

/// Deterministic, sign-mixed row values (no RNG: the goldens must not depend
/// on library random streams).
void fill_row(std::span<float> psi, std::size_t row) {
  for (std::size_t i = 0; i < psi.size(); ++i) {
    const int k = static_cast<int>((row * 31 + i * 7 + 3) % 23) - 11;
    psi[i] = 0.125f * static_cast<float>(k) + 0.01f * static_cast<float>(row);
  }
}

using strategy_path::two_tier_aggregate;

/// The single-tier weighted mean over every row: the FedAvg reference.
std::vector<float> weighted_mean(const UpdateMatrix& matrix) {
  std::vector<double> accumulator;
  std::vector<float> out;
  defenses::weighted_mean_into(UpdateView{matrix}, accumulator, out);
  return out;
}

TEST(ShardedFedAvg, PartialMergeBitIdenticalAcrossShardCounts) {
  constexpr std::size_t kClients = 10;
  constexpr std::size_t kDim = 33;
  UpdateMatrix matrix;
  matrix.reset(kClients, kDim);
  for (std::size_t r = 0; r < kClients; ++r) {
    fill_row(matrix.psi(r), r);
    matrix.meta(r).client_id = static_cast<int>(r);
    matrix.meta(r).num_samples = 10 + r % 5;
  }
  std::vector<float> global(kDim, 0.0f);
  AggregationContext context;
  context.global_parameters = global;

  const std::vector<float> single = weighted_mean(matrix);

  for (const std::size_t shards : {1u, 2u, 3u, 5u}) {
    defenses::FedAvgAggregator sharded;
    ASSERT_TRUE(sharded.supports_exact_merge());
    AggregationResult merged;
    two_tier_aggregate(sharded, context, matrix, shards, merged);
    ASSERT_EQ(merged.parameters.size(), single.size()) << "shards=" << shards;
    for (std::size_t i = 0; i < single.size(); ++i) {
      ASSERT_EQ(merged.parameters[i], single[i]) << "shards=" << shards << " parameter " << i;
    }
    EXPECT_EQ(merged.accepted_clients.size(), kClients) << "shards=" << shards;
    EXPECT_TRUE(merged.rejected_clients.empty()) << "shards=" << shards;
  }
}

TEST(ShardedFedAvg, ExactMergeMatchesAcrossThreadCounts) {
  // The root merges coordinate ranges in parallel; each coordinate still
  // starts at 0.0 and adds the shards' sums in shard order. Several grains
  // plus a partial one, with real and all-zero (plain-mean) sample counts.
  constexpr std::size_t kClients = 9;
  constexpr std::size_t kDim = 3 * parallel::kElementwiseGrain + 77;
  for (const bool zero_weights : {false, true}) {
    UpdateMatrix matrix;
    matrix.reset(kClients, kDim);
    for (std::size_t r = 0; r < kClients; ++r) {
      fill_row(matrix.psi(r), r);
      matrix.meta(r).client_id = static_cast<int>(r);
      matrix.meta(r).num_samples = zero_weights ? 0 : 10 + r % 4;
    }
    std::vector<float> global(kDim, 0.0f);
    AggregationContext context;
    context.global_parameters = global;
    const std::vector<float> single = weighted_mean(matrix);
    for (const std::size_t shards : {1u, 2u, 3u}) {
      const auto merge_at = [&](std::size_t threads) {
        return kernel_threads::run_at(threads, [&] {
          defenses::FedAvgAggregator strategy;
          AggregationResult merged;
          two_tier_aggregate(strategy, context, matrix, shards, merged);
          return merged.parameters;
        });
      };
      const std::vector<float> one = merge_at(1);
      EXPECT_EQ(merge_at(4), one) << "shards=" << shards << " zero_weights=" << zero_weights;
      // One live shard adds its sum to 0.0: the single-tier mean exactly.
      if (shards == 1) {
        EXPECT_EQ(one, single) << "zero_weights=" << zero_weights;
      }
    }
  }
}

TEST(ShardedFedAvg, ZeroWeightFallbackMergesGlobally) {
  // All-zero sample counts trip the plain-mean fallback; the root must apply
  // it globally (over the merged plain sums), matching the single-tier mean.
  constexpr std::size_t kClients = 7;
  constexpr std::size_t kDim = 12;
  UpdateMatrix matrix;
  matrix.reset(kClients, kDim);
  for (std::size_t r = 0; r < kClients; ++r) {
    fill_row(matrix.psi(r), r);
    matrix.meta(r).client_id = static_cast<int>(r);
    matrix.meta(r).num_samples = 0;
  }
  std::vector<float> global(kDim, 0.0f);
  AggregationContext context;
  context.global_parameters = global;

  const std::vector<float> single = weighted_mean(matrix);

  defenses::FedAvgAggregator sharded;
  AggregationResult merged;
  two_tier_aggregate(sharded, context, matrix, 3, merged);
  ASSERT_EQ(merged.parameters.size(), single.size());
  for (std::size_t i = 0; i < single.size(); ++i) {
    ASSERT_EQ(merged.parameters[i], single[i]) << "parameter " << i;
  }
}

TEST(ShardedFedAvg, DeadShardsAreSkippedInMerge) {
  constexpr std::size_t kDim = 6;
  UpdateMatrix matrix;
  matrix.reset(2, kDim);
  for (std::size_t r = 0; r < 2; ++r) {
    fill_row(matrix.psi(r), r);
    matrix.meta(r).client_id = static_cast<int>(r);
    matrix.meta(r).num_samples = 5;
  }
  std::vector<float> global(kDim, 0.0f);
  AggregationContext context;
  context.global_parameters = global;

  defenses::FedAvgAggregator strategy;
  std::vector<ShardPartial> partials(3);  // shard 1 and 2 are dead (cleared)
  strategy.partial_aggregate_into(context, UpdateView{matrix}, 0, partials[0]);
  partials[1].clear();
  partials[2].clear();
  AggregationResult merged;
  strategy.merge_partials_into(context, partials, merged);

  const std::vector<float> single = weighted_mean(matrix);
  ASSERT_EQ(merged.parameters.size(), single.size());
  for (std::size_t i = 0; i < kDim; ++i) {
    // One live shard: adding its sum to a zero accumulator reproduces the
    // single-tier fold exactly.
    ASSERT_EQ(merged.parameters[i], single[i]) << "parameter " << i;
  }

  // All shards dead -> nothing mergeable -> typed failure, not a zero model.
  for (auto& partial : partials) partial.clear();
  AggregationResult empty;
  EXPECT_THROW(strategy.merge_partials_into(context, partials, empty),
               std::invalid_argument);
}

TEST(ShardedKrum, AcceptSetDivergesFromUnsharded) {
  // 8 clients, one far outlier per shard-half (slots 2 and 6). Unsharded
  // Krum accepts exactly one (the best-scored) client; per-shard Krum accepts
  // one PER cohort, so the merged accept set has two members — the f-budget
  // now applies per shard, and the selection provably diverges.
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kDim = 8;
  UpdateMatrix matrix;
  matrix.reset(kClients, kDim);
  for (std::size_t r = 0; r < kClients; ++r) {
    auto psi = matrix.psi(r);
    for (std::size_t i = 0; i < kDim; ++i) {
      psi[i] = 0.1f * static_cast<float>(i) + 0.01f * static_cast<float>(r);
    }
    if (r == 2 || r == 6) {
      for (float& v : psi) v += 25.0f;  // poisoned: far off the benign cluster
      matrix.meta(r).truly_malicious = true;
    }
    matrix.meta(r).client_id = static_cast<int>(r);
    matrix.meta(r).num_samples = 10;
  }
  std::vector<float> global(kDim, 0.0f);
  AggregationContext context;
  context.global_parameters = global;

  defenses::KrumAggregator unsharded{0.25, 1};
  ASSERT_FALSE(unsharded.supports_exact_merge());
  AggregationResult single;
  two_tier_aggregate(unsharded, context, matrix, 1, single);
  ASSERT_EQ(single.accepted_clients.size(), 1u);

  defenses::KrumAggregator sharded{0.25, 1};
  AggregationResult merged;
  two_tier_aggregate(sharded, context, matrix, 2, merged);
  ASSERT_EQ(merged.accepted_clients.size(), 2u);

  // Divergence golden: the sharded accept set is strictly larger, and both
  // paths still reject the planted outliers.
  std::vector<int> single_accept = single.accepted_clients;
  std::vector<int> merged_accept = merged.accepted_clients;
  std::sort(single_accept.begin(), single_accept.end());
  std::sort(merged_accept.begin(), merged_accept.end());
  EXPECT_NE(single_accept, merged_accept);
  for (const int outlier : {2, 6}) {
    EXPECT_TRUE(std::count(single.rejected_clients.begin(), single.rejected_clients.end(),
                           outlier))
        << "unsharded kept outlier " << outlier;
    EXPECT_TRUE(std::count(merged.rejected_clients.begin(), merged.rejected_clients.end(),
                           outlier))
        << "sharded kept outlier " << outlier;
  }
  EXPECT_EQ(merged.parameters.size(), kDim);
}

TEST(ShardedFedGuard, AcceptSetDivergesFromUnsharded) {
  // FedGuard keeps clients scoring >= mean(ACC on D_syn); sharding makes the
  // threshold per-cohort. The fixture plants a mediocre client (slot 6) in
  // the cohort that also holds both poisoned clients: the poisoned scores
  // drag that cohort's mean low enough to accept the mediocre update, while
  // the global mean (dominated by five good clients) rejects it.
  util::set_log_level(util::LogLevel::Warn);
  const models::ImageGeometry geometry{1, 12, 12, 10};
  data::SyntheticMnistOptions data_options;
  data_options.image_size = 12;
  const data::Dataset train = data::generate_synthetic_mnist(240, 901, data_options);

  models::CvaeSpec spec;
  spec.input_dim = 144;
  spec.num_classes = 10;
  spec.hidden = 32;
  spec.latent = 2;
  models::Cvae cvae{spec, 902};
  std::vector<std::size_t> all(train.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const tensor::Tensor flat = train.gather_flat(all);
  const std::vector<int> labels(train.labels().begin(), train.labels().end());
  cvae.train(flat, labels, 20, 16, 3e-3f);
  const std::vector<float> theta = cvae.decoder().parameters_flat();

  models::Classifier good{models::ClassifierArch::Mlp, geometry, 903};
  for (int epoch = 0; epoch < 8; ++epoch) {
    for (std::size_t start = 0; start + 32 <= train.size(); start += 32) {
      std::vector<std::size_t> idx(32);
      std::iota(idx.begin(), idx.end(), start);
      const auto batch = train.gather(idx);
      good.train_batch(batch.images, batch.labels, 0.05f, 0.9f);
    }
  }
  const std::vector<float> good_psi = good.parameters_flat();
  models::Classifier fresh{models::ClassifierArch::Mlp, geometry, 904};
  const std::vector<float> fresh_psi = fresh.parameters_flat();
  std::vector<float> mediocre_psi(good_psi.size());
  for (std::size_t i = 0; i < good_psi.size(); ++i) {
    mediocre_psi[i] = 0.32f * good_psi[i] + 0.68f * fresh_psi[i];
  }
  std::vector<float> poisoned_psi(good_psi.size(), 3.0f);

  // Slots 0..4 good, slot 6 mediocre, slots 5 and 7 poisoned. The contiguous
  // partition puts 5..7 (and one good client) into shard 1.
  constexpr std::size_t kClients = 8;
  UpdateMatrix matrix;
  matrix.reset(kClients, good_psi.size(), theta.size());
  for (std::size_t r = 0; r < kClients; ++r) {
    std::span<const float> source{good_psi};
    if (r == 6) source = mediocre_psi;
    if (r == 5 || r == 7) source = poisoned_psi;
    std::copy(source.begin(), source.end(), matrix.psi(r).begin());
    auto row = matrix.row(r);
    std::copy(theta.begin(), theta.end(), row.theta.begin());
    matrix.meta(r).client_id = static_cast<int>(r);
    matrix.meta(r).num_samples = 30;
    matrix.meta(r).theta_count = theta.size();
    matrix.meta(r).truly_malicious = r == 5 || r == 7;
  }
  std::vector<float> global(good_psi.size(), 0.0f);
  AggregationContext context;
  context.global_parameters = global;

  defenses::FedGuardConfig fg;
  fg.cvae_spec = spec;
  fg.total_samples = 80;
  defenses::FedGuardAggregator unsharded{fg, models::ClassifierArch::Mlp, geometry, 905};
  std::vector<ShardPartial> single_partials;
  AggregationResult single;
  two_tier_aggregate(unsharded, context, matrix, 1, single_partials, single);

  defenses::FedGuardAggregator sharded{fg, models::ClassifierArch::Mlp, geometry, 905};
  AggregationResult merged;
  two_tier_aggregate(sharded, context, matrix, 2, merged);

  const ShardPartial& record = single_partials.front();
  const std::vector<double>& scores = record.selection_scores;
  ASSERT_EQ(scores.size(), kClients);
  std::printf("fedguard scores:");
  for (const double s : scores) std::printf(" %.3f", s);
  std::printf("  threshold %.3f\n", record.selection_threshold);

  // Both paths must still reject the hard-poisoned updates...
  for (const int poisoned : {5, 7}) {
    EXPECT_TRUE(std::count(single.rejected_clients.begin(), single.rejected_clients.end(),
                           poisoned))
        << "unsharded kept poisoned " << poisoned;
    EXPECT_TRUE(std::count(merged.rejected_clients.begin(), merged.rejected_clients.end(),
                           poisoned))
        << "sharded kept poisoned " << poisoned;
  }
  // ...but the mediocre client flips: rejected against the global threshold,
  // accepted against its degraded cohort's threshold.
  EXPECT_TRUE(
      std::count(single.rejected_clients.begin(), single.rejected_clients.end(), 6));
  EXPECT_TRUE(
      std::count(merged.accepted_clients.begin(), merged.accepted_clients.end(), 6));
  std::vector<int> single_accept = single.accepted_clients;
  std::vector<int> merged_accept = merged.accepted_clients;
  std::sort(single_accept.begin(), single_accept.end());
  std::sort(merged_accept.begin(), merged_accept.end());
  EXPECT_NE(single_accept, merged_accept);
}

/// Rejects, per cohort, the one update farthest from the global model and
/// averages the rest: every shard rejects exactly one client, so both
/// detection tallies move in a federation with one poisoned client.
class RejectFarthest final : public defenses::AggregationStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "reject_farthest"; }

 private:
  defenses::Selection do_partial_aggregate(const AggregationContext& context,
                                           const UpdateView& updates,
                                           ShardPartial& out) override {
    std::size_t farthest = 0;
    double farthest_distance = -1.0;
    for (std::size_t k = 0; k < updates.count(); ++k) {
      double distance = 0.0;
      const std::span<const float> psi = updates.psi(k);
      for (std::size_t i = 0; i < psi.size(); ++i) {
        const double delta = static_cast<double>(psi[i]) - context.global_parameters[i];
        distance += delta * delta;
      }
      if (distance > farthest_distance) {
        farthest_distance = distance;
        farthest = k;
      }
    }
    kept_.clear();
    for (std::size_t k = 0; k < updates.count(); ++k) {
      if (k != farthest || updates.count() == 1) kept_.push_back(k);
    }
    defenses::mean_of_into(updates, kept_, accumulator_, out.parameters);
    return defenses::Selection{.kept = kept_};
  }

  std::vector<std::size_t> kept_;
  std::vector<double> accumulator_;
};

// ---------------------------------------------------------------------------
// Federation-level goldens: the in-process two-tier simulation and the socket
// deployment agree with each other and (for FedAvg) with single-tier.

struct ShardedFederationFixture : ::testing::Test {
  static void SetUpTestSuite() { util::set_log_level(util::LogLevel::Warn); }

  void SetUp() override {
    geometry = models::ImageGeometry{1, 28, 28, 10};
    train = data::generate_synthetic_mnist(320, 911);
    test = data::generate_synthetic_mnist(100, 912);
    partition = data::iid_partition(train.size(), 4, 913);
  }

  std::vector<std::unique_ptr<fl::Client>> make_clients(std::uint64_t seed_base) const {
    fl::ClientConfig config;
    config.local_epochs = 1;
    config.batch_size = 16;
    config.train_cvae = false;
    models::CvaeSpec spec;
    spec.hidden = 32;
    spec.latent = 2;
    std::vector<std::unique_ptr<fl::Client>> clients;
    for (std::size_t i = 0; i < 4; ++i) {
      clients.push_back(std::make_unique<fl::Client>(static_cast<int>(i), train,
                                                     partition[i], config,
                                                     models::ClassifierArch::Mlp, geometry,
                                                     spec, seed_base + i));
    }
    return clients;
  }

  fl::RunHistory run_in_process(std::size_t shards, std::uint64_t seed_base,
                                std::uint64_t seed, std::vector<float>& params_out) {
    auto clients = make_clients(seed_base);
    defenses::FedAvgAggregator strategy;
    fl::ServerConfig config;
    config.clients_per_round = 4;
    config.rounds = 3;
    config.seed = seed;
    config.shards = shards;
    fl::Server server{config, clients, strategy, test, models::ClassifierArch::Mlp,
                      geometry};
    fl::RunHistory history = server.run();
    params_out.assign(server.global_parameters().begin(),
                      server.global_parameters().end());
    return history;
  }

  models::ImageGeometry geometry;
  data::Dataset train;
  data::Dataset test;
  data::Partition partition;
};

TEST_F(ShardedFederationFixture, InProcessTwoTierMatchesSingleTierBitForBit) {
  std::vector<float> single_params;
  std::vector<float> sharded_params;
  const fl::RunHistory single = run_in_process(1, 920, 921, single_params);
  const fl::RunHistory sharded = run_in_process(3, 920, 921, sharded_params);

  ASSERT_EQ(single.rounds.size(), sharded.rounds.size());
  for (std::size_t r = 0; r < single.rounds.size(); ++r) {
    EXPECT_EQ(single.rounds[r].test_accuracy, sharded.rounds[r].test_accuracy)
        << "round " << r;
  }
  ASSERT_EQ(single_params.size(), sharded_params.size());
  for (std::size_t i = 0; i < single_params.size(); ++i) {
    ASSERT_EQ(single_params[i], sharded_params[i]) << "parameter " << i;
  }
}

TEST_F(ShardedFederationFixture, TwoTierSocketMatchesInProcessBitForBit) {
  constexpr std::size_t kShards = 2;
  std::vector<float> local_params;
  const fl::RunHistory local = run_in_process(kShards, 930, 931, local_params);

  auto remote_clients = make_clients(930);
  net::HierarchicalServerConfig config;
  config.shards = kShards;
  config.expected_clients = 4;
  config.clients_per_round = 4;
  config.rounds = 3;
  config.seed = 931;
  net::HierarchicalServer server{
      config, [] { return std::make_unique<defenses::FedAvgAggregator>(); }, test,
      models::ClassifierArch::Mlp, geometry};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint16_t port = server.shard_port(server.shard_of(i));
    threads.emplace_back(
        [&, i, port] { (void)net::run_remote_client("127.0.0.1", port, *remote_clients[i]); });
  }
  const fl::RunHistory remote = server.run();
  for (auto& thread : threads) thread.join();

  ASSERT_EQ(local.rounds.size(), remote.rounds.size());
  for (std::size_t r = 0; r < local.rounds.size(); ++r) {
    EXPECT_EQ(local.rounds[r].test_accuracy, remote.rounds[r].test_accuracy)
        << "round " << r;
    EXPECT_EQ(local.rounds[r].sampled_clients, remote.rounds[r].sampled_clients)
        << "round " << r;
  }
  const std::span<const float> remote_params = server.global_parameters();
  ASSERT_EQ(local_params.size(), remote_params.size());
  for (std::size_t i = 0; i < local_params.size(); ++i) {
    ASSERT_EQ(local_params[i], remote_params[i]) << "parameter " << i;
  }
}

TEST_F(ShardedFederationFixture, TwoTierSocketRoundRecordMatchesInProcessTwin) {
  // q8 uploads, one poisoned client, a selector that rejects one client per
  // shard: the socket tier's RoundRecord must carry the twin's detection
  // split, and its traffic must be the twin's ψ spans plus the fixed framing.
  constexpr std::size_t kShards = 2;
  constexpr std::uint64_t kSeed = 961;
  const attacks::SameValueAttack attack{1.0f};

  auto local_clients = make_clients(960);
  local_clients[3]->corrupt_with_model_attack(&attack);
  RejectFarthest local_strategy;
  fl::ServerConfig local_config;
  local_config.clients_per_round = 4;
  local_config.rounds = 3;
  local_config.seed = kSeed;
  local_config.shards = kShards;
  local_config.psi_codec = util::WireCodec::Q8;
  fl::Server twin{local_config, local_clients, local_strategy, test,
                  models::ClassifierArch::Mlp, geometry};
  const fl::RunHistory local = twin.run();

  auto remote_clients = make_clients(960);
  remote_clients[3]->corrupt_with_model_attack(&attack);
  net::HierarchicalServerConfig config;
  config.shards = kShards;
  config.expected_clients = 4;
  config.clients_per_round = 4;
  config.rounds = 3;
  config.seed = kSeed;
  config.psi_codec = util::WireCodec::Q8;
  net::HierarchicalServer server{config, [] { return std::make_unique<RejectFarthest>(); },
                                 test, models::ClassifierArch::Mlp, geometry};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint16_t port = server.shard_port(server.shard_of(i));
    threads.emplace_back(
        [&, i, port] { (void)net::run_remote_client("127.0.0.1", port, *remote_clients[i]); });
  }
  const fl::RunHistory remote = server.run();
  for (auto& thread : threads) thread.join();

  // The twin charges bare ψ spans; every frame adds a 20-byte header and its
  // message's scalar fields (28 bytes in a request, 36 in a reply), and a
  // reply without θ still carries its 8-byte θ count.
  constexpr std::size_t kRequestFraming = net::kFrameHeaderBytes + 28;
  constexpr std::size_t kReplyFraming = net::kFrameHeaderBytes + 36 + 8;
  std::size_t rejected_malicious = 0;
  std::size_t rejected_benign = 0;
  ASSERT_EQ(local.rounds.size(), remote.rounds.size());
  for (std::size_t r = 0; r < local.rounds.size(); ++r) {
    const fl::RoundRecord& x = local.rounds[r];
    const fl::RoundRecord& y = remote.rounds[r];
    EXPECT_EQ(y.test_accuracy, x.test_accuracy) << "round " << r;
    EXPECT_EQ(y.server_upload_bytes, x.server_upload_bytes + 4 * kRequestFraming)
        << "round " << r;
    EXPECT_EQ(y.server_download_bytes, x.server_download_bytes + 4 * kReplyFraming)
        << "round " << r;
    EXPECT_EQ(y.rejected_clients, x.rejected_clients) << "round " << r;
    EXPECT_EQ(y.rejected_malicious, x.rejected_malicious) << "round " << r;
    EXPECT_EQ(y.rejected_benign, x.rejected_benign) << "round " << r;
    rejected_malicious += y.rejected_malicious;
    rejected_benign += y.rejected_benign;
  }
  EXPECT_GT(rejected_malicious, 0u);
  EXPECT_GT(rejected_benign, 0u);
}

TEST_F(ShardedFederationFixture, ShardKillDegradesGracefully) {
  auto clients = make_clients(940);
  net::HierarchicalServerConfig config;
  config.shards = 2;
  config.expected_clients = 4;
  config.clients_per_round = 4;
  config.rounds = 3;
  config.seed = 941;
  config.round_timeout_ms = 8000;
  config.shard_kill_predicate = [](std::size_t shard, std::size_t round) {
    return shard == 1 && round == 1;
  };
  net::HierarchicalServer server{
      config, [] { return std::make_unique<defenses::FedAvgAggregator>(); }, test,
      models::ClassifierArch::Mlp, geometry};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint16_t port = server.shard_port(server.shard_of(i));
    threads.emplace_back(
        [&, i, port] { (void)net::run_remote_client("127.0.0.1", port, *clients[i]); });
  }
  const fl::RunHistory history = server.run();
  for (auto& thread : threads) thread.join();

  // Every round completes on the survivors; the dead shard's cohort (clients
  // 2 and 3 under the contiguous partition) shows up as stragglers.
  ASSERT_EQ(history.rounds.size(), 3u);
  EXPECT_EQ(history.rounds[0].stragglers, 0u);
  for (std::size_t r = 1; r < 3; ++r) {
    EXPECT_EQ(history.rounds[r].sampled_clients, 4u) << "round " << r;
    EXPECT_EQ(history.rounds[r].stragglers, 2u) << "round " << r;
    EXPECT_GT(history.rounds[r].test_accuracy, 0.0) << "round " << r;
  }
}

}  // namespace
}  // namespace fedguard
