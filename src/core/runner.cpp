#include "core/runner.hpp"

#include <stdexcept>

#include "data/partition.hpp"
#include "data/synthetic_mnist.hpp"
#include "defenses/auxiliary_audit.hpp"
#include "defenses/bulyan.hpp"
#include "defenses/fedavg.hpp"
#include "defenses/fedcpa.hpp"
#include "defenses/geomed.hpp"
#include "defenses/krum.hpp"
#include "defenses/median.hpp"
#include "defenses/norm_threshold.hpp"
#include "defenses/trimmed_mean.hpp"
#include "net/telemetry_http.hpp"
#include "tensor/kernels/kernel_arch.hpp"
#include "util/logging.hpp"

namespace fedguard::core {

std::unique_ptr<defenses::AggregationStrategy> make_strategy(const ExperimentConfig& config,
                                                             const data::Dataset& auxiliary) {
  switch (config.strategy) {
    case StrategyKind::FedAvg:
      return std::make_unique<defenses::FedAvgAggregator>();
    case StrategyKind::GeoMed:
      return std::make_unique<defenses::GeoMedAggregator>();
    case StrategyKind::Krum:
      return std::make_unique<defenses::KrumAggregator>(config.krum_byzantine_fraction, 1);
    case StrategyKind::MultiKrum:
      return std::make_unique<defenses::KrumAggregator>(config.krum_byzantine_fraction,
                                                        config.multi_krum_k);
    case StrategyKind::Median:
      return std::make_unique<defenses::CoordinateMedianAggregator>();
    case StrategyKind::TrimmedMean:
      return std::make_unique<defenses::TrimmedMeanAggregator>(config.trimmed_mean_fraction);
    case StrategyKind::NormThreshold:
      return std::make_unique<defenses::NormThresholdAggregator>();
    case StrategyKind::Bulyan:
      return std::make_unique<defenses::BulyanAggregator>(config.bulyan_byzantine_fraction);
    case StrategyKind::AuxAudit:
      return std::make_unique<defenses::AuxiliaryAuditAggregator>(
          config.arch, config.geometry(), auxiliary, config.aux_audit_warmup_rounds,
          config.seed ^ 0xa0d17ULL);
    case StrategyKind::Spectral:
      return std::make_unique<defenses::SpectralAggregator>(
          config.spectral, config.arch, config.geometry(), auxiliary,
          config.seed ^ 0x5bec7ea1ULL);
    case StrategyKind::FedCPA: {
      defenses::FedCpaConfig cpa;
      cpa.top_fraction = config.fedcpa_top_fraction;
      cpa.keep_fraction = config.fedcpa_keep_fraction;
      return std::make_unique<defenses::FedCpaAggregator>(cpa);
    }
    case StrategyKind::FedGuard: {
      defenses::FedGuardConfig fg;
      fg.cvae_spec = config.cvae;
      fg.total_samples = config.fedguard_total_samples;
      fg.internal_operator = config.fedguard_internal_operator;
      fg.score_metric = config.fedguard_score_metric;
      return std::make_unique<defenses::FedGuardAggregator>(fg, config.arch,
                                                            config.geometry(),
                                                            config.seed ^ 0xf3d9ULL);
    }
  }
  throw std::invalid_argument{"make_strategy: unknown strategy"};
}

fl::RunHistory Federation::run() {
  // Install the round exporter (if obs_* keys are set) for the duration of
  // the run; its destructor does the final metrics rewrite + trace flush
  // after every round (and pool task) has quiesced.
  std::unique_ptr<obs::RoundExporter> exporter;
  if (config.obs.enabled()) {
    exporter = std::make_unique<obs::RoundExporter>(config.obs);
  }
  // Live exposition (descriptor key obs_http_port / --metrics-port): the
  // in-process simulator has no reactor of its own, so scrapes get a
  // dedicated listener thread for the duration of the run.
  std::unique_ptr<net::TelemetryHttpServer> http_server;
  if (config.obs.http_port != 0) {
    http_server = std::make_unique<net::TelemetryHttpServer>(
        config.obs.http_port, net::make_registry_responder("fl_rounds_total", ""));
    util::log_info("telemetry: /metrics and /healthz live on port %u",
                   static_cast<unsigned>(http_server->port()));
  }
  fl::RunHistory history = server->run();
  history.attack = attacks::to_string(config.attack);
  history.malicious_fraction = config.malicious_fraction;
  return history;
}

Federation build_federation(ExperimentConfig config) {
  data::SyntheticMnistOptions data_options;
  data_options.image_size = config.image_size;
  data::Dataset train =
      data::generate_synthetic_mnist(config.train_samples, config.seed, data_options);
  data::Dataset test = data::generate_synthetic_mnist(config.test_samples,
                                                      config.seed ^ 0x7e57ULL, data_options);
  data::Dataset auxiliary = data::generate_synthetic_mnist(
      config.auxiliary_samples, config.seed ^ 0xa0c5ULL, data_options);
  return build_federation_with_data(std::move(config), std::move(train), std::move(test),
                                    std::move(auxiliary));
}

Federation build_federation_with_data(ExperimentConfig config, data::Dataset train_set,
                                      data::Dataset test_set, data::Dataset auxiliary_set) {
  if (train_set.height() != config.image_size || train_set.width() != config.image_size) {
    throw std::invalid_argument{"build_federation_with_data: image_size mismatch"};
  }
  // The descriptor's kernel section governs the numeric kernels everywhere in
  // this process (client SGD, CVAE synthesis, aggregation distance passes).
  parallel::set_kernel_config(config.kernel);
  tensor::kernels::set_kernel_arch(config.kernel_arch);
  // Force the CVAE to the task's pixel count (guards against preset mixing).
  config.cvae.input_dim = config.geometry().pixels();
  config.cvae.num_classes = config.geometry().num_classes;

  Federation fed;
  fed.train_set = std::move(train_set);
  fed.test_set = std::move(test_set);
  fed.auxiliary_set = std::move(auxiliary_set);

  // Heterogeneity split of the training data across the population (Alg. 1
  // line 10; Dirichlet(α) by default, descriptor key partition_scheme).
  data::PartitionOptions partition_options;
  partition_options.scheme = config.partition_scheme;
  partition_options.num_clients = config.num_clients;
  partition_options.alpha = config.dirichlet_alpha;
  partition_options.shards_per_client = config.shards_per_client;
  partition_options.seed = config.seed ^ 0xd17ULL;
  const data::Partition partition = data::make_partition(fed.train_set, partition_options);

  // Corruption: a uniform subset of floor(fraction * N) clients.
  const std::vector<bool> malicious = attacks::make_malicious_mask(
      config.num_clients, config.attack == attacks::AttackType::None ? 0.0
                                                                     : config.malicious_fraction,
      config.seed ^ 0xbadULL);
  attacks::ModelAttackOptions attack_options;
  attack_options.same_value_constant = config.same_value_constant;
  attack_options.noise_stddev = config.noise_stddev;
  attack_options.scaling_boost = config.scaling_boost;
  attack_options.covert_stealth = config.covert_stealth;
  attack_options.krum_evade_epsilon = config.krum_evade_epsilon;
  attack_options.collusion_seed = config.seed ^ 0xc011ULL;
  fed.model_attack = attacks::make_model_attack(config.attack, attack_options);

  fl::ClientConfig client_config = config.client;
  // Only FedGuard consumes decoders; other strategies skip CVAE training
  // entirely (their Table V rows have no CVAE cost).
  client_config.train_cvae = config.strategy == StrategyKind::FedGuard;

  fed.clients.reserve(config.num_clients);
  std::size_t malicious_count = 0;
  for (std::size_t i = 0; i < config.num_clients; ++i) {
    auto client = std::make_unique<fl::Client>(
        static_cast<int>(i), fed.train_set, partition[i], client_config, config.arch,
        config.geometry(), config.cvae, config.seed ^ (0xc11e27ULL + i));
    if (malicious[i]) {
      ++malicious_count;
      if (config.attack == attacks::AttackType::LabelFlip) {
        client->corrupt_with_label_flip(config.flip_pairs);
      } else if (fed.model_attack) {
        client->corrupt_with_model_attack(fed.model_attack.get());
      }
    }
    fed.clients.push_back(std::move(client));
  }
  util::log_info("federation: %zu clients (%zu malicious, attack=%s), strategy=%s",
                 config.num_clients, malicious_count, attacks::to_string(config.attack),
                 to_string(config.strategy));

  fl::ServerConfig server_config;
  static_cast<fl::RoundConfig&>(server_config) = round_config(config);
  server_config.fault_plan = config.fault_plan;
  fed.server = std::make_unique<fl::Server>(
      server_config, fed.clients, [&] { return make_strategy(config, fed.auxiliary_set); },
      fed.test_set, config.arch, config.geometry());
  fed.config = std::move(config);
  return fed;
}

fl::RunHistory run_experiment(const ExperimentConfig& config) {
  Federation fed = build_federation(config);
  return fed.run();
}

fl::RoundConfig round_config(const ExperimentConfig& config) {
  fl::RoundConfig round;
  round.clients_per_round = config.clients_per_round;
  round.rounds = config.rounds;
  round.server_learning_rate = config.server_learning_rate;
  round.seed = config.seed ^ 0x5e12e5ULL;
  round.track_per_class_accuracy = config.track_per_class_accuracy;
  round.psi_codec = config.wire_codec;
  round.psi_chunk = config.wire_chunk_size;
  round.shards = config.shards;
  round.eject_after_failures = config.eject_after_failures;
  round.min_clients = config.min_clients;
  return round;
}

net::HierarchicalServerConfig hierarchical_server_config(const ExperimentConfig& config) {
  net::HierarchicalServerConfig hier;
  static_cast<fl::RoundConfig&>(hier) = round_config(config);
  hier.expected_clients = config.num_clients;
  hier.accept_timeout_ms = config.remote_accept_timeout_ms;
  hier.round_timeout_ms = config.remote_round_timeout_ms;
  return hier;
}

}  // namespace fedguard::core
