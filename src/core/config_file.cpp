#include "core/config_file.hpp"

#include <fstream>
#include <stdexcept>

namespace fedguard::core {

namespace {

std::string trim(const std::string& text) {
  const auto begin = text.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = text.find_last_not_of(" \t\r");
  return text.substr(begin, end - begin + 1);
}

bool to_bool(const std::string& value, const std::string& key) {
  if (value == "true" || value == "1" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "no") return false;
  throw std::invalid_argument{"config: bad boolean for '" + key + "': " + value};
}

}  // namespace

std::size_t to_size(const std::string& value, const std::string& key) {
  try {
    std::size_t consumed = 0;
    const long long parsed = std::stoll(value, &consumed);
    if (parsed < 0 || consumed != value.size()) throw std::invalid_argument{value};
    return static_cast<std::size_t>(parsed);
  } catch (const std::exception&) {
    throw std::invalid_argument{"config: bad integer for '" + key + "': " + value};
  }
}

std::size_t to_positive_size(const std::string& value, const std::string& key) {
  const std::size_t parsed = to_size(value, key);
  if (parsed == 0) throw std::invalid_argument{"config: " + key + " must be positive"};
  return parsed;
}

double to_double(const std::string& value, const std::string& key) {
  try {
    std::size_t consumed = 0;
    const double parsed = std::stod(value, &consumed);
    if (consumed != value.size()) throw std::invalid_argument{value};
    return parsed;
  } catch (const std::exception&) {
    throw std::invalid_argument{"config: bad number for '" + key + "': " + value};
  }
}

std::map<std::string, std::string> parse_config_file(const std::string& path) {
  std::ifstream file{path};
  if (!file) throw std::runtime_error{"config: cannot open " + path};
  std::map<std::string, std::string> values;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(file, line)) {
    ++line_number;
    const auto comment = line.find('#');
    if (comment != std::string::npos) line.erase(comment);
    const std::string trimmed = trim(line);
    if (trimmed.empty()) continue;
    const auto equals = trimmed.find('=');
    if (equals == std::string::npos) {
      throw std::runtime_error{"config: malformed line " + std::to_string(line_number) +
                               " in " + path + " (expected key = value)"};
    }
    const std::string key = trim(trimmed.substr(0, equals));
    const std::string value = trim(trimmed.substr(equals + 1));
    if (key.empty()) {
      throw std::runtime_error{"config: empty key at line " + std::to_string(line_number)};
    }
    values[key] = value;
  }
  return values;
}

void apply_config_values(ExperimentConfig& config,
                         const std::map<std::string, std::string>& values) {
  for (const auto& [key, value] : values) {
    if (key == "scale") continue;  // handled by load_experiment_config
    if (key == "train_samples") config.train_samples = to_size(value, key);
    else if (key == "test_samples") config.test_samples = to_size(value, key);
    else if (key == "auxiliary_samples") config.auxiliary_samples = to_size(value, key);
    else if (key == "image_size") config.image_size = to_size(value, key);
    else if (key == "dirichlet_alpha") config.dirichlet_alpha = to_double(value, key);
    else if (key == "partition_scheme")
      config.partition_scheme = data::partition_scheme_from_string(value);
    else if (key == "partition_shards_per_client")
      config.shards_per_client = to_size(value, key);
    else if (key == "num_clients") config.num_clients = to_size(value, key);
    else if (key == "clients_per_round") config.clients_per_round = to_size(value, key);
    else if (key == "rounds") config.rounds = to_size(value, key);
    else if (key == "server_learning_rate")
      config.server_learning_rate = static_cast<float>(to_double(value, key));
    else if (key == "track_per_class_accuracy")
      config.track_per_class_accuracy = to_bool(value, key);
    else if (key == "local_epochs") config.client.local_epochs = to_size(value, key);
    else if (key == "batch_size") config.client.batch_size = to_positive_size(value, key);
    else if (key == "learning_rate")
      config.client.learning_rate = static_cast<float>(to_double(value, key));
    else if (key == "momentum")
      config.client.momentum = static_cast<float>(to_double(value, key));
    else if (key == "proximal_mu")
      config.client.proximal_mu = static_cast<float>(to_double(value, key));
    else if (key == "cvae_epochs") config.client.cvae_epochs = to_size(value, key);
    else if (key == "cvae_batch_size")
      config.client.cvae_batch_size = to_positive_size(value, key);
    else if (key == "cvae_learning_rate")
      config.client.cvae_learning_rate = static_cast<float>(to_double(value, key));
    else if (key == "cvae_retrain_interval")
      config.client.cvae_retrain_interval = to_size(value, key);
    else if (key == "cvae_hidden") config.cvae.hidden = to_size(value, key);
    else if (key == "cvae_latent") config.cvae.latent = to_size(value, key);
    else if (key == "arch") config.arch = models::classifier_arch_from_string(value);
    else if (key == "attack") config.attack = attacks::attack_type_from_string(value);
    else if (key == "malicious_fraction")
      config.malicious_fraction = to_double(value, key);
    else if (key == "same_value_constant")
      config.same_value_constant = static_cast<float>(to_double(value, key));
    else if (key == "noise_stddev") config.noise_stddev = to_double(value, key);
    else if (key == "scaling_boost")
      config.scaling_boost = static_cast<float>(to_double(value, key));
    else if (key == "attack_covert_stealth")
      config.covert_stealth = static_cast<float>(to_double(value, key));
    else if (key == "attack_krum_evade_epsilon")
      config.krum_evade_epsilon = to_double(value, key);
    else if (key == "strategy") config.strategy = strategy_kind_from_string(value);
    else if (key == "fedguard_total_samples")
      config.fedguard_total_samples = to_size(value, key);
    else if (key == "fedguard_internal_operator") {
      if (value == "fedavg") config.fedguard_internal_operator = defenses::InternalOperator::FedAvg;
      else if (value == "geomed") config.fedguard_internal_operator = defenses::InternalOperator::GeoMed;
      else if (value == "median") config.fedguard_internal_operator = defenses::InternalOperator::Median;
      else throw std::invalid_argument{"config: unknown internal operator: " + value};
    }
    else if (key == "fedguard_score_metric") {
      if (value == "accuracy")
        config.fedguard_score_metric = defenses::FedGuardConfig::ScoreMetric::Accuracy;
      else if (value == "balanced")
        config.fedguard_score_metric = defenses::FedGuardConfig::ScoreMetric::Balanced;
      else throw std::invalid_argument{"config: unknown score metric: " + value};
    }
    else if (key == "krum_byzantine_fraction")
      config.krum_byzantine_fraction = to_double(value, key);
    else if (key == "multi_krum_k") config.multi_krum_k = to_size(value, key);
    else if (key == "trimmed_mean_fraction")
      config.trimmed_mean_fraction = to_double(value, key);
    else if (key == "bulyan_byzantine_fraction")
      config.bulyan_byzantine_fraction = to_double(value, key);
    else if (key == "aux_audit_warmup_rounds")
      config.aux_audit_warmup_rounds = to_size(value, key);
    else if (key == "fedcpa_top_fraction")
      config.fedcpa_top_fraction = to_double(value, key);
    else if (key == "fedcpa_keep_fraction")
      config.fedcpa_keep_fraction = to_double(value, key);
    else if (key == "shards") config.shards = to_positive_size(value, key);
    else if (key == "min_clients") config.min_clients = to_size(value, key);
    else if (key == "eject_after_failures")
      config.eject_after_failures = to_size(value, key);
    else if (key == "remote_accept_timeout_ms")
      config.remote_accept_timeout_ms = to_size(value, key);
    else if (key == "remote_round_timeout_ms")
      config.remote_round_timeout_ms = to_size(value, key);
    else if (key == "fault_seed")
      config.fault_plan.seed = static_cast<std::uint64_t>(to_size(value, key));
    else if (key == "fault_drop_probability")
      config.fault_plan.drop_probability = to_double(value, key);
    else if (key == "fault_delay_probability")
      config.fault_plan.delay_probability = to_double(value, key);
    else if (key == "fault_delay_ms") config.fault_plan.delay_ms = to_size(value, key);
    else if (key == "fault_truncate_probability")
      config.fault_plan.truncate_probability = to_double(value, key);
    else if (key == "fault_bit_flip_probability")
      config.fault_plan.bit_flip_probability = to_double(value, key);
    else if (key == "fault_disconnect_probability")
      config.fault_plan.disconnect_probability = to_double(value, key);
    else if (key == "fault_never_connect_probability")
      config.fault_plan.never_connect_probability = to_double(value, key);
    else if (key == "kernel_arch") {
      tensor::kernels::KernelArch arch{};
      if (!tensor::kernels::parse_kernel_arch(value, arch)) {
        throw std::invalid_argument{"config: unknown kernel_arch '" + value +
                                    "' (auto/serial/avx2/avx512)"};
      }
      config.kernel_arch = arch;
    }
    else if (key == "wire_codec") {
      util::WireCodec codec{};
      if (!util::parse_wire_codec(value, codec)) {
        throw std::invalid_argument{"config: unknown wire_codec '" + value +
                                    "' (fp32/q8/fp16)"};
      }
      config.wire_codec = codec;
    }
    else if (key == "wire_chunk_size") config.wire_chunk_size = to_positive_size(value, key);
    else if (key == "kernel_threads") config.kernel.threads = to_size(value, key);
    else if (key == "obs_trace_path") config.obs.trace_path = value;
    else if (key == "obs_metrics_path") config.obs.metrics_path = value;
    else if (key == "obs_flush_every_rounds")
      config.obs.flush_every_rounds = to_size(value, key);
    else if (key == "obs_histogram_buckets")
      config.obs.histogram_buckets = obs::parse_histogram_buckets(value);
    else if (key == "obs_http_port") {
      const std::size_t port = to_size(value, key);
      if (port > 65535) {
        throw std::invalid_argument{"config: obs_http_port out of range"};
      }
      config.obs.http_port = static_cast<std::uint16_t>(port);
    }
    else if (key == "seed") config.seed = static_cast<std::uint64_t>(to_size(value, key));
    else throw std::invalid_argument{"config: unknown key '" + key + "'"};
  }
}

ExperimentConfig load_experiment_config(const std::string& path) {
  const auto values = parse_config_file(path);
  ExperimentConfig config;
  if (const auto it = values.find("scale"); it != values.end()) {
    if (it->second == "paper") config = ExperimentConfig::paper_scale();
    else if (it->second == "small") config = ExperimentConfig::small_scale();
    else throw std::invalid_argument{"config: unknown scale '" + it->second + "'"};
  } else {
    config = ExperimentConfig::small_scale();
  }
  apply_config_values(config, values);
  return config;
}

}  // namespace fedguard::core
