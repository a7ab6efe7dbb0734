#include "fl/round_engine.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "obs/exporter.hpp"
#include "obs/trace.hpp"
#include "parallel/kernel_config.hpp"
#include "util/logging.hpp"

namespace fedguard::fl {

namespace {

constexpr std::size_t kEvalBatchSize = 256;  // test-set evaluation batching

}  // namespace

RoundEngine::RoundEngine(const RoundConfig& config, defenses::AggregationStrategy& strategy,
                         std::size_t population, const data::Dataset& test_set,
                         models::ClassifierArch arch, models::ImageGeometry geometry)
    : config_{config},
      strategy_{strategy},
      population_{population},
      test_set_{test_set},
      geometry_{geometry},
      eval_classifier_{std::make_unique<models::Classifier>(arch, geometry, config.seed)},
      rng_{config.seed},
      universe_(population),
      failure_streak_(population, 0),
      failed_(population, 0) {
  if (population_ == 0) throw std::invalid_argument{"RoundEngine: no clients"};
  if (config_.clients_per_round == 0 || config_.clients_per_round > population_) {
    throw std::invalid_argument{"RoundEngine: clients_per_round out of range"};
  }
  if (config_.shards == 0) throw std::invalid_argument{"RoundEngine: shards must be > 0"};
  if (config_.min_clients > population_) {
    throw std::invalid_argument{"RoundEngine: min_clients exceeds the client count"};
  }
  std::iota(universe_.begin(), universe_.end(), std::size_t{0});
  auto& registry = obs::Registry::global();
  rounds_total_ = registry.counter("fl_rounds_total");
  upload_bytes_total_ = registry.counter("fl_upload_bytes_total");
  download_bytes_total_ = registry.counter("fl_download_bytes_total");
  sampled_clients_total_ = registry.counter("fl_sampled_clients_total");
  stragglers_total_ = registry.counter("fl_stragglers_total");
  dropouts_total_ = registry.counter("fl_dropouts_total");
  timeouts_total_ = registry.counter("fl_timeouts_total");
  corrupt_frames_total_ = registry.counter("fl_corrupt_frames_total");
  ejected_clients_total_ = registry.counter("fl_ejected_clients_total");
  sampled_malicious_total_ = registry.counter("fl_sampled_malicious_total");
  rejected_malicious_total_ = registry.counter("fl_rejected_malicious_total");
  rejected_benign_total_ = registry.counter("fl_rejected_benign_total");
  round_seconds_ = registry.histogram("fl_round_seconds");
  // Model initialization (Alg. 1 line 15): ψ0 from the eval classifier's init.
  global_parameters_ = eval_classifier_->parameters_flat();
}

void RoundEngine::admit(std::vector<std::size_t> joined) {
  const std::size_t required = config_.min_clients == 0 ? population_ : config_.min_clients;
  if (joined.size() < required) {
    throw std::runtime_error{"RoundEngine: only " + std::to_string(joined.size()) + " of " +
                             std::to_string(population_) + " clients joined (minimum " +
                             std::to_string(required) + ")"};
  }
  if (joined.size() < population_) {
    util::log_warn("starting with %zu of %zu clients", joined.size(), population_);
  }
  universe_ = std::move(joined);
}

RoundRecord RoundEngine::run_round(std::size_t round) {
  // Round timing and span durations share obs::now_ns() (one steady clock),
  // so Table V and the trace can never disagree by clock domain.
  const std::uint64_t round_start_ns = obs::now_ns();
  // Federation-wide correlation id: installed before the first span so every
  // local span — and, via the socket RoundRequest, every remote one — carries
  // the same id.
  obs::set_trace_context({obs::make_trace_id(config_.seed, round), round});
  FEDGUARD_TRACE_SPAN("round", "round:" + std::to_string(round));
  RoundRecord record;
  record.round = round;
  const std::uint64_t upload0 = upload_bytes_total_.value();
  const std::uint64_t download0 = download_bytes_total_.value();
  const std::uint64_t stragglers0 = stragglers_total_.value();
  const std::uint64_t dropouts0 = dropouts_total_.value();
  const std::uint64_t timeouts0 = timeouts_total_.value();
  const std::uint64_t corrupt0 = corrupt_frames_total_.value();
  const std::uint64_t ejected0 = ejected_clients_total_.value();

  // Uniform sampling of m participating clients from the live universe
  // (Alg. 1 line 17). While nobody is missing the universe is [0, N), so the
  // draw is exactly sample_without_replacement(N, m).
  {
    FEDGUARD_TRACE_SPAN("round", "sample");
    sampled_.clear();
    if (!universe_.empty()) {
      rng_.sample_without_replacement(
          universe_.size(), std::min(config_.clients_per_round, universe_.size()), drawn_);
      for (const std::size_t k : drawn_) sampled_.push_back(universe_[k]);
    }
  }
  record.sampled_clients = sampled_.size();
  sampled_clients_total_.add(sampled_.size());

  collection_.clear();
  if (!sampled_.empty()) {
    FEDGUARD_TRACE_SPAN("round", "collect");
    collect(round, sampled_, global_parameters_, collection_);
  }
  upload_bytes_total_.add(collection_.upload_bytes);
  download_bytes_total_.add(collection_.download_bytes);
  settle(collection_);

  // Merge the shard partials and apply the server learning rate. Nothing
  // merged (every sampled client failed) leaves the model unchanged.
  {
    FEDGUARD_TRACE_SPAN("round", "aggregate");
    const std::span<const defenses::ShardPartial> shard_partials =
        sampled_.empty() ? std::span<const defenses::ShardPartial>{}
                         : partials(round, global_parameters_);
    std::size_t merged_clients = 0;
    for (const defenses::ShardPartial& partial : shard_partials) {
      merged_clients += partial.client_count;
      record.sampled_malicious += partial.malicious_count;
    }
    if (merged_clients > 0) {
      defenses::AggregationContext context;
      context.round = round;
      context.global_parameters = global_parameters_;
      strategy_.merge_partials_into(context, shard_partials, result_);
      if (result_.parameters.size() != global_parameters_.size()) {
        throw std::runtime_error{"RoundEngine: strategy returned wrong parameter dimension"};
      }
      const float eta = config_.server_learning_rate;
      float* global = global_parameters_.data();
      const float* merged = result_.parameters.data();
      const std::size_t dim = global_parameters_.size();
      parallel::elementwise_ranges(dim, parallel::kElementwiseGrain, dim,
                                   [=](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) global[i] += eta * (merged[i] - global[i]);
      });
      // The merged reject set is the union of the shards' (every strategy's
      // merge), so the shard tallies add up to the round's detection split.
      record.rejected_clients = result_.rejected_clients.size();
      for (const defenses::ShardPartial& partial : shard_partials) {
        record.rejected_malicious += partial.rejected_malicious_count;
        record.rejected_benign +=
            partial.rejected_clients.size() - partial.rejected_malicious_count;
      }
    } else if (!sampled_.empty()) {
      util::log_warn("round %zu collected no updates (model unchanged)", round);
    }
  }
  sampled_malicious_total_.add(record.sampled_malicious);
  rejected_malicious_total_.add(record.rejected_malicious);
  rejected_benign_total_.add(record.rejected_benign);

  FEDGUARD_TRACE_SPAN("round", "eval");
  record.test_accuracy = evaluate_global();
  if (config_.track_per_class_accuracy) record.per_class_accuracy = evaluate_per_class();
  record.server_upload_bytes = upload_bytes_total_.value() - upload0;
  record.server_download_bytes = download_bytes_total_.value() - download0;
  record.stragglers = stragglers_total_.value() - stragglers0;
  record.dropouts = dropouts_total_.value() - dropouts0;
  record.timeouts = timeouts_total_.value() - timeouts0;
  record.corrupt_frames = corrupt_frames_total_.value() - corrupt0;
  record.ejected_clients = ejected_clients_total_.value() - ejected0;
  const double seconds = static_cast<double>(obs::now_ns() - round_start_ns) * 1e-9;
  record.round_seconds = seconds;
  round_seconds_.observe(seconds);
  rounds_total_.add(1);
  obs::round_tick(round);
  return record;
}

void RoundEngine::settle(const Collection& collection) {
  for (const ClientFailure& failure : collection.failures) {
    failed_.at(failure.client) = static_cast<std::uint8_t>(failure.kind) + 1;
  }
  // Sample order, so ejections happen in a timing-independent order.
  for (const std::size_t client : sampled_) {
    const std::uint8_t mark = failed_[client];
    failed_[client] = 0;
    if (mark == 0) {
      failure_streak_[client] = 0;
      continue;
    }
    stragglers_total_.add(1);
    switch (static_cast<FailureKind>(mark - 1)) {
      case FailureKind::Dropout: dropouts_total_.add(1); break;
      case FailureKind::Timeout: timeouts_total_.add(1); break;
      case FailureKind::Corrupt: corrupt_frames_total_.add(1); break;
    }
    if (config_.eject_after_failures == 0 ||
        ++failure_streak_[client] < config_.eject_after_failures) {
      continue;
    }
    universe_.erase(std::find(universe_.begin(), universe_.end(), client));
    ejected_clients_total_.add(1);
    util::log_warn("ejecting client %zu after %zu consecutive failures", client,
                   failure_streak_[client]);
    on_ejected(client);
  }
}

double RoundEngine::evaluate_global() {
  eval_classifier_->load_parameters_flat(global_parameters_);
  const std::size_t total = test_set_.size();
  if (total == 0) return 0.0;
  std::size_t correct = 0;
  for (std::size_t start = 0; start < total; start += kEvalBatchSize) {
    const std::size_t n = std::min(kEvalBatchSize, total - start);
    eval_indices_.resize(n);
    std::iota(eval_indices_.begin(), eval_indices_.end(), start);
    const data::Dataset::Batch batch = test_set_.gather(eval_indices_);
    correct += static_cast<std::size_t>(
        eval_classifier_->evaluate_accuracy(batch.images, batch.labels) *
            static_cast<double>(n) +
        0.5);
  }
  return static_cast<double>(correct) / static_cast<double>(total);
}

std::vector<double> RoundEngine::evaluate_per_class() {
  eval_classifier_->load_parameters_flat(global_parameters_);
  const std::size_t classes = geometry_.num_classes;
  std::vector<std::size_t> correct(classes, 0), total(classes, 0);
  for (std::size_t start = 0; start < test_set_.size(); start += kEvalBatchSize) {
    const std::size_t n = std::min(kEvalBatchSize, test_set_.size() - start);
    eval_indices_.resize(n);
    std::iota(eval_indices_.begin(), eval_indices_.end(), start);
    const data::Dataset::Batch batch = test_set_.gather(eval_indices_);
    const std::vector<double> recall =
        eval_classifier_->evaluate_per_class(batch.images, batch.labels);
    // Convert batch recalls back to counts to merge across batches.
    std::vector<std::size_t> batch_total(classes, 0);
    for (const int label : batch.labels) ++batch_total[static_cast<std::size_t>(label)];
    for (std::size_t c = 0; c < classes; ++c) {
      total[c] += batch_total[c];
      correct[c] += static_cast<std::size_t>(recall[c] * static_cast<double>(batch_total[c]) + 0.5);
    }
  }
  std::vector<double> out(classes, 0.0);
  for (std::size_t c = 0; c < classes; ++c) {
    if (total[c] > 0) out[c] = static_cast<double>(correct[c]) / static_cast<double>(total[c]);
  }
  return out;
}

void RoundEngine::save_global(const std::string& path) const {
  util::save_f32_vector(path, global_parameters_);
}

void RoundEngine::load_global(const std::string& path) {
  std::vector<float> loaded = util::load_f32_vector(path);
  if (loaded.size() != global_parameters_.size()) {
    throw std::runtime_error{"load_global: dimension mismatch (" +
                             std::to_string(loaded.size()) + " vs " +
                             std::to_string(global_parameters_.size()) + ")"};
  }
  global_parameters_ = std::move(loaded);
}

RunHistory RoundEngine::run() {
  RunHistory history;
  history.strategy = strategy_.name();
  history.rounds.reserve(config_.rounds);
  for (std::size_t round = 0; round < config_.rounds; ++round) {
    RoundRecord record = run_round(round);
    util::log_info(
        "round %3zu | %-14s | acc %6.2f%% | sampled %zu (mal %zu, failed %zu) | rejected %zu "
        "(mal %zu, benign %zu) | %.2fs",
        round, history.strategy.c_str(), record.test_accuracy * 100.0,
        record.sampled_clients, record.sampled_malicious, record.stragglers,
        record.rejected_clients, record.rejected_malicious, record.rejected_benign,
        record.round_seconds);
    history.rounds.push_back(std::move(record));
  }
  return history;
}

}  // namespace fedguard::fl
