#pragma once
// The federated round (Alg. 1 lines 14-20), written once for every
// deployment: model initialization, uniform sampling of m clients from the
// live universe, collection of their updates, the shard-partial merge, the
// server-learning-rate step ψ0 <- ψ0 + η (ψ_agg - ψ0) that Fig. 5 ablates,
// detection tallies, evaluation, and the per-round RoundRecord.
//
// Transports plug in through a narrow seam of two hooks:
//   collect  — deliver ψ0 to the sampled clients and gather their updates,
//              reporting frame traffic and every client that failed, by class;
//   partials — one defenses::ShardPartial per shard for what was gathered.
// fl::Server implements them over the in-process client pool (its shards are
// simulated cohorts); net::HierarchicalServer over reactor shards (S >= 1,
// single-tier sockets being S = 1). The engine always merges partials, so
// both transports share one aggregation path, one fault policy (an accept
// rule with min_clients; consecutive failures eject a client from the
// sampling universe) and one counter family.
//
// Traffic accounting (Table V): RoundRecord's traffic and failure fields are
// per-round deltas of the fl_* registry counters (docs/OBSERVABILITY.md), so
// Table V and the metrics exposition can never disagree.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "defenses/aggregation.hpp"
#include "fl/metrics.hpp"
#include "models/classifier.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace fedguard::fl {

/// The knobs every round has, whichever transport carries the updates.
struct RoundConfig {
  std::size_t clients_per_round = 50;  // m (paper: 50 of N=100)
  std::size_t rounds = 50;             // R
  float server_learning_rate = 1.0f;   // η (Fig. 5: 0.3 for stability)
  std::uint64_t seed = 1;
  /// Record per-class test recall each round (targeted-attack analysis).
  bool track_per_class_accuracy = false;
  /// ψ-upload wire codec. Sockets encode replies with it; the in-process
  /// pool quantize-roundtrips each row with the same arithmetic, so both
  /// transports see bit-identical (lossy) updates and charge the same ψ bytes.
  util::WireCodec psi_codec = util::WireCodec::Fp32;
  /// Elements per q8 quantization chunk (ignored by other codecs).
  std::size_t psi_chunk = util::kDefaultQ8ChunkSize;
  /// S: client c of N belongs to shard floor(c*S/N). Each shard's cohort is
  /// partial-aggregated and the partials merge at the root; FedAvg merges
  /// exactly, selectors (Krum/FedCPA/FedGuard) select per shard —
  /// docs/SHARDING.md quantifies the robustness cost.
  std::size_t shards = 1;
  /// Eject a client from the sampling universe after this many consecutive
  /// failed rounds (0 = never).
  std::size_t eject_after_failures = 0;
  /// Start with the clients that joined if at least this many did (0 = all
  /// N must join); otherwise the federation refuses to start.
  std::size_t min_clients = 0;
};

/// How a sampled client failed to contribute to a round. Both transports
/// report these classes for one fault plan (fl/fault_plan.hpp).
enum class FailureKind : std::uint8_t {
  Dropout,  // link closed while its reply was pending, or absent at dispatch
  Timeout,  // reply still pending at the round deadline
  Corrupt,  // reply failed its CRC, framing or shape check
};

struct ClientFailure {
  std::size_t client = 0;
  FailureKind kind = FailureKind::Dropout;
};

/// What a transport's collect hook reports for one round.
struct Collection {
  std::size_t upload_bytes = 0;    // ψ0 broadcast, at wire size
  std::size_t download_bytes = 0;  // ψ (+ θ) uploads, at wire size
  std::vector<ClientFailure> failures;

  void clear() noexcept {
    upload_bytes = 0;
    download_bytes = 0;
    failures.clear();
  }
};

class RoundEngine {
 public:
  virtual ~RoundEngine() = default;
  RoundEngine(const RoundEngine&) = delete;
  RoundEngine& operator=(const RoundEngine&) = delete;

  /// Run all configured rounds and return the full history.
  [[nodiscard]] virtual RunHistory run();

  /// Execute a single federated round (exposed for tests / step-wise use).
  [[nodiscard]] RoundRecord run_round(std::size_t round);

  [[nodiscard]] std::span<const float> global_parameters() const noexcept {
    return global_parameters_;
  }
  /// The shard that owns client id c (contiguous partition floor(c*S/N)).
  [[nodiscard]] std::size_t shard_of(std::size_t client) const noexcept {
    return client * config_.shards / population_;
  }
  /// Accuracy of the current global model on the held-out test set.
  [[nodiscard]] double evaluate_global();
  /// Per-class recall of the current global model on the test set.
  [[nodiscard]] std::vector<double> evaluate_per_class();

  /// Persist the current global parameter vector (resume long runs / deploy
  /// the trained model). Throws std::runtime_error on I/O failure.
  void save_global(const std::string& path) const;
  /// Restore a global parameter vector saved by save_global; dimension must
  /// match the configured architecture.
  void load_global(const std::string& path);

 protected:
  /// `strategy` merges the partials (and names the run); it and `test_set`
  /// must outlive the engine. `population` is N, the client ids [0, N) the
  /// universe starts with. ψ0 is the eval classifier's seeded initialization.
  RoundEngine(const RoundConfig& config, defenses::AggregationStrategy& strategy,
              std::size_t population, const data::Dataset& test_set,
              models::ClassifierArch arch, models::ImageGeometry geometry);

  /// Deliver ψ0 to `sampled` (client ids, sample order) and gather their
  /// updates; report traffic and every sampled client that failed.
  virtual void collect(std::size_t round, std::span<const std::size_t> sampled,
                       std::span<const float> psi0, Collection& out) = 0;
  /// One partial per shard over what collect gathered (client_count 0 for a
  /// shard that has nothing). Runs under the round's `aggregate` span.
  [[nodiscard]] virtual std::span<const defenses::ShardPartial> partials(
      std::size_t round, std::span<const float> psi0) = 0;
  /// `client` has just been ejected; a transport closes its link here.
  virtual void on_ejected(std::size_t /*client*/) {}

  /// The accept rule of both transports: sample from `joined` (sorted,
  /// duplicate-free client ids), or throw std::runtime_error when fewer than
  /// min_clients (0 = all N) joined.
  void admit(std::vector<std::size_t> joined);
  [[nodiscard]] std::span<const std::size_t> universe() const noexcept { return universe_; }
  [[nodiscard]] defenses::AggregationStrategy& strategy() const noexcept { return strategy_; }

 private:
  /// Streaks, ejection and per-class counters for this round's outcomes.
  void settle(const Collection& collection);

  RoundConfig config_;
  defenses::AggregationStrategy& strategy_;
  std::size_t population_;
  const data::Dataset& test_set_;
  models::ImageGeometry geometry_;
  std::unique_ptr<models::Classifier> eval_classifier_;
  std::vector<float> global_parameters_;
  util::Rng rng_;
  // Fault policy state, indexed by client id.
  std::vector<std::size_t> universe_;
  std::vector<std::size_t> failure_streak_;
  std::vector<std::uint8_t> failed_;  // this round: 0 = ok, else FailureKind + 1
  // Round-persistent scratch: steady-state rounds allocate nothing here.
  std::vector<std::size_t> drawn_;
  std::vector<std::size_t> sampled_;
  Collection collection_;
  defenses::AggregationResult result_;
  std::vector<std::size_t> eval_indices_;
  // Registry instruments (docs/OBSERVABILITY.md §fl_*); only the thread that
  // runs rounds increments them, so per-round deltas are exact.
  obs::Counter rounds_total_;
  obs::Counter upload_bytes_total_;
  obs::Counter download_bytes_total_;
  obs::Counter sampled_clients_total_;
  obs::Counter stragglers_total_;
  obs::Counter dropouts_total_;
  obs::Counter timeouts_total_;
  obs::Counter corrupt_frames_total_;
  obs::Counter ejected_clients_total_;
  // Detection tallies against ground truth: the scenario sweep derives
  // attacker-ejection precision/recall from deltas of these three.
  obs::Counter sampled_malicious_total_;
  obs::Counter rejected_malicious_total_;
  obs::Counter rejected_benign_total_;
  obs::Histogram round_seconds_;
};

}  // namespace fedguard::fl
