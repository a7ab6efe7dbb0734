#pragma once
// Aggregation strategy interface shared by the FL round and all defenses.
//
// Per federated round the uploads land as rows of a round-scoped UpdateMatrix
// arena. Each shard hands its strategy a view over its cohort's rows
// (partial_aggregate_into) and the root merges the shard partials into the
// new global parameter vector plus the accept/reject split it decided on
// (merge_partials_into); fl::RoundEngine makes exactly these two calls, with
// one shard (S = 1) for a single-tier round.
//
// Strategies implement the private do_partial_aggregate() hook; the public
// entry point validates the view (dimension + NaN/Inf choke point) exactly
// once before dispatching.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "defenses/update_matrix.hpp"

namespace fedguard::defenses {

struct AggregationContext {
  std::size_t round = 0;
  /// Current global parameters (pre-round); same length as every psi.
  std::span<const float> global_parameters;
};

struct AggregationResult {
  std::vector<float> parameters;
  std::vector<int> accepted_clients;
  std::vector<int> rejected_clients;

  /// Empties all three vectors, keeping their capacity for reuse.
  void clear() noexcept {
    parameters.clear();
    accepted_clients.clear();
    rejected_clients.clear();
  }
};

/// One shard's contribution to a two-tier round: either an exact mergeable
/// accumulator (FedAvg — running weighted/plain ψ sums in double, fold order
/// = arena slot order) or routed selection metadata (every selector — the
/// shard-local aggregate plus its accept/reject split and strategy-specific
/// scores). The root merges partials with AggregationStrategy::
/// merge_partials_into; docs/SHARDING.md states the exact-merge vs
/// metadata-routing contract.
struct ShardPartial {
  std::size_t shard_id = 0;
  /// Rows folded into this partial (0 = the shard collected nothing and the
  /// root must skip it).
  std::size_t client_count = 0;
  /// Ground-truth malicious rows among them (round bookkeeping at the root).
  std::size_t malicious_count = 0;
  /// Ground-truth malicious rows among rejected_clients (the root's
  /// detection tally; the rest of rejected_clients are benign rejects).
  std::size_t rejected_malicious_count = 0;

  // ---- Exact path (supports_exact_merge() strategies) -----------------------
  bool exact = false;
  double weight_sum = 0.0;               // Σ num_samples (exact in double)
  std::vector<double> psi_weighted_sum;  // Σ w·ψ, folded in slot order
  /// Σ ψ, maintained alongside so the root can apply weighted_mean_into's
  /// all-weights-zero fallback globally (a shard cannot know the global
  /// total weight).
  std::vector<double> psi_plain_sum;

  // ---- Metadata-routing path (everything else) ------------------------------
  std::vector<float> parameters;  // shard-local aggregate
  /// Strategy-specific selection scores in cohort slot order (Krum distances
  /// sums, FedGuard synthetic-set accuracies); diagnostics for the root.
  std::vector<double> selection_scores;
  double selection_threshold = 0.0;

  // ---- Both paths -----------------------------------------------------------
  std::vector<int> accepted_clients;
  std::vector<int> rejected_clients;

  /// Empties every buffer, keeping capacity for round reuse.
  void clear() noexcept {
    shard_id = 0;
    client_count = 0;
    malicious_count = 0;
    rejected_malicious_count = 0;
    exact = false;
    weight_sum = 0.0;
    psi_weighted_sum.clear();
    psi_plain_sum.clear();
    parameters.clear();
    selection_scores.clear();
    selection_threshold = 0.0;
    accepted_clients.clear();
    rejected_clients.clear();
  }
};

/// Fold one accepted update into an exact partial. Accumulation order and
/// arithmetic are byte-for-byte those of weighted_mean_into (products w·ψ are
/// exact in double), so folding a shard's rows in slot order and merging is
/// bit-identical to a single-tier weighted mean over the same rows whenever
/// there is one shard, and differs only by summation bracketing otherwise.
/// This is the dynamic-batching primitive: shards call it per reply, with no
/// per-round barrier.
void fold_exact_update(ShardPartial& partial, std::span<const float> psi,
                       const UpdateMeta& meta);

class AggregationStrategy {
 public:
  virtual ~AggregationStrategy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// True if clients must also upload their CVAE decoder parameters
  /// (FedGuard only); drives the Table V traffic accounting.
  [[nodiscard]] virtual bool wants_decoders() const { return false; }

  /// Flat decoder length each upload must carry when wants_decoders(); sizes
  /// the round arena's theta planes. 0 for strategies that ignore decoders.
  [[nodiscard]] virtual std::size_t decoder_parameter_count() const { return 0; }

  /// True when shard partials merge into exactly the single-tier result
  /// (FedAvg: a weighted mean is associative up to summation bracketing).
  /// Exact strategies may be folded incrementally per reply via
  /// fold_exact_update; selectors need the whole cohort and run locally.
  [[nodiscard]] virtual bool supports_exact_merge() const { return false; }

  /// Shard-tier entry point: aggregate one cohort's view into a ShardPartial
  /// (cleared first). Validates the view — uniform non-zero dimension, finite
  /// rows — before dispatching to the strategy body, then tallies the
  /// cohort's ground-truth bookkeeping.
  void partial_aggregate_into(const AggregationContext& context, const UpdateView& updates,
                              std::size_t shard_id, ShardPartial& out);

  /// Root-tier entry point: combine shard partials into the round result
  /// (cleared first). Exact partials are summed and divided once (global
  /// zero-weight fallback preserved); metadata partials are combined as the
  /// accepted-count-weighted mean of the shard-local aggregates, with
  /// accept/reject sets unioned in shard order. Partials with
  /// client_count == 0 (dead or empty shards) are skipped; throws
  /// std::invalid_argument when nothing is mergeable.
  void merge_partials_into(const AggregationContext& context,
                           std::span<const ShardPartial> partials, AggregationResult& out);

 private:
  /// Strategy body. `updates` is non-empty with a validated uniform psi
  /// dimension; `out` arrives cleared with its shard_id set. Exact
  /// strategies fold every row with fold_exact_update. Selectors route
  /// metadata: they write the cohort's aggregate into `out.parameters` and
  /// its accept/reject split, plus any selection scores for the root.
  virtual void do_partial_aggregate(const AggregationContext& context,
                                    const UpdateView& updates, ShardPartial& out) = 0;

  std::vector<double> merge_accumulator_;  // round-persistent merge scratch
};

// ---- Shared helpers used by several strategies -------------------------------

/// Sample-count weighted arithmetic mean of the viewed psi rows, written into
/// `out` using `accumulator` as caller-owned scratch (both resized in place).
/// Falls back to the unweighted mean when all counts are zero.
void weighted_mean_into(const UpdateView& updates, std::vector<double>& accumulator,
                        std::vector<float>& out);

/// Unweighted mean of selected view slots (by index into `updates`), in the
/// caller-given slot order.
void mean_of_into(const UpdateView& updates, std::span<const std::size_t> selected,
                  std::vector<double>& accumulator, std::vector<float>& out);

/// Throws std::invalid_argument unless the view is non-empty with a non-zero
/// dimension, and (in FEDGUARD_ASSERTS builds) util::CheckError unless every
/// row is finite; returns the dimension. This is the single boundary at
/// which a NaN/Inf-poisoned upload is rejected before it can reach an
/// accumulator.
std::size_t validate_view(const UpdateView& updates);

}  // namespace fedguard::defenses
