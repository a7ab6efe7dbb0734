#pragma once
// Aggregation strategy interface shared by the FL round and all defenses.
//
// Per federated round the uploads land as rows of a round-scoped UpdateMatrix
// arena. Each shard hands its own strategy instance a view over its cohort's
// rows (partial_aggregate_into) and the root merges the shard partials into
// the new global parameter vector plus the accept/reject split the shards
// decided on (the free merge_partials_into, which needs no strategy);
// fl::RoundEngine makes exactly these two calls, with one shard (S = 1) for a
// single-tier round.
//
// Strategies implement the private do_partial_aggregate() hook, which
// computes the cohort's aggregate and names the slots it kept; the public
// entry point validates the view (dimension + NaN/Inf choke point) exactly
// once before dispatching, then writes the accept/reject split, the
// ground-truth tallies and the decision record itself.

#include <cstdint>
#include <functional>
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
/// shard-local aggregate plus its accept/reject split and decision record).
/// The root merges partials with merge_partials_into; docs/SHARDING.md
/// states the exact-merge vs metadata-routing contract.
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
  /// The decision record: one selection score per cohort slot, in slot order
  /// (FedGuard and AuxAudit accuracies, Spectral reconstruction errors, Krum
  /// neighbour-distance sums, FedCPA similarities); empty for strategies that
  /// score nothing.
  std::vector<double> selection_scores;
  /// The mean the mean-threshold selectors cut their scores at; 0 otherwise.
  double selection_threshold = 0.0;

  // ---- Both paths -----------------------------------------------------------
  /// The cohort's client ids split by the strategy's decision, each list in
  /// ascending slot order.
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

/// What a strategy's hook decided about its cohort. The spans point into
/// strategy-owned scratch that stays valid until the strategy's next call;
/// partial_aggregate_into copies them into the ShardPartial.
struct Selection {
  /// Cohort slots the aggregate was built from, in any order; empty keeps
  /// every slot.
  std::span<const std::size_t> kept{};
  /// One selection score per cohort slot; empty when the strategy scores none.
  std::span<const double> scores{};
  /// The cut the scores were held against (the mean rule); 0 otherwise.
  double threshold = 0.0;
};

/// Which side of the mean a mean-threshold selector keeps.
enum class KeepSide { AtOrAbove, AtOrBelow };

/// The mean-threshold rule FedGuard (Alg. 1 lines 6-7), AuxAudit and Spectral
/// share: keeps, in slot order, the slots whose score lies at or above (at or
/// below) the mean of `scores`, or every slot when none does. `kept` is the
/// caller's scratch; the Selection records the scores and their mean.
[[nodiscard]] Selection select_by_mean(std::span<const double> scores, KeepSide side,
                                       std::vector<std::size_t>& kept);

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
  /// rows — before dispatching to the strategy body; for a selector it then
  /// splits the cohort by the kept slots, tallies the ground truth by slot
  /// and copies the decision record.
  void partial_aggregate_into(const AggregationContext& context, const UpdateView& updates,
                              std::size_t shard_id, ShardPartial& out);

 private:
  /// Strategy body. `updates` is non-empty with a validated uniform psi
  /// dimension; `out` arrives cleared with its shard_id set. Exact
  /// strategies fold every row with fold_exact_update and return {}.
  /// Selectors write the cohort's aggregate into `out.parameters` and return
  /// the slots it was built from, with their scores if they compute any;
  /// they never touch the client lists or the record.
  virtual Selection do_partial_aggregate(const AggregationContext& context,
                                         const UpdateView& updates, ShardPartial& out) = 0;

  std::vector<unsigned char> kept_mask_;  // per-slot split scratch
};

/// Builds one strategy instance per call. fl::RoundEngine calls it once per
/// shard, so every shard aggregates with its own instance and its own seeded
/// state, on either transport.
using StrategyFactory = std::function<std::unique_ptr<AggregationStrategy>()>;

/// Root-tier entry point: combine shard partials into the round result
/// (cleared first). Exact partials are summed and divided once (global
/// zero-weight fallback preserved); metadata partials are combined as the
/// accepted-count-weighted mean of the shard-local aggregates, with
/// accept/reject sets unioned in shard order. Partials with
/// client_count == 0 (dead or empty shards) are skipped; throws
/// std::invalid_argument when nothing is mergeable.
void merge_partials_into(std::span<const ShardPartial> partials, AggregationResult& out);

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
