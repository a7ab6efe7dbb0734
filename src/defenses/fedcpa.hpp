#pragma once
// FedCPA — critical parameter analysis (Han et al. 2023, arXiv 2308.09318).
//
// Benign updates agree on WHICH coordinates matter and which way they move;
// poisoned updates either move different coordinates (noise, same-value) or
// move the same critical coordinates the other way (sign flip, covert
// gradient ascent). FedCPA scores each update by the similarity of its
// critical-parameter set to everyone else's and keeps the most mutually
// similar half:
//
//   1. critical set C_k = top-t coordinates of |ψ_k − ψ0| (t = top_fraction·d)
//   2. sim(a, b)   = clamped sparse cosine of the deltas restricted to
//                    C_a ∪ C_b (coords outside the other's set contribute
//                    only to the norm, so disjoint sets score 0 — Jaccard
//                    and sign agreement in one number)
//   3. score_k     = mean over j≠k of sim(k, j), gated by sim(k, m) where m
//                    is the coordinate-wise median delta: a colluding clique
//                    of near-identical poisoned updates has mutual sim ≈ 1
//                    but cannot move the median while it is a minority, so
//                    the gate zeroes the clique instead of crowning it.
//                    Keep the ceil(keep_fraction·n) highest, reject the rest.
//
// Unlike distance defenses it is invariant to delta magnitude (catching
// norm-constrained covert poisoning) and unlike norm thresholds it sees
// direction (catching sign flips that preserve magnitudes).

#include <cstdint>
#include <vector>

#include "defenses/aggregation.hpp"

namespace fedguard::defenses {

struct FedCpaConfig {
  double top_fraction = 0.05;   // fraction of coordinates deemed critical
  double keep_fraction = 0.5;   // fraction of clients kept per round
};

class FedCpaAggregator final : public AggregationStrategy {
 public:
  explicit FedCpaAggregator(const FedCpaConfig& config = {}) : config_{config} {}
  [[nodiscard]] std::string name() const override { return "fedcpa"; }

  /// Exposed for unit tests: pairwise critical-parameter similarity in [0, 1]
  /// between two sorted index sets with aligned delta values.
  [[nodiscard]] static double critical_similarity(std::span<const std::uint32_t> top_a,
                                                  std::span<const float> values_a,
                                                  std::span<const std::uint32_t> top_b,
                                                  std::span<const float> values_b);

 private:
  /// The per-slot gated similarity scores travel upward as the decision
  /// record.
  Selection do_partial_aggregate(const AggregationContext& context, const UpdateView& updates,
                                 ShardPartial& out) override;

  FedCpaConfig config_;
  // Round-persistent scratch (reused across rounds; sized on first use).
  std::vector<std::vector<std::uint32_t>> top_sets_;
  std::vector<std::vector<float>> top_values_;
  std::vector<std::uint32_t> index_scratch_;
  std::vector<float> median_delta_;
  std::vector<float> coord_scratch_;
  std::vector<std::uint32_t> median_set_;
  std::vector<float> median_values_;
  std::vector<double> scores_;
  std::vector<std::size_t> order_;
  std::vector<std::size_t> selected_;
  std::vector<double> accumulator_;
};

}  // namespace fedguard::defenses
