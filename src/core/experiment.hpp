#pragma once
// Experiment configuration — the single knob panel for every scenario in the
// paper's evaluation. Two presets are provided:
//
//   small_scale(): the default for benches/tests; same pipeline and dynamics
//                  at a size that regenerates every table/figure on one CPU
//                  core in minutes (reduced N/m/R, TinyCnn-class models).
//   paper_scale(): the paper's exact setup — N=100 clients, m=50 per round,
//                  R=50 rounds, Dirichlet(α=10), Table II classifier,
//                  Table III CVAE, 5 local epochs, 30 CVAE epochs, t=100.

#include <array>
#include <cstdint>
#include <string>

#include "attacks/attack.hpp"
#include "attacks/label_flip.hpp"
#include "data/partition.hpp"
#include "defenses/fedguard.hpp"
#include "defenses/spectral.hpp"
#include "fl/client.hpp"
#include "fl/fault_plan.hpp"
#include "models/classifier.hpp"
#include "models/cvae.hpp"
#include "obs/exporter.hpp"
#include "parallel/kernel_config.hpp"
#include "tensor/kernels/kernel_arch.hpp"
#include "util/serialize.hpp"

namespace fedguard::core {

enum class StrategyKind {
  FedAvg,
  GeoMed,
  Krum,
  MultiKrum,
  Median,
  TrimmedMean,
  NormThreshold,
  Bulyan,
  AuxAudit,  // PDGAN-style auxiliary-dataset audit (idealized)
  Spectral,
  FedGuard,
  FedCPA,  // critical parameter analysis (arXiv 2308.09318)
};

/// Every StrategyKind, for exhaustive iteration (parse round-trip tests, the
/// scenario sweep roster). Extend in lockstep with the enum.
inline constexpr std::array<StrategyKind, 12> kAllStrategyKinds{
    StrategyKind::FedAvg,        StrategyKind::GeoMed,   StrategyKind::Krum,
    StrategyKind::MultiKrum,     StrategyKind::Median,   StrategyKind::TrimmedMean,
    StrategyKind::NormThreshold, StrategyKind::Bulyan,   StrategyKind::AuxAudit,
    StrategyKind::Spectral,      StrategyKind::FedGuard, StrategyKind::FedCPA,
};

[[nodiscard]] const char* to_string(StrategyKind kind) noexcept;
[[nodiscard]] StrategyKind strategy_kind_from_string(const std::string& text);

struct ExperimentConfig {
  // ---- Dataset --------------------------------------------------------------
  std::size_t train_samples = 2400;
  std::size_t test_samples = 600;
  std::size_t auxiliary_samples = 400;  // server-side public data (Spectral)
  std::size_t image_size = 28;
  double dirichlet_alpha = 10.0;  // paper: α = 10 (Hsu et al.)
  // Heterogeneity regime for the client split (descriptor key
  // partition_scheme); dirichlet_alpha doubles as the quantity-skew α.
  data::PartitionScheme partition_scheme = data::PartitionScheme::Dirichlet;
  std::size_t shards_per_client = 2;  // shard scheme only

  // ---- Federation ------------------------------------------------------------
  std::size_t num_clients = 24;        // paper: 100
  std::size_t clients_per_round = 8;   // paper: m = 50
  std::size_t rounds = 12;             // paper: R = 50
  float server_learning_rate = 1.0f;   // Fig. 5 ablates 0.3
  bool track_per_class_accuracy = false;  // targeted-attack analysis

  // ---- Client training --------------------------------------------------------
  fl::ClientConfig client;

  // ---- Models ----------------------------------------------------------------
  models::ClassifierArch arch = models::ClassifierArch::Mlp;
  models::CvaeSpec cvae;  // input_dim is forced to image pixels by the runner

  // ---- Attack scenario ---------------------------------------------------------
  attacks::AttackType attack = attacks::AttackType::None;
  double malicious_fraction = 0.0;
  float same_value_constant = 1.0f;  // paper: c = 1
  double noise_stddev = 1.0;         // additive noise / random update scale
  float scaling_boost = 10.0f;       // λ for the scaling (model replacement) attack
  float covert_stealth = 1.0f;       // covert attack norm budget (× honest delta)
  double krum_evade_epsilon = 0.05;  // krum_evade collusion offset (× honest delta)
  std::vector<std::pair<int, int>> flip_pairs = attacks::default_flip_pairs();

  // ---- Defense strategy ----------------------------------------------------------
  StrategyKind strategy = StrategyKind::FedGuard;
  std::size_t fedguard_total_samples = 100;  // t (paper: 2m = 100)
  defenses::InternalOperator fedguard_internal_operator =
      defenses::InternalOperator::FedAvg;
  defenses::FedGuardConfig::ScoreMetric fedguard_score_metric =
      defenses::FedGuardConfig::ScoreMetric::Accuracy;
  double krum_byzantine_fraction = 0.25;
  std::size_t multi_krum_k = 3;
  double trimmed_mean_fraction = 0.2;
  double bulyan_byzantine_fraction = 0.2;
  std::size_t aux_audit_warmup_rounds = 0;  // PDGAN-style init phase length
  double fedcpa_top_fraction = 0.05;   // FedCPA critical-coordinate fraction
  double fedcpa_keep_fraction = 0.5;   // FedCPA kept-client fraction
  defenses::SpectralConfig spectral;

  // ---- Two-tier topology (ROADMAP item 2) --------------------------------------
  // Number of edge shard aggregators (descriptor key shards; 1 = single-tier).
  // The in-process server partitions sampled updates into per-shard cohorts
  // and runs the mergeable-accumulator seam; net::HierarchicalServer runs one
  // reactor thread per shard over real sockets with the same partition. See
  // docs/SHARDING.md. (Distinct from shards_per_client, the data-partition
  // scheme knob above.)
  std::size_t shards = 1;

  // ---- Fault policy and plan (both transports) ---------------------------------
  // Partial-federation floor and ejection streak, mapped by core::round_config
  // for the in-process server and the socket deployment alike; the accept
  // and round deadlines only exist on sockets
  // (core::hierarchical_server_config). See docs/ROBUSTNESS.md.
  std::size_t min_clients = 0;           // 0 = all N must join
  std::size_t eject_after_failures = 3;  // 0 = never eject
  std::size_t remote_accept_timeout_ms = 30000;
  std::size_t remote_round_timeout_ms = 30000;
  // Seeded chaos plan (all probabilities default 0: no faults). Both
  // transports play it; replaying the same fault_seed reproduces the exact
  // fault schedule regardless of thread/socket timing.
  fl::FaultPlan fault_plan;

  // ---- Compute kernels -------------------------------------------------------
  // Applied process-wide (parallel::set_kernel_config) when the federation is
  // built; descriptor key kernel_threads sets the pool size (FEDGUARD_THREADS
  // overrides a kernel_threads of 0, auto). The fan-out thresholds have no
  // descriptor keys: tests and micro-benches set them on the struct.
  parallel::KernelConfig kernel;
  // SIMD kernel tier (descriptor key kernel_arch: auto/serial/avx2/avx512);
  // applied process-wide via tensor::kernels::set_kernel_arch when the
  // federation is built. Auto defers to the FEDGUARD_KERNEL_ARCH env var and
  // then to the best tier the CPU supports.
  tensor::kernels::KernelArch kernel_arch = tensor::kernels::KernelArch::Auto;

  // ---- ψ-upload wire codec ---------------------------------------------------
  // Descriptor keys wire_codec (fp32/q8/fp16) and wire_chunk_size. Applied to
  // the in-process server (bit-identical simulated quantization roundtrip)
  // and the remote deployment (actual quantized reply frames) alike.
  util::WireCodec wire_codec = util::WireCodec::Fp32;
  std::size_t wire_chunk_size = util::kDefaultQ8ChunkSize;

  // ---- Observability ---------------------------------------------------------
  // Trace/metrics export for the run; keys obs_trace_path / obs_metrics_path /
  // obs_flush_every_rounds / obs_histogram_buckets in the descriptor (see
  // docs/OBSERVABILITY.md and docs/CONFIG_REFERENCE.md). Off by default.
  obs::ObsOptions obs;

  std::uint64_t seed = 42;

  /// Reduced-scale preset (the constructed default, spelled out).
  [[nodiscard]] static ExperimentConfig small_scale();
  /// The paper's exact configuration (GRID'5000 scale; hours on one core).
  [[nodiscard]] static ExperimentConfig paper_scale();

  /// Image geometry implied by the dataset fields.
  [[nodiscard]] models::ImageGeometry geometry() const noexcept {
    return models::ImageGeometry{1, image_size, image_size, 10};
  }
};

}  // namespace fedguard::core
