#pragma once
// Conditional Variational AutoEncoder (Sohn et al. 2015) as configured in
// Table III of the paper:
//   encoder: Linear(794 -> 400) ReLU, then two heads Linear(400 -> 20) for
//            mu and log-variance;
//   decoder: Linear(30 -> 400) ReLU, Linear(400 -> 784+...) wait: 794?
//
// Table III lists the decoder output as 794 units; functionally only the
// leading 784 pixels are the reconstruction (the trailing 10 mirror the
// conditioning one-hot). We reproduce the 794-unit output so the parameter
// count matches the table (664,834 total), and reconstruct targets of
// x ++ one_hot(y), which trains the tail to reproduce the condition.
//
// The decoder is a detachable unit (CvaeDecoder) because FedGuard ships only
// decoder parameters θ to the server (Alg. 1 line 18).

#include <cstdint>
#include <memory>
#include <span>

#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace fedguard::models {

/// Dimensions of a CVAE instance. Defaults reproduce Table III.
struct CvaeSpec {
  std::size_t input_dim = 784;   // flattened image size
  std::size_t num_classes = 10;  // conditioning variable cardinality L
  std::size_t hidden = 400;
  std::size_t latent = 20;

  [[nodiscard]] std::size_t encoder_input() const noexcept { return input_dim + num_classes; }
  [[nodiscard]] std::size_t decoder_input() const noexcept { return latent + num_classes; }
  /// Decoder output mirrors the encoder input (x ++ one_hot(y)), per Table III.
  [[nodiscard]] std::size_t decoder_output() const noexcept { return encoder_input(); }
};

/// The conditional decoder D_theta : Z x Y -> X. Shippable to the server and
/// reconstructable from a flat parameter vector.
class CvaeDecoder {
 public:
  CvaeDecoder(const CvaeSpec& spec, std::uint64_t seed);

  /// Synthesize data: latent batch z [N, latent] + labels -> images
  /// [N, input_dim] in [0, 1] (the conditioning tail of the raw output is
  /// stripped).
  [[nodiscard]] tensor::Tensor decode(const tensor::Tensor& z, std::span<const int> labels);

  /// Raw forward on a pre-concatenated [N, latent+classes] input, returning
  /// the full [N, decoder_output] activation (used during CVAE training).
  [[nodiscard]] tensor::Tensor forward_raw(const tensor::Tensor& zy) {
    return network_.forward(zy);
  }
  [[nodiscard]] tensor::Tensor backward_raw(const tensor::Tensor& grad) {
    return network_.backward(grad);
  }

  [[nodiscard]] nn::Sequential& network() noexcept { return network_; }
  [[nodiscard]] const CvaeSpec& spec() const noexcept { return spec_; }

  [[nodiscard]] std::vector<float> parameters_flat() ;
  /// Span form of parameters_flat; `out` size must equal parameter_count().
  void copy_parameters_to(std::span<float> out);
  void load_parameters_flat(std::span<const float> flat);
  [[nodiscard]] std::size_t parameter_count();

 private:
  CvaeSpec spec_;
  nn::Sequential network_;
};

/// Result of one CVAE training pass.
struct CvaeLoss {
  float total = 0.0f;
  float reconstruction = 0.0f;
  float kl = 0.0f;
};

/// Full CVAE (encoder + decoder) with manual training wiring of the
/// reparameterization trick. Optimized with Adam as in the reference
/// implementation.
class Cvae {
 public:
  Cvae(const CvaeSpec& spec, std::uint64_t seed);

  /// One optimization step on a batch: images [N, input_dim] in [0,1],
  /// labels N ints. Returns the losses.
  CvaeLoss train_batch(const tensor::Tensor& images, std::span<const int> labels,
                       float learning_rate);

  /// Train `epochs` full passes over the data with shuffled mini-batches.
  /// Returns the mean total loss of the final epoch. Throws
  /// std::invalid_argument when `batch_size` is 0.
  float train(const tensor::Tensor& images, std::span<const int> labels, std::size_t epochs,
              std::size_t batch_size, float learning_rate);

  /// Encode a batch to (mu, logvar).
  struct Encoding {
    tensor::Tensor mu;
    tensor::Tensor logvar;
  };
  [[nodiscard]] Encoding encode(const tensor::Tensor& images, std::span<const int> labels);

  /// Reconstruct a batch (deterministic: z = mu).
  [[nodiscard]] tensor::Tensor reconstruct(const tensor::Tensor& images,
                                           std::span<const int> labels);

  [[nodiscard]] CvaeDecoder& decoder() noexcept { return decoder_; }
  [[nodiscard]] const CvaeSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::size_t parameter_count();

 private:
  CvaeSpec spec_;
  util::Rng rng_;
  nn::Linear encoder_hidden_;
  nn::ReLU encoder_act_;
  nn::Linear mu_head_;
  nn::Linear logvar_head_;
  CvaeDecoder decoder_;
  std::unique_ptr<nn::Adam> optimizer_;
  float optimizer_lr_ = 0.0f;

  [[nodiscard]] std::vector<nn::Parameter*> all_parameters();
};

/// Sample `count` latent vectors z ~ N(0, 1) of dimension `latent`.
[[nodiscard]] tensor::Tensor sample_standard_normal(std::size_t count, std::size_t latent,
                                                    util::Rng& rng);

/// Sample `count` labels y ~ Cat(L, alpha). `alpha` must have L entries (they
/// are normalized internally); pass a uniform vector for the paper's
/// class-balanced validation data.
[[nodiscard]] std::vector<int> sample_categorical_labels(std::size_t count,
                                                         std::span<const double> alpha,
                                                         util::Rng& rng);

}  // namespace fedguard::models
