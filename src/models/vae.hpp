#pragma once
// Unconditional VAE over model-update surrogate vectors, used by the
// SPECTRAL baseline (Li et al., "Learning to Detect Malicious Clients for
// Robust Federated Learning"). The server pre-trains this VAE on surrogates
// of benign updates; at defense time, updates whose surrogate reconstructs
// poorly are excluded.
//
// Unlike the image CVAE, surrogates are unbounded reals, so the decoder
// output is linear and the reconstruction loss is MSE.

#include <cstdint>
#include <memory>
#include <span>

#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/optimizer.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace fedguard::models {

struct VaeSpec {
  std::size_t input_dim = 0;  // surrogate dimension (set from the model)
  std::size_t hidden = 64;
  std::size_t latent = 8;
};

class Vae {
 public:
  Vae(const VaeSpec& spec, std::uint64_t seed);

  /// One Adam step on a batch of surrogates [N, input_dim]; returns the
  /// total loss (MSE + KL weight * KL).
  float train_batch(const tensor::Tensor& batch, float learning_rate,
                    float kl_weight = 1e-3f);

  /// Train with shuffled mini-batches; returns final-epoch mean loss. Throws
  /// std::invalid_argument when `batch_size` is 0.
  float train(const tensor::Tensor& data, std::size_t epochs, std::size_t batch_size,
              float learning_rate, float kl_weight = 1e-3f);

  /// Deterministic reconstruction (z = mu) of a batch.
  [[nodiscard]] tensor::Tensor reconstruct(const tensor::Tensor& batch);

  /// Per-sample mean squared reconstruction error.
  [[nodiscard]] std::vector<double> reconstruction_errors(const tensor::Tensor& batch);

  [[nodiscard]] const VaeSpec& spec() const noexcept { return spec_; }

 private:
  VaeSpec spec_;
  util::Rng rng_;
  nn::Linear encoder_hidden_;
  nn::ReLU encoder_act_;
  nn::Linear mu_head_;
  nn::Linear logvar_head_;
  nn::Linear decoder_hidden_;
  nn::ReLU decoder_act_;
  nn::Linear decoder_out_;
  std::unique_ptr<nn::Adam> optimizer_;
  float optimizer_lr_ = 0.0f;

  [[nodiscard]] std::vector<nn::Parameter*> all_parameters();
  [[nodiscard]] tensor::Tensor decode(const tensor::Tensor& z);
};

}  // namespace fedguard::models
