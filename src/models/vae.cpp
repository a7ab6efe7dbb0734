#include "models/vae.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "nn/loss.hpp"

namespace fedguard::models {

Vae::Vae(const VaeSpec& spec, std::uint64_t seed)
    : spec_{spec},
      rng_{seed},
      encoder_hidden_{spec.input_dim, spec.hidden, rng_},
      mu_head_{spec.hidden, spec.latent, rng_},
      logvar_head_{spec.hidden, spec.latent, rng_},
      decoder_hidden_{spec.latent, spec.hidden, rng_},
      decoder_out_{spec.hidden, spec.input_dim, rng_} {
  if (spec.input_dim == 0) throw std::invalid_argument{"Vae: input_dim must be set"};
}

std::vector<nn::Parameter*> Vae::all_parameters() {
  std::vector<nn::Parameter*> params;
  for (nn::Linear* layer :
       {&encoder_hidden_, &mu_head_, &logvar_head_, &decoder_hidden_, &decoder_out_}) {
    for (nn::Parameter* p : layer->parameters()) params.push_back(p);
  }
  return params;
}

tensor::Tensor Vae::decode(const tensor::Tensor& z) {
  return decoder_out_.forward(decoder_act_.forward(decoder_hidden_.forward(z)));
}

float Vae::train_batch(const tensor::Tensor& batch, float learning_rate, float kl_weight) {
  if (batch.rank() != 2 || batch.dim(1) != spec_.input_dim) {
    throw std::invalid_argument{"Vae::train_batch: input shape mismatch"};
  }
  if (!optimizer_ || optimizer_lr_ != learning_rate) {
    optimizer_ = std::make_unique<nn::Adam>(all_parameters(), learning_rate);
    optimizer_lr_ = learning_rate;
  }
  optimizer_->zero_grad();

  const std::size_t n = batch.dim(0);
  const tensor::Tensor h = encoder_act_.forward(encoder_hidden_.forward(batch));
  const tensor::Tensor mu = mu_head_.forward(h);
  const tensor::Tensor logvar = logvar_head_.forward(h);

  tensor::Tensor eps{{n, spec_.latent}};
  for (auto& v : eps.data()) v = static_cast<float>(rng_.normal());
  tensor::Tensor z{{n, spec_.latent}};
  for (std::size_t i = 0; i < z.size(); ++i) {
    z[i] = mu[i] + std::exp(0.5f * logvar[i]) * eps[i];
  }

  const tensor::Tensor reconstruction = decode(z);
  const nn::LossResult mse = nn::mean_squared_error(reconstruction, batch);
  const nn::GaussianKlResult kl = nn::gaussian_kl(mu, logvar);

  const tensor::Tensor grad_z = decoder_hidden_.backward(
      decoder_act_.backward(decoder_out_.backward(mse.grad)));

  tensor::Tensor grad_mu{{n, spec_.latent}};
  tensor::Tensor grad_logvar{{n, spec_.latent}};
  for (std::size_t i = 0; i < grad_z.size(); ++i) {
    grad_mu[i] = grad_z[i] + kl_weight * kl.grad_mu[i];
    grad_logvar[i] = grad_z[i] * 0.5f * std::exp(0.5f * logvar[i]) * eps[i] +
                     kl_weight * kl.grad_logvar[i];
  }

  const tensor::Tensor grad_h_mu = mu_head_.backward(grad_mu);
  const tensor::Tensor grad_h_logvar = logvar_head_.backward(grad_logvar);
  tensor::Tensor grad_h{grad_h_mu.shape()};
  for (std::size_t i = 0; i < grad_h.size(); ++i) grad_h[i] = grad_h_mu[i] + grad_h_logvar[i];
  encoder_hidden_.backward_parameters(encoder_act_.backward(grad_h));

  optimizer_->step();
  return mse.value + kl_weight * kl.value;
}

float Vae::train(const tensor::Tensor& data, std::size_t epochs, std::size_t batch_size,
                 float learning_rate, float kl_weight) {
  if (batch_size == 0) throw std::invalid_argument{"Vae::train: batch_size must be > 0"};
  const std::size_t count = data.dim(0);
  if (count == 0) return 0.0f;
  batch_size = std::min(batch_size, count);
  std::vector<std::size_t> order(count);
  std::iota(order.begin(), order.end(), std::size_t{0});

  float last_epoch_loss = 0.0f;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    rng_.shuffle(order);
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < count; start += batch_size) {
      const std::size_t n = std::min(batch_size, count - start);
      tensor::Tensor batch{{n, spec_.input_dim}};
      for (std::size_t i = 0; i < n; ++i) {
        const auto row = data.row(order[start + i]);
        std::copy(row.begin(), row.end(), batch.row(i).begin());
      }
      epoch_loss += train_batch(batch, learning_rate, kl_weight);
      ++batches;
    }
    last_epoch_loss = static_cast<float>(epoch_loss / static_cast<double>(batches));
  }
  return last_epoch_loss;
}

tensor::Tensor Vae::reconstruct(const tensor::Tensor& batch) {
  const tensor::Tensor h = encoder_act_.forward(encoder_hidden_.forward(batch));
  const tensor::Tensor mu = mu_head_.forward(h);
  return decode(mu);
}

std::vector<double> Vae::reconstruction_errors(const tensor::Tensor& batch) {
  const tensor::Tensor reconstruction = reconstruct(batch);
  std::vector<double> errors(batch.dim(0));
  for (std::size_t n = 0; n < batch.dim(0); ++n) {
    const auto original = batch.row(n);
    const auto recon = reconstruction.row(n);
    double total = 0.0;
    for (std::size_t i = 0; i < original.size(); ++i) {
      const double d = static_cast<double>(original[i]) - static_cast<double>(recon[i]);
      total += d * d;
    }
    errors[n] = total / static_cast<double>(original.size());
  }
  return errors;
}

}  // namespace fedguard::models
