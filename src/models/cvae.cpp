#include "models/cvae.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "models/common.hpp"
#include "nn/loss.hpp"
#include "nn/parameter_vector.hpp"

namespace fedguard::models {

CvaeDecoder::CvaeDecoder(const CvaeSpec& spec, std::uint64_t seed) : spec_{spec} {
  util::Rng rng{seed};
  network_.emplace<nn::Linear>(spec.decoder_input(), spec.hidden, rng);
  network_.emplace<nn::ReLU>();
  network_.emplace<nn::Linear>(spec.hidden, spec.decoder_output(), rng);
  network_.emplace<nn::Sigmoid>();
}

tensor::Tensor CvaeDecoder::decode(const tensor::Tensor& z, std::span<const int> labels) {
  if (z.rank() != 2 || z.dim(1) != spec_.latent || z.dim(0) != labels.size()) {
    throw std::invalid_argument{"CvaeDecoder::decode: latent shape mismatch"};
  }
  const tensor::Tensor zy = concat_columns(z, one_hot(labels, spec_.num_classes));
  const tensor::Tensor raw = network_.forward(zy);
  // Strip the conditioning tail; keep only the image reconstruction.
  tensor::Tensor images{{raw.dim(0), spec_.input_dim}};
  for (std::size_t n = 0; n < raw.dim(0); ++n) {
    const auto src = raw.row(n);
    std::copy(src.begin(), src.begin() + static_cast<std::ptrdiff_t>(spec_.input_dim),
              images.row(n).begin());
  }
  return images;
}

std::vector<float> CvaeDecoder::parameters_flat() { return nn::flatten_parameters(network_); }

void CvaeDecoder::copy_parameters_to(std::span<float> out) {
  nn::copy_parameters_to(network_, out);
}

void CvaeDecoder::load_parameters_flat(std::span<const float> flat) {
  nn::unflatten_parameters(network_, flat);
}

std::size_t CvaeDecoder::parameter_count() { return network_.parameter_count(); }

Cvae::Cvae(const CvaeSpec& spec, std::uint64_t seed)
    : spec_{spec},
      rng_{seed},
      encoder_hidden_{spec.encoder_input(), spec.hidden, rng_},
      mu_head_{spec.hidden, spec.latent, rng_},
      logvar_head_{spec.hidden, spec.latent, rng_},
      decoder_{spec, seed ^ 0xdec0deULL} {}

std::vector<nn::Parameter*> Cvae::all_parameters() {
  std::vector<nn::Parameter*> params;
  for (nn::Parameter* p : encoder_hidden_.parameters()) params.push_back(p);
  for (nn::Parameter* p : mu_head_.parameters()) params.push_back(p);
  for (nn::Parameter* p : logvar_head_.parameters()) params.push_back(p);
  for (nn::Parameter* p : decoder_.network().parameters()) params.push_back(p);
  return params;
}

std::size_t Cvae::parameter_count() {
  std::size_t total = 0;
  for (nn::Parameter* p : all_parameters()) total += p->size();
  return total;
}

Cvae::Encoding Cvae::encode(const tensor::Tensor& images, std::span<const int> labels) {
  if (images.rank() != 2 || images.dim(1) != spec_.input_dim ||
      images.dim(0) != labels.size()) {
    throw std::invalid_argument{"Cvae::encode: input shape mismatch"};
  }
  const tensor::Tensor xy = concat_columns(images, one_hot(labels, spec_.num_classes));
  const tensor::Tensor h = encoder_act_.forward(encoder_hidden_.forward(xy));
  Encoding enc;
  enc.mu = mu_head_.forward(h);
  enc.logvar = logvar_head_.forward(h);
  return enc;
}

tensor::Tensor Cvae::reconstruct(const tensor::Tensor& images, std::span<const int> labels) {
  const Encoding enc = encode(images, labels);
  return decoder_.decode(enc.mu, labels);
}

CvaeLoss Cvae::train_batch(const tensor::Tensor& images, std::span<const int> labels,
                           float learning_rate) {
  if (images.rank() != 2 || images.dim(1) != spec_.input_dim ||
      images.dim(0) != labels.size()) {
    throw std::invalid_argument{"Cvae::train_batch: input shape mismatch"};
  }
  if (!optimizer_ || optimizer_lr_ != learning_rate) {
    optimizer_ = std::make_unique<nn::Adam>(all_parameters(), learning_rate);
    optimizer_lr_ = learning_rate;
  }
  optimizer_->zero_grad();

  const std::size_t batch = images.dim(0);
  const tensor::Tensor y = one_hot(labels, spec_.num_classes);
  const tensor::Tensor xy = concat_columns(images, y);

  // ---- Forward ----
  const tensor::Tensor h = encoder_act_.forward(encoder_hidden_.forward(xy));
  const tensor::Tensor mu = mu_head_.forward(h);
  const tensor::Tensor logvar = logvar_head_.forward(h);

  // Reparameterization: z = mu + exp(0.5*logvar) * eps, eps ~ N(0,1).
  tensor::Tensor eps{{batch, spec_.latent}};
  for (auto& v : eps.data()) v = static_cast<float>(rng_.normal());
  tensor::Tensor z{{batch, spec_.latent}};
  for (std::size_t i = 0; i < z.size(); ++i) {
    z[i] = mu[i] + std::exp(0.5f * logvar[i]) * eps[i];
  }

  const tensor::Tensor zy = concat_columns(z, y);
  const tensor::Tensor reconstruction = decoder_.forward_raw(zy);

  // Target mirrors the decoder output layout: x ++ one_hot(y).
  const nn::LossResult bce = nn::binary_cross_entropy(reconstruction, xy);
  const nn::GaussianKlResult kl = nn::gaussian_kl(mu, logvar);

  // ---- Backward ----
  const tensor::Tensor grad_zy = decoder_.backward_raw(bce.grad);
  tensor::Tensor grad_z, grad_y_unused;
  split_columns(grad_zy, spec_.latent, grad_z, grad_y_unused);

  // dL/dmu = dz (z depends on mu with unit jacobian) + KL term.
  // dL/dlogvar = dz * 0.5*exp(0.5*logvar)*eps + KL term.
  tensor::Tensor grad_mu{{batch, spec_.latent}};
  tensor::Tensor grad_logvar{{batch, spec_.latent}};
  for (std::size_t i = 0; i < grad_z.size(); ++i) {
    grad_mu[i] = grad_z[i] + kl.grad_mu[i];
    grad_logvar[i] =
        grad_z[i] * 0.5f * std::exp(0.5f * logvar[i]) * eps[i] + kl.grad_logvar[i];
  }

  const tensor::Tensor grad_h_mu = mu_head_.backward(grad_mu);
  const tensor::Tensor grad_h_logvar = logvar_head_.backward(grad_logvar);
  tensor::Tensor grad_h{grad_h_mu.shape()};
  for (std::size_t i = 0; i < grad_h.size(); ++i) {
    grad_h[i] = grad_h_mu[i] + grad_h_logvar[i];
  }
  encoder_hidden_.backward_parameters(encoder_act_.backward(grad_h));

  optimizer_->step();

  CvaeLoss out;
  out.reconstruction = bce.value;
  out.kl = kl.value;
  out.total = bce.value + kl.value;
  return out;
}

float Cvae::train(const tensor::Tensor& images, std::span<const int> labels,
                  std::size_t epochs, std::size_t batch_size, float learning_rate) {
  if (batch_size == 0) throw std::invalid_argument{"Cvae::train: batch_size must be > 0"};
  const std::size_t count = images.dim(0);
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
      tensor::Tensor batch_images{{n, spec_.input_dim}};
      std::vector<int> batch_labels(n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t src = order[start + i];
        const auto row = images.row(src);
        std::copy(row.begin(), row.end(), batch_images.row(i).begin());
        batch_labels[i] = labels[src];
      }
      epoch_loss += train_batch(batch_images, batch_labels, learning_rate).total;
      ++batches;
    }
    last_epoch_loss = static_cast<float>(epoch_loss / static_cast<double>(batches));
  }
  return last_epoch_loss;
}

tensor::Tensor sample_standard_normal(std::size_t count, std::size_t latent, util::Rng& rng) {
  tensor::Tensor z{{count, latent}};
  for (auto& v : z.data()) v = static_cast<float>(rng.normal());
  return z;
}

std::vector<int> sample_categorical_labels(std::size_t count, std::span<const double> alpha,
                                           util::Rng& rng) {
  std::vector<int> labels(count);
  for (auto& label : labels) {
    label = static_cast<int>(rng.categorical(alpha));
  }
  return labels;
}

}  // namespace fedguard::models
