#include "models/classifier.hpp"

#include <optional>
#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/maxpool2d.hpp"
#include "nn/optimizer.hpp"
#include "nn/parameter_vector.hpp"
#include "util/rng.hpp"

namespace fedguard::models {

const char* to_string(ClassifierArch arch) noexcept {
  switch (arch) {
    case ClassifierArch::PaperCnn: return "paper_cnn";
    case ClassifierArch::TinyCnn: return "tiny_cnn";
    case ClassifierArch::Mlp: return "mlp";
  }
  return "unknown";
}

ClassifierArch classifier_arch_from_string(const std::string& text) {
  if (text == "paper_cnn") return ClassifierArch::PaperCnn;
  if (text == "tiny_cnn") return ClassifierArch::TinyCnn;
  if (text == "mlp") return ClassifierArch::Mlp;
  throw std::invalid_argument{"unknown classifier arch: " + text};
}

namespace {

/// The layers of `arch`. With a seed, the weighted layers draw their initial
/// values from one Rng in network order; without one, nothing is drawn and
/// the parameters stay zero until loaded.
std::unique_ptr<nn::Sequential> build_network(ClassifierArch arch, const ImageGeometry& g,
                                              std::optional<std::uint64_t> seed) {
  std::optional<util::Rng> rng;
  if (seed) rng.emplace(*seed);
  auto net = std::make_unique<nn::Sequential>();
  // Every classifier convolution is a padding-2 "same" 5x5 convolution.
  const auto conv5 = [&](std::size_t in_c, std::size_t out_c, std::size_t h, std::size_t w) {
    if (rng) {
      net->emplace<nn::Conv2d>(in_c, out_c, 5, h, w, *rng, 2);
    } else {
      net->emplace<nn::Conv2d>(in_c, out_c, 5, h, w, 2);
    }
  };
  const auto linear = [&](std::size_t in, std::size_t out) {
    if (rng) {
      net->emplace<nn::Linear>(in, out, *rng);
    } else {
      net->emplace<nn::Linear>(in, out);
    }
  };
  switch (arch) {
    case ClassifierArch::PaperCnn: {
      // Table II. Pooling halves 28->14->7.
      conv5(g.channels, 32, g.height, g.width);
      net->emplace<nn::ReLU>();
      net->emplace<nn::MaxPool2d>(2);
      const std::size_t h2 = g.height / 2, w2 = g.width / 2;
      conv5(32, 64, h2, w2);
      net->emplace<nn::ReLU>();
      net->emplace<nn::MaxPool2d>(2);
      net->emplace<nn::Flatten>();
      const std::size_t flat = 64 * (h2 / 2) * (w2 / 2);
      linear(flat, 512);
      net->emplace<nn::ReLU>();
      linear(512, g.num_classes);
      break;
    }
    case ClassifierArch::TinyCnn: {
      conv5(g.channels, 8, g.height, g.width);
      net->emplace<nn::ReLU>();
      net->emplace<nn::MaxPool2d>(2);
      const std::size_t h2 = g.height / 2, w2 = g.width / 2;
      conv5(8, 16, h2, w2);
      net->emplace<nn::ReLU>();
      net->emplace<nn::MaxPool2d>(2);
      net->emplace<nn::Flatten>();
      const std::size_t flat = 16 * (h2 / 2) * (w2 / 2);
      linear(flat, 64);
      net->emplace<nn::ReLU>();
      linear(64, g.num_classes);
      break;
    }
    case ClassifierArch::Mlp: {
      net->emplace<nn::Flatten>();
      linear(g.pixels(), 128);
      net->emplace<nn::ReLU>();
      linear(128, g.num_classes);
      break;
    }
  }
  return net;
}

}  // namespace

Classifier::Classifier(ClassifierArch arch, ImageGeometry geometry, std::uint64_t seed)
    : arch_{arch}, geometry_{geometry}, network_{build_network(arch, geometry, seed)} {}

Classifier::Classifier(ClassifierArch arch, ImageGeometry geometry,
                       std::span<const float> parameters)
    : arch_{arch}, geometry_{geometry}, network_{build_network(arch, geometry, std::nullopt)} {
  load_parameters_flat(parameters);
}

float Classifier::train_batch(const tensor::Tensor& images, std::span<const int> labels,
                              float learning_rate, float momentum, float proximal_mu,
                              std::span<const float> anchor) {
  if (!optimizer_ || optimizer_lr_ != learning_rate || optimizer_momentum_ != momentum) {
    optimizer_ = std::make_unique<nn::Sgd>(network_->parameters(), learning_rate, momentum);
    optimizer_lr_ = learning_rate;
    optimizer_momentum_ = momentum;
  }
  network_->set_training(true);
  optimizer_->zero_grad();
  const tensor::Tensor logits = network_->forward(images);
  const nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
  network_->backward_parameters(loss.grad);
  if (proximal_mu > 0.0f) {
    // FedProx: d/dpsi [mu/2 ||psi - anchor||^2] = mu (psi - anchor).
    std::size_t offset = 0;
    for (nn::Parameter* p : network_->parameters()) {
      if (offset + p->size() > anchor.size()) {
        throw std::invalid_argument{"train_batch: proximal anchor too short"};
      }
      auto grad = p->grad.data();
      const auto value = p->value.data();
      for (std::size_t i = 0; i < grad.size(); ++i) {
        grad[i] += proximal_mu * (value[i] - anchor[offset + i]);
      }
      offset += p->size();
    }
  }
  optimizer_->step();
  return loss.value;
}

double Classifier::evaluate_accuracy(const tensor::Tensor& images,
                                     std::span<const int> labels) {
  if (labels.empty()) return 0.0;
  network_->set_training(false);
  const tensor::Tensor logits = network_->forward(images);
  network_->set_training(true);
  return static_cast<double>(nn::count_correct(logits, labels)) /
         static_cast<double>(labels.size());
}

std::vector<double> Classifier::evaluate_per_class(const tensor::Tensor& images,
                                                   std::span<const int> labels) {
  std::vector<std::size_t> correct(geometry_.num_classes, 0);
  std::vector<std::size_t> total(geometry_.num_classes, 0);
  network_->set_training(false);
  const tensor::Tensor logits = network_->forward(images);
  network_->set_training(true);
  for (std::size_t n = 0; n < labels.size(); ++n) {
    const auto label = static_cast<std::size_t>(labels[n]);
    ++total[label];
    if (tensor::argmax(logits.row(n)) == label) ++correct[label];
  }
  std::vector<double> recall(geometry_.num_classes, 0.0);
  for (std::size_t c = 0; c < recall.size(); ++c) {
    if (total[c] > 0) {
      recall[c] = static_cast<double>(correct[c]) / static_cast<double>(total[c]);
    }
  }
  return recall;
}

std::vector<std::size_t> Classifier::confusion_matrix(const tensor::Tensor& images,
                                                      std::span<const int> labels) {
  const std::size_t classes = geometry_.num_classes;
  std::vector<std::size_t> matrix(classes * classes, 0);
  network_->set_training(false);
  const tensor::Tensor logits = network_->forward(images);
  network_->set_training(true);
  for (std::size_t n = 0; n < labels.size(); ++n) {
    const auto truth = static_cast<std::size_t>(labels[n]);
    const std::size_t predicted = tensor::argmax(logits.row(n));
    ++matrix[truth * classes + predicted];
  }
  return matrix;
}

std::vector<float> Classifier::parameters_flat() { return nn::flatten_parameters(*network_); }

void Classifier::copy_parameters_to(std::span<float> out) {
  nn::copy_parameters_to(*network_, out);
}

void Classifier::load_parameters_flat(std::span<const float> flat) {
  nn::unflatten_parameters(*network_, flat);
}

std::size_t Classifier::parameter_count() { return network_->parameter_count(); }

}  // namespace fedguard::models
