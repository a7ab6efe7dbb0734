#pragma once
// Classifier architectures for the federated learning task.
//
// PaperCnn reproduces Table II of the paper exactly: two ReLU 5x5
// convolutions (32 and 64 channels, padding 2 so the feature map halves only
// at the pools: 28 -> 14 -> 7), each followed by 2x2 max pooling, then a
// 512-unit ReLU FC layer and a 10-unit output layer. Weight-only parameter
// count is 1,662,752 as reported in the table (the table excludes biases).
//
// TinyCnn and Mlp are scale-reduced classifiers with the same interface, used
// by the default benchmark configurations so the full table/figure sweep
// regenerates on a single CPU core.

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "tensor/tensor.hpp"

namespace fedguard::models {

enum class ClassifierArch {
  PaperCnn,  // Table II: 1.66 M weights
  TinyCnn,   // 8/16-channel CNN for reduced-scale benchmarking
  Mlp,       // Flatten -> 128 ReLU -> classes
};

[[nodiscard]] const char* to_string(ClassifierArch arch) noexcept;
/// Parse "paper_cnn" / "tiny_cnn" / "mlp"; throws std::invalid_argument.
[[nodiscard]] ClassifierArch classifier_arch_from_string(const std::string& text);

/// Input image geometry of the learning task.
struct ImageGeometry {
  std::size_t channels = 1;
  std::size_t height = 28;
  std::size_t width = 28;
  std::size_t num_classes = 10;

  [[nodiscard]] std::size_t pixels() const noexcept { return channels * height * width; }
};

/// A classifier is a Sequential taking [N, C, H, W] images and producing
/// [N, num_classes] logits, with convenience training/eval helpers.
class Classifier {
 public:
  /// Initial weights drawn from `seed`, layer by layer in network order.
  Classifier(ClassifierArch arch, ImageGeometry geometry, std::uint64_t seed);
  /// The network with `parameters` (a flat vector such as the round's ψ0)
  /// loaded and no initializer drawn. Throws std::invalid_argument, as
  /// load_parameters_flat does, when the length does not match the arch.
  Classifier(ClassifierArch arch, ImageGeometry geometry, std::span<const float> parameters);

  /// Logits for a batch of images [N, C, H, W].
  [[nodiscard]] tensor::Tensor forward(const tensor::Tensor& images) {
    return network_->forward(images);
  }

  /// One SGD step on a mini-batch; returns the batch loss. When
  /// `proximal_mu` > 0 a FedProx proximal term mu/2 * ||psi - anchor||^2 is
  /// added to the objective (Sahu et al. 2018; the paper's §VI-C mentions
  /// FedProx as a candidate internal operator) — `anchor` must then be a flat
  /// parameter vector of the same length as parameters_flat().
  float train_batch(const tensor::Tensor& images, std::span<const int> labels,
                    float learning_rate, float momentum = 0.0f,
                    float proximal_mu = 0.0f, std::span<const float> anchor = {});

  /// Fraction of correctly classified samples in [0, 1].
  [[nodiscard]] double evaluate_accuracy(const tensor::Tensor& images,
                                         std::span<const int> labels);

  /// Per-class recall: element c is the fraction of class-c samples
  /// classified correctly (0 if the class is absent from `labels`). Used for
  /// targeted-attack analysis (label flipping hits specific classes).
  [[nodiscard]] std::vector<double> evaluate_per_class(const tensor::Tensor& images,
                                                       std::span<const int> labels);

  /// Row-major confusion matrix [num_classes x num_classes]: entry (t, p) is
  /// the number of class-t samples predicted as class p. Shows exactly where
  /// a targeted label-flip attack moved the errors (5->7, 4->2).
  [[nodiscard]] std::vector<std::size_t> confusion_matrix(const tensor::Tensor& images,
                                                          std::span<const int> labels);

  [[nodiscard]] nn::Sequential& network() noexcept { return *network_; }
  [[nodiscard]] ClassifierArch arch() const noexcept { return arch_; }
  [[nodiscard]] const ImageGeometry& geometry() const noexcept { return geometry_; }

  [[nodiscard]] std::vector<float> parameters_flat();
  /// Zero-copy export: write the flat parameters into `out` (size must equal
  /// parameter_count() exactly). Fills round-arena rows without allocating.
  void copy_parameters_to(std::span<float> out);
  void load_parameters_flat(std::span<const float> flat);
  [[nodiscard]] std::size_t parameter_count();

 private:
  ClassifierArch arch_;
  ImageGeometry geometry_;
  std::unique_ptr<nn::Sequential> network_;
  // Momentum state must survive across train_batch calls within an epoch, so
  // the optimizer is owned lazily once the first training step happens.
  std::unique_ptr<nn::Sgd> optimizer_;
  float optimizer_lr_ = 0.0f;
  float optimizer_momentum_ = 0.0f;
};

}  // namespace fedguard::models
