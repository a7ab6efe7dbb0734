#include "nn/sequential.hpp"

#include <string>

#include "obs/trace.hpp"

namespace fedguard::nn {

Sequential& Sequential::add(std::unique_ptr<Module> layer) {
  layers_.push_back(std::move(layer));
  return *this;
}

tensor::Tensor Sequential::forward(const tensor::Tensor& input) {
  tensor::Tensor current = input;
#if defined(FEDGUARD_TRACE_ENABLED)
  // Depth instrumentation (span taxonomy `layer.forward`): the traced loop is
  // taken only while a session records, so the untraced hot path never pays
  // for the per-layer name strings.
  if (obs::TraceSession::active()) {
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      FEDGUARD_TRACE_SPAN("layer.forward",
                          std::to_string(i) + ":" + layers_[i]->name());
      current = layers_[i]->forward(current);
    }
    return current;
  }
#endif
  for (auto& layer : layers_) current = layer->forward(current);
  return current;
}

tensor::Tensor Sequential::backward(const tensor::Tensor& grad_output) {
  return backward_down_to(grad_output, 0, false);
}

void Sequential::backward_parameters(const tensor::Tensor& grad_output) {
  std::size_t first = 0;
  while (first < layers_.size() && layers_[first]->parameters().empty()) ++first;
  if (first == layers_.size()) return;
  static_cast<void>(backward_down_to(grad_output, first, true));
}

tensor::Tensor Sequential::backward_down_to(const tensor::Tensor& grad_output,
                                            std::size_t last, bool parameters_only) {
  tensor::Tensor current = grad_output;
  const auto step = [&](std::size_t i) {
    if (parameters_only && i == last) {
      layers_[i]->backward_parameters(current);
    } else {
      current = layers_[i]->backward(current);
    }
  };
#if defined(FEDGUARD_TRACE_ENABLED)
  if (obs::TraceSession::active()) {
    for (std::size_t i = layers_.size(); i-- > last;) {
      FEDGUARD_TRACE_SPAN("layer.backward",
                          std::to_string(i) + ":" + layers_[i]->name());
      step(i);
    }
    return current;
  }
#endif
  for (std::size_t i = layers_.size(); i-- > last;) step(i);
  return current;
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> all;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->parameters()) all.push_back(p);
  }
  return all;
}

void Sequential::set_training(bool training) {
  Module::set_training(training);
  for (auto& layer : layers_) layer->set_training(training);
}

}  // namespace fedguard::nn
