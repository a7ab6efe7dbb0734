#pragma once
// Flattening between a module's parameter list and a single contiguous float
// vector. This is the wire format of the federation: clients upload flat ψ
// (classifier) and θ (CVAE decoder) vectors, attacks perturb them, and the
// aggregation operators treat them as points in R^d.

#include <span>
#include <vector>

#include "nn/module.hpp"

namespace fedguard::nn {

/// Concatenate all parameter values of `module` in declaration order.
[[nodiscard]] std::vector<float> flatten_parameters(Module& module);

/// Write the module's parameter values (declaration order) into `out`, whose
/// size must equal parameter_count() exactly. The zero-copy round pipeline
/// uses this to fill arena rows in place instead of allocating via
/// flatten_parameters.
void copy_parameters_to(Module& module, std::span<float> out);

/// Write `flat` back into the module's parameters; size must match exactly.
void unflatten_parameters(Module& module, std::span<const float> flat);

/// Concatenate all parameter *gradients* in declaration order.
[[nodiscard]] std::vector<float> flatten_gradients(Module& module);

/// Serialized wire size (bytes) of a flat parameter vector of `count` floats,
/// including the length prefix. Used by the traffic meter (Table V).
[[nodiscard]] std::size_t parameter_wire_bytes(std::size_t count) noexcept;

}  // namespace fedguard::nn
