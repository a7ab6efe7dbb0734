#pragma once
// Experiment descriptor files: a minimal INI-style "key = value" format so
// experiments are reproducible from a checked-in text file rather than
// command lines — the role E2CLAB's experiment descriptors play on the
// paper's testbed (§IV-E). See configs/*.conf for examples.
//
// Supported syntax: one `key = value` per line, `#` comments, blank lines.
// Unknown keys are an error (typos must not silently change an experiment).

#include <map>
#include <string>

#include "core/experiment.hpp"

namespace fedguard::core {

/// Parse an experiment descriptor into key/value pairs.
/// Throws std::runtime_error on I/O errors or malformed lines.
[[nodiscard]] std::map<std::string, std::string> parse_config_file(const std::string& path);

/// Apply a parsed descriptor onto a config (usually a preset). Throws
/// std::invalid_argument on unknown keys or unparseable values.
void apply_config_values(ExperimentConfig& config,
                         const std::map<std::string, std::string>& values);

/// Convenience: preset selected by the descriptor's `scale` key ("small",
/// default, or "paper"), then every other key applied on top.
[[nodiscard]] ExperimentConfig load_experiment_config(const std::string& path);

/// Descriptor numbers, parsed whole: trailing characters, a negative integer
/// or an empty value throw std::invalid_argument naming `key`.
[[nodiscard]] std::size_t to_size(const std::string& value, const std::string& key);
[[nodiscard]] std::size_t to_positive_size(const std::string& value, const std::string& key);
[[nodiscard]] double to_double(const std::string& value, const std::string& key);

}  // namespace fedguard::core
