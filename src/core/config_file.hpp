#pragma once
// Experiment descriptor files: a minimal INI-style "key = value" format so
// experiments are reproducible from a checked-in text file rather than
// command lines — the role E2CLAB's experiment descriptors play on the
// paper's testbed (§IV-E). See configs/*.conf for examples.
//
// Supported syntax: one `key = value` per line, `#` comments, blank lines.
// Unknown keys are an error (typos must not silently change an experiment).
// Every key is also a flag of the examples and benches (core/cli.hpp), read
// by the same apply_config_values.

#include <cstdint>
#include <map>
#include <string>

#include "core/experiment.hpp"

namespace fedguard::core {

/// Parse an experiment descriptor into key/value pairs.
/// Throws std::runtime_error on I/O errors or malformed lines.
[[nodiscard]] std::map<std::string, std::string> parse_config_file(const std::string& path);

/// Apply a parsed descriptor onto a config (usually a preset); `scale` is
/// skipped (it names the preset). Throws std::invalid_argument naming the key
/// on unknown keys or unparseable values.
void apply_config_values(ExperimentConfig& config,
                         const std::map<std::string, std::string>& values);

/// Throws std::invalid_argument unless clients_per_round is in [1,
/// num_clients]. Keys are applied one at a time, so the pair is checked once
/// every line of a run is in: a binary's own defaults, a descriptor and the
/// flags can each set one of the two.
void check_sampling(const ExperimentConfig& config);

/// Descriptor numbers, parsed whole: trailing characters, a negative integer
/// or an empty value throw std::invalid_argument naming `key`.
[[nodiscard]] std::size_t to_size(const std::string& value, const std::string& key);
[[nodiscard]] std::size_t to_positive_size(const std::string& value, const std::string& key);
[[nodiscard]] double to_double(const std::string& value, const std::string& key);
/// A TCP port: an integer in [0, 65535].
[[nodiscard]] std::uint16_t to_port(const std::string& value, const std::string& key);

}  // namespace fedguard::core
