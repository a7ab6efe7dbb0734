#pragma once
// Command lines of the examples and bench harnesses. A run setting has one
// spelling: its descriptor key (docs/CONFIG_REFERENCE.md) as a flag,
// `--key value` or `--key=value`. A binary names the few flags it reads
// itself (output paths, roles); experiment_config applies every other flag
// through core::apply_config_values, after the descriptor file if the binary
// takes one, so a flag is validated and rejected exactly like its key.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"

namespace fedguard::core {

class CliOptions {
 public:
  /// Parse argv. `owned` names the flags the binary reads itself; every
  /// other flag is a run setting. A `--key` followed by another flag, or
  /// last, is the switch "1"; other arguments are positional.
  static CliOptions parse(int argc, const char* const* argv,
                          std::initializer_list<std::string_view> owned = {});

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const;
  /// Numbers, parsed whole like a descriptor value (to_size / to_double).
  [[nodiscard]] std::size_t get_size(const std::string& key, std::size_t fallback) const;
  [[nodiscard]] double get_number(const std::string& key, double fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }
  /// The flags outside `owned`, as descriptor lines.
  [[nodiscard]] const std::map<std::string, std::string>& settings() const noexcept {
    return settings_;
  }
  /// For a binary that builds no ExperimentConfig: any setting is an
  /// unknown flag (std::invalid_argument).
  void reject_settings() const;

 private:
  std::map<std::string, std::string> values_;  // every flag
  std::map<std::string, std::string> settings_;
  std::vector<std::string> positional_;
};

/// A binary's run config, in one order: the preset named by `scale` (the
/// flag, else the descriptor's line, else `default_scale`), the binary's own
/// `defaults`, the descriptor file `descriptor` (when not empty), then the
/// flag settings. Throws like parse_config_file / apply_config_values /
/// check_sampling.
[[nodiscard]] ExperimentConfig experiment_config(
    const CliOptions& options, const std::function<void(ExperimentConfig&)>& defaults = {},
    const std::string& descriptor = "", const std::string& default_scale = "small");

/// Returns `startup()`: a binary's flag and config resolution, before any
/// data is generated. An exception there is a bad run setting: its message
/// goes to stderr and the process exits with status 2.
template <typename Startup>
auto parse_or_exit(Startup&& startup) -> decltype(startup()) {
  try {
    return startup();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s\n", error.what());
    // NOLINTNEXTLINE(concurrency-mt-unsafe) startup runs before the run starts any thread
    std::exit(2);
  }
}

}  // namespace fedguard::core
