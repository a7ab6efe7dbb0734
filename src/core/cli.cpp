#include "core/cli.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/config_file.hpp"

namespace fedguard::core {

CliOptions CliOptions::parse(int argc, const char* const* argv,
                             std::initializer_list<std::string_view> owned) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    if (!arg.starts_with("--")) {
      options.positional_.emplace_back(arg);
      continue;
    }
    std::string key{arg.substr(2)};
    std::string value{"1"};  // a switch, unless a value follows
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc && !std::string_view{argv[i + 1]}.starts_with("--")) {
      value = std::string{argv[++i]};
    }
    if (std::find(owned.begin(), owned.end(), key) == owned.end()) {
      options.settings_[key] = value;
    }
    options.values_[key] = std::move(value);
  }
  return options;
}

bool CliOptions::has(const std::string& key) const { return values_.contains(key); }

std::string CliOptions::get(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::size_t CliOptions::get_size(const std::string& key, std::size_t fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : to_size(it->second, key);
}

double CliOptions::get_number(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : to_double(it->second, key);
}

void CliOptions::reject_settings() const {
  if (!settings_.empty()) {
    throw std::invalid_argument{"config: unknown key '" + settings_.begin()->first + "'"};
  }
}

ExperimentConfig experiment_config(const CliOptions& options,
                                   const std::function<void(ExperimentConfig&)>& defaults,
                                   const std::string& descriptor,
                                   const std::string& default_scale) {
  const std::map<std::string, std::string> file =
      descriptor.empty() ? std::map<std::string, std::string>{} : parse_config_file(descriptor);
  const auto file_scale = file.find("scale");
  const std::string scale =
      options.get("scale", file_scale == file.end() ? default_scale : file_scale->second);
  if (scale != "small" && scale != "paper") {
    throw std::invalid_argument{"config: unknown scale '" + scale + "' (small/paper)"};
  }
  ExperimentConfig config =
      scale == "paper" ? ExperimentConfig::paper_scale() : ExperimentConfig::small_scale();
  if (defaults) defaults(config);
  apply_config_values(config, file);
  apply_config_values(config, options.settings());
  check_sampling(config);
  return config;
}

}  // namespace fedguard::core
