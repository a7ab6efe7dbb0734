#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace fedguard::obs {

namespace {

/// Split "name{labels}" into ("name", "labels"); labels is empty when the
/// instrument name carries no label block.
std::pair<std::string, std::string> split_labels(const std::string& name) {
  const auto brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') return {name, ""};
  return {name.substr(0, brace), name.substr(brace + 1, name.size() - brace - 2)};
}

std::string join_labels(const std::string& base, const std::string& labels,
                        const std::string& extra) {
  std::string joined = base + "{" + labels;
  if (!labels.empty() && !extra.empty()) joined += ",";
  joined += extra + "}";
  return joined;
}

void append_double(std::ostringstream& out, double value) {
  if (std::isinf(value)) {
    out << (value > 0 ? "\"+Inf\"" : "\"-Inf\"");
    return;
  }
  std::ostringstream formatted;
  formatted.precision(17);
  formatted << value;
  out << formatted.str();
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string format_bound(double bound) {
  std::ostringstream out;
  out.precision(17);
  out << bound;
  return out.str();
}

}  // namespace

void Histogram::observe(double value) noexcept {
  if (cell_ == nullptr) return;
  const auto& bounds = cell_->upper_bounds;
  // First bucket whose upper bound admits the value; past-the-end = +Inf.
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), value) - bounds.begin());
  cell_->counts[bucket].fetch_add(1, std::memory_order_relaxed);
  cell_->total.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add_double(cell_->sum, value);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  if (cell_ == nullptr) return {};
  std::vector<std::uint64_t> out(cell_->upper_bounds.size() + 1, 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = cell_->counts[i].load(std::memory_order_relaxed);
  }
  return out;
}

Counter Registry::counter(const std::string& name) {
  const util::MutexLock lock{mutex_};
  auto& cell = counters_[name];
  if (!cell) cell = std::make_unique<detail::CounterCell>();
  return Counter{cell.get()};
}

Gauge Registry::gauge(const std::string& name) {
  const util::MutexLock lock{mutex_};
  auto& cell = gauges_[name];
  if (!cell) cell = std::make_unique<detail::GaugeCell>();
  return Gauge{cell.get()};
}

Histogram Registry::histogram(const std::string& name,
                              std::span<const double> upper_bounds) {
  const util::MutexLock lock{mutex_};
  auto& cell = histograms_[name];
  if (!cell) {
    cell = std::make_unique<detail::HistogramCell>();
    cell->upper_bounds.assign(upper_bounds.begin(), upper_bounds.end());
    if (cell->upper_bounds.empty()) {
      cell->upper_bounds =
          default_buckets_.empty() ? default_buckets() : default_buckets_;
    }
    if (!std::is_sorted(cell->upper_bounds.begin(), cell->upper_bounds.end())) {
      histograms_.erase(name);
      throw std::invalid_argument{"obs: histogram bounds for '" + name +
                                  "' must be ascending"};
    }
    cell->counts =
        std::make_unique<std::atomic<std::uint64_t>[]>(cell->upper_bounds.size() + 1);
    for (std::size_t i = 0; i <= cell->upper_bounds.size(); ++i) cell->counts[i] = 0;
  }
  return Histogram{cell.get()};
}

std::uint64_t Registry::counter_value(const std::string& name) const {
  const util::MutexLock lock{mutex_};
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0
                               : it->second->value.load(std::memory_order_relaxed);
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::counter_values()
    const {
  const util::MutexLock lock{mutex_};
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, cell] : counters_) {
    out.emplace_back(name, cell->value.load(std::memory_order_relaxed));
  }
  return out;
}

double estimate_quantile(std::span<const double> upper_bounds,
                         std::span<const std::uint64_t> counts,
                         double q) noexcept {
  if (counts.empty()) return 0.0;
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double rank = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double next = cumulative + static_cast<double>(counts[i]);
    if (next >= rank && counts[i] > 0) {
      if (i >= upper_bounds.size()) {
        // +Inf bucket: no upper edge to interpolate towards; report the
        // highest finite bound (or 0 when there are no finite buckets).
        return upper_bounds.empty() ? 0.0 : upper_bounds.back();
      }
      const double lower = i == 0 ? 0.0 : upper_bounds[i - 1];
      const double fraction =
          (rank - cumulative) / static_cast<double>(counts[i]);
      return lower + (upper_bounds[i] - lower) * fraction;
    }
    cumulative = next;
  }
  return upper_bounds.empty() ? 0.0 : upper_bounds.back();
}

std::vector<std::pair<std::string, std::uint64_t>> CounterDeltaTracker::take(
    const Registry& registry) {
  std::vector<std::pair<std::string, std::uint64_t>> deltas;
  for (const auto& [name, value] : registry.counter_values()) {
    std::uint64_t& last = last_[name];
    if (value > last) {
      deltas.emplace_back(name, value - last);
      last = value;
    } else {
      // zero_all() (tests/benches) may have reset the cell below our mark;
      // re-anchor so later growth is reported against the new baseline.
      last = value;
    }
  }
  return deltas;
}

void Registry::set_default_buckets(std::vector<double> upper_bounds) {
  if (!std::is_sorted(upper_bounds.begin(), upper_bounds.end())) {
    throw std::invalid_argument{"obs: default histogram buckets must be ascending"};
  }
  const util::MutexLock lock{mutex_};
  default_buckets_ = std::move(upper_bounds);
}

const std::vector<double>& Registry::default_buckets() {
  // Latency-oriented seconds scale: 100 µs .. 10 s, roughly 1-2.5-5 decades.
  static const std::vector<double> buckets{
      1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2,
      5e-2, 1e-1,  0.25, 0.5,  1.0,    2.5,  5.0,  10.0};
  return buckets;
}

std::string Registry::prometheus_text() const {
  const util::MutexLock lock{mutex_};
  std::ostringstream out;
  for (const auto& [name, cell] : counters_) {
    const auto [base, labels] = split_labels(name);
    out << "# TYPE " << base << " counter\n"
        << name << " " << cell->value.load(std::memory_order_relaxed) << "\n";
  }
  for (const auto& [name, cell] : gauges_) {
    const auto [base, labels] = split_labels(name);
    out << "# TYPE " << base << " gauge\n"
        << name << " " << cell->value.load(std::memory_order_relaxed) << "\n";
  }
  for (const auto& [name, cell] : histograms_) {
    const auto [base, labels] = split_labels(name);
    out << "# TYPE " << base << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < cell->upper_bounds.size(); ++i) {
      cumulative += cell->counts[i].load(std::memory_order_relaxed);
      out << join_labels(base + "_bucket", labels,
                         "le=\"" + format_bound(cell->upper_bounds[i]) + "\"")
          << " " << cumulative << "\n";
    }
    cumulative +=
        cell->counts[cell->upper_bounds.size()].load(std::memory_order_relaxed);
    out << join_labels(base + "_bucket", labels, "le=\"+Inf\"") << " " << cumulative
        << "\n";
    out << base + "_sum" << (labels.empty() ? "" : "{" + labels + "}") << " ";
    append_double(out, cell->sum.load(std::memory_order_relaxed));
    out << "\n"
        << base + "_count" << (labels.empty() ? "" : "{" + labels + "}") << " "
        << cell->total.load(std::memory_order_relaxed) << "\n";
  }
  return out.str();
}

std::string Registry::json_snapshot() const {
  const util::MutexLock lock{mutex_};
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, cell] : counters_) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(name) << "\":"
        << cell->value.load(std::memory_order_relaxed);
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, cell] : gauges_) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(name) << "\":"
        << cell->value.load(std::memory_order_relaxed);
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, cell] : histograms_) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(name) << "\":{\"le\":[";
    for (std::size_t i = 0; i < cell->upper_bounds.size(); ++i) {
      if (i > 0) out << ",";
      append_double(out, cell->upper_bounds[i]);
    }
    out << "],\"counts\":[";
    for (std::size_t i = 0; i <= cell->upper_bounds.size(); ++i) {
      if (i > 0) out << ",";
      out << cell->counts[i].load(std::memory_order_relaxed);
    }
    out << "],\"count\":" << cell->total.load(std::memory_order_relaxed)
        << ",\"sum\":";
    append_double(out, cell->sum.load(std::memory_order_relaxed));
    // Quantile estimates come last so the stable prefix (le/counts/count/sum)
    // pinned by older consumers is untouched.
    std::vector<std::uint64_t> counts(cell->upper_bounds.size() + 1, 0);
    for (std::size_t i = 0; i < counts.size(); ++i) {
      counts[i] = cell->counts[i].load(std::memory_order_relaxed);
    }
    for (const auto& [key, q] :
         {std::pair<const char*, double>{"p50", 0.5},
          std::pair<const char*, double>{"p90", 0.9},
          std::pair<const char*, double>{"p99", 0.99}}) {
      out << ",\"" << key << "\":";
      append_double(out, estimate_quantile(cell->upper_bounds, counts, q));
    }
    out << "}";
  }
  out << "}}";
  return out.str();
}

void Registry::write_prometheus(const std::string& path) const {
  std::ofstream file{path, std::ios::trunc};
  if (!file) throw std::runtime_error{"obs: cannot write metrics file " + path};
  file << prometheus_text();
}

void Registry::zero_all() {
  // mutex_ serializes the whole reset against every exposition path (they all
  // lock mutex_ too), so a concurrent scrape sees pre- or post-reset state,
  // never a mix — see the contract note in the header.
  const util::MutexLock lock{mutex_};
  for (const auto& [name, cell] : counters_) cell->value.store(0);
  for (const auto& [name, cell] : gauges_) cell->value.store(0);
  for (const auto& [name, cell] : histograms_) {
    for (std::size_t i = 0; i <= cell->upper_bounds.size(); ++i) cell->counts[i] = 0;
    cell->total.store(0);
    cell->sum.store(0.0);
  }
}

Registry& Registry::global() {
  // Never destroyed. A pool worker updates its pool_* instruments after the
  // task that completed a batch returns, so at exit it can still be writing
  // while static destructors run; a registry built after the pool's owner
  // would otherwise be freed first.
  // fedguard-lint: allow(naked-new) deliberately leaked so it outlives every static
  static Registry* const registry = new Registry;
  return *registry;
}

}  // namespace fedguard::obs
