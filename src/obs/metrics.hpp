#pragma once
// Lock-cheap metrics registry: named Counter / Gauge / Histogram instruments
// backed by process-global atomic cells. Handles are pre-registered once
// (constructor or setup path) so the hot path is a single relaxed atomic add
// with no lock and no name lookup. The registry exposes its state two ways:
//
//   prometheus_text()  Prometheus-style text exposition (rewritten to the
//                      obs_metrics_path file by the round exporter);
//   json_snapshot()    one machine-readable JSON object, appended per round
//                      to <obs_metrics_path>.jsonl.
//
// Instrument names follow Prometheus conventions (`<subsystem>_<what>_total`
// for counters) and may carry a label block verbatim in the name, e.g.
// `net_client_rtt_seconds{client="3"}` — the registry treats the full string
// as the identity and splices histogram `le` labels into an existing block.
// See docs/OBSERVABILITY.md for the metric inventory.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/thread_annotations.hpp"

namespace fedguard::obs {

namespace detail {

inline void atomic_add_double(std::atomic<double>& cell, double delta) noexcept {
  double current = cell.load(std::memory_order_relaxed);
  while (!cell.compare_exchange_weak(current, current + delta,
                                     std::memory_order_relaxed)) {
  }
}

struct CounterCell {
  std::atomic<std::uint64_t> value{0};
};

struct GaugeCell {
  std::atomic<std::int64_t> value{0};
};

struct HistogramCell {
  // Finite ascending bucket upper bounds; an implicit +Inf bucket follows.
  std::vector<double> upper_bounds;
  // counts[i] observations fell in bucket i (NOT cumulative; the exposition
  // layer accumulates into Prometheus' cumulative `le` form).
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts;
  std::atomic<std::uint64_t> total{0};
  std::atomic<double> sum{0.0};
};

}  // namespace detail

/// Monotonic counter handle. Default-constructed handles are inert (every
/// operation is a no-op); registry-issued handles stay valid for the process
/// lifetime — cells are never deallocated.
class Counter {
 public:
  Counter() noexcept = default;

  void add(std::uint64_t delta = 1) noexcept {
    if (cell_ != nullptr) cell_->value.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return cell_ == nullptr ? 0 : cell_->value.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool valid() const noexcept { return cell_ != nullptr; }

 private:
  friend class Registry;
  explicit Counter(detail::CounterCell* cell) noexcept : cell_{cell} {}
  detail::CounterCell* cell_ = nullptr;
};

/// Up/down gauge handle (e.g. pool queue depth). Same inert-default semantics.
class Gauge {
 public:
  Gauge() noexcept = default;

  void add(std::int64_t delta) noexcept {
    if (cell_ != nullptr) cell_->value.fetch_add(delta, std::memory_order_relaxed);
  }
  void sub(std::int64_t delta) noexcept { add(-delta); }
  void set(std::int64_t value) noexcept {
    if (cell_ != nullptr) cell_->value.store(value, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return cell_ == nullptr ? 0 : cell_->value.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool valid() const noexcept { return cell_ != nullptr; }

 private:
  friend class Registry;
  explicit Gauge(detail::GaugeCell* cell) noexcept : cell_{cell} {}
  detail::GaugeCell* cell_ = nullptr;
};

/// Fixed-bucket histogram handle. observe() is two relaxed atomic adds plus a
/// CAS on the running sum — no lock, no allocation.
class Histogram {
 public:
  Histogram() noexcept = default;

  void observe(double value) noexcept;
  [[nodiscard]] std::uint64_t count() const noexcept {
    return cell_ == nullptr ? 0 : cell_->total.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return cell_ == nullptr ? 0.0 : cell_->sum.load(std::memory_order_relaxed);
  }
  /// Per-bucket (non-cumulative) counts, one entry per finite bound plus the
  /// trailing +Inf bucket. Empty for an inert handle.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  [[nodiscard]] std::span<const double> upper_bounds() const noexcept {
    return cell_ == nullptr ? std::span<const double>{}
                            : std::span<const double>{cell_->upper_bounds};
  }
  [[nodiscard]] bool valid() const noexcept { return cell_ != nullptr; }

 private:
  friend class Registry;
  explicit Histogram(detail::HistogramCell* cell) noexcept : cell_{cell} {}
  detail::HistogramCell* cell_ = nullptr;
};

/// Thread-safe instrument registry. Registration takes a mutex; issued
/// handles never do. Cells live until process exit (the registry only ever
/// grows), so handles can be cached in long-lived objects freely.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-create by full name (including any label block).
  [[nodiscard]] Counter counter(const std::string& name);
  [[nodiscard]] Gauge gauge(const std::string& name);
  /// `upper_bounds` must be ascending; empty selects the default latency
  /// buckets (see default_buckets() / the obs_histogram_buckets key). Bounds
  /// of an already-registered histogram are never changed.
  [[nodiscard]] Histogram histogram(const std::string& name,
                                    std::span<const double> upper_bounds = {});

  /// Current value of a counter by name; 0 when it was never registered.
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;

  /// Snapshot of every registered counter as (name, value), sorted by name.
  /// Feeds CounterDeltaTracker (telemetry relay) and ad-hoc health probes.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  counter_values() const;

  /// Replace the bucket bounds used when histogram() gets no explicit bounds
  /// (wired from the obs_histogram_buckets descriptor key). Affects only
  /// histograms registered afterwards.
  void set_default_buckets(std::vector<double> upper_bounds);
  [[nodiscard]] static const std::vector<double>& default_buckets();

  /// Prometheus text exposition of every instrument, names sorted.
  [[nodiscard]] std::string prometheus_text() const;
  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  /// Histogram entries additionally carry "p50"/"p90"/"p99" quantile
  /// estimates (bucket-interpolated at exposition time, see
  /// estimate_quantile) so soak/latency gates read percentiles directly.
  [[nodiscard]] std::string json_snapshot() const;
  /// Rewrite `path` with prometheus_text(). Throws std::runtime_error on I/O
  /// failure.
  void write_prometheus(const std::string& path) const;

  /// Zero every registered cell (values only; handles stay valid). Test and
  /// bench isolation helper.
  ///
  /// Reset-vs-scrape contract: zero_all() holds mutex_ for the whole reset and
  /// every exposition (prometheus_text / json_snapshot / counter_value) holds
  /// the same mutex, so a scrape observes either the fully pre-reset or the
  /// fully post-reset state — never a half-zeroed snapshot (pinned by the
  /// ZeroAllNeverExposesHalfZeroedSnapshot regression in tests/test_obs.cpp).
  /// What stays relaxed: lock-free handle increments running concurrently with
  /// the reset may land before or after it per-cell, so a histogram hit by a
  /// concurrent observe() can transiently disagree between bucket counts and
  /// total; quiesce instrumented threads when exact zeroes matter.
  void zero_all();

  /// The process-wide registry every built-in instrument registers with. It
  /// is never destroyed, so handles stay valid through static destruction.
  [[nodiscard]] static Registry& global();

 private:
  mutable util::Mutex mutex_;
  // std::map: exposition iterates in sorted-name order (deterministic output;
  // fedguard-lint forbids unordered iteration for exactly this reason). The
  // maps only ever grow, and the atomic cells they own are updated lock-free
  // by issued handles — mutex_ guards the map structure, not the cell values.
  std::map<std::string, std::unique_ptr<detail::CounterCell>> counters_
      FEDGUARD_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<detail::GaugeCell>> gauges_
      FEDGUARD_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<detail::HistogramCell>> histograms_
      FEDGUARD_GUARDED_BY(mutex_);
  std::vector<double> default_buckets_ FEDGUARD_GUARDED_BY(mutex_);
};

/// Estimate the q-quantile (q in [0, 1]) of a histogram from its finite
/// ascending `upper_bounds` and per-bucket (non-cumulative) `counts`
/// (bounds.size() + 1 entries, trailing +Inf bucket). Linear interpolation
/// inside the selected bucket, Prometheus-style: the first bucket
/// interpolates from 0, and a rank landing in the +Inf bucket reports the
/// highest finite bound. Returns 0 for an empty histogram.
[[nodiscard]] double estimate_quantile(std::span<const double> upper_bounds,
                                       std::span<const std::uint64_t> counts,
                                       double q) noexcept;

/// Tracks per-counter deltas between calls: take() returns every counter
/// whose value grew since the previous take() (first call returns all
/// non-zero counters). Used by the telemetry relay to ship per-round metric
/// deltas upward without resetting the registry.
class CounterDeltaTracker {
 public:
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> take(
      const Registry& registry);

 private:
  std::map<std::string, std::uint64_t> last_;
};

}  // namespace fedguard::obs
