#pragma once
// Round-driven exporter: ties the metrics registry and tracer to files.
//
// ObsOptions is the descriptor-facing knob panel (obs_trace_path,
// obs_metrics_path, obs_flush_every_rounds, obs_histogram_buckets — see
// docs/CONFIG_REFERENCE.md). RoundExporter turns it into behaviour: it owns
// the TraceSession (when a trace path is set), appends one registry JSON
// snapshot per round to <obs_metrics_path>.jsonl, and on the configured
// cadence rewrites the Prometheus text file and flushes the trace.
//
// Both servers report round completion through the free function
// obs::round_tick(), which is a relaxed atomic load + nothing when no
// exporter is installed — servers stay oblivious to whether observability is
// on. Install at most one exporter at a time (the runner owns it for the
// duration of Federation::run()).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/process_stats.hpp"
#include "obs/trace.hpp"
#include "util/thread_annotations.hpp"

namespace fedguard::obs {

/// Observability configuration, one field per obs_* descriptor key. Empty
/// paths disable the corresponding output entirely.
struct ObsOptions {
  std::string trace_path;    // Chrome trace_event JSON (Perfetto-loadable)
  std::string metrics_path;  // Prometheus text; JSON snapshots at .jsonl
  // Rewrite metrics / flush trace every N rounds; 0 = only at teardown. The
  // per-round JSONL snapshot is appended every round regardless.
  std::size_t flush_every_rounds = 1;
  // Histogram bucket upper bounds for histograms registered without explicit
  // bounds; empty keeps Registry::default_buckets().
  std::vector<double> histogram_buckets;
  // Live scrape endpoint port (descriptor key obs_http_port);
  // 0 disables. The root (or the in-process server) serves on this port;
  // shard aggregators answer scrapes on their data ports — see
  // docs/OBSERVABILITY.md § Live exposition. Hosted by the net layer
  // (net::TelemetryHttpServer / reactor-attached responders), not by the
  // RoundExporter.
  std::uint16_t http_port = 0;

  [[nodiscard]] bool enabled() const noexcept {
    return !trace_path.empty() || !metrics_path.empty();
  }
};

/// Parse the obs_histogram_buckets descriptor value: comma-separated ascending
/// doubles, e.g. "0.001,0.01,0.1,1". Throws std::invalid_argument on garbage
/// or non-ascending bounds.
[[nodiscard]] std::vector<double> parse_histogram_buckets(const std::string& spec);

/// Installed by the runner around a federation run; uninstalls + final-flushes
/// on destruction. Construction applies histogram_buckets to the global
/// registry and opens the trace session.
class RoundExporter {
 public:
  explicit RoundExporter(ObsOptions options);
  ~RoundExporter();

  RoundExporter(const RoundExporter&) = delete;
  RoundExporter& operator=(const RoundExporter&) = delete;

  /// Called (via round_tick) after each completed round, from the round
  /// thread; shard threads never report. Appends the JSON snapshot line and
  /// honours the flush cadence. io_mutex_ orders its file writes with
  /// flush()'s.
  void on_round_end(std::size_t round_index) FEDGUARD_EXCLUDES(io_mutex_);

  /// Force a metrics rewrite + trace flush now (teardown path).
  void flush() FEDGUARD_EXCLUDES(io_mutex_);

  [[nodiscard]] const ObsOptions& options() const noexcept { return options_; }

 private:
  void flush_locked() FEDGUARD_REQUIRES(io_mutex_);

  ObsOptions options_;  // immutable after construction
  // Serializes every file write (metrics text, JSONL snapshots, trace flush)
  // between the round thread's on_round_end and flush().
  util::Mutex io_mutex_;
  std::unique_ptr<TraceSession> trace_ FEDGUARD_PT_GUARDED_BY(io_mutex_);
  // Sampled under io_mutex_ every round so the JSONL snapshot that follows
  // carries fresh steady-state invariant gauges (rss/heap/arena).
  ProcessStatsProbe process_stats_ FEDGUARD_GUARDED_BY(io_mutex_);
  bool installed_ = false;
};

/// Report a completed round to the installed exporter, if any; the round
/// engine calls it from the round thread once per round. No-op (one relaxed
/// atomic load) when observability is off.
void round_tick(std::size_t round_index);

}  // namespace fedguard::obs
