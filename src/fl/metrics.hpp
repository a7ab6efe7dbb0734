#pragma once
// Per-round records and run-level history for the experiment harness.
// Fig. 4/5 plot the accuracy series; Table IV summarizes the trailing window;
// Table V aggregates the traffic and timing columns.

#include <string>
#include <vector>

#include "util/stats.hpp"

namespace fedguard::fl {

struct RoundRecord {
  std::size_t round = 0;
  double test_accuracy = 0.0;
  /// Per-class recall on the test set; empty unless
  /// RoundConfig::track_per_class_accuracy is set (targeted-attack analysis).
  std::vector<double> per_class_accuracy;
  double round_seconds = 0.0;          // wall-clock including aggregation
  std::size_t server_upload_bytes = 0;    // server -> clients (ψ0 broadcast)
  std::size_t server_download_bytes = 0;  // clients -> server (ψ, and θ for FedGuard)
  std::size_t sampled_clients = 0;
  std::size_t sampled_malicious = 0;
  std::size_t stragglers = 0;  // sampled clients that failed to respond
  // Fault accounting, the same on both transports (the in-process server
  // files a planned fault as a shard would see it): how each sampled client
  // that failed to contribute this round failed. The three classes sum to
  // `stragglers`.
  std::size_t dropouts = 0;        // connection died (EOF/reset/send failure)
  std::size_t timeouts = 0;        // round deadline expired with no reply
  std::size_t corrupt_frames = 0;  // CRC mismatch / truncated / malformed frame
  std::size_t ejected_clients = 0; // ejected this round (K consecutive failures)
  std::size_t rejected_clients = 0;
  std::size_t rejected_malicious = 0;  // true positives of the defense
  std::size_t rejected_benign = 0;     // false positives of the defense
};

struct RunHistory {
  std::string strategy;
  std::string attack;
  double malicious_fraction = 0.0;
  std::vector<RoundRecord> rounds;

  [[nodiscard]] std::vector<double> accuracy_series() const;
  /// Mean/stddev of test accuracy over the trailing `window` rounds
  /// (Table IV uses the last 40 of 50 rounds).
  [[nodiscard]] util::TrailingStats trailing_accuracy(std::size_t window) const;
  [[nodiscard]] double mean_round_seconds() const;
  /// Median round time: steady-state cost, robust to the first rounds where
  /// FedGuard clients pay their one-time CVAE training.
  [[nodiscard]] double median_round_seconds() const;
  [[nodiscard]] double mean_upload_bytes() const;
  [[nodiscard]] double mean_download_bytes() const;
  /// Defense detection rates over the whole run (malicious rejected /
  /// malicious sampled, benign rejected / benign sampled).
  [[nodiscard]] double true_positive_rate() const;
  [[nodiscard]] double false_positive_rate() const;
  /// Trailing-window mean recall of one class (requires per-class tracking);
  /// returns 0 when no per-class data was recorded.
  [[nodiscard]] double trailing_class_accuracy(std::size_t class_id,
                                               std::size_t window) const;
  /// Run totals of the fault counters (zero for a run without faults).
  [[nodiscard]] std::size_t total_dropouts() const;
  [[nodiscard]] std::size_t total_timeouts() const;
  [[nodiscard]] std::size_t total_corrupt_frames() const;
  [[nodiscard]] std::size_t total_ejected() const;

  /// Dump one row per round to CSV.
  void write_csv(const std::string& path) const;
};

}  // namespace fedguard::fl
