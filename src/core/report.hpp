#pragma once
// Plain-text reporters that render run histories in the layout of the
// paper's tables, so bench output can be compared against the paper
// side-by-side.

#include <iosfwd>
#include <string>
#include <vector>

#include "fl/metrics.hpp"

namespace fedguard::core {

/// "98.97% +- 0.17%" from a trailing-window statistic.
[[nodiscard]] std::string format_accuracy(const util::TrailingStats& stats);

/// Human-readable byte count ("348.3 MB").
[[nodiscard]] std::string format_bytes(double bytes);

/// Table IV layout: one row per strategy, one column per attack scenario,
/// each cell mean +- stddev of the trailing `window` rounds.
struct Table4Row {
  std::string strategy;
  std::vector<util::TrailingStats> cells;  // one per scenario column
};
void print_table4(std::ostream& out, const std::vector<std::string>& scenario_names,
                  const std::vector<Table4Row>& rows, std::size_t window);

/// Table V layout: per-strategy traffic and timing, with overhead percentages
/// relative to the first (FedAvg) row.
struct Table5Row {
  std::string strategy;
  double upload_bytes = 0.0;
  double download_bytes = 0.0;
  double seconds_per_round = 0.0;
};
void print_table5(std::ostream& out, const std::vector<Table5Row>& rows);

/// One accuracy-vs-round series per strategy, in CSV-ish aligned columns
/// (Fig. 4 / Fig. 5 data).
void print_accuracy_series(std::ostream& out, const std::vector<fl::RunHistory>& runs);

/// Fault-tolerance accounting for a run under a fault plan, on either
/// transport: totals and a per-round breakdown of timeouts / dropouts /
/// corrupt frames / ejections (all-zero rounds are elided from the breakdown).
void print_fault_summary(std::ostream& out, const fl::RunHistory& history);

}  // namespace fedguard::core
