#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"

namespace fedguard::core {
namespace {

TEST(Cli, ParsesKeyValuePairs) {
  const char* argv[] = {"prog", "--scale", "paper", "--rounds", "12", "--verbose"};
  const CliOptions options = CliOptions::parse(6, argv);
  EXPECT_TRUE(options.has("scale"));
  EXPECT_EQ(options.get("scale", "small"), "paper");
  EXPECT_EQ(options.get_size("rounds", 0), 12u);
  EXPECT_TRUE(options.has("verbose"));
  EXPECT_EQ(options.get("verbose", ""), "1");
  EXPECT_EQ(options.get("missing", "fallback"), "fallback");
  EXPECT_EQ(options.get_size("missing", 7), 7u);
}

TEST(Cli, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--alpha=0.5", "--name=x"};
  const CliOptions options = CliOptions::parse(3, argv);
  EXPECT_DOUBLE_EQ(options.get_number("alpha", 0.0), 0.5);
  EXPECT_EQ(options.get("name", ""), "x");
}

TEST(Cli, BooleanFlagBeforeAnotherFlag) {
  const char* argv[] = {"prog", "--quiet", "--rounds", "3"};
  const CliOptions options = CliOptions::parse(4, argv);
  EXPECT_EQ(options.get("quiet", ""), "1");
  EXPECT_EQ(options.get_size("rounds", 0), 3u);
}

TEST(Cli, NumbersAreParsedWholeNamingTheFlag) {
  // The getters parse like a descriptor value: no numeric prefix, no
  // negative count wrapping to 2^64 - 1.
  const char* argv[] = {"prog", "--window", "3x", "--count", "-1", "--threshold", "0.5y"};
  const CliOptions options = CliOptions::parse(7, argv);
  for (const char* key : {"window", "count"}) {
    try {
      (void)options.get_size(key, 0);
      ADD_FAILURE() << key << " parsed";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string{error.what()}.find(std::string{"'"} + key + "'"),
                std::string::npos)
          << error.what();
    }
  }
  EXPECT_THROW((void)options.get_number("threshold", 0.0), std::invalid_argument);
}

TEST(Cli, OwnedFlagsPositionalsAndSettings) {
  const char* argv[] = {"prog", "run.conf", "--csv", "out.csv", "--rounds=4", "--quiet"};
  const CliOptions options = CliOptions::parse(6, argv, {"csv", "quiet"});
  EXPECT_EQ(options.positional(), (std::vector<std::string>{"run.conf"}));
  EXPECT_EQ(options.get("csv", ""), "out.csv");
  EXPECT_EQ(options.settings(), (std::map<std::string, std::string>{{"rounds", "4"}}));
  EXPECT_THROW(options.reject_settings(), std::invalid_argument);
  EXPECT_NO_THROW(CliOptions::parse(4, argv, {"csv"}).reject_settings());
}

TEST(Experiment, StrategyStringRoundTrip) {
  for (const auto kind :
       {StrategyKind::FedAvg, StrategyKind::GeoMed, StrategyKind::Krum,
        StrategyKind::MultiKrum, StrategyKind::Median, StrategyKind::TrimmedMean,
        StrategyKind::NormThreshold, StrategyKind::Bulyan, StrategyKind::AuxAudit,
        StrategyKind::Spectral, StrategyKind::FedGuard}) {
    EXPECT_EQ(strategy_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW((void)strategy_kind_from_string("bogus"), std::invalid_argument);
}

TEST(Experiment, PresetsAreConsistent) {
  const ExperimentConfig small = ExperimentConfig::small_scale();
  EXPECT_LE(small.clients_per_round, small.num_clients);
  EXPECT_GT(small.rounds, 0u);

  const ExperimentConfig paper = ExperimentConfig::paper_scale();
  EXPECT_EQ(paper.num_clients, 100u);          // paper §IV-A
  EXPECT_EQ(paper.clients_per_round, 50u);     // m = 50
  EXPECT_EQ(paper.rounds, 50u);                // Fig. 4 x-axis
  EXPECT_EQ(paper.client.local_epochs, 5u);    // 5 local epochs
  EXPECT_EQ(paper.client.cvae_epochs, 30u);    // 30 CVAE epochs
  EXPECT_EQ(paper.fedguard_total_samples, 100u);  // t = 2m = 100
  EXPECT_DOUBLE_EQ(paper.dirichlet_alpha, 10.0);
  EXPECT_EQ(paper.arch, models::ClassifierArch::PaperCnn);
  EXPECT_EQ(paper.cvae.hidden, 400u);  // Table III
  EXPECT_EQ(paper.cvae.latent, 20u);
}

TEST(Report, FormatAccuracy) {
  util::TrailingStats stats;
  stats.mean = 0.9897;
  stats.stddev = 0.0017;
  EXPECT_EQ(format_accuracy(stats), "98.97% +- 0.17%");
}

TEST(Report, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.0 KB");
  EXPECT_EQ(format_bytes(348.3e6), "348.3 MB");
  EXPECT_EQ(format_bytes(1.5e9), "1.50 GB");
}

TEST(Report, Table4Rendering) {
  std::ostringstream out;
  Table4Row row;
  row.strategy = "fedguard";
  row.cells.push_back({0.9897, 0.0022, 40});
  print_table4(out, {"Sign Flipping 50%"}, {row}, 40);
  const std::string text = out.str();
  EXPECT_NE(text.find("fedguard"), std::string::npos);
  EXPECT_NE(text.find("98.97%"), std::string::npos);
  EXPECT_NE(text.find("Sign Flipping 50%"), std::string::npos);
}

TEST(Report, Table5OverheadPercentages) {
  std::ostringstream out;
  std::vector<Table5Row> rows;
  rows.push_back({"fedavg", 348.3e6, 348.3e6, 3.76});
  rows.push_back({"fedguard", 349.3e6, 417.4e6, 6.86});
  print_table5(out, rows);
  const std::string text = out.str();
  EXPECT_NE(text.find("fedavg"), std::string::npos);
  EXPECT_NE(text.find("+20%"), std::string::npos);  // download overhead
  EXPECT_NE(text.find("+82%"), std::string::npos);  // time overhead
}

TEST(Report, AccuracySeriesAlignment) {
  std::ostringstream out;
  fl::RunHistory a;
  a.strategy = "fedavg";
  fl::RunHistory b;
  b.strategy = "fedguard";
  for (int r = 0; r < 3; ++r) {
    fl::RoundRecord record;
    record.round = static_cast<std::size_t>(r);
    record.test_accuracy = 0.5;
    a.rounds.push_back(record);
    if (r < 2) b.rounds.push_back(record);
  }
  print_accuracy_series(out, {a, b});
  const std::string text = out.str();
  EXPECT_NE(text.find("round,fedavg,fedguard"), std::string::npos);
  // Shorter series padded with an empty cell on the last round.
  EXPECT_NE(text.find("2,0.5000,"), std::string::npos);
}

}  // namespace
}  // namespace fedguard::core
