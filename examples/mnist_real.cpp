// Real-MNIST pathway: when the original MNIST IDX files are on disk, run the
// paper's experiment on the actual dataset instead of the synthetic
// substitute (DESIGN.md §1).
//
//   $ ./mnist_real --data-dir /path/to/mnist ...
//         [--strategy fedguard] [--attack sign_flip] [--malicious_fraction 0.5]
//
// Runs start from the paper preset (--scale paper); every descriptor key is
// a flag.
//
// expects the standard file names inside --data-dir:
//   train-images-idx3-ubyte  train-labels-idx1-ubyte
//   t10k-images-idx3-ubyte   t10k-labels-idx1-ubyte
// Falls back to a notice (exit 0) when the files are absent so the example
// suite can run unattended in environments without the dataset.

#include <cstdio>

#include "core/cli.hpp"
#include "core/runner.hpp"
#include "data/idx_loader.hpp"
#include "util/logging.hpp"

int main(int argc, char** argv) {
  using namespace fedguard;
  const core::CliOptions options = core::CliOptions::parse(argc, argv, {"data-dir"});
  const core::ExperimentConfig config = core::parse_or_exit([&] {
    return core::experiment_config(
        options,
        [](core::ExperimentConfig& defaults) {
          defaults.attack = attacks::AttackType::SignFlip;
          defaults.malicious_fraction = 0.5;
        },
        "", "paper");
  });
  util::set_log_level(util::LogLevel::Warn);

  const std::string dir = options.get("data-dir", "./mnist");
  const std::string train_images = dir + "/train-images-idx3-ubyte";
  const std::string train_labels = dir + "/train-labels-idx1-ubyte";
  const std::string test_images = dir + "/t10k-images-idx3-ubyte";
  const std::string test_labels = dir + "/t10k-labels-idx1-ubyte";

  if (!data::idx_dataset_available(train_images, train_labels) ||
      !data::idx_dataset_available(test_images, test_labels)) {
    std::printf("MNIST IDX files not found under %s — nothing to do.\n"
                "Download the four files from the MNIST distribution and re-run:\n"
                "  %s/train-images-idx3-ubyte (+labels)\n"
                "  %s/t10k-images-idx3-ubyte (+labels)\n"
                "The rest of this repository runs on the synthetic substitute.\n",
                dir.c_str(), dir.c_str(), dir.c_str());
    return 0;
  }

  std::printf("loading MNIST from %s...\n", dir.c_str());
  data::Dataset train = data::load_idx_dataset(train_images, train_labels);
  data::Dataset test = data::load_idx_dataset(test_images, test_labels);
  std::printf("train %zu samples, test %zu samples\n", train.size(), test.size());

  // The server-side auxiliary dataset (Spectral / aux_audit baselines) is a
  // held-out slice of the test set, as commonly assumed by those methods.
  std::vector<std::size_t> aux_indices(1000);
  for (std::size_t i = 0; i < aux_indices.size(); ++i) aux_indices[i] = i;
  data::Dataset auxiliary = test.subset(aux_indices);

  core::Federation federation = core::build_federation_with_data(
      config, std::move(train), std::move(test), std::move(auxiliary));
  fl::RunHistory history = federation.run();
  const auto tail = history.trailing_accuracy(40);  // the paper's window
  std::printf("\ntrailing-40 accuracy: %.2f%% +- %.2f%% (paper Table IV row: %s)\n",
              tail.mean * 100.0, tail.stddev * 100.0, core::to_string(config.strategy));
  return 0;
}
