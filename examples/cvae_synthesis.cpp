// Controllable synthesis demo (paper §III-A): train a CVAE on synthetic
// digits, then ask its decoder for specific classes — the mechanism FedGuard
// uses to build labelled validation data at the server. Renders the generated
// digits as ASCII art and scores them with an independently trained
// classifier.
//
//   $ ./cvae_synthesis [--samples N] [--epochs E] [--digit D]

#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "core/cli.hpp"
#include "data/synthetic_mnist.hpp"
#include "models/classifier.hpp"
#include "models/cvae.hpp"

namespace {

void print_ascii(std::span<const float> image, std::size_t size) {
  static const char* shades = " .:-=+*#%@";
  for (std::size_t y = 0; y < size; y += 2) {  // 2 rows per text line
    for (std::size_t x = 0; x < size; ++x) {
      const float v = 0.5f * (image[y * size + x] +
                              image[std::min(y + 1, size - 1) * size + x]);
      const int level = std::min(9, static_cast<int>(v * 10.0f));
      std::putchar(shades[level]);
    }
    std::putchar('\n');
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fedguard;
  const core::CliOptions options =
      core::CliOptions::parse(argc, argv, {"samples", "epochs", "digit"});
  std::size_t sample_count = 0;
  std::size_t epochs = 0;
  std::size_t digit = 0;
  core::parse_or_exit([&] {
    options.reject_settings();  // no federation here: no descriptor keys
    sample_count = options.get_size("samples", 400);
    epochs = options.get_size("epochs", 40);
    digit = options.get_size("digit", 3);
    if (digit > 9) throw std::invalid_argument{"config: digit must be 0..9"};
  });

  std::printf("Training a CVAE on %zu synthetic digits (%zu epochs)...\n", sample_count,
              epochs);
  const data::Dataset train = data::generate_synthetic_mnist(sample_count, 11);
  std::vector<std::size_t> all(train.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const tensor::Tensor flat = train.gather_flat(all);
  const std::vector<int> labels{train.labels().begin(), train.labels().end()};

  models::CvaeSpec spec;
  spec.hidden = 96;
  spec.latent = 2;
  models::Cvae cvae{spec, 13};
  const float final_loss = cvae.train(flat, labels, epochs, 8, 3e-3f);
  std::printf("final CVAE loss: %.1f\n\n", static_cast<double>(final_loss));

  // Independent judge of generation quality.
  models::Classifier judge{models::ClassifierArch::Mlp, models::ImageGeometry{}, 17};
  for (std::size_t epoch = 0; epoch < 12; ++epoch) {
    for (std::size_t start = 0; start + 16 <= train.size(); start += 16) {
      std::vector<std::size_t> idx(16);
      std::iota(idx.begin(), idx.end(), start);
      const auto batch = train.gather(idx);
      judge.train_batch(batch.images, batch.labels, 0.05f, 0.9f);
    }
  }

  util::Rng rng{19};
  if (options.has("digit")) {
    // Render a few variations of one conditioned class.
    std::printf("decoder conditioned on class %zu:\n\n", digit);
    const tensor::Tensor z = models::sample_standard_normal(3, spec.latent, rng);
    const std::vector<int> y(3, static_cast<int>(digit));
    const tensor::Tensor generated = cvae.decoder().decode(z, y);
    for (std::size_t i = 0; i < 3; ++i) {
      print_ascii(generated.row(i), 28);
      std::putchar('\n');
    }
  } else {
    // One sample per class plus an overall quality score.
    const tensor::Tensor z = models::sample_standard_normal(10, spec.latent, rng);
    std::vector<int> y(10);
    std::iota(y.begin(), y.end(), 0);
    const tensor::Tensor generated = cvae.decoder().decode(z, y);
    for (int digit = 0; digit < 10; ++digit) {
      std::printf("conditioned on %d:\n", digit);
      print_ascii(generated.row(static_cast<std::size_t>(digit)), 28);
      std::putchar('\n');
    }
  }

  // Score a large conditioned batch with the judge: how often does the
  // requested class come out? This is the property FedGuard's validation
  // data depends on.
  const std::size_t audit = 500;
  const tensor::Tensor z = models::sample_standard_normal(audit, spec.latent, rng);
  std::vector<int> y(audit);
  for (std::size_t i = 0; i < audit; ++i) y[i] = static_cast<int>(i % 10);
  const tensor::Tensor generated = cvae.decoder().decode(z, y);
  const tensor::Tensor images = generated.reshaped({audit, 1, 28, 28});
  std::printf("judge classifier agrees with the conditioning label on %.1f%% of %zu "
              "generated digits\n",
              judge.evaluate_accuracy(images, y) * 100.0, audit);
  return 0;
}
