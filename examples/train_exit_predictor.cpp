// Train the hybrid exit-rate predictor end to end (§3.3):
//   1. generate a synthetic stall-event log from the user population,
//   2. balance classes and split 80:20 (stratified),
//   3. train the 5-branch 1D-CNN with Adam + cross-entropy,
//   4. report accuracy / precision / recall / F1, and
//   5. checkpoint the weights to disk as an LXNC model container, reload
//      them and exit 1 unless the reloaded net scores the same accuracy.
#include <cstdio>

#include "common/bytes.h"
#include "common/rng.h"
#include "nn/serialize.h"
#include "predictor/dataset.h"
#include "predictor/exit_net.h"

int main() {
  using namespace lingxi;
  Rng rng(42);

  std::printf("generating synthetic stall log...\n");
  predictor::DatasetGenConfig gen;
  gen.users = 40;
  gen.sessions_per_user = 25;
  gen.filter = predictor::DatasetFilter::kStall;
  const auto dataset = predictor::generate_dataset(gen, rng);
  std::printf("  %zu stall samples (%zu exits, %zu continues)\n", dataset.size(),
              dataset.positives(), dataset.negatives());

  const auto balanced = predictor::balance(dataset, rng);
  std::printf("  balanced to %zu samples\n", balanced.size());
  const auto split = predictor::stratified_split(balanced, 0.8, rng);

  predictor::StallExitNet net(rng);
  predictor::TrainConfig config;
  config.epochs = 10;
  std::printf("training (%zu epochs)...\n", config.epochs);
  const double loss = predictor::train_exit_net(net, split.train, config, rng);
  std::printf("  final epoch mean loss: %.4f\n", loss);

  const auto metrics = predictor::evaluate(net, split.test);
  std::printf("test metrics: acc=%.3f prec=%.3f recall=%.3f f1=%.3f\n", metrics.accuracy,
              metrics.precision, metrics.recall, metrics.f1);

  const std::string path = "exit_net.lxnw";
  if (const Status s = write_file(path, nn::serialize_model(nn::kModelKindStallExitNet,
                                                            net.weights()));
      !s.ok()) {
    std::fprintf(stderr, "checkpoint write failed: %s\n", s.error().message.c_str());
    return 1;
  }
  std::printf("checkpoint written to %s\n", path.c_str());
  const auto bytes = read_file(path);
  if (!bytes) {
    std::fprintf(stderr, "checkpoint read failed: %s\n", bytes.error().message.c_str());
    return 1;
  }
  const auto loaded = nn::deserialize_model(nn::kModelKindStallExitNet, *bytes);
  if (!loaded) {
    std::fprintf(stderr, "checkpoint decode failed: %s\n", loaded.error().message.c_str());
    return 1;
  }
  Rng rng2(1);
  predictor::StallExitNet restored(rng2);
  if (!restored.load_weights(*loaded)) {
    std::fprintf(stderr, "checkpoint weights do not fit the net\n");
    return 1;
  }
  const auto again = predictor::evaluate(restored, split.test);
  std::printf("reloaded checkpoint test accuracy: %.3f (matches: %s)\n", again.accuracy,
              again.accuracy == metrics.accuracy ? "yes" : "no");
  return again.accuracy == metrics.accuracy ? 0 : 1;
}
