// Test helper: drives the Monte Carlo lockstep loop with plain
// sim::ExitModels (user models, constant or probing exit models) instead of
// the batched predictor. Every rollout gets a fresh model from the factory,
// and prepare() always resolves inline, so a rollout never parks.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>

#include "sim/session.h"

namespace lingxi::testing_util {

class InlineExitEvaluator final : public sim::BatchExitEvaluator {
 public:
  using Factory = std::function<std::unique_ptr<sim::ExitModel>()>;

  explicit InlineExitEvaluator(Factory factory) : factory_(std::move(factory)) {}

  std::unique_ptr<sim::ExitModel> make_model() const override { return factory_(); }
  bool prepare(sim::ExitModel& model, const sim::SegmentRecord& segment,
               double& out) const override {
    out = model.exit_probability(segment);
    return true;
  }
  std::size_t flush(double*) const override { return 0; }
  void discard_parked() const override {}

 private:
  Factory factory_;
};

}  // namespace lingxi::testing_util
