// Test helper: resolves hybrid-predictor queries through the one batched
// exit path — BatchPredictorExitEvaluator::submit() resolves queries at or
// below the stall threshold inline and parks the stalled ones, and one
// flush() evaluates the parked batch.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "predictor/hybrid.h"

namespace lingxi::testing_util {

inline std::vector<double> flush_predict(
    const predictor::HybridExitPredictor& predictor,
    const std::vector<predictor::HybridExitPredictor::ExitQuery>& queries,
    predictor::ExitFlushScratch& scratch) {
  const predictor::EngagementState unused_seed;  // submit() never reads it
  const predictor::BatchPredictorExitEvaluator exits(predictor, unused_seed, 1.0, scratch);
  std::vector<double> out(queries.size(), -1.0);
  std::vector<std::size_t> parked;  // query index per parked row, park order
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (!exits.submit(queries[i], out[i])) parked.push_back(i);
  }
  std::vector<double> probs(parked.size());
  EXPECT_EQ(exits.flush(probs.data()), parked.size());
  for (std::size_t j = 0; j < parked.size(); ++j) out[parked[j]] = probs[j];
  return out;
}

}  // namespace lingxi::testing_util
