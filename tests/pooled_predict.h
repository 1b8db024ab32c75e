// Test helper: resolves hybrid-predictor queries through the one batched
// exit path the way BatchPredictorExitEvaluator::prepare does — queries at
// or below the stall threshold inline through predict(), stalled ones parked
// in an ExitQueryPool and read back after one flush.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "predictor/hybrid.h"

namespace lingxi::testing_util {

inline std::vector<double> pooled_predict(
    const predictor::HybridExitPredictor& predictor,
    const std::vector<predictor::HybridExitPredictor::ExitQuery>& queries,
    predictor::ExitQueryPool& pool) {
  constexpr std::size_t kInline = std::numeric_limits<std::size_t>::max();
  std::vector<double> out(queries.size(), -1.0);
  std::vector<std::size_t> tickets(queries.size(), kInline);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (queries[i].stall_time <= predictor::HybridExitPredictor::kNnStallThreshold) {
      out[i] = predictor.predict(queries[i]);
    } else {
      tickets[i] = pool.park(predictor, queries[i], {0, static_cast<std::uint32_t>(i), 0});
    }
  }
  pool.flush();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (tickets[i] != kInline) out[i] = pool.prob(tickets[i]);
  }
  return out;
}

}  // namespace lingxi::testing_util
