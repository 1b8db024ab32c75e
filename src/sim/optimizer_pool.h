// A small fork-join helper for round-boundary optimizer fits.
//
// ShardScheduler::run parks every user whose optimization reached a
// round boundary (core::OptimizationRun fit parking) and hands the batch of
// fits here. Each fit touches only its own user's private state (GP, rng,
// ABR clone), so the fits of one wave are embarrassingly parallel and the
// results are independent of which thread ran which fit — the pool is
// bitwise invisible by construction, pinned by the determinism property
// grid over optimizer_threads.
//
// run() blocks until every index has been processed; the calling thread
// participates, so a pool with zero workers degrades to a plain loop (and a
// single-element batch never pays any synchronization).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace lingxi::sim {

class OptimizerPool {
 public:
  /// `workers` extra threads beyond the caller; 0 means run() loops inline.
  explicit OptimizerPool(std::size_t workers);
  ~OptimizerPool();

  OptimizerPool(const OptimizerPool&) = delete;
  OptimizerPool& operator=(const OptimizerPool&) = delete;

  /// Invoke fn(0) .. fn(count-1), each exactly once, across the caller and
  /// the worker threads; returns when all have completed. fn must be safe to
  /// call concurrently for distinct indices. Not reentrant.
  void run(std::size_t count, const std::function<void(std::size_t)>& fn);

  std::size_t workers() const noexcept { return threads_.size(); }

 private:
  struct Batch {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
  };

  void worker_loop();
  /// Claim-and-run indices from `batch` until it is exhausted; returns the
  /// number of indices this thread completed.
  static std::size_t drain(Batch& batch);

  std::mutex mutex_;
  std::condition_variable work_cv_;   ///< workers wait for a batch / shutdown
  std::condition_variable done_cv_;   ///< run() waits for batch completion
  std::shared_ptr<Batch> batch_;      ///< current batch, null when idle
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace lingxi::sim
