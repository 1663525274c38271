#pragma once

/// \file copy_engine.hpp
/// The serial-lane primitive of the threaded execution backend: one
/// dedicated thread servicing jobs strictly in submission order, exactly as
/// the simulator models each resource as a single serially-occupied lane.
/// The executor runs one per host link (copy jobs: memcpy of an expert
/// weight blob into the device staging buffer) and one per off-thread
/// compute lane — the CPU and each accelerator after the first (lane jobs:
/// that device's expert tasks of one layer). Jobs are closures built by the
/// executor — each performs the real work, paces itself to the scaled
/// modeled duration, then publishes its completion to the task graph.
///
/// Thread-safety: submit() and drain() may be called from any thread (the
/// executor calls them from the engine thread). Jobs run on the lane thread
/// only; completion ordering is FIFO by submission.

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>

#include <condition_variable>

namespace hybrimoe::exec {

/// Single-threaded FIFO job servicer (one simulated serially-occupied lane).
class CopyEngine {
 public:
  /// Spawns the lane thread.
  CopyEngine();
  /// Drains all queued jobs, then joins the lane thread.
  ~CopyEngine();

  CopyEngine(const CopyEngine&) = delete;
  CopyEngine& operator=(const CopyEngine&) = delete;

  /// Enqueue a job; jobs execute strictly in submission order.
  void submit(std::function<void()> job);

  /// Block until every submitted job has completed. Must not be called from
  /// inside a job.
  void drain();

  /// Jobs completed so far (monotonic).
  [[nodiscard]] std::uint64_t completed() const;

  /// Rethrow the first exception that escaped a job, if any (the lane
  /// thread swallowed it to stay alive). Clears the stored exception.
  void rethrow_pending_error();

 private:
  void copy_loop();

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  std::uint64_t completed_ = 0;
  std::exception_ptr first_error_;
  bool busy_ = false;
  bool stop_ = false;
  // Last member: the thread must start only after all state is initialized.
  std::thread thread_;
};

}  // namespace hybrimoe::exec
