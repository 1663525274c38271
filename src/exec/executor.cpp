#include "exec/executor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <exception>
#include <mutex>
#include <numeric>
#include <thread>

#include <condition_variable>

#include "exec/pacing.hpp"
#include "hw/calibration.hpp"
#include "util/assert.hpp"
#include "util/registry.hpp"

namespace hybrimoe::exec {

ExecutionMode execution_mode_from_name(std::string_view name) {
  for (const auto mode :
       {ExecutionMode::Simulated, ExecutionMode::Threaded, ExecutionMode::Performance})
    if (name == to_string(mode)) return mode;
  throw std::invalid_argument(util::unknown_name_message(
      "execution mode", name, {"simulated", "threaded", "performance"}));
}

void ExecOptions::validate() const {
  HYBRIMOE_REQUIRE(workers == 1, "the CPU lane is one thread: workers must be 1");
  HYBRIMOE_REQUIRE(time_scale > 0.0 && std::isfinite(time_scale),
                   "time_scale must be positive and finite");
  HYBRIMOE_REQUIRE(d_model > 0 && d_ff > 0, "functional dimensions must be positive");
}

std::uint64_t hash_bytes(std::uint64_t seed, const void* data, std::size_t size) noexcept {
  constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    seed ^= bytes[i];
    seed *= kFnvPrime;
  }
  return seed;
}

std::uint64_t hash_u64(std::uint64_t seed, std::uint64_t value) noexcept {
  return hash_bytes(seed, &value, sizeof(value));
}

namespace {

/// Run `work` and return what it threw instead of throwing it: a backend job
/// publishes its completion even when its work fails, because a lane or the
/// engine thread is blocked on it.
template <class Work>
std::exception_ptr capture(Work&& work) noexcept {
  try {
    work();
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

}  // namespace

/// Per-layer completion board shared (by shared_ptr) with every job the
/// layer spawns, so lane/copy-thread closures never reference the engine
/// thread's stack. `done[i]` publishes that plan task i's transfer landed;
/// the single mutex/cv pair is uncontended at the backend's millisecond
/// pacing granularity.
struct HybridExecutor::LayerBoard {
  std::mutex m;
  std::condition_variable cv;
  std::vector<char> done;                 ///< per plan task: transfer landed
  std::size_t lanes_remaining = 0;        ///< off-thread compute lanes in flight
  std::exception_ptr error;               ///< first error an off-thread lane hit
  const sched::LayerPlan* plan = nullptr; ///< the plan being executed
  std::span<const float> input;           ///< layer input (stable in the store)
  std::vector<std::vector<float>> slots;  ///< per plan-task expert outputs
};

HybridExecutor::HybridExecutor(ExecOptions options)
    : options_(options), store_(options.d_model, options.d_ff, options.weight_seed,
                                options.quantized_experts) {
  options_.validate();
}

HybridExecutor::~HybridExecutor() = default;

void HybridExecutor::ensure_started(std::size_t num_links) {
  while (copiers_.size() < num_links) {
    copy_scratch_.push_back(std::make_unique<std::vector<std::byte>>());
    copiers_.push_back(std::make_unique<CopyEngine>());
    lanes_.push_back(std::make_unique<CopyEngine>());
  }
}

void HybridExecutor::begin_step(bool paced) {
  HYBRIMOE_REQUIRE(!in_step_, "begin_step while a step is already open");
  step_ = StepResult{};
  in_step_ = true;
  // Safe plain write: no backend task of this step exists yet, and task
  // submission (lane/copier queues) establishes the happens-before edge for
  // every thread that later reads paced_.
  paced_ = paced;
}

StepResult HybridExecutor::end_step() {
  HYBRIMOE_REQUIRE(in_step_, "end_step without begin_step");
  in_step_ = false;
  // Stragglers (prefetch/maintenance copies) drain outside the measurement,
  // mirroring the simulator's per-step per-link carry reset.
  for (const auto* engines : {&copiers_, &lanes_}) {
    for (const auto& engine : *engines) {
      engine->drain();
      engine->rethrow_pending_error();
    }
  }
  return step_;
}

void HybridExecutor::abort_step() noexcept {
  if (!in_step_) return;
  in_step_ = false;
  // Quiesce: every dispatched job publishes its completion even on error,
  // so the drains terminate. Pending errors are discarded: the abort cause
  // is already propagating.
  for (const auto* engines : {&copiers_, &lanes_}) {
    for (const auto& engine : *engines) {
      try {
        engine->drain();
        engine->rethrow_pending_error();
      } catch (...) {
      }
    }
  }
  step_ = StepResult{};
}

void HybridExecutor::pace_dense(double modeled_seconds) {
  HYBRIMOE_REQUIRE(in_step_, "pace_dense outside a step");
  HYBRIMOE_REQUIRE(modeled_seconds >= 0.0, "dense duration must be non-negative");
  if (!slack_reduced_) {
    reduce_timer_slack();
    slack_reduced_ = true;
  }
  const auto t0 = PaceClock::now();
  if (paced_)
    sleep_until_paced(t0 + scaled_duration(modeled_seconds, options_.time_scale));
  step_.measured += std::chrono::duration<double>(PaceClock::now() - t0).count() /
                    (paced_ ? options_.time_scale : 1.0);
}

void HybridExecutor::copy_blob(moe::ExpertId id, std::vector<std::byte>& scratch) {
  const auto blob = store_.transfer_blob(id);
  if (scratch.size() < blob.size()) scratch.resize(blob.size());
  std::memcpy(scratch.data(), blob.data(), blob.size());
}

void HybridExecutor::submit_copy(std::size_t link, moe::ExpertId id, double seconds,
                                 std::shared_ptr<LayerBoard> board, std::size_t idx) {
  // The scratch pointer is resolved here, on the engine thread: the copier
  // thread must never index copy_scratch_ itself — a later ensure_started
  // (higher device count) may reallocate the outer vector while copies are
  // still in flight. The pointee is stable.
  copiers_[link]->submit([this, id, board = std::move(board), idx,
                          dur = scaled_duration(seconds, options_.time_scale),
                          scratch = copy_scratch_[link].get()] {
    const auto t0 = PaceClock::now();
    const auto error = capture([&] { copy_blob(id, *scratch); });
    if (paced_) sleep_until_paced(t0 + dur);
    if (board) {
      std::lock_guard lock(board->m);
      board->done[idx] = 1;
      board->cv.notify_all();
    }
    if (error) std::rethrow_exception(error);  // recorded by the copier
  });
}

std::vector<float> HybridExecutor::combine_and_digest(
    const sched::LayerPlan& plan, std::vector<std::vector<float>>& slots) {
  const auto& tasks = plan.tasks;
  // Fixed reduction order — ascending expert index, which is unique within a
  // layer — makes the float accumulation identical regardless of device
  // assignment or completion order.
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&tasks](std::size_t a, std::size_t b) {
    return tasks[a].expert.expert < tasks[b].expert.expert;
  });
  double total_load = 0.0;
  for (const auto& t : tasks) total_load += static_cast<double>(t.load);

  std::vector<float> out(options_.d_model, 0.0f);
  for (const std::size_t i : order) {
    HYBRIMOE_ASSERT(slots[i].size() == out.size(), "expert output slot missing");
    const auto coeff = static_cast<float>(static_cast<double>(tasks[i].load) / total_load);
    for (std::size_t d = 0; d < out.size(); ++d) out[d] += coeff * slots[i][d];
  }
  step_.digest = hash_u64(step_.digest, plan.layer);
  step_.digest = hash_bytes(step_.digest, out.data(), out.size() * sizeof(float));
  return out;
}

LayerResult HybridExecutor::execute_layer_reference(const sched::LayerPlan& plan) {
  HYBRIMOE_REQUIRE(in_step_, "execute_layer_reference outside a step");
  HYBRIMOE_REQUIRE(!plan.tasks.empty(), "cannot execute an empty plan");
  LayerResult result;
  ++step_.layers;
  const auto input = store_.layer_input(plan.layer);
  std::vector<std::vector<float>> slots(plan.tasks.size());
  for (std::size_t i = 0; i < plan.tasks.size(); ++i)
    slots[i] = store_.forward(plan.tasks[i].expert, input);
  result.output = combine_and_digest(plan, slots);
  return result;
}

void HybridExecutor::run_lane(LayerBoard& board, std::span<const std::size_t> order,
                              double head_seconds) {
  const auto& tasks = board.plan->tasks;
  const double scale = options_.time_scale;
  if (paced_) sleep_until_paced(PaceClock::now() + scaled_duration(head_seconds, scale));
  for (const std::size_t i : order) {
    if (tasks[i].transferred) {
      std::unique_lock lock(board.m);
      board.cv.wait(lock, [&board, i] { return board.done[i] != 0; });
    }
    const auto t0 = PaceClock::now();
    board.slots[i] = store_.forward(tasks[i].expert, board.input);
    if (paced_)
      sleep_until_paced(t0 + scaled_duration(tasks[i].end - tasks[i].start, scale));
  }
}

LayerResult HybridExecutor::execute_layer(const sched::LayerPlan& plan, double overhead,
                                          std::span<const AsyncCopy> async_copies) {
  HYBRIMOE_REQUIRE(in_step_, "execute_layer outside a step");
  HYBRIMOE_REQUIRE(!plan.tasks.empty(), "cannot execute an empty plan");
  HYBRIMOE_REQUIRE(overhead >= 0.0, "layer overhead must be non-negative");
  std::size_t num_links = plan.num_accel_devices();
  for (const AsyncCopy& c : async_copies) {
    HYBRIMOE_REQUIRE(c.seconds >= 0.0, "copy duration must be non-negative");
    num_links = std::max(num_links, c.link + 1);
  }
  ensure_started(num_links);
  if (!slack_reduced_) {
    reduce_timer_slack();
    slack_reduced_ = true;
  }

  const double scale = options_.time_scale;
  const auto& tasks = plan.tasks;

  // Materialize weights on the engine thread up front: lanes then hit the
  // store's shared-lock fast path only.
  for (const auto& t : tasks) (void)store_.weights(t.expert);

  auto board = std::make_shared<LayerBoard>();
  board->done.assign(tasks.size(), 0);
  board->slots.resize(tasks.size());
  board->plan = &plan;
  board->input = store_.layer_input(plan.layer);

  const auto layer_start = PaceClock::now();

  // ---- Framework dispatch overhead serializes before the layer: the plan's
  // t = 0 is where the engine's per-layer latency charge ends, so nothing —
  // not even a transfer — may be issued earlier (the very term §V moves into
  // C++ kernels to shrink).
  if (paced_) sleep_until_paced(layer_start + scaled_duration(overhead, scale));

  // ---- Link lanes: each link's on-demand transfers in per-link plan order,
  // then the engine's speculative uploads routed to it. FIFO on each copy
  // thread reproduces the modeled serially-occupied links, including carry
  // into later layers.
  for (std::size_t link = 0; link < num_links; ++link)
    for (const std::size_t i : plan.transfer_order(sched::accelerator_device(link)))
      submit_copy(link, tasks[i].expert, tasks[i].transfer_end - tasks[i].transfer_start,
                  board, i);
  for (const AsyncCopy& c : async_copies) submit_copy(c.link, c.id, c.seconds);

  // ---- Off-thread compute lanes, each its device's tasks in plan start
  // order on its own thread: lanes_[0] is the CPU, which starts at t = 0;
  // lanes_[a] is accelerator a >= 1, which first runs the dense head.
  for (std::size_t lane = 0; lane < num_links; ++lane) {
    auto order =
        plan.device_order(lane == 0 ? sched::kCpuDevice : sched::accelerator_device(lane));
    if (order.empty()) continue;
    {
      std::lock_guard lock(board->m);
      ++board->lanes_remaining;
    }
    lanes_[lane]->submit([this, board, order = std::move(order),
                          head = lane == 0 ? 0.0 : plan.gpu_offset] {
      const auto error = capture([&] { run_lane(*board, order, head); });
      std::lock_guard lock(board->m);
      if (!board->error) board->error = error;
      --board->lanes_remaining;
      board->cv.notify_all();
    });
  }

  // ---- Accelerator 0's lane runs on this thread.
  run_lane(*board, plan.device_order(sched::kGpuDevice), plan.gpu_offset);

  // ---- Barrier: the layer is done when every lane has finished (every plan
  // transfer completed earlier — its accelerator dependent waited on it).
  {
    std::unique_lock lock(board->m);
    board->cv.wait(lock, [&board] { return board->lanes_remaining == 0; });
    if (board->error) std::rethrow_exception(board->error);
  }

  LayerResult result;
  // Unpaced steps report raw wall seconds (there is no modeled time to
  // rescale to — the window *is* the kernel/copy time).
  result.measured = std::chrono::duration<double>(PaceClock::now() - layer_start).count() /
                    (paced_ ? scale : 1.0);
  step_.measured += result.measured;
  ++step_.layers;
  result.output = combine_and_digest(plan, board->slots);
  return result;
}

double HybridExecutor::calibrate_time_scale(const hw::CostModel& costs, double safety) {
  HYBRIMOE_REQUIRE(!in_step_, "calibrate_time_scale inside a step");
  HYBRIMOE_REQUIRE(safety >= 1.0, "safety factor must be >= 1");
  // Scratch buffers are about to be touched from this thread.
  for (const auto& copier : copiers_) copier->drain();

  const moe::ExpertId probe{0, 0};
  const auto input = store_.layer_input(0);
  std::vector<std::byte> probe_scratch;
  double real = hw::time_callable([&] { (void)store_.forward(probe, input); });
  real = std::max(real, hw::time_callable([&] { copy_blob(probe, probe_scratch); }));
  // Sleep overshoot: how late a paced task typically wakes.
  static constexpr auto kProbeSleep = std::chrono::microseconds(200);
  reduce_timer_slack();
  const double overshoot =
      hw::time_callable([] { std::this_thread::sleep_for(kProbeSleep); }) -
      std::chrono::duration<double>(kProbeSleep).count();
  real = std::max({real, overshoot, 1e-6});

  double d_min = costs.cpu_expert_time(1, /*warm=*/true);
  for (std::size_t a = 0; a < costs.num_accelerators(); ++a)
    d_min = std::min({d_min, costs.gpu_expert_time(1, a), costs.transfer_time(a)});
  HYBRIMOE_ASSERT(d_min > 0.0, "cost model yields non-positive task durations");
  return safety * real / d_min;
}

}  // namespace hybrimoe::exec
