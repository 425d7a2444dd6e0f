// Shared vocabulary types for the ROCC simulator.
#pragma once

#include <cstdint>
#include <vector>

#include "des/inline_function.hpp"
#include "des/time.hpp"
#include "trace/record.hpp"

namespace paradyn::rocc {

using des::SimTime;
using trace::ProcessClass;

/// Completion/notification callback used throughout the resource classes
/// (CpuRequest, NetRequest, pipe wakeups).  Allocation-free: the capture is
/// stored inline and bounded at compile time, so submitting a request never
/// heap-allocates a control block the way std::function did.  Entities keep
/// the state of their in-flight operation in members, so a continuation
/// captures `this` and at most one more word.
inline constexpr std::size_t kSmallCallbackCapacity = 16;
using SmallCallback = des::InlineFunction<kSmallCallbackCapacity>;

/// Target architecture class (Section 4): network of workstations, shared
/// memory multiprocessor, or massively parallel processor.
enum class Architecture : std::uint8_t { Now, Smp, Mpp };

/// Instrumentation-data scheduling policy (Figure 3).  CF is equivalent to
/// BF with batch size 1; the simulator treats `batch_size == 1` as CF.
enum class SchedulingPolicy : std::uint8_t { CollectAndForward, BatchAndForward };

/// Data-forwarding configuration for MPP (Figure 4).
enum class ForwardingTopology : std::uint8_t { Direct, BinaryTree };

/// How the interconnect is modeled: a single shared server (Ethernet / SMP
/// bus) or a contention-free dedicated network (pure delay, as the paper
/// assumes for the MPP case and for the NOW figures marked
/// "contention-free network").
enum class NetworkContention : std::uint8_t { SharedSingleServer, ContentionFree };

[[nodiscard]] constexpr const char* to_string(Architecture a) noexcept {
  switch (a) {
    case Architecture::Now:
      return "NOW";
    case Architecture::Smp:
      return "SMP";
    case Architecture::Mpp:
      return "MPP";
  }
  return "?";
}

[[nodiscard]] constexpr const char* to_string(SchedulingPolicy p) noexcept {
  return p == SchedulingPolicy::CollectAndForward ? "CF" : "BF";
}

[[nodiscard]] constexpr const char* to_string(ForwardingTopology t) noexcept {
  return t == ForwardingTopology::Direct ? "direct" : "tree";
}

/// One instrumentation-data sample, generated by an application process at
/// each sampling interval and carried to the main Paradyn process.  The
/// metric values are the fractions of the elapsed sampling interval the
/// process spent computing and communicating — the inputs Paradyn's
/// Performance Consultant tests its CPUbound / communication-bound
/// hypotheses against.
struct Sample {
  SimTime generated_at = 0.0;
  std::int32_t node = 0;
  std::int32_t app_index = 0;
  double cpu_fraction = 0.0;   ///< CPU occupancy / sampling interval.
  double comm_fraction = 0.0;  ///< Network occupancy / sampling interval.
  /// Run-unique id (1-based generation order) — keys the sample's
  /// generation-to-delivery lifecycle chain in the observability trace.
  std::uint64_t id = 0;
};

/// Null-terminated process-class label (for trace-event names, which must
/// be static strings).
[[nodiscard]] constexpr const char* to_cstr(ProcessClass c) noexcept {
  switch (c) {
    case ProcessClass::Application:
      return "app";
    case ProcessClass::ParadynDaemon:
      return "pd";
    case ProcessClass::PvmDaemon:
      return "pvmd";
    case ProcessClass::Other:
      return "other";
    case ProcessClass::MainParadyn:
      return "main";
  }
  return "?";
}

/// A forwarding unit: one sample under CF, a batch of samples under BF, or a
/// merged batch en route through the binary tree (tree aggregation folds the
/// children's samples into the parent's outgoing unit).
struct Batch {
  SimTime forward_started_at = 0.0;  ///< When the (earliest) forward op began.
  std::int32_t origin_node = 0;
  std::vector<Sample> samples;

  [[nodiscard]] std::int32_t sample_count() const noexcept {
    return static_cast<std::int32_t>(samples.size());
  }
};

}  // namespace paradyn::rocc
