// HistogramRegistry: process-global named latency histograms (plan latency,
// phase durations), built on stats::Histogram.
//
// Like the TraceRecorder, the registry is compiled in everywhere and
// disabled by default: `enabled()` is one relaxed atomic load, and a
// disabled Record() touches nothing else. Recording takes a mutex (the
// underlying Histogram is not thread-safe), so call sites must be cool
// enough that the lock does not serialize hot loops — per-plan and
// per-round sites qualify; per-oracle-query sites would not.
//
// Values only ever feed wall-clock diagnostics, never simulation decisions,
// so the registry is excluded from the determinism contract the same way
// MetricsReport's `*_seconds` fields are.
#ifndef WATTER_OBS_HISTOGRAM_REGISTRY_H_
#define WATTER_OBS_HISTOGRAM_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/stats/histogram.h"

namespace watter {
namespace obs {

/// A point-in-time copy of one named histogram, for export and tests.
struct HistogramSnapshot {
  std::string name;
  int64_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

class HistogramRegistry {
 public:
  static HistogramRegistry& Global() {
    static HistogramRegistry* registry = new HistogramRegistry();
    return *registry;
  }

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }

  /// The call sites' fast-path check: one relaxed load.
  static bool enabled() {
    return Global().enabled_.load(std::memory_order_relaxed);
  }

  /// Adds `value` to the histogram named `name`, creating it with the given
  /// range/bins on first use (later calls keep the original shape). No-op
  /// when disabled.
  void Record(const std::string& name, double lo, double hi, int bins,
              double value);

  std::vector<HistogramSnapshot> Snapshots() const;

  /// Drops all histograms (tests; production runs accumulate).
  void Clear();

 private:
  HistogramRegistry() = default;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::map<std::string, Histogram> histograms_;
};

/// Shorthand for timing call sites: records `seconds` into `name` with the
/// standard latency shape (0..hi_seconds, 64 bins) when the registry is on.
inline void RecordLatency(const char* name, double seconds,
                          double hi_seconds = 1.0) {
  if (!HistogramRegistry::enabled()) return;
  HistogramRegistry::Global().Record(name, 0.0, hi_seconds, 64, seconds);
}

}  // namespace obs
}  // namespace watter

#endif  // WATTER_OBS_HISTOGRAM_REGISTRY_H_
