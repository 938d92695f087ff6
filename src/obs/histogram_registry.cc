#include "src/obs/histogram_registry.h"

#include <algorithm>
#include <utility>

namespace watter {
namespace obs {

void HistogramRegistry::Record(const std::string& name, double lo, double hi,
                               int bins, double value) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, Histogram(lo, hi, bins)).first;
  }
  it->second.Add(value);
}

std::vector<HistogramSnapshot> HistogramRegistry::Snapshots() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<HistogramSnapshot> out;
  out.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    HistogramSnapshot snap;
    snap.name = name;
    snap.count = hist.count();
    snap.mean = hist.mean();
    snap.min = hist.min_seen();
    snap.max = hist.max_seen();
    // Quantiles interpolate within a bin, so they can land outside the
    // values actually recorded (a bin-0-only histogram reports p50 at half
    // the bin width); clamp them to the observed range.
    const auto quantile = [&hist](double q) {
      return std::clamp(hist.Quantile(q), hist.min_seen(), hist.max_seen());
    };
    snap.p50 = quantile(0.5);
    snap.p90 = quantile(0.9);
    snap.p99 = quantile(0.99);
    out.push_back(std::move(snap));
  }
  return out;
}

void HistogramRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  histograms_.clear();
}

}  // namespace obs
}  // namespace watter
