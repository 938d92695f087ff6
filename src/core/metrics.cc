#include "src/core/metrics.h"

#include <sstream>

namespace watter {

void MetricsCollector::RecordServed(const Order& order, double response,
                                    double detour, int group_size) {
  double extra =
      options_.weights.alpha * detour + options_.weights.beta * response;
  ++served_;
  total_extra_ += extra;
  total_response_ += response;
  total_detour_ += detour;
  total_group_size_ += group_size;
  served_extras_.push_back(extra);
  served_records_.push_back(
      ServedRecord{order.id, response, detour, extra, group_size});
}

void MetricsCollector::RecordRejected(const Order& order) {
  ++rejected_;
  total_metrs_penalty_ += order.Penalty();
  total_uc_penalty_ += options_.uc_penalty_factor * order.shortest_cost;
}

void MetricsCollector::RecordCancelled(const Order& order) {
  // Cancellations are rejections with a break-out counter: the aggregate
  // penalties stay bitwise identical whether or not the break-out exists.
  RecordRejected(order);
  ++cancelled_;
}

void MetricsCollector::RecordFailedService(const Order& order) {
  ++failed_;
  total_metrs_penalty_ += order.Penalty();
  total_uc_penalty_ += options_.uc_penalty_factor * order.shortest_cost;
}

void MetricsCollector::ReverseServed(const Order& order, double response,
                                     double detour, int group_size) {
  (void)order;
  // Recompute the identical extra value RecordServed derived and subtract
  // the same stored floats. The sums need not bit-restore (float add is not
  // reversible in general) — determinism comes from the reversal itself
  // being a fixed step in the serial fault phase.
  double extra =
      options_.weights.alpha * detour + options_.weights.beta * response;
  --served_;
  total_extra_ -= extra;
  total_response_ -= response;
  total_detour_ -= detour;
  total_group_size_ -= group_size;
}

MetricsReport MetricsCollector::Report() const {
  MetricsReport report;
  report.served = served_;
  report.rejected = rejected_;
  report.cancelled = cancelled_;
  report.failed_services = failed_;
  report.total_extra_time = total_extra_;
  report.total_metrs_penalty = total_metrs_penalty_;
  report.metrs_objective = total_extra_ + total_metrs_penalty_;
  report.worker_travel = worker_travel_;
  report.unified_cost = worker_travel_ + total_uc_penalty_;
  // Failed services are terminal outcomes: they join the denominator (with
  // failed_ == 0 the arithmetic is untouched).
  int64_t total = served_ + rejected_ + failed_;
  report.service_rate = total > 0 ? static_cast<double>(served_) / total : 0.0;
  report.avg_extra = served_ > 0 ? total_extra_ / served_ : 0.0;
  report.avg_response = served_ > 0 ? total_response_ / served_ : 0.0;
  report.avg_detour = served_ > 0 ? total_detour_ / served_ : 0.0;
  report.avg_group_size = served_ > 0 ? total_group_size_ / served_ : 0.0;
  report.algorithm_seconds = algorithm_seconds_;
  report.running_time_per_order =
      total > 0 ? algorithm_seconds_ / total : 0.0;
  if (fleet_size_ > 0 && horizon_seconds_ > 0.0) {
    report.fleet_utilization =
        worker_travel_ / (fleet_size_ * horizon_seconds_);
  }
  return report;
}

std::string MetricsReportJson(const MetricsReport& report) {
  std::ostringstream os;
  os.precision(9);
  auto i64 = [&os](const char* name, int64_t value, const char* sep = ", ") {
    os << "\"" << name << "\": " << value << sep;
  };
  auto f64 = [&os](const char* name, double value, const char* sep = ", ") {
    os << "\"" << name << "\": " << value << sep;
  };
  os << "{";
  // The bench_util record subset, same names and units.
  i64("served", report.served);
  i64("rejected", report.rejected);
  f64("metrs_objective", report.metrs_objective);
  f64("unified_cost", report.unified_cost);
  f64("service_rate", report.service_rate);
  f64("running_time_per_order_us", report.running_time_per_order * 1e6);
  i64("planner_plans", report.pool.planner_plans);
  i64("pair_tests", report.pool.pair_tests);
  i64("recomputes", report.pool.best_group_recomputes);
  i64("groups_evaluated", report.pool.groups_evaluated);
  i64("plan_cache_hits", report.pool.plan_cache_hits);
  i64("plan_cache_misses", report.pool.plan_cache_misses);
  i64("plan_cache_replans", report.pool.plan_cache_replans);
  i64("plan_cache_seeds", report.pool.plan_cache_seeds);
  i64("oracle_queries", report.geo.queries);
  i64("oracle_batches", report.geo.batches);
  i64("oracle_batch_points", report.geo.batch_points);
  // The rest of the report, under the MetricsReport field names.
  f64("total_extra_time", report.total_extra_time);
  f64("total_metrs_penalty", report.total_metrs_penalty);
  f64("worker_travel", report.worker_travel);
  f64("avg_extra", report.avg_extra);
  f64("avg_response", report.avg_response);
  f64("avg_detour", report.avg_detour);
  f64("avg_group_size", report.avg_group_size);
  f64("algorithm_seconds", report.algorithm_seconds);
  f64("fleet_utilization", report.fleet_utilization);
  i64("plan_cache_evictions", report.pool.plan_cache_evictions);
  i64("reverse_index_fanout", report.pool.reverse_index_fanout);
  f64("bucket_build_seconds", report.geo.bucket_build_seconds);
  i64("offers", report.dispatch.offers);
  i64("committed", report.dispatch.committed);
  i64("worker_conflicts", report.dispatch.worker_conflicts);
  i64("order_conflicts", report.dispatch.order_conflicts);
  i64("border_offers", report.dispatch.border_offers);
  i64("border_affected", report.dispatch.border_affected);
  i64("cancelled", report.cancelled);
  i64("failed_services", report.failed_services);
  i64("fault_dropouts", report.faults.dropouts);
  i64("fault_midroute_dropouts", report.faults.midroute_dropouts);
  i64("fault_late_dropouts", report.faults.late_dropouts);
  i64("fault_returns", report.faults.returns);
  i64("fault_brownout_rounds", report.faults.brownout_rounds);
  i64("fault_recovered_orders", report.faults.recovered_orders);
  i64("fault_aborted_commits", report.faults.aborted_commits);
  i64("shed_orders", report.faults.shed_orders);
  i64("degraded_rounds", report.faults.degraded_rounds);
  i64("work_units", report.faults.work_units);
  i64("watchdog_trips", report.faults.watchdog_trips, "}");
  return os.str();
}

std::string MetricsReport::ToString() const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(2);
  os << "served=" << served << " rejected=" << rejected
     << " service_rate=" << service_rate * 100.0 << "%"
     << " extra_time=" << total_extra_time
     << " unified_cost=" << unified_cost
     << " metrs=" << metrs_objective
     << " avg_extra=" << avg_extra
     << " rt/order=" << running_time_per_order * 1e6 << "us";
  return os.str();
}

}  // namespace watter
