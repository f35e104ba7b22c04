#include "colibri/telemetry/alerts.hpp"

#include <algorithm>
#include <cmath>

namespace colibri::telemetry {

namespace {

bool compare(double value, AlertCmp cmp, double threshold) {
  return cmp == AlertCmp::kAbove ? value > threshold : value < threshold;
}

}  // namespace

const char* alert_state_name(AlertState s) {
  switch (s) {
    case AlertState::kInactive: return "inactive";
    case AlertState::kPending: return "pending";
    case AlertState::kFiring: return "firing";
  }
  return "?";
}

AlertEngine::AlertEngine(const WindowedSampler& sampler, const Clock& clock,
                         EventLog* events, MetricsRegistry* registry)
    : sampler_(&sampler),
      clock_(&clock),
      events_(events),
      registration_(registry, this) {}

void AlertEngine::add_rule(AlertRule rule) {
  std::lock_guard<std::mutex> lock(mu_);
  rules_.push_back(RuleRt{std::move(rule)});
}

void AlertEngine::add_rules(std::vector<AlertRule> rules) {
  std::lock_guard<std::mutex> lock(mu_);
  for (AlertRule& r : rules) rules_.push_back(RuleRt{std::move(r)});
}

void AlertEngine::add_slo(Slo slo) {
  std::lock_guard<std::mutex> lock(mu_);
  slos_.push_back(SloRt{std::move(slo)});
}

void AlertEngine::add_transition_observer(
    std::function<void(const AlertTransition&)> cb) {
  std::lock_guard<std::mutex> lock(mu_);
  observers_.push_back(std::move(cb));
}

std::pair<double, bool> AlertEngine::signal_value(const AlertRule& rule) const {
  switch (rule.signal) {
    case AlertSignal::kRate:
      return {sampler_->rate(rule.series, rule.span_ns,
                             rule.series_is_prefix()),
              true};
    case AlertSignal::kPercentile: {
      const auto p = sampler_->windowed_percentile(rule.series, rule.quantile,
                                                   rule.span_ns);
      return {p.value_or(0.0), p.has_value()};
    }
    case AlertSignal::kGauge: {
      const auto g =
          sampler_->gauge_level(rule.series, rule.series_is_prefix());
      return {static_cast<double>(g.value_or(0)), g.has_value()};
    }
    case AlertSignal::kWatermark:
      return {sampler_->watermark(rule.series), true};
  }
  return {0.0, false};
}

bool AlertEngine::guard_allows(const AlertRule& rule) const {
  if (!rule.has_guard()) return true;
  const auto g = sampler_->gauge_level(rule.guard_series,
                                      is_prefix_series(rule.guard_series));
  if (!g.has_value()) return false;
  return compare(static_cast<double>(*g), rule.guard_cmp,
                 rule.guard_threshold);
}

std::pair<std::uint64_t, std::uint64_t> AlertEngine::slo_counts(
    const Slo& slo, TimeNs span_ns) const {
  if (slo.kind == Slo::Kind::kFraction) {
    return {sampler_->counter_delta(slo.series, span_ns,
                                    is_prefix_series(slo.series)),
            sampler_->counter_delta(slo.total_series, span_ns,
                                    is_prefix_series(slo.total_series))};
  }
  // kLatency: events in buckets strictly above the threshold are bad.
  // Bucket i holds [2^(i-1), 2^i - 1]; it is entirely bad when its
  // lower bound exceeds the threshold, a conservative (under-) count.
  const HistogramSnapshot h = sampler_->histogram_delta(slo.series, span_ns);
  std::uint64_t bad = 0;
  for (std::size_t i = 1; i < kHistogramBuckets; ++i) {
    const std::uint64_t lower = 1ULL << (i - 1);
    if (lower > slo.latency_threshold_ns) bad += h.buckets[i];
  }
  return {bad, h.count};
}

std::size_t AlertEngine::transition(AlertState& state, TimeNs& since,
                                    std::uint64_t& times_fired, bool violated,
                                    TimeNs now, TimeNs for_ns,
                                    Severity severity, const std::string& name,
                                    const std::string& series, double value) {
  std::size_t transitions = 0;
  if (violated) {
    if (state == AlertState::kInactive) {
      state = AlertState::kPending;
      since = now;
      ++transitions;
    }
    if (state == AlertState::kPending && now - since >= for_ns) {
      state = AlertState::kFiring;
      since = now;
      ++times_fired;
      ++fired_;
      ++transitions;
      if (events_ != nullptr) {
        events_->emit(severity, "telemetry", "alert.firing")
            .str("rule", name)
            .str("series", series)
            .i64("value_milli", std::llround(value * 1000.0))
            .u64("for_ns", static_cast<std::uint64_t>(for_ns));
      }
      if (!observers_.empty()) {
        pending_edges_.push_back({AlertTransition::Edge::kFiring, now, name,
                                  series, value, severity, for_ns});
      }
    }
  } else {
    if (state == AlertState::kFiring) {
      state = AlertState::kInactive;
      since = now;
      ++resolved_;
      ++transitions;
      if (events_ != nullptr) {
        events_->emit(Severity::kInfo, "telemetry", "alert.resolved")
            .str("rule", name)
            .str("series", series)
            .i64("value_milli", std::llround(value * 1000.0));
      }
      if (!observers_.empty()) {
        pending_edges_.push_back({AlertTransition::Edge::kResolved, now, name,
                                  series, value, Severity::kInfo, 0});
      }
    } else if (state == AlertState::kPending) {
      state = AlertState::kInactive;
      since = now;
      ++transitions;
    }
  }
  return transitions;
}

std::size_t AlertEngine::evaluate() {
  const TimeNs now = clock_->now_ns();
  // Edges and the observer list are copied out under the lock and
  // dispatched after it drops, so observers can call back into the
  // engine (status(), firing_count(), ...) from the edge.
  std::vector<AlertTransition> edges;
  std::vector<std::function<void(const AlertTransition&)>> observers;
  std::size_t transitions = 0;
  {
  std::lock_guard<std::mutex> lock(mu_);
  for (RuleRt& rt : rules_) {
    const auto [value, has_value] = signal_value(rt.rule);
    rt.last_value = value;
    rt.has_value = has_value;
    const bool violated = has_value && guard_allows(rt.rule) &&
                          compare(value, rt.rule.cmp, rt.rule.threshold);
    transitions += transition(rt.state, rt.since_ns, rt.times_fired, violated,
                              now, rt.rule.for_ns, rt.rule.severity,
                              rt.rule.name, rt.rule.series, value);
  }
  for (SloRt& rt : slos_) {
    const auto [bad, total] = slo_counts(rt.slo, rt.slo.span_ns);
    rt.bad_span = bad;
    rt.total_span = total;
    rt.burn = total == 0 || rt.slo.objective <= 0
                  ? 0.0
                  : (static_cast<double>(bad) / static_cast<double>(total)) /
                        rt.slo.objective;
    const auto [bad_all, total_all] =
        slo_counts(rt.slo, WindowedSampler::kSpanAll);
    if (total_all == 0 || rt.slo.objective <= 0) {
      rt.budget = 1.0;
    } else {
      const double consumed =
          (static_cast<double>(bad_all) / static_cast<double>(total_all)) /
          rt.slo.objective;
      rt.budget = std::clamp(1.0 - consumed, 0.0, 1.0);
    }
    const bool violated = rt.burn > rt.slo.burn_alert;
    transitions += transition(rt.state, rt.since_ns, rt.times_fired, violated,
                              now, rt.slo.for_ns, rt.slo.severity,
                              "slo." + rt.slo.name + ".burn", rt.slo.series,
                              rt.burn);
  }
  ++evaluations_;
  edges.swap(pending_edges_);
  if (!edges.empty()) observers = observers_;
  }
  for (const AlertTransition& edge : edges) {
    for (const auto& cb : observers) cb(edge);
  }
  return transitions;
}

std::size_t AlertEngine::rule_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rules_.size() + slos_.size();
}

std::size_t AlertEngine::firing_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const RuleRt& rt : rules_) n += rt.state == AlertState::kFiring;
  for (const SloRt& rt : slos_) n += rt.state == AlertState::kFiring;
  return n;
}

std::uint64_t AlertEngine::evaluations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evaluations_;
}

std::uint64_t AlertEngine::fired_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fired_;
}

std::uint64_t AlertEngine::resolved_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resolved_;
}

std::vector<AlertStatus> AlertEngine::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<AlertStatus> out;
  out.reserve(rules_.size());
  for (const RuleRt& rt : rules_) {
    out.push_back({rt.rule.name, rt.state, rt.rule.severity, rt.last_value,
                   rt.has_value, rt.since_ns, rt.times_fired});
  }
  return out;
}

std::vector<SloStatus> AlertEngine::slo_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SloStatus> out;
  out.reserve(slos_.size());
  for (const SloRt& rt : slos_) {
    out.push_back({rt.slo.name, rt.state, rt.burn, rt.budget, rt.bad_span,
                   rt.total_span});
  }
  return out;
}

void AlertEngine::collect_metrics(MetricSink& sink) const {
  std::lock_guard<std::mutex> lock(mu_);
  sink.counter("telemetry.alerts.evaluations", evaluations_);
  sink.counter("telemetry.alerts.fired", fired_);
  sink.counter("telemetry.alerts.resolved", resolved_);
  sink.gauge("telemetry.alerts.rules",
             static_cast<std::int64_t>(rules_.size() + slos_.size()));
  std::int64_t firing = 0;
  for (const RuleRt& rt : rules_) firing += rt.state == AlertState::kFiring;
  for (const SloRt& rt : slos_) firing += rt.state == AlertState::kFiring;
  sink.gauge("telemetry.alerts.active", firing);
  for (const RuleRt& rt : rules_) {
    sink.gauge("telemetry.alerts.rule." + rt.rule.name + ".state",
               static_cast<std::int64_t>(rt.state));
  }
  for (const SloRt& rt : slos_) {
    const std::string prefix = "telemetry.slo." + rt.slo.name;
    sink.gauge(prefix + ".burn_rate_milli", std::llround(rt.burn * 1000.0));
    sink.gauge(prefix + ".budget_remaining_milli",
               std::llround(rt.budget * 1000.0));
    sink.gauge(prefix + ".state", static_cast<std::int64_t>(rt.state));
  }
}

}  // namespace colibri::telemetry
