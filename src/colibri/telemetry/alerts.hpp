// Declarative alerting and SLO burn-rate tracking over windowed
// telemetry (timeseries.hpp).
//
// An AlertRule names a signal derived from the WindowedSampler ring —
// a counter rate, a windowed histogram percentile, a gauge level, or a
// decaying high-watermark — a comparison against a threshold, and a
// for-duration debounce. The engine runs every rule through a
// three-state machine (inactive → pending → firing): the condition
// must hold continuously for `for_ns` of Clock time before the rule
// fires, and a firing rule resolves on the first evaluation where the
// condition no longer holds. Both transitions emit structured events
// into the EventLog ("alert.firing" / "alert.resolved", component
// "telemetry") and move the telemetry.alerts.* counters, so the audit
// trail and the metric surface agree on every incident by
// construction.
//
// A rule may carry a guard — a second, gauge-valued condition that
// must hold for the rule to be eligible at all. That is how "the
// worker heartbeat stopped" becomes an alert only *while the ring has
// queued work*: rate(heartbeats) < t guarded by ring_depth > 0.
//
// Slo objects track an error budget: a bad-event fraction (latency
// above a threshold out of a histogram, or a bad/total counter pair)
// against an objective fraction. burn_rate = observed bad fraction /
// objective over the evaluation span — burn 1.0 consumes the budget
// exactly at the allowed pace, burn 10 exhausts it 10x faster.
// budget_remaining integrates over the whole retained ring. Each SLO
// rides the same state machine through its burn-rate alert.
//
// Everything here is Clock-driven and deterministic under SimClock,
// and none of it touches a packet path: evaluation cost is
// proportional to rules x retained windows, paid by the monitoring
// loop that calls evaluate().
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "colibri/common/clock.hpp"
#include "colibri/telemetry/events.hpp"
#include "colibri/telemetry/metrics.hpp"
#include "colibri/telemetry/timeseries.hpp"

namespace colibri::telemetry {

enum class AlertSignal : std::uint8_t {
  kRate,        // counter events/s over span_ns (prefix sums supported)
  kPercentile,  // windowed histogram percentile over span_ns
  kGauge,       // latest sampled gauge level (prefix = max)
  kWatermark,   // decaying high-watermark (track_watermark() series)
};

enum class AlertCmp : std::uint8_t { kAbove, kBelow };

struct AlertRule {
  std::string name;    // unique; "runtime.shard0.stall"
  std::string series;  // metric the signal reads; trailing '.' = prefix
  AlertSignal signal = AlertSignal::kRate;
  double quantile = 0.99;          // kPercentile only
  TimeNs span_ns = 10 * kNsPerSec; // evaluation window for rate/percentile
  AlertCmp cmp = AlertCmp::kAbove;
  double threshold = 0;
  // The condition must hold this long (continuously, in Clock time)
  // before the rule fires; 0 fires on the first violating evaluation.
  TimeNs for_ns = 0;
  Severity severity = Severity::kWarn;
  // Optional eligibility guard on a gauge: when set, the rule only
  // evaluates while `guard_series` (latest level, prefix = max)
  // compares true; otherwise the condition counts as not violated.
  std::string guard_series;
  AlertCmp guard_cmp = AlertCmp::kAbove;
  double guard_threshold = 0;

  bool has_guard() const { return !guard_series.empty(); }
  bool series_is_prefix() const { return is_prefix_series(series); }
};

enum class AlertState : std::uint8_t { kInactive = 0, kPending, kFiring };

const char* alert_state_name(AlertState s);

// Service-level objective with error-budget accounting.
struct Slo {
  enum class Kind : std::uint8_t {
    kLatency,   // bad = histogram events above latency_threshold_ns
    kFraction,  // bad = `series` counter, total = `total_series` counter
  };

  std::string name;  // "admission-latency"
  Kind kind = Kind::kLatency;
  // Max tolerable bad fraction: 0.001 = "99.9% of events good".
  double objective = 0.001;
  // kLatency: histogram series + the latency bound above which an
  // event is bad. kFraction: bad-counter series (trailing '.' = prefix
  // sum) plus total_series for the denominator.
  std::string series;
  std::uint64_t latency_threshold_ns = 0;
  std::string total_series;
  // Burn-rate evaluation span and the burn multiple that alerts.
  TimeNs span_ns = 10 * kNsPerSec;
  double burn_alert = 10.0;
  TimeNs for_ns = 0;
  Severity severity = Severity::kWarn;
};

// Point-in-time view of one rule (status()) or one SLO (slo_status()).
struct AlertStatus {
  std::string name;
  AlertState state = AlertState::kInactive;
  Severity severity = Severity::kWarn;
  double last_value = 0;   // signal at the last evaluation
  bool has_value = false;  // false: signal had no data (e.g. empty pctile)
  TimeNs since_ns = 0;     // when the current state was entered
  std::uint64_t times_fired = 0;
};

struct SloStatus {
  std::string name;
  AlertState state = AlertState::kInactive;
  double burn_rate = 0;         // over span_ns; 0 when no events
  double budget_remaining = 1;  // over the whole retained ring, [0, 1]
  std::uint64_t bad = 0;        // over span_ns
  std::uint64_t total = 0;      // over span_ns
};

// One firing/resolved edge, as handed to transition observers. Carries
// the same values the corresponding "alert.firing"/"alert.resolved"
// event logs, so a subscriber needs no re-entrant engine query to know
// what fired.
struct AlertTransition {
  enum class Edge : std::uint8_t { kFiring, kResolved };

  Edge edge = Edge::kFiring;
  TimeNs time_ns = 0;
  std::string name;    // rule or "slo.<name>.burn"
  std::string series;
  double value = 0;    // signal value at the edge (burn rate for SLOs)
  Severity severity = Severity::kWarn;
  TimeNs for_ns = 0;   // the rule's debounce (0 for resolved edges)
};

class AlertEngine : public MetricsSource {
 public:
  // Reads signals from `sampler` (whose clock also times the state
  // machine); transitions log to `events` (nullptr = no audit trail)
  // and metrics export through `registry` (nullptr = query-only).
  AlertEngine(const WindowedSampler& sampler, const Clock& clock,
              EventLog* events = nullptr,
              MetricsRegistry* registry = nullptr);
  ~AlertEngine() override = default;

  AlertEngine(const AlertEngine&) = delete;
  AlertEngine& operator=(const AlertEngine&) = delete;

  void add_rule(AlertRule rule);
  void add_rules(std::vector<AlertRule> rules);
  void add_slo(Slo slo);

  // Observer seam: `cb` runs once per firing/resolved edge — the same
  // edges that emit "alert.firing"/"alert.resolved" events and move the
  // fired/resolved counters, which stay byte-identical with or without
  // observers. Callbacks are invoked by evaluate() after it releases
  // the engine lock (in edge order), so an observer may freely call
  // status()/slo_status()/firing_count() — an IncidentRecorder
  // snapshotting rule state on the edge is the intended subscriber.
  void add_transition_observer(std::function<void(const AlertTransition&)> cb);

  // Evaluates every rule and SLO against the sampler's current ring.
  // Call after poll() from one monitoring loop. Returns the number of
  // state transitions (pending/firing/resolved edges) this round.
  std::size_t evaluate();

  std::size_t rule_count() const;
  std::size_t firing_count() const;
  std::uint64_t evaluations() const;
  std::uint64_t fired_total() const;
  std::uint64_t resolved_total() const;
  std::vector<AlertStatus> status() const;
  std::vector<SloStatus> slo_status() const;

  // telemetry.alerts.* and telemetry.slo.<name>.* series.
  void collect_metrics(MetricSink& sink) const override;

 private:
  struct RuleRt {
    AlertRule rule;
    AlertState state = AlertState::kInactive;
    TimeNs since_ns = 0;
    double last_value = 0;
    bool has_value = false;
    std::uint64_t times_fired = 0;
  };
  struct SloRt {
    Slo slo;
    AlertState state = AlertState::kInactive;
    TimeNs since_ns = 0;
    double burn = 0;
    double budget = 1.0;
    std::uint64_t bad_span = 0;
    std::uint64_t total_span = 0;
    std::uint64_t times_fired = 0;
  };

  // Returns (value, has_value) of a rule's signal.
  std::pair<double, bool> signal_value(const AlertRule& rule) const;
  bool guard_allows(const AlertRule& rule) const;
  // (bad, total) of an SLO over `span_ns`.
  std::pair<std::uint64_t, std::uint64_t> slo_counts(const Slo& slo,
                                                     TimeNs span_ns) const;
  // Advances one state machine; returns transitions and emits
  // events/counters on firing/resolved edges.
  std::size_t transition(AlertState& state, TimeNs& since,
                         std::uint64_t& times_fired, bool violated,
                         TimeNs now, TimeNs for_ns, Severity severity,
                         const std::string& name, const std::string& series,
                         double value);

  const WindowedSampler* sampler_;
  const Clock* clock_;
  EventLog* events_;

  mutable std::mutex mu_;
  std::vector<RuleRt> rules_;
  std::vector<SloRt> slos_;
  std::uint64_t evaluations_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t resolved_ = 0;
  std::vector<std::function<void(const AlertTransition&)>> observers_;
  // Edges collected under mu_ during evaluate(), dispatched after the
  // lock drops so observers can query the engine.
  std::vector<AlertTransition> pending_edges_;

  ScopedSource registration_;
};

}  // namespace colibri::telemetry
