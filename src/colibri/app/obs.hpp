// Observability demo scenario (used by the colibri_obs tool and tests).
//
// Brings up a two-ISD testbed with the full observability layer wired
// in — packet flight recorders on the source AS's gateway and on every
// on-path border router, the structured event log attached to all
// CServs and policing components, and the process metrics registry —
// then drives a reservation lifecycle through it: SegR provisioning,
// EER admission, clean traffic, a burst of deliberately broken packets
// (tampering, replay, overuse), automatic SegR renewal + activation,
// and final expiry. The artifacts it returns are exactly what the
// three exposition surfaces produce: a metrics snapshot (JSON and
// OpenMetrics), the audit-event JSON lines, and the drained flight
// records.
#pragma once

#include <string>
#include <vector>

#include "colibri/telemetry/events.hpp"
#include "colibri/telemetry/flight_recorder.hpp"
#include "colibri/telemetry/metrics.hpp"
#include "colibri/telemetry/trace_assembler.hpp"

namespace colibri::app {

struct ObsOptions {
  // "default" runs the full observability lifecycle below; "failover"
  // runs the link-failure / backup-cutover timeline instead: a seeded
  // FaultInjector takes the protected core link down mid-traffic, the
  // FailoverManager cuts the paired backup over (cserv.failover.* moves,
  // the failover rule pack fires), the link heals, fail-back resolves
  // the alert. Its artifacts populate the same watch/metrics/events
  // surfaces; the trace/health legs stay empty. "fleet" runs the
  // cross-AS federation timeline (fleet.hpp): per-AS registries, the
  // FleetCollector rollup, and the ConservationAuditor; its rendered
  // fleet tables land in watch_frames/watch_text.
  std::string scenario = "default";
  // Clean data packets pushed end to end.
  int packets = 200;
  // Flight-recorder sampling period (1 = every packet; 0 = drops only).
  std::uint32_t sample_every = 8;
  std::size_t recorder_capacity = 256;
  // Post-mortem forensics root (failover scenario): when non-empty the
  // run persists its telemetry history under `<dir>/history/` and its
  // incident bundles under `<dir>/incidents/`, the layout the offline
  // `colibri_obs history ...` / `colibri_obs incident ...` commands
  // read back after the process is gone.
  std::string forensics_dir;
};

struct ObsArtifacts {
  telemetry::MetricsSnapshot metrics;
  std::string metrics_json;
  std::string openmetrics;
  std::string events_jsonl;   // audit trail, one JSON object per line
  std::string records_jsonl;  // flight records, one JSON object per line
  std::size_t events_count = 0;
  std::size_t records_count = 0;
  int delivered = 0;  // clean packets that crossed the whole path

  // Perfetto/Chrome trace-event JSON covering the multi-AS setup
  // conversation (bus spans, one track per AS, cross-track flow arrows
  // along the causal hop chain), the lifecycle audit events, and the
  // captured data-plane stage spans of the batched leg.
  std::string perfetto_json;
  std::size_t trace_events = 0;
  std::size_t trace_tracks = 0;

  // Assembled causal traces of the setup conversation (one per
  // originated request: each SegR provisioning step, the EER admission)
  // with per-hop latency attribution; `colibri_obs trace --reservation`
  // renders one of these as a waterfall. The cserv.trace.* series of
  // the metrics snapshot are derived from the same assembly.
  std::vector<telemetry::AssembledTrace> traces;

  // Sharded-runtime health surface after the runtime leg: one line per
  // shard (ring depth, high watermark, rejections, heartbeats) plus the
  // stall-detector verdict, read from the runtime.shard<i>.stall alert
  // rules. The same numbers land in the metrics snapshot under
  // "gateway_runtime.*".
  std::string health_text;
  std::size_t health_shards = 0;
  std::uint64_t health_rejected = 0;
  std::size_t stalled_shards = 0;

  // Live-monitoring surface: the scenario runs a WindowedSampler (10 ms
  // windows under SimClock) and an AlertEngine loaded with every
  // component's default rule pack plus two SLOs; each cut window
  // renders one dashboard frame. `colibri_obs watch` replays the
  // frames; `watch --once` prints the final one (watch_text). The
  // derived gauges and telemetry.alerts.* series land in the metrics
  // snapshot like any other source.
  std::vector<std::string> watch_frames;
  std::string watch_text;  // final frame, rendered at scenario end
  std::uint64_t sampler_windows = 0;
  std::size_t alert_rules = 0;
  std::uint64_t alert_evaluations = 0;
  std::uint64_t alerts_fired = 0;
  std::uint64_t alerts_resolved = 0;
  std::size_t alerts_firing = 0;  // still firing at scenario end

  // Post-mortem forensics surface (scenario "failover"): every cut
  // window lands one frame in a HistoryStore (persistent when
  // ObsOptions::forensics_dir is set), and the firing failover rule
  // opens one incident bundle through the IncidentRecorder.
  std::uint64_t history_frames = 0;
  std::size_t history_segments = 0;
  std::size_t incident_bundles = 0;
  std::string first_incident_rule;

  // Fleet-federation surface (scenario "fleet" only): topology size as
  // the collector saw it and the conservation-audit verdict. The
  // rendered fleet tables double as the watch frames.
  std::size_t fleet_as_count = 0;
  std::size_t fleet_link_count = 0;
  std::uint64_t fleet_windows = 0;
  std::uint64_t audit_passes = 0;
  std::uint64_t audit_checks = 0;       // last audit pass
  std::size_t audit_violations = 0;     // last audit pass
};

// The scenario names run_obs_scenario accepts, in documentation order;
// the CLI prints this list when handed an unknown --scenario.
std::vector<std::string> obs_scenario_names();

// Runs the scenario against a fresh metrics registry, event log, and
// recorders; everything is torn down before returning, so repeated
// calls are independent.
ObsArtifacts run_obs_scenario(const ObsOptions& opts = {});

}  // namespace colibri::app
