// Windowed metrics deltas: the one delta rule and the one set of span
// aggregations under every windowed view of a MetricsRegistry — the
// live WindowedSampler ring, the cross-AS FleetCollector rollup and the
// on-disk HistoryStore. A SampleWindow is what changed between two
// registry snapshots; each view only decides which series enter a
// window and which windows a query covers.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "colibri/common/clock.hpp"
#include "colibri/telemetry/metrics.hpp"

namespace colibri::telemetry {

// Admits a series into a window by name; an empty filter admits all.
using SeriesFilter = std::function<bool(std::string_view)>;

// One sampled window: what changed between two registry snapshots.
struct SampleWindow {
  TimeNs start_ns = 0;
  TimeNs end_ns = 0;
  TimeNs elapsed_ns() const { return end_ns - start_ns; }
  std::map<std::string, std::uint64_t, std::less<>> counter_deltas;
  std::map<std::string, std::int64_t, std::less<>> gauges;  // levels at end
  std::map<std::string, HistogramSnapshot, std::less<>> histogram_deltas;
};

// The delta rule: the window [start_ns, end_ns) from `prev` to `cur`.
// A counter contributes its increment (one that shrank — a component
// reset — restarts from its new value), a histogram its bucket-by-bucket
// increment under the same rule, a gauge its level. `keep` decides
// whether a series `prev` lacks enters, counting from zero; a series in
// `prev` stays while it exists. `prev` becomes the admitted part of
// `cur`, the next window's baseline.
SampleWindow cut_window(MetricsSnapshot& prev, MetricsSnapshot cur,
                        TimeNs start_ns, TimeNs end_ns,
                        const SeriesFilter& keep = {});

// --- span aggregations over windows, oldest first ---------------------------
// `series` names one series, or with `prefix` every series starting
// with it.
using WindowRange = std::span<const SampleWindow* const>;

// The trailing-'.' convention for prefix families ("router.drop.").
inline bool is_prefix_series(std::string_view series) {
  return !series.empty() && series.back() == '.';
}

// The newest windows of `ring` whose summed elapsed time first reaches
// `span_ns` (at least one; the whole ring when it holds less).
std::vector<const SampleWindow*> newest_span(
    const std::deque<SampleWindow>& ring, TimeNs span_ns);

// `delta` events over `elapsed_ns` of Clock time; 0 when none elapsed.
double per_second(std::uint64_t delta, TimeNs elapsed_ns);
TimeNs elapsed_sum(WindowRange ws);
std::uint64_t counter_sum(WindowRange ws, std::string_view series,
                          bool prefix);
// Summed increments over summed elapsed time.
double rate(WindowRange ws, std::string_view series, bool prefix);
// Largest single-window rate.
double peak_rate(WindowRange ws, std::string_view series, bool prefix);
HistogramSnapshot histogram_merge(WindowRange ws, std::string_view series);
// Level in the newest window holding the series (`prefix`: the largest
// among that window's matching names).
std::optional<std::int64_t> latest_gauge(WindowRange ws,
                                         std::string_view series,
                                         bool prefix);

}  // namespace colibri::telemetry
