#include "colibri/telemetry/window.hpp"

#include <algorithm>

namespace colibri::telemetry {
namespace {

HistogramSnapshot histogram_minus(const HistogramSnapshot& cur,
                                  const HistogramSnapshot& prev) {
  if (cur.count < prev.count) return cur;  // reset: restart from cur
  HistogramSnapshot d;
  d.count = cur.count - prev.count;
  d.sum = cur.sum >= prev.sum ? cur.sum - prev.sum : 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    d.buckets[i] =
        cur.buckets[i] >= prev.buckets[i] ? cur.buckets[i] - prev.buckets[i]
                                          : cur.buckets[i];
  }
  return d;
}

// One pass over the sorted `prev` and `cur`: drops from `cur` every
// series `keep` rejects, turns each admitted value into `delta(value,
// previous value or nullptr)` in place and updates `prev` to the
// admitted values — the window is `cur`'s own map, so cutting one
// allocates nothing for a series `prev` already holds.
template <typename Map, typename Delta>
Map diff(Map& prev, Map& cur, const SeriesFilter& keep, Delta delta) {
  auto p = prev.begin();
  for (auto it = cur.begin(); it != cur.end();) {
    while (p != prev.end() && p->first < it->first) p = prev.erase(p);
    const bool had = p != prev.end() && p->first == it->first;
    if (!had && keep && !keep(it->first)) {
      it = cur.erase(it);
      continue;
    }
    auto d = delta(it->second, had ? &p->second : nullptr);
    if (had) {
      (p++)->second = it->second;
    } else {
      prev.emplace_hint(p, it->first, it->second);
    }
    (it++)->second = std::move(d);
  }
  prev.erase(p, prev.end());
  return std::move(cur);
}

// Calls `fn` on the value of `series`, or with `prefix` on the value of
// every name starting with it.
template <typename Map, typename Fn>
void for_matching(const Map& m, std::string_view series, bool prefix, Fn fn) {
  if (!prefix) {
    if (const auto it = m.find(series); it != m.end()) fn(it->second);
    return;
  }
  for (auto it = m.lower_bound(series);
       it != m.end() && it->first.starts_with(series); ++it) {
    fn(it->second);
  }
}

std::uint64_t counter_in(const SampleWindow& w, std::string_view series,
                         bool prefix) {
  std::uint64_t sum = 0;
  for_matching(w.counter_deltas, series, prefix,
               [&](std::uint64_t d) { sum += d; });
  return sum;
}

}  // namespace

SampleWindow cut_window(MetricsSnapshot& prev, MetricsSnapshot cur,
                        TimeNs start_ns, TimeNs end_ns,
                        const SeriesFilter& keep) {
  SampleWindow w;
  w.start_ns = start_ns;
  w.end_ns = end_ns;
  w.counter_deltas = diff(prev.counters, cur.counters, keep,
                          [](std::uint64_t v, const std::uint64_t* was) {
                            return was == nullptr || v < *was ? v : v - *was;
                          });
  w.gauges = diff(prev.gauges, cur.gauges, keep,
                  [](std::int64_t v, const std::int64_t*) { return v; });
  w.histogram_deltas =
      diff(prev.histograms, cur.histograms, keep,
           [](const HistogramSnapshot& h, const HistogramSnapshot* was) {
             return was == nullptr ? h : histogram_minus(h, *was);
           });
  return w;
}

std::vector<const SampleWindow*> newest_span(
    const std::deque<SampleWindow>& ring, TimeNs span_ns) {
  std::size_t first = ring.size();
  for (TimeNs elapsed = 0; first > 0;) {
    elapsed += ring[--first].elapsed_ns();
    if (elapsed >= span_ns) break;
  }
  std::vector<const SampleWindow*> out;
  for (std::size_t i = first; i < ring.size(); ++i) out.push_back(&ring[i]);
  return out;
}

double per_second(std::uint64_t delta, TimeNs elapsed_ns) {
  if (elapsed_ns <= 0) return 0.0;
  return static_cast<double>(delta) * static_cast<double>(kNsPerSec) /
         static_cast<double>(elapsed_ns);
}

TimeNs elapsed_sum(WindowRange ws) {
  TimeNs elapsed = 0;
  for (const SampleWindow* w : ws) elapsed += w->elapsed_ns();
  return elapsed;
}

std::uint64_t counter_sum(WindowRange ws, std::string_view series,
                          bool prefix) {
  std::uint64_t sum = 0;
  for (const SampleWindow* w : ws) sum += counter_in(*w, series, prefix);
  return sum;
}

double rate(WindowRange ws, std::string_view series, bool prefix) {
  return per_second(counter_sum(ws, series, prefix), elapsed_sum(ws));
}

double peak_rate(WindowRange ws, std::string_view series, bool prefix) {
  double peak = 0.0;
  for (const SampleWindow* w : ws) {
    peak = std::max(peak, per_second(counter_in(*w, series, prefix),
                                     w->elapsed_ns()));
  }
  return peak;
}

HistogramSnapshot histogram_merge(WindowRange ws, std::string_view series) {
  HistogramSnapshot merged;
  for (const SampleWindow* w : ws) {
    for_matching(w->histogram_deltas, series, false,
                 [&](const HistogramSnapshot& h) { merged.merge(h); });
  }
  return merged;
}

std::optional<std::int64_t> latest_gauge(WindowRange ws,
                                         std::string_view series,
                                         bool prefix) {
  for (auto w = ws.rbegin(); w != ws.rend(); ++w) {
    std::optional<std::int64_t> best;
    for_matching((*w)->gauges, series, prefix, [&](std::int64_t v) {
      if (!best || v > *best) best = v;
    });
    if (best) return best;
  }
  return std::nullopt;
}

}  // namespace colibri::telemetry
