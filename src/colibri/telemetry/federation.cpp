#include "colibri/telemetry/federation.hpp"

#include <algorithm>
#include <stdexcept>

namespace colibri::telemetry {

FleetCollector::FleetCollector(const Clock& clock, FleetCollectorConfig cfg,
                               MetricsRegistry* export_registry)
    : clock_(&clock), cfg_(cfg), last_end_ns_(clock.now_ns()) {
  if (cfg_.period_ns < 1) cfg_.period_ns = 1;
  if (cfg_.ring_capacity < 1) cfg_.ring_capacity = 1;
  if (cfg_.top_k < 1) cfg_.top_k = 1;
  if (export_registry != nullptr) {
    registration_.rebind(export_registry, this);
  }
}

void FleetCollector::add_member(std::string name,
                                const MetricsRegistry& registry) {
  std::lock_guard lock(mu_);
  members_.push_back(Member{std::move(name), &registry, {}, {}});
}

void FleetCollector::add_link(std::string name, std::string_view member_a,
                              std::string_view member_b) {
  std::lock_guard lock(mu_);
  const auto index_of = [this](std::string_view m) {
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (members_[i].name == m) return i;
    }
    throw std::invalid_argument("FleetCollector: unknown member '" +
                                std::string(m) + "'");
  };
  Link l;
  l.a = index_of(member_a);
  l.b = index_of(member_b);
  l.name = std::move(name);
  links_.push_back(std::move(l));
}

void FleetCollector::add_rollup(std::string series) {
  std::lock_guard lock(mu_);
  if (std::find(rollups_.begin(), rollups_.end(), series) == rollups_.end()) {
    rollups_.push_back(std::move(series));
  }
}

namespace {

bool has_prefix(std::string_view name, std::string_view prefix) {
  return name.size() > prefix.size() && name.starts_with(prefix);
}

// A rollup family registered as "router.drop." answers queries for
// both "router.drop." and "router.drop".
bool family_matches(std::string_view family, std::string_view query) {
  if (family == query) return true;
  return is_prefix_series(family) &&
         family.substr(0, family.size() - 1) == query;
}

}  // namespace

bool FleetCollector::rolled_up(std::string_view name) const {
  for (const std::string& r : rollups_) {
    if (is_prefix_series(r) ? has_prefix(name, r) : name == r) return true;
  }
  return !cfg_.reservation_prefix.empty() &&
         has_prefix(name, cfg_.reservation_prefix);
}

void FleetCollector::sketch_add(const std::string& key, std::uint64_t delta) {
  if (delta == 0) return;
  if (auto it = sketch_.find(key); it != sketch_.end()) {
    it->second.count += delta;
    return;
  }
  if (sketch_.size() < cfg_.top_k) {
    sketch_.emplace(key, SketchEntry{delta, 0});
    return;
  }
  // Space-saving replacement: evict the minimum-count entry (smallest
  // key on ties — map order makes the choice deterministic) and charge
  // its count as the newcomer's over-estimate error.
  auto min_it = sketch_.begin();
  for (auto it = std::next(sketch_.begin()); it != sketch_.end(); ++it) {
    if (it->second.count < min_it->second.count) min_it = it;
  }
  const std::uint64_t floor = min_it->second.count;
  sketch_.erase(min_it);
  sketch_.emplace(key, SketchEntry{floor + delta, floor});
}

bool FleetCollector::poll() {
  const TimeNs now = clock_->now_ns();
  // Snapshot every member registry *outside* mu_: a member may double
  // as the export registry, and its snapshot() re-enters
  // collect_metrics() below, which takes mu_.
  std::vector<const MetricsRegistry*> regs;
  {
    std::lock_guard lock(mu_);
    if (have_baseline_ && now - last_end_ns_ < cfg_.period_ns) return false;
    for (const Member& m : members_) regs.push_back(m.registry);
  }
  std::vector<MetricsSnapshot> snaps;
  snaps.reserve(regs.size());
  for (const MetricsRegistry* reg : regs) snaps.push_back(reg->snapshot());

  std::lock_guard lock(mu_);
  const TimeNs start = last_end_ns_;
  if (have_baseline_ && now - start < cfg_.period_ns) return false;

  std::vector<std::uint64_t> fleet(rollups_.size());  // per-family deltas
  // Per-window heavy-hitter deltas, summed across members before the
  // sketch sees them (a reservation crossing 5 ASes is one hitter).
  std::map<std::string, std::uint64_t> res_deltas;
  const std::string& res = cfg_.reservation_prefix;

  for (std::size_t s = 0; s < snaps.size(); ++s) {
    Member& m = members_[s];
    // The budget is part of the series filter: a remembered series
    // stays, a new one enters while the fleet-wide budget lasts, and
    // beyond it the series is dropped and counted instead of being
    // folded into the rollup with bogus deltas.
    const std::size_t others = tracked_ - m.prev.counters.size();
    const auto track = [&](std::string_view name) {
      if (!rolled_up(name)) return false;
      if (tracked_ < cfg_.max_tracked_series) {
        ++tracked_;
        return true;
      }
      ++dropped_;
      return false;
    };
    snaps[s].gauges.clear();  // the fleet rolls up counters only
    snaps[s].histograms.clear();
    const SampleWindow d =
        cut_window(m.prev, std::move(snaps[s]), start, now, track);
    tracked_ = others + m.prev.counters.size();
    if (!have_baseline_) continue;  // first poll: baseline only

    const SampleWindow* member_window[] = {&d};
    m.last.resize(rollups_.size());
    for (std::size_t f = 0; f < rollups_.size(); ++f) {
      m.last[f] = counter_sum(member_window, rollups_[f],
                              is_prefix_series(rollups_[f]));
      fleet[f] += m.last[f];
    }
    if (res.empty()) continue;
    // "<res><id>.<rest>" feeds the sketch under <id>.
    for (auto it = d.counter_deltas.lower_bound(res);
         it != d.counter_deltas.end() && it->first.starts_with(res); ++it) {
      const std::size_t dot = it->first.find('.', res.size());
      res_deltas[it->first.substr(res.size(), dot - res.size())] += it->second;
    }
  }

  last_end_ns_ = now;
  if (!have_baseline_) {
    have_baseline_ = true;
    return false;
  }
  for (const auto& [key, delta] : res_deltas) sketch_add(key, delta);
  SampleWindow w;
  w.start_ns = start;
  w.end_ns = now;
  for (std::size_t f = 0; f < rollups_.size(); ++f) {
    w.counter_deltas.emplace(rollups_[f], fleet[f]);
  }
  ring_.push_back(std::move(w));
  while (ring_.size() > cfg_.ring_capacity) ring_.pop_front();
  ++windows_sampled_;
  return true;
}

std::uint64_t FleetCollector::family_sum(
    const std::vector<std::uint64_t>& deltas, std::string_view query) const {
  std::uint64_t sum = 0;
  for (std::size_t f = 0; f < deltas.size(); ++f) {
    if (family_matches(rollups_[f], query)) sum += deltas[f];
  }
  return sum;
}

double FleetCollector::fleet_rate(std::string_view series,
                                  TimeNs span_ns) const {
  std::lock_guard lock(mu_);
  const auto ws = newest_span(ring_, span_ns);
  std::uint64_t delta = 0;
  for (const std::string& family : rollups_) {
    if (family_matches(family, series)) delta += counter_sum(ws, family, false);
  }
  return per_second(delta, elapsed_sum(ws));
}

double FleetCollector::as_rate(std::string_view member,
                               std::string_view series) const {
  std::lock_guard lock(mu_);
  if (ring_.empty()) return 0.0;
  for (const Member& m : members_) {
    if (m.name != member) continue;
    return per_second(family_sum(m.last, series), ring_.back().elapsed_ns());
  }
  return 0.0;
}

double FleetCollector::link_rate(std::string_view link,
                                 std::string_view series) const {
  std::lock_guard lock(mu_);
  if (ring_.empty()) return 0.0;
  for (const Link& l : links_) {
    if (l.name != link) continue;
    return per_second(family_sum(members_[l.a].last, series) +
                          family_sum(members_[l.b].last, series),
                      ring_.back().elapsed_ns());
  }
  return 0.0;
}

std::vector<FleetTopEntry> FleetCollector::top_hitters() const {
  std::lock_guard lock(mu_);
  return ranked_locked();
}

std::vector<FleetTopEntry> FleetCollector::ranked_locked() const {
  std::vector<FleetTopEntry> out;
  out.reserve(sketch_.size());
  for (const auto& [key, e] : sketch_) {
    out.push_back({key, e.count, e.error});
  }
  std::sort(out.begin(), out.end(),
            [](const FleetTopEntry& x, const FleetTopEntry& y) {
              if (x.estimate != y.estimate) return x.estimate > y.estimate;
              return x.key < y.key;
            });
  return out;
}

std::size_t FleetCollector::member_count() const {
  std::lock_guard lock(mu_);
  return members_.size();
}

std::size_t FleetCollector::link_count() const {
  std::lock_guard lock(mu_);
  return links_.size();
}

std::size_t FleetCollector::window_count() const {
  std::lock_guard lock(mu_);
  return ring_.size();
}

std::uint64_t FleetCollector::windows_sampled() const {
  std::lock_guard lock(mu_);
  return windows_sampled_;
}

std::size_t FleetCollector::tracked_series() const {
  std::lock_guard lock(mu_);
  return tracked_;
}

std::uint64_t FleetCollector::dropped_series() const {
  std::lock_guard lock(mu_);
  return dropped_;
}

void FleetCollector::collect_metrics(MetricSink& sink) const {
  std::lock_guard lock(mu_);
  sink.gauge("fleet.as_count", static_cast<std::int64_t>(members_.size()));
  sink.gauge("fleet.link_count", static_cast<std::int64_t>(links_.size()));
  sink.counter("fleet.windows", windows_sampled_);
  sink.gauge("fleet.series_tracked", static_cast<std::int64_t>(tracked_));
  sink.counter("fleet.series_dropped", dropped_);
  sink.gauge("fleet.top.count", static_cast<std::int64_t>(sketch_.size()));

  // Whole-ring rate per rollup family, rounded: fleet.rate.<family>.
  const auto ring = newest_span(ring_, WindowedSampler::kSpanAll);
  for (const std::string& family : rollups_) {
    std::string name = "fleet.rate.";
    name.append(is_prefix_series(family) ? family.substr(0, family.size() - 1)
                                         : family);
    sink.gauge(name,
               static_cast<std::int64_t>(rate(ring, family, false) + 0.5));
  }

  // Ranked heavy-hitter magnitudes (keys stay on the query API — rank
  // names keep exposition cardinality at top_k).
  const std::vector<FleetTopEntry> top = ranked_locked();
  for (std::size_t i = 0; i < top.size(); ++i) {
    sink.gauge("fleet.top." + std::to_string(i + 1) + ".estimate",
               static_cast<std::int64_t>(top[i].estimate));
  }
}

}  // namespace colibri::telemetry
