#include "colibri/telemetry/timeseries.hpp"

#include <algorithm>
#include <cmath>

namespace colibri::telemetry {

namespace {

// Derived-gauge name: "<series>.rate_1s", except a trailing '.' (a
// prefix-sum series like "router.drop.") attaches the suffix directly.
std::string derived_name(std::string_view series, std::string_view suffix) {
  std::string out(series);
  if (!is_prefix_series(out)) out.push_back('.');
  out.append(suffix);
  return out;
}

}  // namespace

WindowedSampler::WindowedSampler(const MetricsRegistry& source,
                                 const Clock& clock,
                                 WindowedSamplerConfig cfg,
                                 MetricsRegistry* export_registry)
    : source_(&source),
      clock_(&clock),
      cfg_(cfg),
      last_end_ns_(clock.now_ns()),
      registration_(export_registry, this) {
  // A non-positive period would cut zero-elapsed windows on every
  // poll() under a stalled clock; clamp so a window always spans Clock
  // time and rate queries never divide by zero.
  if (cfg_.period_ns < 1) cfg_.period_ns = 1;
  if (cfg_.ring_capacity < 1) cfg_.ring_capacity = 1;
  if (cfg_.watermark_decay < 0) cfg_.watermark_decay = 0;
  if (cfg_.watermark_decay > 1) cfg_.watermark_decay = 1;
}

bool WindowedSampler::poll() {
  const TimeNs now = clock_->now_ns();
  if (now - last_end_ns_.load(std::memory_order_relaxed) < cfg_.period_ns) {
    return false;
  }
  // Snapshot before taking the sampler lock: snapshot() walks every
  // attached source under the registry lock (possibly including this
  // sampler and an alert engine), so the sampler lock stays a leaf.
  MetricsSnapshot cur = source_->snapshot();

  std::lock_guard<std::mutex> lock(mu_);
  const TimeNs start = last_end_ns_.load(std::memory_order_relaxed);
  if (now - start < cfg_.period_ns) return false;  // lost a poll() race

  SampleWindow w =
      cut_window(prev_, std::move(cur), start, now, cfg_.series_filter);
  last_end_ns_.store(now, std::memory_order_relaxed);
  if (!have_prev_) {
    // First sample baselines only: deltas need two snapshots.
    have_prev_ = true;
    return false;
  }

  const SampleWindow* cut[] = {&w};
  for (auto& [name, hw] : watermarks_) {
    const auto level = latest_gauge(cut, name, /*prefix=*/false).value_or(0);
    hw = std::max(static_cast<double>(level), hw * cfg_.watermark_decay);
  }

  ring_.push_back(std::move(w));
  while (ring_.size() > cfg_.ring_capacity) ring_.pop_front();
  ++windows_sampled_;
  return true;
}

double WindowedSampler::rate(std::string_view series, TimeNs span_ns,
                             bool prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  return telemetry::rate(newest_span(ring_, span_ns), series, prefix);
}

double WindowedSampler::peak_rate(std::string_view series, bool prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  return telemetry::peak_rate(newest_span(ring_, kSpanAll), series, prefix);
}

std::uint64_t WindowedSampler::counter_delta(std::string_view series,
                                             TimeNs span_ns,
                                             bool prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  return counter_sum(newest_span(ring_, span_ns), series, prefix);
}

HistogramSnapshot WindowedSampler::histogram_delta(std::string_view series,
                                                   TimeNs span_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  return histogram_merge(newest_span(ring_, span_ns), series);
}

std::optional<double> WindowedSampler::windowed_percentile(
    std::string_view series, double q, TimeNs span_ns) const {
  const HistogramSnapshot h = histogram_delta(series, span_ns);
  if (h.count == 0) return std::nullopt;
  return h.percentile(q);
}

std::optional<std::int64_t> WindowedSampler::gauge_level(
    std::string_view series, bool prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.empty()) return std::nullopt;
  const SampleWindow* latest[] = {&ring_.back()};
  return latest_gauge(latest, series, prefix);
}

double WindowedSampler::watermark(std::string_view series) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = watermarks_.find(series);
  return it == watermarks_.end() ? 0.0 : it->second;
}

std::size_t WindowedSampler::window_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

std::uint64_t WindowedSampler::windows_sampled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return windows_sampled_;
}

std::optional<SampleWindow> WindowedSampler::latest_window() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.empty()) return std::nullopt;
  return ring_.back();
}

std::vector<SampleWindow> WindowedSampler::recent_windows(
    std::size_t max_windows) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t n = std::min(max_windows, ring_.size());
  return {ring_.end() - static_cast<std::ptrdiff_t>(n), ring_.end()};
}

void WindowedSampler::track_rate(std::string series) {
  std::lock_guard<std::mutex> lock(mu_);
  rate_tracked_.insert(std::move(series));
}

void WindowedSampler::track_percentiles(std::string series) {
  std::lock_guard<std::mutex> lock(mu_);
  pct_tracked_.insert(std::move(series));
}

void WindowedSampler::track_watermark(std::string series) {
  std::lock_guard<std::mutex> lock(mu_);
  watermarks_.try_emplace(std::move(series), 0.0);
}

void WindowedSampler::collect_metrics(MetricSink& sink) const {
  std::lock_guard<std::mutex> lock(mu_);
  sink.counter("telemetry.sampler.windows", windows_sampled_);
  sink.gauge("telemetry.sampler.ring_windows",
             static_cast<std::int64_t>(ring_.size()));
  const auto last_1s = newest_span(ring_, kNsPerSec);
  const auto last_10s = newest_span(ring_, 10 * kNsPerSec);
  for (const std::string& series : rate_tracked_) {
    const bool prefix = is_prefix_series(series);
    sink.gauge(derived_name(series, "rate_1s"),
               std::llround(telemetry::rate(last_1s, series, prefix)));
    sink.gauge(derived_name(series, "rate_10s"),
               std::llround(telemetry::rate(last_10s, series, prefix)));
  }
  for (const std::string& series : pct_tracked_) {
    const HistogramSnapshot h = histogram_merge(last_10s, series);
    if (h.count == 0) continue;
    sink.gauge(derived_name(series, "windowed_p50"),
               std::llround(h.percentile(0.50)));
    sink.gauge(derived_name(series, "windowed_p99"),
               std::llround(h.percentile(0.99)));
  }
  for (const auto& [series, hw] : watermarks_) {
    sink.gauge(derived_name(series, "high_watermark"), std::llround(hw));
  }
}

}  // namespace colibri::telemetry
