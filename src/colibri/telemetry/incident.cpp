#include "colibri/telemetry/incident.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "colibri/reservation/persist.hpp"

namespace colibri::telemetry {
namespace {

// Appends `items` as a JSON array, each element written by `item`.
template <typename Range, typename Fn>
void append_list(std::string& out, const Range& items, Fn item) {
  out.push_back('[');
  bool first = true;
  for (const auto& x : items) {
    if (!first) out.push_back(',');
    first = false;
    item(x);
  }
  out.push_back(']');
}

// Appends name-keyed `entries` as a JSON object, each value written by
// `value`.
template <typename Entries, typename Fn>
void append_object(std::string& out, const Entries& entries, Fn value) {
  out.push_back('{');
  bool first = true;
  for (const auto& [name, v] : entries) {
    if (!first) out.push_back(',');
    first = false;
    append_json_string(out, name);
    out.push_back(':');
    value(v);
  }
  out.push_back('}');
}

std::string window_json(const SampleWindow& w) {
  std::string out = "{\"start_ns\":" + std::to_string(w.start_ns) +
                    ",\"end_ns\":" + std::to_string(w.end_ns) +
                    ",\"counters\":";
  const auto number = [&](auto v) { out += std::to_string(v); };
  append_object(out, w.counter_deltas, number);
  out += ",\"gauges\":";
  append_object(out, w.gauges, number);
  out += ",\"histograms\":";
  append_object(out, w.histogram_deltas, [&](const HistogramSnapshot& h) {
    out += "{\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + std::to_string(h.sum) + ",\"p50\":" +
           std::to_string(std::llround(h.percentile(0.50))) + ",\"p99\":" +
           std::to_string(std::llround(h.percentile(0.99))) + '}';
  });
  out += '}';
  return out;
}

std::string transition_json(const AlertTransition& t) {
  std::string out = "{\"edge\":\"";
  out += t.edge == AlertTransition::Edge::kFiring ? "firing" : "resolved";
  out += "\",\"time_ns\":";
  out += std::to_string(t.time_ns);
  out += ",\"rule\":";
  append_json_string(out, t.name);
  out += ",\"series\":";
  append_json_string(out, t.series);
  out += ",\"severity\":\"";
  out += severity_name(t.severity);
  out += "\",\"value_milli\":";
  out += std::to_string(std::llround(t.value * 1000.0));
  out += ",\"for_ns\":";
  out += std::to_string(t.for_ns);
  out += '}';
  return out;
}

std::string bundle_filename(std::uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "incident-%06llu.json",
                static_cast<unsigned long long>(id));
  return buf;
}

}  // namespace

IncidentRecorder::IncidentRecorder(AlertEngine& engine, IncidentConfig cfg)
    : engine_(&engine), cfg_(cfg) {
  engine.add_transition_observer(
      [this](const AlertTransition& t) { on_transition(t); });
}

void IncidentRecorder::set_event_log(const EventLog* log) {
  std::lock_guard<std::mutex> lock(mu_);
  events_ = log;
}

void IncidentRecorder::set_sampler(const WindowedSampler* sampler) {
  std::lock_guard<std::mutex> lock(mu_);
  sampler_ = sampler;
}

void IncidentRecorder::set_fault_injector(const FaultInjector* inj) {
  std::lock_guard<std::mutex> lock(mu_);
  faults_ = inj;
}

void IncidentRecorder::set_span_collector(const SpanCollector* collector) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_ = collector;
}

void IncidentRecorder::add_flight_recorder(std::string name,
                                           const FlightRecorder* recorder) {
  std::lock_guard<std::mutex> lock(mu_);
  recorders_.emplace_back(std::move(name), recorder);
}

void IncidentRecorder::add_section(std::string name,
                                   std::function<std::string()> provider) {
  std::lock_guard<std::mutex> lock(mu_);
  sections_.emplace_back(std::move(name), std::move(provider));
}

void IncidentRecorder::set_directory(std::string dir) {
  std::lock_guard<std::mutex> lock(mu_);
  dir_ = std::move(dir);
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
  }
}

void IncidentRecorder::on_transition(const AlertTransition& t) {
  std::lock_guard<std::mutex> lock(mu_);
  recent_.push_back(t);
  while (recent_.size() > cfg_.max_transitions) recent_.pop_front();
  if (t.edge != AlertTransition::Edge::kFiring) return;

  // Debounce: an edge inside the window rides the *next* bundle's
  // suppressed list instead of opening its own.
  if (any_bundle_ && t.time_ns - last_bundle_ns_ < cfg_.debounce_ns) {
    suppressed_pending_.emplace_back(t.time_ns, t.name);
    ++suppressed_total_;
    return;
  }

  IncidentBundle bundle;
  bundle.id = next_id_++;
  bundle.time_ns = t.time_ns;
  bundle.rule = t.name;
  bundle.json = capture_locked(t);
  if (!dir_.empty()) {
    const std::string path =
        (std::filesystem::path(dir_) / bundle_filename(bundle.id)).string();
    if (std::FILE* f = std::fopen(path.c_str(), "wb")) {
      std::fwrite(bundle.json.data(), 1, bundle.json.size(), f);
      std::fclose(f);
      bundle.path = path;
    }
  }
  bundles_.push_back(std::move(bundle));
  while (bundles_.size() > cfg_.max_bundles) bundles_.pop_front();
  suppressed_pending_.clear();
  last_bundle_ns_ = t.time_ns;
  any_bundle_ = true;
}

std::string IncidentRecorder::capture_locked(const AlertTransition& t) {
  // One top-level key per line: `incident diff` compares bundles
  // line-by-line, so a changed section diffs as one line, not as one
  // opaque blob.
  std::string out = "{\n";
  out += "\"schema\": \"colibri.incident.v1\",\n";
  out += "\"id\": " + std::to_string(next_id_ - 1) + ",\n";
  out += "\"time_ns\": " + std::to_string(t.time_ns) + ",\n";
  out += "\"trigger\": " + transition_json(t) + ",\n";

  out += "\"suppressed\": ";
  append_list(out, suppressed_pending_, [&](const auto& edge) {
    out += "{\"time_ns\":" + std::to_string(edge.first) + ",\"rule\":";
    append_json_string(out, edge.second);
    out.push_back('}');
  });
  out += ",\n";

  // Full rule/SLO state at the edge — the engine dispatches observers
  // without its lock held, so these queries are safe from here.
  out += "\"alerts\": ";
  append_list(out, engine_->status(), [&](const AlertStatus& st) {
    out += "{\"name\":";
    append_json_string(out, st.name);
    out += ",\"state\":\"";
    out += alert_state_name(st.state);
    out += "\",\"severity\":\"";
    out += severity_name(st.severity);
    out += "\",\"value_milli\":";
    out += std::to_string(std::llround(st.last_value * 1000.0));
    out += ",\"has_value\":";
    out += st.has_value ? "true" : "false";
    out += ",\"since_ns\":";
    out += std::to_string(st.since_ns);
    out += ",\"times_fired\":";
    out += std::to_string(st.times_fired);
    out.push_back('}');
  });
  out += ",\n";

  out += "\"slos\": ";
  append_list(out, engine_->slo_status(), [&](const SloStatus& st) {
    out += "{\"name\":";
    append_json_string(out, st.name);
    out += ",\"state\":\"";
    out += alert_state_name(st.state);
    out += "\",\"burn_rate_milli\":";
    out += std::to_string(std::llround(st.burn_rate * 1000.0));
    out += ",\"budget_remaining_milli\":";
    out += std::to_string(std::llround(st.budget_remaining * 1000.0));
    out += ",\"bad\":";
    out += std::to_string(st.bad);
    out += ",\"total\":";
    out += std::to_string(st.total);
    out.push_back('}');
  });
  out += ",\n";

  out += "\"recent_transitions\": ";
  append_list(out, recent_,
              [&](const AlertTransition& tr) { out += transition_json(tr); });
  out += ",\n";

  // The newest max_events events, without their seq: bundles must be
  // byte-stable to be diffable evidence across same-seed runs.
  std::vector<Event> evs;
  if (events_ != nullptr) evs = events_->events();
  if (evs.size() > cfg_.max_events) {
    evs.erase(evs.begin(),
              evs.end() - static_cast<std::ptrdiff_t>(cfg_.max_events));
  }
  out += "\"events\": ";
  append_list(out, evs, [&](const Event& ev) {
    out += ev.to_json(/*with_seq=*/false);
  });
  out += ",\n";

  out += "\"windows\": ";
  append_list(out,
              sampler_ != nullptr ? sampler_->recent_windows(cfg_.max_windows)
                                  : std::vector<SampleWindow>{},
              [&](const SampleWindow& w) { out += window_json(w); });
  out += ",\n";

  out += "\"flight_records\": ";
  append_object(out, recorders_, [&](const FlightRecorder* rec) {
    append_list(out, rec->records(),
                [&](const FlightRecord& r) { out += r.to_json(); });
  });
  out += ",\n";

  out += "\"faults\": ";
  if (faults_ != nullptr) {
    const FaultStats fs = faults_->snapshot();
    out += "{\"msg_delivered\":" + std::to_string(fs.msg_delivered);
    out += ",\"msg_dropped\":" + std::to_string(fs.msg_dropped);
    out += ",\"msg_duplicated\":" + std::to_string(fs.msg_duplicated);
    out += ",\"msg_delayed\":" + std::to_string(fs.msg_delayed);
    out += ",\"link_drops\":" + std::to_string(fs.link_drops);
    out += ",\"wal_faults\":" + std::to_string(fs.wal_faults);
    out.push_back('}');
  } else {
    out += "null";
  }
  out += ",\n";

  out += "\"spans\": ";
  out += spans_ != nullptr ? spans_->trace().to_json() : "null";
  out += ",\n";

  out += "\"sections\": ";
  append_object(out, sections_,
                [&](const std::function<std::string()>& provider) {
                  out += provider();
                });
  out += "\n}\n";
  return out;
}

std::size_t IncidentRecorder::bundle_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bundles_.size();
}

std::vector<IncidentBundle> IncidentRecorder::bundles() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {bundles_.begin(), bundles_.end()};
}

std::uint64_t IncidentRecorder::suppressed_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return suppressed_total_;
}

// --- offline analysis -------------------------------------------------------

namespace {

// Scrapes `"key": <digits>` or `"key":<digits>` out of bundle text.
std::uint64_t scrape_u64(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return 0;
  std::size_t pos = at + needle.size();
  while (pos < text.size() && text[pos] == ' ') ++pos;
  std::uint64_t v = 0;
  while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
    v = v * 10 + static_cast<std::uint64_t>(text[pos++] - '0');
  }
  return v;
}

std::string scrape_str(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return {};
  std::size_t pos = at + needle.size();
  while (pos < text.size() && text[pos] == ' ') ++pos;
  if (pos >= text.size() || text[pos] != '"') return {};
  ++pos;
  std::string out;
  while (pos < text.size() && text[pos] != '"') out.push_back(text[pos++]);
  return out;
}

}  // namespace

std::vector<IncidentFileInfo> list_incident_bundles(const std::string& dir) {
  std::vector<IncidentFileInfo> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("incident-", 0) != 0 ||
        name.size() < 5 || name.substr(name.size() - 5) != ".json") {
      continue;
    }
    const Bytes raw =
        reservation::FileStorage(entry.path().string()).read_all();
    const std::string text(raw.begin(), raw.end());
    IncidentFileInfo info;
    info.path = entry.path().string();
    info.id = scrape_u64(text, "id");
    info.time_ns = static_cast<TimeNs>(scrape_u64(text, "time_ns"));
    info.rule = scrape_str(text, "rule");
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(),
            [](const IncidentFileInfo& a, const IncidentFileInfo& b) {
              return a.path < b.path;
            });
  return out;
}

std::string diff_incident_bundles(const std::string& a, const std::string& b) {
  const auto split = [](const std::string& text) {
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
      std::size_t end = text.find('\n', start);
      if (end == std::string::npos) end = text.size();
      lines.push_back(text.substr(start, end - start));
      start = end + 1;
    }
    return lines;
  };
  const std::vector<std::string> la = split(a), lb = split(b);
  std::string out;
  const std::size_t n = std::max(la.size(), lb.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string* va = i < la.size() ? &la[i] : nullptr;
    const std::string* vb = i < lb.size() ? &lb[i] : nullptr;
    if (va != nullptr && vb != nullptr && *va == *vb) continue;
    if (va != nullptr) out += "- " + *va + "\n";
    if (vb != nullptr) out += "+ " + *vb + "\n";
  }
  return out;
}

}  // namespace colibri::telemetry
