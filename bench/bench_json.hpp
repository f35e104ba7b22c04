// Machine-readable benchmark results.
//
// Every bench_* binary writes BENCH_<name>.json next to its console
// output: one JSON object with a `results` array of
//   {"name": ..., "ops_per_sec": ..., "p50_ns": ..., "p99_ns": ...}
// so CI and the perf-tracking scripts can diff runs without scraping
// the human-readable table.
//
// Percentiles are computed over the per-repetition iteration times of
// each benchmark family: a single run (the default) yields
// p50 == p99 == the measured time; pass --benchmark_repetitions=N to
// get real spread. ops_per_sec is the median repetition's
// items_per_second counter (set via SetItemsProcessed), falling back to
// iterations per second at the p50 time.
//
// google-benchmark binaries: replace BENCHMARK_MAIN() with
// COLIBRI_BENCH_MAIN(<name>). Plain-main binaries: fill a ManualBench
// and let its destructor write the file.
#pragma once

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#if __has_include(<benchmark/benchmark.h>)
#include <benchmark/benchmark.h>
#define COLIBRI_BENCH_HAVE_GBENCH 1
#endif

namespace colibri::benchjson {

struct Sample {
  double time_ns = 0;
  double items_per_sec = 0;  // 0 = not reported
};

// One row of the JSON file.
struct Row {
  std::string name;
  double ops_per_sec = 0;
  double p50_ns = 0;
  double p99_ns = 0;
};

inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

// A family's row over its repetitions: p50/p99 of the times, and the
// median of the items_per_second rates, so a repeated row reports its
// typical run rather than its best.
inline Row summarize(const std::string& family,
                     const std::vector<Sample>& samples) {
  std::vector<double> times;
  std::vector<double> rates;
  for (const Sample& s : samples) {
    times.push_back(s.time_ns);
    if (s.items_per_sec > 0) rates.push_back(s.items_per_sec);
  }
  const double p50 = percentile(times, 0.50);
  const double ops = !rates.empty() ? percentile(rates, 0.50)
                                    : (p50 > 0 ? 1e9 / p50 : 0);
  return {family, ops, p50, percentile(times, 0.99)};
}

// Derived ratio rows. A bench file registers
//   request_ratio("gateway_batched_over_scalar",
//                 "BM_GatewayForwardBatched", "BM_GatewayForward");
// and write() then emits, for every numerator family
// "<numer>/<args>" with a measured "<denom>/<args>" counterpart, an
// extra result "<name>/<args>" whose ops_per_sec is the throughput
// ratio ops(numer)/ops(denom). For ratio rows p50_ns carries the
// numerator's p50 and p99_ns the denominator's p50, so the absolute
// times behind the ratio stay recoverable from the JSON alone.
struct RatioRequest {
  std::string name;
  std::string numer;
  std::string denom;
};

inline std::vector<RatioRequest>& ratio_requests() {
  static std::vector<RatioRequest> reqs;
  return reqs;
}

inline bool request_ratio(std::string name, std::string numer,
                          std::string denom) {
  ratio_requests().push_back(
      {std::move(name), std::move(numer), std::move(denom)});
  return true;
}

// Extra rows computed by benchmark code itself (e.g. per-stage latency
// percentiles pulled out of a StageProfiler after the timed loop).
// Name-keyed with overwrite semantics: google-benchmark re-enters the
// benchmark function several times while calibrating the iteration
// count, and only the final (longest) run should survive into the JSON.
inline std::vector<Row>& extra_results() {
  static std::vector<Row> rows;
  return rows;
}

inline void add_extra_result(const std::string& name, double ops_per_sec,
                             double p50_ns, double p99_ns) {
  for (Row& row : extra_results()) {
    if (row.name == name) {
      row = {name, ops_per_sec, p50_ns, p99_ns};
      return;
    }
  }
  extra_results().push_back({name, ops_per_sec, p50_ns, p99_ns});
}

// Accumulates per-family samples and writes BENCH_<name>.json.
class JsonWriter {
 public:
  explicit JsonWriter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  void add_sample(const std::string& family, const Sample& s) {
    samples_[family].push_back(s);
  }

  // Direct entry for benchmarks that compute their own aggregate.
  void add_result(const std::string& name, double ops_per_sec, double p50_ns,
                  double p99_ns) {
    results_.push_back({name, ops_per_sec, p50_ns, p99_ns});
  }

  bool write() {
    for (const auto& [family, samples] : samples_) {
      results_.push_back(summarize(family, samples));
    }
    samples_.clear();

    const std::size_t measured = results_.size();
    for (const auto& req : ratio_requests()) {
      for (std::size_t i = 0; i < measured; ++i) {
        const std::string& n = results_[i].name;
        if (n.compare(0, req.numer.size(), req.numer) != 0) continue;
        if (n.size() > req.numer.size() && n[req.numer.size()] != '/') {
          continue;  // e.g. "BM_Foo" must not match "BM_FooBatched"
        }
        const std::string suffix = n.substr(req.numer.size());
        const std::string want = req.denom + suffix;
        for (std::size_t j = 0; j < measured; ++j) {
          if (results_[j].name != want || results_[j].ops_per_sec <= 0) {
            continue;
          }
          results_.push_back({req.name + suffix,
                              results_[i].ops_per_sec / results_[j].ops_per_sec,
                              results_[i].p50_ns, results_[j].p50_ns});
          break;
        }
      }
    }

    for (const Row& row : extra_results()) results_.push_back(row);
    extra_results().clear();

    const std::string path = "BENCH_" + bench_name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"benchmark\":\"%s\",\"results\":[",
                 bench_name_.c_str());
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const Row& e = results_[i];
      std::fprintf(f,
                   "%s\n {\"name\":\"%s\",\"ops_per_sec\":%.6g,"
                   "\"p50_ns\":%.6g,\"p99_ns\":%.6g}",
                   i == 0 ? "" : ",", json_escape(e.name).c_str(),
                   e.ops_per_sec, e.p50_ns, e.p99_ns);
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
    std::fprintf(stderr, "wrote %s (%zu results)\n", path.c_str(),
                 results_.size());
    return true;
  }

 private:
  static std::string json_escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string bench_name_;
  std::map<std::string, std::vector<Sample>> samples_;
  std::vector<Row> results_;
};

// RAII wrapper for plain-main benchmarks: add results, destructor writes.
class ManualBench {
 public:
  explicit ManualBench(std::string bench_name)
      : writer_(std::move(bench_name)) {}
  ~ManualBench() { writer_.write(); }

  void add(const std::string& name, double ops_per_sec, double p50_ns,
           double p99_ns) {
    writer_.add_result(name, ops_per_sec, p50_ns, p99_ns);
  }

 private:
  JsonWriter writer_;
};

#ifdef COLIBRI_BENCH_HAVE_GBENCH

// Console output as usual, plus sample capture for the JSON file.
class JsonEmittingReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonEmittingReporter(std::string bench_name)
      : writer_(std::move(bench_name)) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type == Run::RT_Aggregate) continue;
      Sample s;
      if (run.iterations > 0) {
        s.time_ns = run.real_accumulated_time /
                    static_cast<double>(run.iterations) * 1e9;
      }
      if (auto it = run.counters.find("items_per_second");
          it != run.counters.end()) {
        s.items_per_sec = it->second.value;
      }
      writer_.add_sample(run.benchmark_name(), s);
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  void Finalize() override {
    benchmark::ConsoleReporter::Finalize();
    writer_.write();
  }

 private:
  JsonWriter writer_;
};

#define COLIBRI_BENCH_MAIN(bench_name)                                       \
  int main(int argc, char** argv) {                                          \
    benchmark::Initialize(&argc, argv);                                      \
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;        \
    colibri::benchjson::JsonEmittingReporter reporter(#bench_name);          \
    benchmark::RunSpecifiedBenchmarks(&reporter);                            \
    benchmark::Shutdown();                                                   \
    return 0;                                                                \
  }

#endif  // COLIBRI_BENCH_HAVE_GBENCH

}  // namespace colibri::benchjson
