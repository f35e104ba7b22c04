// Shared pieces of the benchmark workloads: command-line options, latency
// samples, the metric report every workload fills in, and the
// deterministic clock the data-plane workload runs on.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "colibri/common/clock.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Stop after this many operations instead of after `seconds` (0 = off).
  // Fixed-work runs make verdict counts comparable across runs.
  std::uint64_t max_ops = 0;
  // Failure-accounting probes (0 in benchmark runs): dp_forward corrupts
  // the HVF of this fraction of packets; cp_setup aims this fraction of
  // renewals at a ResKey that was never set up.
  double tamper_frac = 0.0;
  double unknown_renew_frac = 0.0;
};

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Raw samples; percentiles are exact (nearest rank on a sorted copy).
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void reserve(std::size_t n) { v_.reserve(n); }
  std::size_t count() const { return v_.size(); }
  double sum() const {
    double s = 0;
    for (double x : v_) s += x;
    return s;
  }
  double mean() const { return v_.empty() ? 0.0 : sum() / v_.size(); }
  double percentile(double q) const {
    if (v_.empty()) return 0.0;
    std::vector<double> s = v_;
    const auto k = static_cast<std::size_t>(q * static_cast<double>(s.size() - 1));
    std::nth_element(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(k),
                     s.end());
    return s[k];
  }

 private:
  std::vector<double> v_;
};

// Peak resident set size of this process, in MiB.
double peak_rss_mb();
// Moves the calling thread to the next CPU of the process's initial
// affinity mask, round robin.
void move_to_next_cpu();

// A measured phase cut into consecutive windows: spans of wall time, or
// rounds on cp_churn. The shared host the benchmark runs on switches
// between speed modes that last for seconds: the same code runs up to
// 1.5x slower in one, and how much of a run falls into the slow mode
// changes from run to run. A median or rate over the whole run follows
// that share; the fastest window of the run does not, as long as the run
// meets a fast mode at all, and any change to the program's own cost
// still moves it. The modes are per CPU, so each window moves the thread
// on to the next CPU it may run on, and a run samples all of them. The
// first operations of a window run on cold caches after the move and are
// left out of its latencies.
class Windows {
 public:
  static constexpr int kWarmOps = 16;

  // Latency of one operation in the open window.
  void add(double us) {
    if (warm_ > 0) {
      --warm_;
    } else {
      open_.add(us);
    }
  }
  // Closes the open window: it completed `ops` operations in `ns` of wall
  // time.
  void close(std::uint64_t ops, std::int64_t ns) {
    if (open_.count() > 0 && ns > 0) {
      p50_.add(open_.percentile(0.50));
      p99_.add(open_.percentile(0.99));
      rate_.add(static_cast<double>(ops) * 1e9 / static_cast<double>(ns));
    }
    open_ = Samples();
    warm_ = kWarmOps;
    move_to_next_cpu();
  }
  std::size_t count() const { return p50_.count(); }
  // The lowest per-window median and 99th-percentile latencies.
  double best_p50() const { return p50_.percentile(0.0); }
  double best_p99() const { return p99_.percentile(0.0); }
  // The highest per-window rate, in operations per second.
  double best_rate() const { return rate_.percentile(1.0); }

 private:
  int warm_ = 0;
  Samples open_;
  Samples p50_;
  Samples p99_;
  Samples rate_;
};

// Length of a window cut by wall time: long enough for its 99th
// percentile to have ten operations beyond it.
inline constexpr std::int64_t kWindowNs = 200'000'000;

// Everything one run reports: metrics in insertion order, human-readable
// notes, operation counts, and the output checks that failed.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void note(const std::string& line) { notes_.push_back(line); }
  // Records a failed output check when `ok` is false.
  void check(bool ok, const std::string& what);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  bool correct() const { return errors_.empty(); }
  // Notes, then the failed checks, then one JSON object as the last line.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> errors_;
};

// Clock that advances a fixed step on every read. The gateway and every
// border router read the clock once per packet, so each packet gets a
// distinct timestamp and the verdicts of a run depend only on its inputs.
class StepClock final : public colibri::Clock {
 public:
  StepClock(colibri::TimeNs start, colibri::TimeNs step)
      : now_(start), step_(step) {}
  colibri::TimeNs now_ns() const override { return now_ += step_; }

 private:
  mutable colibri::TimeNs now_;
  colibri::TimeNs step_;
};

// Builds the program state `reps` times with `make` and returns the
// median build time in seconds. The previous state is destroyed before
// each build (outside the timed span), so only one copy is alive; the
// state from the last build stays in `state` for measurement. Each build
// runs on the next CPU (see Windows), so the median covers all of them.
template <typename T, typename Make>
double median_setup_seconds(int reps, std::unique_ptr<T>& state, Make&& make) {
  Samples s;
  for (int i = 0; i < reps; ++i) {
    state.reset();
    move_to_next_cpu();
    const std::int64_t t0 = wall_ns();
    state = make();
    s.add(static_cast<double>(wall_ns() - t0) / 1e9);
  }
  return s.percentile(0.5);
}

// Runs `pass` (which performs `ops` calls) five times and returns the
// median time per call in ns.
template <typename Pass>
double median_ns_per_op(std::size_t ops, Pass&& pass) {
  Samples s;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = wall_ns();
    pass();
    s.add(static_cast<double>(wall_ns() - t0) / static_cast<double>(ops));
  }
  return s.percentile(0.5);
}

void run_dp_forward(const Options& opt, Report& report);
void run_cp_setup(const Options& opt, Report& report);
void run_cp_churn(const Options& opt, Report& report);

}  // namespace perfbench
