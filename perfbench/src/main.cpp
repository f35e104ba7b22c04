// The benchmark binary. Runs one named workload from a seed and prints
// its report: human-readable lines, then one JSON object as the last line
// of standard output. perfbench/run.py builds and runs it.
//
//   colibri_perfbench --workload dp_forward --seed 1 --seconds 10 --trace 0
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench_util.hpp"

namespace perfbench {

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) errors_.push_back(what);
}

void Report::print() const {
  for (const auto& n : notes_) std::cout << n << "\n";
  for (const auto& e : errors_) std::cout << "CHECK FAILED: " << e << "\n";
  std::cout << "{\"correct\": " << (correct() ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& m = metrics_[i];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    std::cout << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
              << buf << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void move_to_next_cpu() {
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) v.push_back(c);
      }
    }
    return v;
  }();
  static std::size_t next = 0;
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[next++ % cpus.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "colibri_perfbench: " << why << "\n"
            << "usage: colibri_perfbench --workload dp_forward|cp_setup|"
               "cp_churn --seed N --seconds S --trace 0|1\n"
               "       [--max-ops N] [--tamper-frac F] [--unknown-renew-frac F]\n";
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = v;
      } else if (flag == "--seed") {
        o.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(v);
      } else if (flag == "--trace") {
        o.trace = std::stoi(v) != 0;
      } else if (flag == "--max-ops") {
        o.max_ops = std::stoull(v);
      } else if (flag == "--tamper-frac") {
        o.tamper_frac = std::stod(v);
      } else if (flag == "--unknown-renew-frac") {
        o.unknown_renew_frac = std::stod(v);
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (o.seconds <= 0 && o.max_ops == 0) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  // Fixed allocator thresholds. By default glibc raises its mmap threshold
  // as large blocks are freed, so repeated set-ups alternate between
  // page-faulting fresh mappings and reusing heap memory, and setup_s
  // becomes bimodal. With fixed thresholds every set-up after the first
  // reuses the memory the previous one freed.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const perfbench::Options opt = parse(argc, argv);
  perfbench::Report report;
  try {
    if (opt.workload == "dp_forward") {
      perfbench::run_dp_forward(opt, report);
    } else if (opt.workload == "cp_setup") {
      perfbench::run_cp_setup(opt, report);
    } else if (opt.workload == "cp_churn") {
      perfbench::run_cp_churn(opt, report);
    } else {
      usage("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    report.check(false, std::string("exception: ") + e.what());
  }
  report.print();
  return report.correct() ? 0 : 1;
}
