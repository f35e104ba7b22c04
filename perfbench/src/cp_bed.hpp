// The control-plane bed shared by cp_setup and cp_churn, and the per-layer
// recording of their traced runs.
//
// The bed is two_isd_topology with SegRs provisioned along every segment,
// raised control-plane rate limits, and a ReservationWal on MemoryStorage
// attached to every CServ (§6.1). Requests travel the in-process
// MessageBus; nothing crosses a real link or loopback.
//
// Tracing is done from the benchmark's side of each layer's public API:
// each AS is re-attached on the bus through a wrapper around
// CServ::handle, admission goes through a timing AdmissionBackend
// installed with CservConfig::admission_factory, and the WAL writes
// through a timing LogStorage. The bus SpanCollector stays off, because
// it adds a trace block to the wire.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "colibri/app/testbed.hpp"
#include "colibri/reservation/persist.hpp"

namespace perfbench {

inline colibri::AsId cp_src_as() { return colibri::AsId{1, 112}; }
inline colibri::AsId cp_dst_as() { return colibri::AsId{2, 212}; }

// What the traced run records. Nothing is recorded while `active` is
// false, so the untraced phase of a traced run only pays a branch.
//
// While `active`, initiator calls alternate in pairs between traced and
// untraced. The untraced ones give the request time without tracing's own
// cost, taken under the same state and host load, and the ledger is
// checked against them. Pairs keep cp_setup's setup+renewal alternation
// on both sides.
struct CpTrace {
  static constexpr std::size_t kMaxFrames = 4096;

  bool active = false;

  // Bus deliveries inside traced requests, by channel byte: 0 packet,
  // 1 registry query, 2 key fetch, 3 down-SegR request.
  std::array<std::uint64_t, 4> msgs{};
  std::array<std::uint64_t, 4> bytes{};
  // Packet-channel request frames (channel byte stripped), for replays.
  std::vector<colibri::Bytes> frames;

  // Self time of each delivery: the handler's inclusive time minus the
  // bus calls nested inside it.
  Samples hop_self_us;
  std::uint64_t requests = 0;
  Samples request_us;          // inclusive time of each traced request
  Samples untraced_request_us;  // the same for the untraced requests
  Samples initiator_self_us;   // request time outside every bus delivery
  Samples ledger_us;           // initiator self + Σ hop self, per request
  Samples envelope_us;         // ledger − admission − WAL, per request

  Samples admit_ns;
  std::uint64_t admit_denied = 0;
  Samples release_ns;
  Samples wal_append_ns;
  std::uint64_t wal_request_bytes = 0;

  // Whether the layer wrappers record right now.
  bool recording() const { return active && !untraced_; }

  // Wraps one initiator call (setup, renewal or session open).
  template <typename Fn>
  auto request(Fn&& fn) {
    if (!active) return fn();
    if ((seq_++ & 2) != 0) {
      untraced_ = true;
      const std::int64_t t0 = wall_ns();
      auto r = fn();
      untraced_request_us.add(static_cast<double>(wall_ns() - t0) / 1e3);
      untraced_ = false;
      return r;
    }
    begin_request();
    const std::int64_t t0 = wall_ns();
    auto r = fn();
    end_request(static_cast<double>(wall_ns() - t0));
    return r;
  }

  colibri::Bytes deliver(colibri::cserv::CServ& cs, colibri::BytesView wire);
  void on_admit(double ns, bool ok);
  void on_release(double ns) { release_ns.add(ns); }
  void on_wal(double ns, std::size_t n);

 private:
  void begin_request();
  void end_request(double inclusive_ns);

  std::uint64_t seq_ = 0;
  bool untraced_ = false;
  bool in_request_ = false;
  std::vector<double> nested_ns_;  // per open delivery: time in its children
  double req_hop_self_ns_ = 0;
  double req_top_level_ns_ = 0;
  double req_admit_ns_ = 0;
  double req_wal_ns_ = 0;
};

class CpBed {
 public:
  // `trace` == nullptr builds the untraced bed: default admission backend
  // and the WAL writing straight to MemoryStorage.
  explicit CpBed(CpTrace* trace);

  colibri::SimClock clock{1000 * colibri::kNsPerSec};
  colibri::app::Testbed& bed() { return *bed_; }
  colibri::cserv::CServ& src() { return bed_->cserv(cp_src_as()); }
  // SegRs of the up+core+down chain from 1-112 to 2-212.
  const std::vector<colibri::ResKey>& chain() const { return chain_; }

  // Routes every AS's bus deliveries through the trace wrapper.
  void attach_tracing();
  // Bounds memory: empties each in-memory WAL once it holds 4 MiB.
  // Called between requests, never inside a timed one.
  void trim_wals();
  // ConservationAuditor pass over every AS; returns the violation count.
  std::size_t audit();

 private:
  CpTrace* trace_;
  std::unique_ptr<colibri::app::Testbed> bed_;
  std::vector<colibri::ResKey> chain_;
  std::vector<std::unique_ptr<colibri::reservation::MemoryStorage>> mem_;
  std::vector<std::unique_ptr<colibri::reservation::LogStorage>> timed_;
  std::vector<std::unique_ptr<colibri::reservation::ReservationWal>> wals_;
  // Ledgers of the timing admission backends, for the auditor.
  std::vector<std::pair<colibri::AsId, const colibri::admission::EerAdmission*>>
      eer_ledgers_;
};

// Latencies and counts of one control-plane measurement phase.
struct CpPhase {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t setups = 0;
  std::uint64_t renewals = 0;
  Samples setup_us;
  Samples renew_us;
  // Latency of the workload's unit of work (see the workload) and the
  // completed requests, per window.
  Windows windows;
  double wall_s = 0;
  // Peak RSS once the phase has done a fixed amount of work (see the
  // workload), so that it does not grow with throughput; 0 until read.
  double rss_mb = 0;

  double req_per_s() const {
    return wall_s > 0 ? static_cast<double>(setups + renewals) / wall_s : 0;
  }
  std::string line(const char* name) const;
  std::string counts() const;
};

// End-to-end metrics of the untraced phase.
void report_cp_e2e(const CpPhase& p, double setup_s, Report& report);
// Per-layer metrics of a traced run: the plane-specific latencies of the
// untraced phase, tracing overhead, bus/DRKey/registry counts, hop self
// times and the ledger, admission, WAL, and crypto/codec replays.
void report_cp_layers(const CpPhase& plain, const CpTrace& trace,
                      Report& report);

}  // namespace perfbench
