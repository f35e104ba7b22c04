// cp_setup: the CServ request path with small state.
//
// One client at 1-112 alternates setup_eer and renew_eer 1:1 over the
// 6-AS up+core+down chain to 2-212; each renewal targets a seeded pick
// among the EERs set up most recently. Simulated time does not advance
// and nothing is ticked, so housekeeping does no work: the time goes to
// the per-request envelope (codec, DRKey, CMAC/EAX, bus, WAL) around
// admission. One operation is a setup plus a renewal.
#include <stdexcept>

#include "colibri/common/rand.hpp"
#include "cp_bed.hpp"

namespace perfbench {
namespace {

using namespace colibri;

// Renewals pick among the last kWindow EERs set up, so each EER collects
// about one extra version and no version counter comes near its 8-bit
// limit.
constexpr std::size_t kWindow = 1024;
constexpr BwKbps kEerBwKbps = 1;
// Set-up builds the bed and warms it with kWarmPairs setup+renewal pairs
// (DRKey key caches, remote SegR adverts, WAL buffers), about 40 ms in
// all; setup_s is the median of kSetupReps set-ups. The bed alone takes a
// few ms, too little to time steadily.
constexpr int kSetupReps = 15;
constexpr std::uint64_t kWarmPairs = 200;
// Nothing expires, so state grows with every setup. peak_rss_mb is read
// after this many operations of the measured phase (about 3 s today)
// rather than at its end, so that it does not grow with throughput.
constexpr std::uint64_t kRssOps = std::uint64_t{1} << 15;

class SetupDriver {
 public:
  SetupDriver(CpBed& bed, CpTrace& trace, const Options& opt)
      : bed_(bed), trace_(trace), rng_(opt.seed),
        probe_frac_(opt.unknown_renew_frac) {
    host_base_ = rng_.next() >> 8;
    dst_host_ = HostAddr::from_u64(rng_.next() >> 8);
  }

  // Runs setup+renewal pairs for `seconds` (or `max_pairs` pairs).
  CpPhase run(double seconds, std::uint64_t max_pairs) {
    CpPhase p;
    cserv::CServ& cs = bed_.src();
    const std::int64_t start = wall_ns();
    const std::int64_t deadline =
        start + static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t now = start;
    std::int64_t window_start = start;
    std::uint64_t window_done = 0;
    std::uint64_t pairs = 0;
    while (max_pairs != 0 ? pairs < max_pairs : now < deadline) {
      const HostAddr src_host = HostAddr::from_u64(host_base_ + hosts_++);
      std::int64_t t0 = wall_ns();
      auto setup = trace_.request([&] {
        return cs.setup_eer(bed_.chain(), src_host, dst_host_, kEerBwKbps,
                            kEerBwKbps);
      });
      std::int64_t t1 = wall_ns();
      const double setup_us = static_cast<double>(t1 - t0) / 1e3;
      ++p.attempted;
      if (setup) {
        ++p.setups;
        ++setups_total_;
        p.setup_us.add(setup_us);
        if (recent_.size() < kWindow) {
          recent_.push_back(setup.value().key);
        } else {
          recent_[next_slot_++ % kWindow] = setup.value().key;
        }
      } else {
        ++p.failed;
      }

      ResKey target;
      const bool probe = probe_frac_ > 0 && rng_.uniform() < probe_frac_;
      if (probe || recent_.empty()) {
        // Never set up: ResIds are minted upwards from 1.
        target = ResKey{cp_src_as(), 0xF000'0000u + static_cast<ResId>(probes_)};
        ++probes_;
      } else {
        target = recent_[rng_.below(recent_.size())];
      }
      t0 = wall_ns();
      auto renewal = trace_.request(
          [&] { return cs.renew_eer(target, kEerBwKbps, kEerBwKbps); });
      t1 = wall_ns();
      const double renew_us = static_cast<double>(t1 - t0) / 1e3;
      ++p.attempted;
      if (renewal) {
        ++p.renewals;
        p.renew_us.add(renew_us);
        if (probe) ++probes_renewed_;
      } else {
        ++p.failed;
      }
      p.windows.add(setup_us + renew_us);

      if (++pairs % 256 == 0) bed_.trim_wals();
      if (p.rss_mb == 0 && p.attempted >= kRssOps) p.rss_mb = peak_rss_mb();
      now = wall_ns();
      const std::uint64_t done = p.setups + p.renewals;
      if (now - window_start >= kWindowNs) {
        p.windows.close(done - window_done, now - window_start);
        window_start = now;
        window_done = done;
      }
    }
    if (p.windows.count() == 0) {
      p.windows.close(p.setups + p.renewals - window_done, now - window_start);
    }
    p.wall_s = static_cast<double>(now - start) / 1e9;
    if (p.rss_mb == 0) p.rss_mb = peak_rss_mb();
    return p;
  }

  std::uint64_t setups_total() const { return setups_total_; }
  std::uint64_t probes() const { return probes_; }
  std::uint64_t probes_renewed() const { return probes_renewed_; }

 private:
  CpBed& bed_;
  CpTrace& trace_;
  Rng rng_;
  double probe_frac_;
  std::uint64_t host_base_ = 0;
  std::uint64_t hosts_ = 0;
  HostAddr dst_host_;
  std::vector<ResKey> recent_;
  std::size_t next_slot_ = 0;
  std::uint64_t setups_total_ = 0;
  std::uint64_t probes_ = 0;
  std::uint64_t probes_renewed_ = 0;
};

}  // namespace

void run_cp_setup(const Options& opt, Report& report) {
  CpTrace trace;
  std::unique_ptr<CpBed> bed;
  Options warm_opt;
  warm_opt.seed = opt.seed ^ 0x7761726dULL;
  const double setup_s = median_setup_seconds(kSetupReps, bed, [&] {
    auto b = std::make_unique<CpBed>(opt.trace ? &trace : nullptr);
    SetupDriver warm(*b, trace, warm_opt);
    const CpPhase w = warm.run(0, kWarmPairs);
    if (w.failed != 0) throw std::runtime_error("warm-up request failed");
    return b;
  });
  SetupDriver driver(*bed, trace, opt);
  const std::uint64_t max_pairs = opt.max_ops / 2;

  const CpPhase plain = driver.run(opt.seconds, max_pairs);
  report.attempted = plain.attempted;
  report.failed = plain.failed;
  report.note(plain.line("untraced"));
  report.note("counts " + plain.counts());
  report_cp_e2e(plain, setup_s, report);

  CpPhase traced;
  if (opt.trace) {
    bed->attach_tracing();
    trace.active = true;
    traced = driver.run(opt.seconds, max_pairs);
    trace.active = false;
    report.note(traced.line("traced phase, half of it traced"));
    report_cp_layers(plain, trace, report);
  }

  // Output checks: every failure is a counted non-ok Result, a renewal of
  // an unknown ResKey is refused, each successful setup left exactly one
  // live EER at the source AS, and the fleet's ledgers conserve bandwidth.
  report.check(driver.probes_renewed() == 0,
               "a renewal of an unknown ResKey succeeded");
  report.check(plain.failed + traced.failed >= driver.probes(),
               "refused renewals are missing from the failure count");
  report.check(bed->src().db().eer_count() == kWarmPairs + driver.setups_total(),
               "live EERs at the source != successful setups");
  const std::size_t violations = bed->audit();
  report.note("audit violations " + std::to_string(violations));
  report.check(violations == 0, "conservation audit reported violations");
}

}  // namespace perfbench
