// cp_churn: a steady-state AS with a large standing population.
//
// The bed holds a population of 2^15 live EERs, opened
// through ColibriDaemon::open_session and renewed through
// ReservationSession::maybe_renew with a 4 s lead. Each round advances
// the SimClock by 1 s and calls Testbed::tick_all(); then every due
// session renews, except a seeded 1/16 that close (stop renewing, so
// their EER expires) and are replaced by a new session from a fresh host.
// Setups, renewals, expiries, admission releases and registry lookups
// all run every round, so housekeeping whose cost depends on state size
// shows here.
#include <deque>
#include <stdexcept>

#include "colibri/common/rand.hpp"
#include "cp_bed.hpp"

namespace perfbench {
namespace {

using namespace colibri;

constexpr std::uint32_t kPopulation = 1u << 15;
constexpr std::uint32_t kLeadSec = 4;
constexpr BwKbps kEerBwKbps = 1;
// Opening the population is spread over one renewal period (EER lifetime
// minus lead), so the same share of sessions falls due every round.
constexpr std::uint32_t kCohorts = reservation::kEerLifetimeSec - kLeadSec;
constexpr int kWarmupRounds = 4;
// Set-ups per run (seconds each: the whole population is opened);
// setup_s is their median.
constexpr int kSetupReps = 3;
// The source gateway keeps every EER it installed, so state grows with
// each round. peak_rss_mb is read after this many rounds of the measured
// phase (about 5 s today) rather than at its end, so that it does not
// grow with throughput.
constexpr std::uint32_t kRssRounds = 16;

// The program state: the bed plus the standing sessions.
struct Population {
  Population(CpTrace* trace, std::uint64_t seed) : bed(trace), rng(seed) {
    host_base = rng.next() >> 8;
    dst_host = HostAddr::from_u64(rng.next() >> 8);
    app::ColibriDaemon& daemon = bed.bed().daemon(cp_src_as());
    sessions.reserve(kPopulation);
    for (std::uint32_t c = 0; c < kCohorts; ++c) {
      const std::uint32_t n =
          kPopulation / kCohorts + (c < kPopulation % kCohorts ? 1 : 0);
      for (std::uint32_t i = 0; i < n; ++i) {
        auto r = daemon.open_session(cp_dst_as(), next_host(), dst_host,
                                     kEerBwKbps, kEerBwKbps);
        if (!r) throw std::runtime_error("opening the population failed");
        sessions.push_back(std::move(r.value()));
      }
      bed.clock.advance(kNsPerSec);
      bed.bed().tick_all();
      bed.trim_wals();
    }
  }

  HostAddr next_host() { return HostAddr::from_u64(host_base + hosts++); }

  CpBed bed;
  Rng rng;  // churn picks
  std::uint64_t host_base = 0;
  std::uint64_t hosts = 0;
  HostAddr dst_host;
  std::vector<app::ReservationSession> sessions;
  // Expiry times of closed sessions whose EER is still live.
  std::deque<UnixSec> closed;
  std::uint32_t rounds = 0;
};

struct TickStats {
  Samples tick_ms;
  std::uint64_t expired = 0;
};

class ChurnDriver {
 public:
  ChurnDriver(Population& pop, CpTrace& trace) : p_(pop), trace_(trace) {}

  // Runs rounds for `seconds` (or until `max_ops` operations).
  CpPhase run(double seconds, std::uint64_t max_ops, Report& report,
              TickStats* ticks) {
    CpPhase ph;
    app::ColibriDaemon& daemon = p_.bed.bed().daemon(cp_src_as());
    const reservation::ReservationDb& src_db = p_.bed.src().db();
    const auto as_ids = p_.bed.bed().topology().as_ids();
    const std::int64_t start = wall_ns();
    const std::int64_t deadline =
        start + static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t now_wall = start;
    std::uint32_t rounds = 0;
    while (max_ops != 0 ? ph.attempted < max_ops : now_wall < deadline) {
      // One window per round, tick included.
      const std::int64_t round_start = now_wall;
      const std::uint64_t round_done = ph.setups + ph.renewals;
      ++p_.rounds;
      p_.bed.clock.advance(kNsPerSec);
      std::size_t live_before = 0;
      if (ticks != nullptr) {
        for (const AsId as : as_ids) {
          live_before += p_.bed.bed().cserv(as).db().eer_count();
        }
      }
      const std::int64_t t0 = wall_ns();
      p_.bed.bed().tick_all();
      const std::int64_t t1 = wall_ns();
      if (ticks != nullptr) {
        std::size_t live_after = 0;
        for (const AsId as : as_ids) {
          live_after += p_.bed.bed().cserv(as).db().eer_count();
        }
        ticks->tick_ms.add(static_cast<double>(t1 - t0) / 1e6);
        ticks->expired += live_before - live_after;
      }

      const UnixSec now = p_.bed.clock.now_sec();
      while (!p_.closed.empty() && p_.closed.front() <= now) {
        p_.closed.pop_front();
      }
      for (auto& s : p_.sessions) {
        if (now + kLeadSec < s.exp_time()) continue;  // not due
        ++ph.attempted;
        if (p_.rng.below(16) == 0) {
          const UnixSec closed_exp = s.exp_time();
          const HostAddr host = p_.next_host();
          const std::int64_t a = wall_ns();
          auto r = trace_.request([&] {
            return daemon.open_session(cp_dst_as(), host, p_.dst_host,
                                       kEerBwKbps, kEerBwKbps);
          });
          const std::int64_t b = wall_ns();
          if (!r) {
            ++ph.failed;
            continue;
          }
          s = std::move(r.value());
          p_.closed.push_back(closed_exp);
          ++ph.setups;
          ph.setup_us.add(static_cast<double>(b - a) / 1e3);
        } else {
          const std::int64_t a = wall_ns();
          const bool ok = trace_.request([&] { return s.maybe_renew(kLeadSec); });
          const std::int64_t b = wall_ns();
          if (!ok) {
            ++ph.failed;
            continue;
          }
          ++ph.renewals;
          ph.renew_us.add(static_cast<double>(b - a) / 1e3);
          ph.windows.add(static_cast<double>(b - a) / 1e3);
        }
      }
      p_.bed.trim_wals();
      // Closed sessions expire in order of closing, so the live count is
      // the population plus the closed EERs not yet past their expiry.
      const std::size_t expect = p_.sessions.size() + p_.closed.size();
      if (src_db.eer_count() != expect && live_errors_++ == 0) {
        report.check(false, "live EERs at the source (" +
                                std::to_string(src_db.eer_count()) +
                                ") != population + closed-but-live (" +
                                std::to_string(expect) + ")");
      }
      if (++rounds == kRssRounds) ph.rss_mb = peak_rss_mb();
      now_wall = wall_ns();
      ph.windows.close(ph.setups + ph.renewals - round_done,
                       now_wall - round_start);
    }
    ph.wall_s = static_cast<double>(now_wall - start) / 1e9;
    if (ph.rss_mb == 0) ph.rss_mb = peak_rss_mb();
    return ph;
  }

 private:
  Population& p_;
  CpTrace& trace_;
  std::uint64_t live_errors_ = 0;
};

}  // namespace

void run_cp_churn(const Options& opt, Report& report) {
  CpTrace trace;
  std::unique_ptr<Population> pop;
  const double setup_s = median_setup_seconds(kSetupReps, pop, [&] {
    return std::make_unique<Population>(opt.trace ? &trace : nullptr,
                                        opt.seed);
  });
  ChurnDriver driver(*pop, trace);

  // Warm-up rounds: closed sessions start expiring after one lead time.
  if (opt.max_ops == 0) {
    for (int i = 0; i < kWarmupRounds; ++i) (void)driver.run(0, 1, report, nullptr);
  }
  const CpPhase plain = driver.run(opt.seconds, opt.max_ops, report, nullptr);
  report.attempted = plain.attempted;
  report.failed = plain.failed;
  report.note(plain.line("untraced"));
  report.note("counts " + plain.counts() + " rounds=" +
              std::to_string(pop->rounds));
  report_cp_e2e(plain, setup_s, report);

  if (opt.trace) {
    TickStats ticks;
    pop->bed.attach_tracing();
    trace.active = true;
    const std::uint32_t rounds_before = pop->rounds;
    const CpPhase traced = driver.run(opt.seconds, opt.max_ops, report, &ticks);
    trace.active = false;
    report.note(traced.line("traced phase, half of it traced"));
    report_cp_layers(plain, trace, report);
    const double rounds = std::max<double>(pop->rounds - rounds_before, 1);
    report.metric("cserv.tick_ms.p50", ticks.tick_ms.percentile(0.5), "ms");
    report.metric("cserv.tick_ms.p99", ticks.tick_ms.percentile(0.99), "ms");
    report.metric("cserv.expired_per_tick",
                  static_cast<double>(ticks.expired) / rounds, "count");
  }
  report.metric("reservation.db.live_eers",
                static_cast<double>(pop->bed.src().db().eer_count()), "count");
  // Output check: the fleet's ledgers conserve bandwidth after the run.
  const std::size_t violations = pop->bed.audit();
  report.note("audit violations " + std::to_string(violations));
  report.check(violations == 0, "conservation audit reported violations");
}

}  // namespace perfbench
