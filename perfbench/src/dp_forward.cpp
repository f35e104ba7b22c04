// dp_forward: the data-plane chain host -> gateway -> 4 border routers ->
// delivery, one thread, closed loop, 64-packet batches.
//
// The source-AS gateway holds 2^17 installed EERs over a 4-AS path; each
// σ_i is computed with compute_hopauth under the on-path router's own key.
// Every router has DuplicateSuppression and OverUseFlowDetector attached,
// as deployed (§4.8, §5.1). Traffic is seeded uniform-random ResIds (the
// worst case of Fig. 5) with 0-byte payload. Packets pass between stages
// as FastPacket batches; nothing crosses a real link.
#include <array>
#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "bench_util.hpp"
#include "colibri/common/rand.hpp"
#include "colibri/crypto/cmac_multi.hpp"
#include "colibri/dataplane/batch.hpp"
#include "colibri/dataplane/gateway.hpp"
#include "colibri/dataplane/router.hpp"

namespace perfbench {
namespace {

using namespace colibri;
using dataplane::BorderRouter;
using dataplane::FastPacket;
using dataplane::Gateway;
using dataplane::PacketBatch;

constexpr std::size_t kHops = 4;
constexpr std::uint32_t kReservations = 1u << 17;
constexpr std::size_t kBatch = PacketBatch::kCapacity;
constexpr std::size_t kStreamLen = 1u << 20;  // pre-generated ResIds
constexpr std::size_t kCaptureMax = 1u << 16;  // packets kept for replays
// Set-ups per run (about 0.3 s each); setup_s is their median.
constexpr int kSetupReps = 5;

// Simulated time. Every clock read advances 1 µs and a packet costs five
// reads (gateway + 4 routers), so each dupsup window of 2 s sees 4e5
// packets: the offered rate the filters are sized for. The EER lifetime
// stays inside the 2^10 s range of the 32-bit packet timestamp.
constexpr TimeNs kClockStart = 1000 * kNsPerSec;
constexpr TimeNs kClockStep = 1000;
constexpr UnixSec kLifetimeSec = 900;
// 64 Mbit per filter and 10 hashes: at 4e5 packets per window the
// predicted false-positive rate is below 1e-12 per filter, so no fresh
// packet of any run is dropped as a replay. The default 4 Mbit filters
// falsely drop a large share of fresh packets at this rate, and 64 Mbit
// with the default 4 hashes still drops about one in 2e6.
constexpr std::size_t kDupsupBits = std::size_t{1} << 26;
constexpr int kDupsupHashes = 10;
// Reserved rate per EER; far above each flow's share of the offered rate,
// so neither the token bucket nor the OFD ever acts on honest traffic.
constexpr BwKbps kEerBwKbps = 100'000;

dataplane::DupSupConfig dupsup_config() {
  dataplane::DupSupConfig cfg;
  cfg.bits_per_filter = kDupsupBits;
  cfg.hashes = kDupsupHashes;
  return cfg;
}

// The program under test: one gateway and the four on-path routers.
struct Chain {
  explicit Chain(std::uint64_t seed)
      : clock(kClockStart, kClockStep),
        gateway(AsId{1, 100}, clock, gateway_config()) {
    Rng rng(seed ^ 0x6b65797355ULL);
    std::vector<topology::Hop> path;
    std::vector<crypto::Aes128> ciphers;
    for (std::size_t i = 0; i < kHops; ++i) {
      drkey::Key128 key;
      rng.fill(key.bytes.data(), key.bytes.size());
      const AsId as{1, 100 + i};
      path.push_back(topology::Hop{as, static_cast<IfId>(i == 0 ? 0 : 1),
                                   static_cast<IfId>(i + 1 == kHops ? 0 : 2)});
      ciphers.emplace_back(key.bytes.data());
      dupsup.push_back(
          std::make_unique<dataplane::DuplicateSuppression>(dupsup_config()));
      ofd.push_back(std::make_unique<dataplane::OverUseFlowDetector>());
      routers.push_back(std::make_unique<BorderRouter>(as, key, clock));
      routers.back()->attach_dupsup(dupsup.back().get());
      routers.back()->attach_ofd(ofd.back().get());
    }
    const UnixSec exp = static_cast<UnixSec>(kClockStart / kNsPerSec) +
                        kLifetimeSec;
    std::vector<dataplane::HopAuth> sigmas(kHops);
    for (std::uint32_t id = 1; id <= kReservations; ++id) {
      proto::ResInfo ri;
      ri.src_as = path.front().as;
      ri.res_id = id;
      ri.bw_kbps = kEerBwKbps;
      ri.exp_time = exp;
      proto::EerInfo ei;
      ei.src_host = HostAddr::from_u64(rng.next());
      ei.dst_host = HostAddr::from_u64(rng.next());
      for (std::size_t h = 0; h < kHops; ++h) {
        sigmas[h] = dataplane::compute_hopauth(ciphers[h], ri, ei,
                                               path[h].ingress, path[h].egress);
      }
      if (!gateway.install(ri, ei, path, sigmas)) {
        throw std::runtime_error("gateway install failed");
      }
    }
  }

  static dataplane::GatewayConfig gateway_config() {
    dataplane::GatewayConfig cfg;
    cfg.expected_reservations = kReservations;
    return cfg;
  }

  StepClock clock;
  Gateway gateway;
  std::vector<std::unique_ptr<dataplane::DuplicateSuppression>> dupsup;
  std::vector<std::unique_ptr<dataplane::OverUseFlowDetector>> ofd;
  std::vector<std::unique_ptr<BorderRouter>> routers;
};

// Verdict and timing tallies of one measurement phase.
struct Tally {
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t tampered = 0;
  std::array<std::uint64_t, Gateway::kNumVerdicts> gw{};
  std::array<std::uint64_t, kHops> rt_in{};
  std::array<std::array<std::uint64_t, BorderRouter::kNumVerdicts>, kHops> rt{};
  double wall_s = 0;
  Samples batch_us;
  Windows windows;  // batch latency and delivered packets per window
  // Traced phases only: time inside each component's process_batch.
  double gw_ns = 0;
  std::array<double, kHops> rt_ns{};
  double batch_ns = 0;

  std::uint64_t rt_total(BorderRouter::Verdict v) const {
    std::uint64_t n = 0;
    for (const auto& r : rt) n += r[static_cast<std::size_t>(v)];
    return n;
  }
  double mpps() const { return wall_s > 0 ? delivered / wall_s / 1e6 : 0; }
  std::string counts() const {
    std::ostringstream o;
    o << "offered=" << offered << " gw=";
    for (auto c : gw) o << c << ",";
    for (std::size_t h = 0; h < kHops; ++h) {
      o << " r" << h << "=";
      for (auto c : rt[h]) o << c << ",";
    }
    o << " delivered=" << delivered;
    return o.str();
  }
};

class Driver {
 public:
  Driver(Chain& chain, const Options& opt)
      : c_(chain), tamper_rng_(opt.seed ^ 0x7a6d706572ULL),
        tamper_frac_(opt.tamper_frac) {
    Rng rng(opt.seed);
    stream_.resize(kStreamLen);
    for (auto& id : stream_) {
      id = static_cast<ResId>(1 + rng.below(kReservations));
    }
  }

  // Runs batches until `seconds` pass or `max_pkts` packets were offered.
  template <bool kTraced>
  Tally run(double seconds, std::uint64_t max_pkts) {
    Tally t;
    t.batch_us.reserve(1u << 18);
    PacketBatch batch;
    Gateway::Verdict gv[kBatch];
    BorderRouter::Verdict rv[kBatch];
    static const std::uint32_t kZeroPayload[kBatch] = {};
    const std::int64_t start = wall_ns();
    const std::int64_t deadline =
        start + static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t now = start;
    std::int64_t window_start = start;
    std::uint64_t window_delivered = 0;
    while (max_pkts != 0 ? t.offered < max_pkts : now < deadline) {
      const std::int64_t t0 = now;
      const ResId* ids = stream_.data() + pos_;
      pos_ = (pos_ + kBatch) & (kStreamLen - 1);

      std::int64_t a = 0;
      if constexpr (kTraced) a = wall_ns();
      c_.gateway.process_batch(ids, kZeroPayload, kBatch, batch.pkts.data(),
                               gv);
      if constexpr (kTraced) t.gw_ns += static_cast<double>(wall_ns() - a);
      std::size_t n = 0;
      for (std::size_t i = 0; i < kBatch; ++i) {
        ++t.gw[static_cast<std::size_t>(gv[i])];
        if (gv[i] != Gateway::Verdict::kOk) continue;
        if (n != i) batch.pkts[n] = batch.pkts[i];
        ++n;
      }
      batch.size = n;
      if (tamper_frac_ > 0) tamper(batch, t);
      // Copying packets for the replays is benchmark work: its time is
      // taken out of this batch's latency.
      std::int64_t capture_ns = 0;
      if constexpr (kTraced) {
        if (capture_.size() < kCaptureMax) {
          a = wall_ns();
          capture(batch);
          capture_ns = wall_ns() - a;
        }
      }

      for (std::size_t h = 0; h < kHops; ++h) {
        t.rt_in[h] += batch.size;
        if constexpr (kTraced) a = wall_ns();
        c_.routers[h]->process_batch(batch, rv);
        if constexpr (kTraced) t.rt_ns[h] += static_cast<double>(wall_ns() - a);
        std::size_t m = 0;
        for (std::size_t i = 0; i < batch.size; ++i) {
          ++t.rt[h][static_cast<std::size_t>(rv[i])];
          if (rv[i] == BorderRouter::Verdict::kDeliver) ++t.delivered;
          if (rv[i] != BorderRouter::Verdict::kForward) continue;
          if (m != i) batch.pkts[m] = batch.pkts[i];
          ++m;
        }
        batch.size = m;
      }
      now = wall_ns();
      const double batch_us = static_cast<double>(now - t0 - capture_ns) / 1e3;
      t.batch_us.add(batch_us);
      t.windows.add(batch_us);
      if (now - window_start >= kWindowNs) {
        t.windows.close(t.delivered - window_delivered, now - window_start);
        window_start = now;
        window_delivered = t.delivered;
      }
      if constexpr (kTraced) {
        t.batch_ns += static_cast<double>(now - t0 - capture_ns);
      }
      t.offered += kBatch;
    }
    if (t.windows.count() == 0) {
      t.windows.close(t.delivered - window_delivered, now - window_start);
    }
    t.wall_s = static_cast<double>(now - start) / 1e9;
    return t;
  }

  const std::vector<FastPacket>& captured() const { return capture_; }
  const std::vector<ResId>& stream() const { return stream_; }

 private:
  // Flips one bit of one on-path HVF in a seeded share of packets.
  void tamper(PacketBatch& batch, Tally& t) {
    for (std::size_t i = 0; i < batch.size; ++i) {
      if (tamper_rng_.uniform() >= tamper_frac_) continue;
      batch.pkts[i].hvfs[tamper_rng_.below(kHops)][0] ^= 0x01;
      ++t.tampered;
    }
  }
  void capture(const PacketBatch& batch) {
    for (std::size_t i = 0; i < batch.size && capture_.size() < kCaptureMax;
         ++i) {
      capture_.push_back(batch.pkts[i]);
    }
  }

  Chain& c_;
  std::vector<ResId> stream_;
  std::size_t pos_ = 0;
  Rng tamper_rng_;
  double tamper_frac_;
  std::vector<FastPacket> capture_;
};

struct Counters {
  dataplane::GatewayStats gw;
  std::array<dataplane::RouterStats, kHops> rt;
};

Counters read_counters(const Chain& c) {
  Counters k;
  k.gw = c.gateway.snapshot();
  for (std::size_t h = 0; h < kHops; ++h) k.rt[h] = c.routers[h]->snapshot();
  return k;
}

// Output checks: the verdicts reconcile stage by stage, and the tallies
// taken from the returned verdicts agree with the components' counters.
void check_phase(const std::string& phase, const Tally& t,
                 const Counters& before, const Counters& after,
                 Report& report) {
  using V = BorderRouter::Verdict;
  auto at = [](const auto& arr, auto v) {
    return arr[static_cast<std::size_t>(v)];
  };
  std::uint64_t gw_sum = 0;
  for (auto n : t.gw) gw_sum += n;
  report.check(gw_sum == t.offered, phase + ": gateway verdicts != offered");
  report.check(t.rt_in[0] == at(t.gw, Gateway::Verdict::kOk),
               phase + ": gateway forwarded != router hop-0 input");
  for (std::size_t h = 0; h < kHops; ++h) {
    std::uint64_t sum = 0;
    for (auto n : t.rt[h]) sum += n;
    report.check(sum == t.rt_in[h], phase + ": router verdicts != input");
    if (h + 1 < kHops) {
      report.check(t.rt_in[h + 1] == at(t.rt[h], V::kForward),
                   phase + ": router forwarded != next router input");
      report.check(at(t.rt[h], V::kDeliver) == 0,
                   phase + ": delivery before the last hop");
    }
    const auto& b = before.rt[h];
    const auto& a = after.rt[h];
    report.check(a.forwarded - b.forwarded == at(t.rt[h], V::kForward) &&
                     a.delivered - b.delivered == at(t.rt[h], V::kDeliver) &&
                     a.bad_hvf - b.bad_hvf == at(t.rt[h], V::kBadHvf) &&
                     a.replayed - b.replayed == at(t.rt[h], V::kReplay),
                 phase + ": router counters disagree with verdicts");
  }
  report.check(at(t.rt[kHops - 1], V::kForward) == 0,
               phase + ": last router forwarded instead of delivering");
  report.check(t.delivered == at(t.rt[kHops - 1], V::kDeliver),
               phase + ": delivered count mismatch");
  report.check(after.gw.forwarded - before.gw.forwarded ==
                   at(t.gw, Gateway::Verdict::kOk),
               phase + ": gateway counter disagrees with verdicts");
  // A tampered packet is dropped as kBadHvf at the hop whose HVF was
  // flipped, unless an earlier hop already dropped it for another reason.
  std::uint64_t other_drops = 0;
  for (const auto& r : t.rt) {
    for (std::size_t v = 0; v < r.size(); ++v) {
      if (v != static_cast<std::size_t>(V::kForward) &&
          v != static_cast<std::size_t>(V::kDeliver) &&
          v != static_cast<std::size_t>(V::kBadHvf)) {
        other_drops += r[v];
      }
    }
  }
  const std::uint64_t bad = t.rt_total(V::kBadHvf);
  report.check(bad <= t.tampered && t.tampered <= bad + other_drops,
               phase + ": bad-HVF drops do not match tampered packets");
}

// Per-call costs of the layers, replaying the packets captured from the
// traced phase through each layer's public API.
void replay_layers(const Chain& c, const std::vector<ResId>& stream,
                   const std::vector<FastPacket>& pkts, Report& report) {
  if (pkts.empty()) return;
  const std::size_t n = pkts.size();
  std::uint64_t sink = 0;

  // A copy of the gateway's table, probed with the workload's ResId stream.
  dataplane::ResTable table(kReservations);
  c.gateway.for_each_entry([&](ResId id, const dataplane::GatewayEntry& e) {
    table.insert(id, e);
  });
  report.metric("dataplane.restable.find_ns",
                median_ns_per_op(stream.size(), [&] {
                  for (const ResId id : stream) sink += table.find(id)->num_hops;
                }),
                "ns");

  {
    Samples s;
    for (int rep = 0; rep < 5; ++rep) {
      dataplane::DuplicateSuppression d(dupsup_config(), nullptr);
      const std::int64_t t0 = wall_ns();
      for (const auto& p : pkts) {
        const TimeNs ts_ns =
            PacketTimestamp::decode(p.timestamp, p.resinfo.exp_time);
        sink += static_cast<std::uint64_t>(d.check(
            p.resinfo.src_as, p.resinfo.res_id, p.timestamp, ts_ns, ts_ns));
      }
      s.add(static_cast<double>(wall_ns() - t0) / static_cast<double>(n));
    }
    report.metric("dataplane.dupsup.check_ns", s.percentile(0.5), "ns");
  }
  {
    Samples s;
    for (int rep = 0; rep < 5; ++rep) {
      dataplane::OverUseFlowDetector o({}, nullptr);
      TimeNs now = kClockStart;
      const std::int64_t t0 = wall_ns();
      for (const auto& p : pkts) {
        now += 5 * kClockStep;
        sink += static_cast<std::uint64_t>(o.update(
            p.resinfo.src_as, p.resinfo.res_id, p.wire_size(),
            p.resinfo.bw_kbps, now));
      }
      s.add(static_cast<double>(wall_ns() - t0) / static_cast<double>(n));
    }
    report.metric("dataplane.ofd.update_ns", s.percentile(0.5), "ns");
  }

  // Eq. 6 crypto as the batched router runs it: one key schedule per
  // (packet, hop) σ_i, then one AES block per lane.
  const std::size_t lanes = n - n % kBatch;
  if (lanes == 0) return;
  std::vector<crypto::AesSchedule> scheds(lanes);
  std::vector<dataplane::HopAuth> sigmas(lanes);
  std::vector<std::uint8_t> blocks(16 * lanes, 0);
  std::vector<std::uint8_t> out(16 * lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    const auto& p = pkts[i];
    sigmas[i] = table.find(p.resinfo.res_id)->sigmas[i % kHops];
    proto::build_data_mac_input(p.timestamp, p.wire_size(), &blocks[16 * i]);
  }
  report.metric("crypto.aes_schedule_expand_ns",
                median_ns_per_op(lanes, [&] {
                  for (std::size_t i = 0; i < lanes; ++i) {
                    scheds[i].expand(sigmas[i].data());
                  }
                }),
                "ns");
  report.metric("crypto.hvf_block_ns", median_ns_per_op(lanes, [&] {
                  for (std::size_t i = 0; i < lanes; i += kBatch) {
                    crypto::aes128_encrypt_each(&scheds[i], kBatch,
                                                &blocks[16 * i], &out[16 * i]);
                  }
                  sink += out[0];
                }),
                "ns");
  report.note("replay checksum " + std::to_string(sink));
}

void report_e2e(const Tally& t, double setup_s, double rss_mb,
                Report& report) {
  const double attempted = static_cast<double>(t.offered);
  report.metric("setup_s", setup_s, "s");
  report.metric("peak_rss_mb", rss_mb, "MB");
  report.metric("ops_ok_frac", attempted > 0 ? t.delivered / attempted : 0,
                "ratio");
  report.metric("ops_per_s", t.windows.best_rate(), "1/s");
  report.metric("lat_p50_us", t.windows.best_p50(), "us");
  report.metric("lat_p99_us", t.windows.best_p99(), "us");
}

std::string phase_line(const char* name, const Tally& t) {
  std::ostringstream o;
  o << name << ": pkt_mpps=" << t.mpps()
    << " batch_p50_us=" << t.batch_us.percentile(0.5)
    << " batch_p99_us=" << t.batch_us.percentile(0.99)
    << " batches=" << t.batch_us.count() << " delivered=" << t.delivered
    << "/" << t.offered;
  return o.str();
}

}  // namespace

void run_dp_forward(const Options& opt, Report& report) {
  std::unique_ptr<Chain> chain;
  const double setup_s = median_setup_seconds(
      kSetupReps, chain, [&] { return std::make_unique<Chain>(opt.seed); });
  Chain& c = *chain;
  Driver driver(c, opt);

  // Warm-up: first touches of the table, filters and sketches.
  if (opt.max_ops == 0) (void)driver.run<false>(0.3, 0);

  Counters k0 = read_counters(c);
  const Tally plain = driver.run<false>(opt.seconds, opt.max_ops);
  Counters k1 = read_counters(c);
  const double rss = peak_rss_mb();
  check_phase("untraced", plain, k0, k1, report);
  report.attempted = plain.offered;
  report.failed = plain.offered - plain.delivered;
  report.note(phase_line("untraced", plain));
  report.note("counts " + plain.counts());
  report_e2e(plain, setup_s, rss, report);
  if (!opt.trace) return;

  // Traced phase: per-component timing around process_batch plus the
  // components' own stage profilers.
  c.gateway.profiler().reset();
  c.gateway.profiler().set_enabled(true);
  for (auto& r : c.routers) {
    r->profiler().reset();
    r->profiler().set_enabled(true);
  }
  const Tally traced = driver.run<true>(opt.seconds, opt.max_ops);
  Counters k2 = read_counters(c);
  c.gateway.profiler().set_enabled(false);
  for (auto& r : c.routers) r->profiler().set_enabled(false);
  check_phase("traced", traced, k1, k2, report);
  report.note(phase_line("traced  ", traced));

  report.metric("pkt_mpps", plain.mpps(), "Mpps");
  report.metric("batch_p50_us", plain.batch_us.percentile(0.5), "us");
  report.metric("batch_p99_us", plain.batch_us.percentile(0.99), "us");
  report.metric("trace.overhead_frac",
                plain.mpps() > 0 ? 1.0 - traced.mpps() / plain.mpps() : 0,
                "ratio");

  double rt_ns = 0;
  std::uint64_t rt_pkts = 0;
  for (std::size_t h = 0; h < kHops; ++h) {
    rt_ns += traced.rt_ns[h];
    rt_pkts += traced.rt_in[h];
  }
  report.metric("dataplane.gateway.ns_per_pkt",
                traced.gw_ns / static_cast<double>(traced.offered), "ns");
  report.metric("dataplane.router.ns_per_pkt_hop",
                rt_pkts > 0 ? rt_ns / static_cast<double>(rt_pkts) : 0, "ns");
  // Ledger: gateway time + Σ router time against the whole batch time
  // (run.py fails the run when it is off by more than 10%).
  report.metric("dataplane.ledger.closure",
                (traced.gw_ns + rt_ns) / traced.batch_ns, "ratio");
  report.note("ledger: gateway " + std::to_string(traced.gw_ns / 1e6) +
              " ms + routers " + std::to_string(rt_ns / 1e6) + " ms vs batch " +
              std::to_string(traced.batch_ns / 1e6) + " ms");

  // Stage means (ns per 64-packet batch) from the existing profilers.
  const auto& gp = c.gateway.profiler();
  for (std::size_t s : {Gateway::kStagePrefetch, Gateway::kStagePrepare,
                        Gateway::kStageHvfCrypto}) {
    report.metric("dataplane.gateway.stage." + gp.stage_name(s) + "_ns",
                  gp.stage_snapshot(s).mean(), "ns");
  }
  for (std::size_t s :
       {BorderRouter::kStageHeaderSanity, BorderRouter::kStagePrefetch,
        BorderRouter::kStageHvfCrypto, BorderRouter::kStageFinalize}) {
    telemetry::HistogramSnapshot all;
    for (const auto& r : c.routers) all.merge(r->profiler().stage_snapshot(s));
    report.metric("dataplane.router.stage." +
                      c.routers[0]->profiler().stage_name(s) + "_ns",
                  all.mean(), "ns");
  }

  using V = BorderRouter::Verdict;
  const std::pair<const char*, V> drops[] = {
      {"bad_hvf", V::kBadHvf},   {"expired", V::kExpired},
      {"malformed", V::kMalformed}, {"blocked", V::kBlocked},
      {"replay", V::kReplay},    {"overuse", V::kOveruse}};
  for (const auto& [name, v] : drops) {
    report.metric(std::string("dataplane.router.drops.") + name,
                  static_cast<double>(traced.rt_total(v)), "count");
  }
  // The clock advances on every read, so no two packets of one EER share
  // a timestamp: every replay verdict on this traffic is a false drop.
  report.metric("dataplane.dupsup.false_dups",
                static_cast<double>(traced.rt_total(V::kReplay)), "count");

  replay_layers(c, driver.stream(), driver.captured(), report);
}

}  // namespace perfbench
