#include "cp_bed.hpp"

#include <set>
#include <sstream>
#include <stdexcept>

#include "colibri/crypto/cmac.hpp"
#include "colibri/crypto/eax.hpp"
#include "colibri/proto/codec.hpp"
#include "colibri/telemetry/audit.hpp"

namespace perfbench {
namespace {

using namespace colibri;

constexpr std::size_t kWalTrimBytes = std::size_t{4} << 20;
// SegRs outlive any run (the default is 300 s), so no EER outlives the
// SegRs it rides however many rounds cp_churn gets through.
constexpr std::uint32_t kSegrLifetimeSec = 1'000'000;

// Admission through the paper's bounded-tube backend, timed.
class TimedAdmission final : public admission::AdmissionBackend {
 public:
  TimedAdmission(std::size_t stripes, CpTrace& trace)
      : inner_(stripes), trace_(trace) {}

  const char* name() const override { return inner_.name(); }
  void set_interface_capacity(IfId ifid, BwKbps capacity_kbps) override {
    inner_.set_interface_capacity(ifid, capacity_kbps);
  }
  BwKbps interface_capacity(IfId ifid) const override {
    return inner_.interface_capacity(ifid);
  }
  Result<BwKbps> admit_segr(const admission::SegrAdmissionRequest& req) override {
    return inner_.admit_segr(req);
  }
  void release_segr(const ResKey& key) override { inner_.release_segr(key); }
  Result<BwKbps> admit_eer(reservation::ReservationDb& db,
                           const admission::EerAdmission::Request& req,
                           UnixSec now) override {
    if (!trace_.recording()) return inner_.admit_eer(db, req, now);
    const std::int64_t t0 = wall_ns();
    auto r = inner_.admit_eer(db, req, now);
    trace_.on_admit(static_cast<double>(wall_ns() - t0), r.ok());
    return r;
  }
  void release_eer(reservation::ReservationDb& db,
                   const ResKey& eer_key) override {
    if (!trace_.recording()) return inner_.release_eer(db, eer_key);
    const std::int64_t t0 = wall_ns();
    inner_.release_eer(db, eer_key);
    trace_.on_release(static_cast<double>(wall_ns() - t0));
  }

  const admission::EerAdmission& eer() const { return inner_.eer(); }

 private:
  admission::BoundedTubeBackend inner_;
  CpTrace& trace_;
};

// WAL storage in memory, timed.
class TimedStorage final : public reservation::LogStorage {
 public:
  TimedStorage(reservation::MemoryStorage& inner, CpTrace& trace)
      : inner_(inner), trace_(trace) {}

  void append(BytesView data) override {
    if (!trace_.recording()) return inner_.append(data);
    const std::int64_t t0 = wall_ns();
    inner_.append(data);
    trace_.on_wal(static_cast<double>(wall_ns() - t0), data.size());
  }
  Bytes read_all() const override { return inner_.read_all(); }
  void truncate() override { inner_.truncate(); }

 private:
  reservation::MemoryStorage& inner_;
  CpTrace& trace_;
};

// Crypto and codec costs on the messages captured from the traced phase.
void replay_layers(const CpTrace& t, Report& report) {
  if (t.frames.empty()) return;
  std::vector<proto::Packet> pkts;
  for (const auto& f : t.frames) {
    auto p = proto::decode_packet(BytesView(f));
    if (p) pkts.push_back(std::move(*p));
  }
  report.check(pkts.size() == t.frames.size(),
               "a captured bus frame does not decode");
  if (pkts.empty()) return;
  std::uint64_t sink = 0;

  report.metric("proto.decode_ns_per_msg",
                median_ns_per_op(t.frames.size(), [&] {
                  for (const auto& f : t.frames) {
                    sink += proto::decode_packet(BytesView(f))->payload.size();
                  }
                }),
                "ns");
  report.metric("proto.encode_ns_per_msg", median_ns_per_op(pkts.size(), [&] {
                  for (const auto& p : pkts) {
                    sink += proto::encode_packet(p).size();
                  }
                }),
                "ns");

  Rng rng(0x6165735f6b6579ULL);
  std::vector<std::array<std::uint8_t, 16>> keys(pkts.size());
  for (auto& k : keys) rng.fill(k.data(), k.size());
  crypto::Aes128 aes;
  report.metric("crypto.aes128_set_key_ns", median_ns_per_op(keys.size(), [&] {
                  for (const auto& k : keys) aes.set_key(k.data());
                  sink += aes.round_keys()[0];
                }),
                "ns");

  // CMAC over each request's authenticated payload.
  const crypto::Cmac cmac(keys[0].data());
  std::uint8_t tag[crypto::Cmac::kTagSize];
  report.metric("crypto.cmac_ns", median_ns_per_op(pkts.size(), [&] {
                  for (const auto& p : pkts) {
                    cmac.compute(BytesView(p.payload), tag);
                    sink += tag[0];
                  }
                }),
                "ns");

  // EAX sealing of one 16-byte hop authenticator per request, bound to the
  // request's ResInfo as the CServ binds it (22-byte AAD, 16-byte nonce).
  const crypto::Eax eax(keys[0].data());
  std::vector<Bytes> aads;
  for (const auto& p : pkts) {
    Bytes aad;
    put_le(aad, p.resinfo.src_as.raw());
    put_le(aad, p.resinfo.res_id);
    put_le(aad, p.resinfo.bw_kbps);
    put_le(aad, p.resinfo.exp_time);
    aad.push_back(p.resinfo.version);
    aad.push_back(0);
    aads.push_back(std::move(aad));
  }
  std::uint8_t nonce[16];
  std::uint8_t sigma[16];
  rng.fill(nonce, sizeof(nonce));
  rng.fill(sigma, sizeof(sigma));
  std::vector<Bytes> sealed(pkts.size());
  report.metric("crypto.eax_seal_ns", median_ns_per_op(pkts.size(), [&] {
                  for (std::size_t i = 0; i < pkts.size(); ++i) {
                    sealed[i] = eax.seal(BytesView(nonce, sizeof(nonce)),
                                         BytesView(aads[i]),
                                         BytesView(sigma, sizeof(sigma)));
                  }
                }),
                "ns");
  std::size_t opened = 0;
  report.metric("crypto.eax_open_ns", median_ns_per_op(pkts.size(), [&] {
                  opened = 0;
                  for (std::size_t i = 0; i < pkts.size(); ++i) {
                    opened += eax.open(BytesView(aads[i]), BytesView(sealed[i]))
                                  .has_value();
                  }
                }),
                "ns");
  report.check(opened == pkts.size(), "EAX replay failed to open a seal");
  report.note("replay checksum " + std::to_string(sink));
}

}  // namespace

Bytes CpTrace::deliver(cserv::CServ& cs, BytesView wire) {
  if (!recording()) return cs.handle(wire);
  const std::uint8_t chan = wire.empty() ? 0 : wire[0];
  if (in_request_ && chan < msgs.size()) {
    ++msgs[chan];
    bytes[chan] += wire.size();
  }
  if (chan == 0 && wire.size() > 1 && frames.size() < kMaxFrames) {
    frames.emplace_back(wire.begin() + 1, wire.end());
  }
  nested_ns_.push_back(0);
  const std::int64_t t0 = wall_ns();
  Bytes out = cs.handle(wire);
  const double dt = static_cast<double>(wall_ns() - t0);
  const double self = dt - nested_ns_.back();
  nested_ns_.pop_back();
  if (nested_ns_.empty()) {
    req_top_level_ns_ += dt;
  } else {
    nested_ns_.back() += dt;
  }
  req_hop_self_ns_ += self;
  if (chan == 0) hop_self_us.add(self / 1e3);
  return out;
}

void CpTrace::on_admit(double ns, bool ok) {
  admit_ns.add(ns);
  if (!ok) ++admit_denied;
  if (in_request_) req_admit_ns_ += ns;
}

void CpTrace::on_wal(double ns, std::size_t n) {
  wal_append_ns.add(ns);
  if (!in_request_) return;
  req_wal_ns_ += ns;
  wal_request_bytes += n;
}

void CpTrace::begin_request() {
  in_request_ = true;
  req_hop_self_ns_ = req_top_level_ns_ = req_admit_ns_ = req_wal_ns_ = 0;
}

void CpTrace::end_request(double inclusive_ns) {
  in_request_ = false;
  ++requests;
  const double initiator = inclusive_ns - req_top_level_ns_;
  const double ledger = initiator + req_hop_self_ns_;
  request_us.add(inclusive_ns / 1e3);
  initiator_self_us.add(initiator / 1e3);
  ledger_us.add(ledger / 1e3);
  envelope_us.add((ledger - req_admit_ns_ - req_wal_ns_) / 1e3);
}

CpBed::CpBed(CpTrace* trace) : trace_(trace) {
  cserv::CservConfig cfg;
  cfg.segr_lifetime_sec = kSegrLifetimeSec;
  cfg.rate_limits.per_as_requests_per_sec = 1e12;
  cfg.rate_limits.per_as_burst = 1e12;
  cfg.rate_limits.renewals_per_reservation_per_sec = 1e12;
  cfg.rate_limits.renewal_burst = 1e12;
  if (trace_ != nullptr) {
    cfg.admission_factory = [this](AsId as, std::size_t stripes) {
      auto b = std::make_unique<TimedAdmission>(stripes, *trace_);
      eer_ledgers_.emplace_back(as, &b->eer());
      return std::unique_ptr<admission::AdmissionBackend>(std::move(b));
    };
  }
  bed_ = std::make_unique<app::Testbed>(topology::builders::two_isd_topology(),
                                        clock, cfg);
  for (const AsId as : bed_->topology().as_ids()) {
    mem_.push_back(std::make_unique<reservation::MemoryStorage>());
    // Room for one trim period's overshoot, so the buffer never regrows
    // and peak RSS does not depend on when a trim lands.
    mem_.back()->raw().reserve(2 * kWalTrimBytes);
    reservation::LogStorage* storage = mem_.back().get();
    if (trace_ != nullptr) {
      timed_.push_back(std::make_unique<TimedStorage>(*mem_.back(), *trace_));
      storage = timed_.back().get();
    }
    wals_.push_back(std::make_unique<reservation::ReservationWal>(*storage));
    bed_->cserv(as).attach_wal(wals_.back().get());
  }
  if (bed_->provision_all_segments(100, 2'000'000) == 0) {
    throw std::runtime_error("no SegR could be provisioned");
  }
  const auto chains = src().lookup_chains(cp_dst_as());
  if (chains.empty()) throw std::runtime_error("no SegR chain 1-112 -> 2-212");
  std::set<AsId> ases;
  for (const auto& advert : chains.front()) {
    chain_.push_back(advert.key);
    for (const auto& h : advert.hops) ases.insert(h.as);
  }
  if (chain_.size() != 3 || ases.size() != 6) {
    throw std::runtime_error("expected an up+core+down chain over 6 ASes");
  }
}

void CpBed::attach_tracing() {
  for (const AsId as : bed_->topology().as_ids()) {
    cserv::CServ* cs = &bed_->cserv(as);
    CpTrace* t = trace_;
    bed_->bus().attach(as, [cs, t](BytesView w) { return t->deliver(*cs, w); });
  }
}

void CpBed::trim_wals() {
  for (auto& m : mem_) {
    if (m->raw().size() > kWalTrimBytes) m->truncate();
  }
}

std::size_t CpBed::audit() {
  telemetry::ConservationAuditor auditor(clock);
  for (const AsId as : bed_->topology().as_ids()) {
    const admission::EerAdmission* eer = bed_->cserv(as).eer_admission();
    for (const auto& [a, ledger] : eer_ledgers_) {
      if (a == as) eer = ledger;
    }
    auditor.add_target({as.to_string(), as, &bed_->cserv(as).db(), eer,
                        &bed_->topology().node(as)});
  }
  const auto report = auditor.run(clock.now_sec());
  return report.violations.size();
}

std::string CpPhase::line(const char* name) const {
  std::ostringstream o;
  o << name << ": req_per_s=" << req_per_s()
    << " setup_p50_us=" << setup_us.percentile(0.5)
    << " setup_p99_us=" << setup_us.percentile(0.99)
    << " (n=" << setup_us.count() << ")"
    << " renew_p50_us=" << renew_us.percentile(0.5)
    << " renew_p99_us=" << renew_us.percentile(0.99)
    << " (n=" << renew_us.count() << ")"
    << " failed=" << failed << "/" << attempted;
  return o.str();
}

std::string CpPhase::counts() const {
  std::ostringstream o;
  o << "attempted=" << attempted << " failed=" << failed
    << " setups=" << setups << " renewals=" << renewals;
  return o.str();
}

void report_cp_e2e(const CpPhase& p, double setup_s, Report& report) {
  const double attempted = static_cast<double>(p.attempted);
  report.metric("setup_s", setup_s, "s");
  report.metric("peak_rss_mb", p.rss_mb, "MB");
  report.metric("ops_ok_frac",
                attempted > 0 ? (attempted - p.failed) / attempted : 0,
                "ratio");
  report.metric("ops_per_s", p.windows.best_rate(), "1/s");
  report.metric("lat_p50_us", p.windows.best_p50(), "us");
  report.metric("lat_p99_us", p.windows.best_p99(), "us");
}

void report_cp_layers(const CpPhase& plain, const CpTrace& t,
                      Report& report) {
  report.metric("req_per_s", plain.req_per_s(), "1/s");
  report.metric("setup_p50_us", plain.setup_us.percentile(0.5), "us");
  report.metric("setup_p99_us", plain.setup_us.percentile(0.99), "us");
  report.metric("setup_count", static_cast<double>(plain.setup_us.count()),
                "count");
  report.metric("renew_p50_us", plain.renew_us.percentile(0.5), "us");
  report.metric("renew_p99_us", plain.renew_us.percentile(0.99), "us");
  report.metric("renew_count", static_cast<double>(plain.renew_us.count()),
                "count");
  // Per-request cost of tracing: traced against the untraced requests
  // interleaved with them.
  const double untraced = t.untraced_request_us.mean();
  report.metric("trace.overhead_frac",
                untraced > 0 ? t.request_us.mean() / untraced - 1.0 : 0,
                "ratio");

  const double reqs = t.requests > 0 ? static_cast<double>(t.requests) : 1.0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  for (std::size_t c = 0; c < t.msgs.size(); ++c) {
    msgs += t.msgs[c];
    bytes += t.bytes[c];
  }
  report.metric("cserv.bus.msgs_per_req", static_cast<double>(msgs) / reqs,
                "count");
  report.metric("cserv.bus.bytes_per_req", static_cast<double>(bytes) / reqs,
                "B");
  report.metric("drkey.key_fetches_per_req",
                static_cast<double>(t.msgs[2]) / reqs, "count");
  report.metric("cserv.registry_queries_per_req",
                static_cast<double>(t.msgs[1]) / reqs, "count");

  report.metric("cserv.hop.self_us.p50", t.hop_self_us.percentile(0.5), "us");
  report.metric("cserv.hop.self_us.p99", t.hop_self_us.percentile(0.99), "us");
  report.metric("cserv.initiator.self_us", t.initiator_self_us.percentile(0.5),
                "us");
  report.metric("cserv.envelope_us", t.envelope_us.percentile(0.5), "us");
  // Ledger: initiator self + Σ hop self of the traced requests against the
  // time of the untraced requests interleaved with them (run.py fails the
  // run when it is off by more than 10%). Self times add up to the traced
  // request's own time, so the ledger closes only while tracing costs
  // little beside what it decomposes.
  report.metric("cserv.ledger.closure",
                untraced > 0 ? t.ledger_us.mean() / untraced : 0, "ratio");
  std::ostringstream o;
  o << "ledger: initiator self " << t.initiator_self_us.mean()
    << " us + hop self " << t.ledger_us.mean() - t.initiator_self_us.mean()
    << " us vs untraced request " << untraced << " us (n="
    << t.untraced_request_us.count() << "; traced request "
    << t.request_us.mean() << " us, n=" << t.request_us.count() << ")";
  report.note(o.str());

  const double admits = static_cast<double>(t.admit_ns.count());
  report.metric("admission.admit_eer_ns", t.admit_ns.mean(), "ns");
  report.metric("admission.release_eer_ns", t.release_ns.mean(), "ns");
  report.metric("admission.denied_frac",
                admits > 0 ? static_cast<double>(t.admit_denied) / admits : 0,
                "ratio");
  report.metric("reservation.wal.append_ns", t.wal_append_ns.mean(), "ns");
  report.metric("reservation.wal.bytes_per_req",
                static_cast<double>(t.wal_request_bytes) / reqs, "B");

  replay_layers(t, report);
}

}  // namespace perfbench
