// On-path request processing: the forward pass (admission hop by hop) and
// the backward pass (token / HopAuth issuance) of Fig. 1a/1b.
//
// SegR setup/renewal, EER setup/renewal and activation share one shape:
// the prologue (structure, MAC, source filter), the request's own checks
// and admission, the forward step, and on the way back either the failure
// unwind or the granted epilogue. Requests arrive decoded, from
// CServ::handle_packet or the initiator's hop 0; the forward step is the
// only place here that encodes a request or decodes a reply.
#include <algorithm>
#include <chrono>

#include "colibri/crypto/eax.hpp"
#include "colibri/cserv/cserv.hpp"
#include "colibri/cserv/wire_internal.hpp"
#include "colibri/dataplane/hvf.hpp"

namespace colibri::cserv {

// Friend of CServ; stateless — every function takes the service as `self`.
class Handlers {
  using Reply = CServ::Reply;

 public:
  static std::optional<Reply> process(CServ& self, const proto::Packet& pkt,
                                      proto::AuthedPayload* ap);

 private:
  // Gives back what admission reserved at this hop for a failed request.
  using Undo = void (*)(CServ& self, const proto::Packet& pkt);

  static std::optional<Reply> prologue(CServ& self, const proto::Packet& pkt,
                                       const proto::AuthedPayload* ap,
                                       crypto::Eax& src);
  static std::optional<Reply> handle_seg(CServ& self, const proto::Packet& pkt,
                                         proto::AuthedPayload& ap);
  static std::optional<Reply> handle_activation(CServ& self,
                                                const proto::Packet& pkt,
                                                proto::AuthedPayload& ap);
  static std::optional<Reply> handle_eer(CServ& self, const proto::Packet& pkt,
                                         proto::AuthedPayload& ap,
                                         const crypto::Eax& src);

  static std::optional<Reply> forward(CServ& self, const proto::Packet& pkt,
                                      const proto::AuthedPayload& ap,
                                      AsId next);
  static std::optional<Reply> unwind(CServ& self, const proto::Packet& pkt,
                                     std::optional<Reply> reply, Undo undo);
  static void granted(CServ& self, const proto::Packet& pkt, ResVer version,
                      BwKbps bw_kbps, UnixSec exp_time);
  static Reply fail(CServ& self, const proto::Packet& pkt, Errc code);
  static Reply bottleneck_reply(std::uint8_t hop,
                                const std::vector<BwKbps>& granted,
                                BwKbps cap);

  static void undo_seg(CServ& self, const proto::Packet& pkt);
  static void undo_eer(CServ& self, const proto::Packet& pkt);
  static admission::SegrAdmissionRequest segr_admission(
      CServ& self, const proto::Packet& pkt, BwKbps min_bw, BwKbps demand);

  static void store_segr(CServ& self, const proto::Packet& pkt,
                         const proto::SegRequest& msg, BwKbps final_bw,
                         bool renewal);
  static void store_eer(CServ& self, const proto::Packet& pkt,
                        const proto::EerRequest& msg, BwKbps final_bw);
};

namespace {

// A request kind's name in denial events, and the verdict a granted one
// logs and tags its span with.
struct KindNames {
  const char* request;
  const char* verdict;
};

KindNames names_of(proto::PacketType t) {
  switch (t) {
    case proto::PacketType::kSegSetup: return {"seg-setup", "segr.admitted"};
    case proto::PacketType::kSegRenewal: return {"seg-renewal", "segr.renewed"};
    case proto::PacketType::kSegActivation:
      return {"seg-activation", "segr.activated"};
    case proto::PacketType::kEerSetup: return {"eer-setup", "eer.admitted"};
    case proto::PacketType::kEerRenewal: return {"eer-renewal", "eer.renewed"};
    default: return {"unknown", "unknown"};
  }
}

// Times the admission-algorithm call when (and only when) this request
// is being traced; the annotation feeds per-hop attribution — "how much
// of this hop's self time was the admission decision".
class AdmissionTimer {
 public:
  explicit AdmissionTimer(telemetry::SpanCollector& tracer)
      : tracer_(tracer), armed_(tracer.in_span()) {
    if (armed_) {
      t0_ = std::chrono::steady_clock::now().time_since_epoch().count();
    }
  }
  ~AdmissionTimer() {
    if (armed_) {
      const std::int64_t t1 =
          std::chrono::steady_clock::now().time_since_epoch().count();
      tracer_.annotate("admission_ns", std::to_string(t1 - t0_));
    }
  }

 private:
  telemetry::SpanCollector& tracer_;
  bool armed_;
  std::int64_t t0_ = 0;
};

}  // namespace

std::optional<CServ::Reply> CServ::process(const proto::Packet& pkt,
                                           proto::AuthedPayload* ap) {
  return Handlers::process(*this, pkt, ap);
}

std::optional<CServ::Reply> Handlers::process(CServ& self,
                                              const proto::Packet& pkt,
                                              proto::AuthedPayload* ap) {
  // K_{me -> SrcAS}, derived on the fly once per request with no
  // per-source state (§5.3): it checks the request's MAC here and seals
  // an EER's hop authenticator on the way back.
  crypto::Eax src;
  if (auto refused = prologue(self, pkt, ap, src)) return refused;
  switch (pkt.type) {
    case proto::PacketType::kSegSetup:
    case proto::PacketType::kSegRenewal: return handle_seg(self, pkt, *ap);
    case proto::PacketType::kSegActivation:
      return handle_activation(self, pkt, *ap);
    default: return handle_eer(self, pkt, *ap, src);
  }
}

std::optional<CServ::Reply> Handlers::prologue(CServ& self,
                                               const proto::Packet& pkt,
                                               const proto::AuthedPayload* ap,
                                               crypto::Eax& src) {
  // Structure: the payload decoded to the message the packet type names,
  // and a setup or renewal lists one AS per header hop (an EER's own path
  // too) with this AS at the cursor.
  const std::uint8_t hop = pkt.current_hop;
  const auto lined_up = [&](const std::vector<AsId>& ases) {
    return ases.size() == pkt.path.size() && hop < ases.size() &&
           ases[hop] == self.local_;
  };
  const proto::ControlMessage* msg = ap != nullptr ? &ap->message : nullptr;
  bool ok = false;
  switch (pkt.type) {
    case proto::PacketType::kSegSetup:
    case proto::PacketType::kSegRenewal: {
      const auto* seg = msg ? std::get_if<proto::SegRequest>(msg) : nullptr;
      ok = seg != nullptr && lined_up(seg->ases);
      if (ok) self.metrics_.seg_requests.inc();
      break;
    }
    case proto::PacketType::kEerSetup:
    case proto::PacketType::kEerRenewal: {
      const auto* eer = msg ? std::get_if<proto::EerRequest>(msg) : nullptr;
      ok = eer != nullptr && lined_up(eer->ases) &&
           eer->path.size() == eer->ases.size();
      if (ok) self.metrics_.eer_requests.inc();
      break;
    }
    case proto::PacketType::kSegActivation:
      ok = msg != nullptr && std::holds_alternative<proto::SegActivation>(*msg);
      break;
    default: break;
  }
  if (!ok) return fail(self, pkt, Errc::kMalformed);

  // Authenticity (§4.5): the source's MAC for this hop.
  src.set_key(self.drkey_engine_.as_key(pkt.resinfo.src_as,
                                        self.clock_->now_sec())
                  .bytes.data());
  std::uint8_t tag[crypto::Cmac::kTagSize];
  src.cmac().compute(proto::auth_input(ap->message, pkt.resinfo), tag);
  if (hop >= ap->macs.size() ||
      !crypto::Cmac::verify_prefix(tag, ap->macs[hop].data(), sizeof(tag))) {
    self.metrics_.auth_failures.inc();
    return fail(self, pkt, Errc::kAuthFailed);
  }
  if (pkt.type == proto::PacketType::kSegActivation) return std::nullopt;

  // Source filter for setups and renewals: the per-AS request rate limit
  // (§5.3), then sources denied for misbehavior (§4.8).
  if (!self.rate_limiter_.allow_request(pkt.resinfo.src_as,
                                        self.clock_->now_ns())) {
    self.metrics_.rate_limited.inc();
    return fail(self, pkt, Errc::kRateLimited);
  }
  if (self.denied_sources_.contains(pkt.resinfo.src_as)) {
    return fail(self, pkt, Errc::kBlocked);
  }
  return std::nullopt;
}

std::optional<CServ::Reply> Handlers::forward(CServ& self,
                                              const proto::Packet& pkt,
                                              const proto::AuthedPayload& ap,
                                              AsId next) {
  // At a transfer AS the request payload is copied into a fresh Colibri
  // packet for the next SegR (§4.4); here that is the frame handed to the
  // next AS, its cursor one hop on.
  proto::Packet fwd = pkt;
  fwd.current_hop = pkt.current_hop + 1;
  fwd.payload = proto::encode_authed(ap);
  // Tracing: the forwarded packet becomes a child span of this AS's
  // delivery span. With tracing off the frame carries no trace block.
  if (self.bus_->tracing_active()) {
    fwd.trace = self.bus_->child_context();
    fwd.has_trace = fwd.trace.present();
  }
  const Bytes resp_wire =
      self.bus_->call(next, wire::packet_frame(proto::encode_packet(fwd)));

  // Nothing usable came back: the AS is unreachable, the bus dropped the
  // request, or the frame is not a reply.
  const auto resp_pkt = proto::decode_packet(resp_wire);
  if (!resp_pkt) return std::nullopt;
  auto resp_ap = proto::decode_authed(resp_pkt->payload);
  auto* resp =
      resp_ap ? std::get_if<proto::ControlResponse>(&resp_ap->message) : nullptr;
  if (resp == nullptr) return std::nullopt;
  return Reply{std::move(*resp), resp_pkt->current_hop};
}

std::optional<CServ::Reply> Handlers::unwind(CServ& self,
                                             const proto::Packet& pkt,
                                             std::optional<Reply> reply,
                                             Undo undo) {
  // A refused or lost request gives back this hop's allocation (§3.3). A
  // lost reply becomes kInternal here, so the initiator learns where the
  // chain broke. An activation reserved nothing (`undo` == nullptr) and
  // passes either on as it came.
  if (undo == nullptr) return reply;
  undo(self, pkt);
  if (!reply) return fail(self, pkt, Errc::kInternal);
  return reply;
}

void Handlers::granted(CServ& self, const proto::Packet& pkt, ResVer version,
                       BwKbps bw_kbps, UnixSec exp_time) {
  const char* verdict = names_of(pkt.type).verdict;
  const bool activation = pkt.type == proto::PacketType::kSegActivation;
  if (self.cfg_.events != nullptr) {
    auto event = self.cfg_.events->emit(telemetry::Severity::kInfo, "cserv",
                                        verdict);
    event.str("as", self.local_.to_string())
        .str("src_as", pkt.resinfo.src_as.to_string())
        .u64("res_id", pkt.resinfo.res_id)
        .u64("version", version)
        .u64("bw_kbps", bw_kbps)
        .u64("exp_time", exp_time);
    if (!activation) event.u64("hop", pkt.current_hop);
  }
  // Trace-context propagation: the handler runs under the bus span of the
  // hop call that delivered the request, so tag that span with what this
  // AS decided — the Perfetto export then shows the verdict on every hop
  // without a context parameter.
  telemetry::SpanCollector& tracer = self.bus_->tracer();
  if (tracer.in_span()) {
    tracer.annotate("verdict", verdict);
    tracer.annotate("res_id", std::to_string(pkt.resinfo.res_id));
    if (activation) {
      tracer.annotate("version", std::to_string(version));
    } else {
      tracer.annotate("bw_kbps", std::to_string(bw_kbps));
    }
  }
}

CServ::Reply Handlers::fail(CServ& self, const proto::Packet& pkt,
                            Errc code) {
  // Every refusal funnels through here, so this is the single audit
  // point for denials: the event names the refusing AS (the bottleneck
  // location the initiator learns per §3.3) and the unified reason.
  const std::uint8_t hop = pkt.current_hop;
  if (self.cfg_.events != nullptr) {
    self.cfg_.events
        ->emit(telemetry::Severity::kWarn, "cserv", "request.denied")
        .str("as", self.local_.to_string())
        .str("request", names_of(pkt.type).request)
        .str("reason", errc_name(code))
        .str("at", self.local_.to_string())
        .u64("hop", hop)
        .str("src_as", pkt.resinfo.src_as.to_string())
        .u64("res_id", pkt.resinfo.res_id);
  }
  telemetry::SpanCollector& tracer = self.bus_->tracer();
  if (tracer.in_span()) {
    tracer.annotate("verdict", "denied");
    tracer.annotate("reason", errc_name(code));
    tracer.annotate("res_id", std::to_string(pkt.resinfo.res_id));
  }
  Reply r;
  r.hop = hop;
  r.resp.success = false;
  r.resp.fail_code = code;
  r.resp.fail_hop = hop;
  return r;
}

CServ::Reply Handlers::bottleneck_reply(std::uint8_t hop,
                                        const std::vector<BwKbps>& granted,
                                        BwKbps cap) {
  // The last AS's answer to a setup or renewal: success at the bottleneck
  // of the grants collected on the forward pass, capped at `cap`.
  Reply r;
  r.hop = hop;
  r.resp.success = true;
  r.resp.final_bw_kbps =
      std::min(*std::min_element(granted.begin(), granted.end()), cap);
  return r;
}

// --- segment reservations ---------------------------------------------------

admission::SegrAdmissionRequest Handlers::segr_admission(
    CServ& self, const proto::Packet& pkt, BwKbps min_bw, BwKbps demand) {
  admission::SegrAdmissionRequest req;
  req.now = self.clock_->now_sec();
  req.src_as = pkt.resinfo.src_as;
  req.key = pkt.resinfo.key();
  req.ingress = pkt.path[pkt.current_hop].ingress;
  req.egress = pkt.path[pkt.current_hop].egress;
  req.min_bw_kbps = min_bw;
  req.demand_kbps = demand;
  return req;
}

std::optional<CServ::Reply> Handlers::handle_seg(CServ& self,
                                                 const proto::Packet& pkt,
                                                 proto::AuthedPayload& ap) {
  auto& msg = std::get<proto::SegRequest>(ap.message);
  const std::uint8_t hop = pkt.current_hop;
  const bool renewal = pkt.type == proto::PacketType::kSegRenewal;
  if (renewal) {
    if (!self.db_.contains_segr(pkt.resinfo.key())) {
      return fail(self, pkt, Errc::kNoSuchReservation);
    }
    if (!self.rate_limiter_.allow_renewal(pkt.resinfo.key(),
                                          self.clock_->now_ns())) {
      self.metrics_.rate_limited.inc();
      return fail(self, pkt, Errc::kRateLimited);
    }
  }

  // Admission (§4.7): how much can this AS grant between the request's
  // ingress and egress interfaces? O(1) in existing SegRs. A refusal
  // tells the initiator where the bottleneck is (§3.3).
  auto admitted = [&] {
    AdmissionTimer timer(self.bus_->tracer());
    return self.admission_->admit_segr(
        segr_admission(self, pkt, msg.min_bw_kbps, msg.max_bw_kbps));
  }();
  if (!admitted) return fail(self, pkt, admitted.error());

  msg.granted.push_back(admitted.value());
  std::optional<Reply> reply;
  if (hop + 1u < msg.ases.size()) {
    reply = forward(self, pkt, ap, msg.ases[hop + 1]);
  } else {
    reply = bottleneck_reply(hop, msg.granted, msg.max_bw_kbps);
    reply->resp.tokens.assign(msg.ases.size(), proto::Hvf{});
  }
  if (!reply || !reply->resp.success) {
    return unwind(self, pkt, std::move(reply), &undo_seg);
  }

  // Success: shrink the ledger entry to the final bandwidth, store it, and
  // contribute this AS's token (Eq. 3).
  proto::ResInfo final_ri = pkt.resinfo;
  final_ri.bw_kbps = reply->resp.final_bw_kbps;
  (void)self.admission_->admit_segr(
      segr_admission(self, pkt, 0, final_ri.bw_kbps));
  store_segr(self, pkt, msg, final_ri.bw_kbps, renewal);
  if (hop < reply->resp.tokens.size()) {
    reply->resp.tokens[hop] = dataplane::compute_seg_hvf(
        self.hop_cipher_, final_ri, pkt.path[hop].ingress,
        pkt.path[hop].egress);
  }
  self.metrics_.seg_granted.inc();
  granted(self, pkt, pkt.resinfo.version, final_ri.bw_kbps,
          pkt.resinfo.exp_time);
  return reply;
}

void Handlers::undo_seg(CServ& self, const proto::Packet& pkt) {
  // A renewal falls back to the active version's allocation; a setup
  // releases its own.
  if (pkt.type != proto::PacketType::kSegRenewal) {
    self.admission_->release_segr(pkt.resinfo.key());
  } else if (const auto rec = self.db_.segr_copy(pkt.resinfo.key())) {
    (void)self.admission_->admit_segr(
        segr_admission(self, pkt, 0, rec->active.bw_kbps));
  }
}

void Handlers::store_segr(CServ& self, const proto::Packet& pkt,
                          const proto::SegRequest& msg, BwKbps final_bw,
                          bool renewal) {
  reservation::SegrVersion ver;
  ver.version = pkt.resinfo.version;
  ver.bw_kbps = final_bw;
  ver.exp_time = pkt.resinfo.exp_time;

  if (renewal) {
    const bool updated = self.db_.with_segr(
        pkt.resinfo.key(), [&](reservation::SegrRecord* stored) {
          if (stored == nullptr) return false;
          stored->pending = ver;  // explicit activation switches it live (§4.2)
          if (self.wal_ != nullptr) self.wal_->log_segr_upsert(*stored);
          return true;
        });
    if (updated) return;
  }
  reservation::SegrRecord rec;
  rec.key = pkt.resinfo.key();
  rec.seg_type = msg.seg_type;
  rec.hops.resize(pkt.path.size());
  for (size_t i = 0; i < pkt.path.size(); ++i) {
    rec.hops[i] = pkt.path[i];
    rec.hops[i].as = msg.ases[i];
  }
  rec.local_hop = pkt.current_hop;
  rec.active = ver;
  self.db_.upsert_segr(std::move(rec), [&](reservation::SegrRecord& stored) {
    if (self.wal_ != nullptr) self.wal_->log_segr_upsert(stored);
  });
}

std::optional<CServ::Reply> Handlers::handle_activation(
    CServ& self, const proto::Packet& pkt, proto::AuthedPayload& ap) {
  const ResVer version = std::get<proto::SegActivation>(ap.message).version;
  const std::uint8_t hop = pkt.current_hop;
  const auto rec = self.db_.segr_copy(pkt.resinfo.key());
  if (!rec) return fail(self, pkt, Errc::kNoSuchReservation);
  if (!rec->pending || rec->pending->version != version) {
    return fail(self, pkt, Errc::kBadVersion);
  }

  std::optional<Reply> reply;
  if (hop + 1u < rec->hops.size()) {
    reply = forward(self, pkt, ap, rec->hops[hop + 1].as);
  } else {
    reply.emplace();
    reply->hop = hop;
    reply->resp.success = true;
    reply->resp.final_bw_kbps = rec->pending->bw_kbps;
  }
  if (!reply || !reply->resp.success) {
    return unwind(self, pkt, std::move(reply), nullptr);
  }

  // Switch: only one version of a SegR is ever live (§4.2). Re-validate
  // under the db lock — the record may have been swept or renewed again
  // while the activation crossed the bus.
  reservation::SegrVersion activated;
  const bool switched = self.db_.with_segr(
      pkt.resinfo.key(), [&](reservation::SegrRecord* stored) {
        if (stored == nullptr || !stored->pending ||
            stored->pending->version != version) {
          return false;
        }
        stored->active = *stored->pending;
        stored->pending.reset();
        activated = stored->active;
        if (self.wal_ != nullptr) self.wal_->log_segr_upsert(*stored);
        return true;
      });
  if (!switched) return fail(self, pkt, Errc::kBadVersion);
  granted(self, pkt, version, activated.bw_kbps, activated.exp_time);
  return reply;
}

// --- end-to-end reservations --------------------------------------------------

std::optional<CServ::Reply> Handlers::handle_eer(CServ& self,
                                                 const proto::Packet& pkt,
                                                 proto::AuthedPayload& ap,
                                                 const crypto::Eax& src) {
  auto& msg = std::get<proto::EerRequest>(ap.message);
  const std::uint8_t hop = pkt.current_hop;
  const UnixSec now_sec = self.clock_->now_sec();
  // Only an EER this AS stores has a renewal bucket; a renewal of one it
  // does not store is admitted like a setup.
  if (pkt.type == proto::PacketType::kEerRenewal &&
      self.db_.contains_eer(pkt.resinfo.key()) &&
      !self.rate_limiter_.allow_renewal(pkt.resinfo.key(),
                                        self.clock_->now_ns())) {
    self.metrics_.rate_limited.inc();
    return fail(self, pkt, Errc::kRateLimited);
  }

  // Locate the SegR(s) this EER rides at this AS: one for source/transit/
  // destination ASes, two at a transfer AS (§4.1). The checks below run
  // on copies; admission re-reads the records under the db lock.
  std::optional<ResKey> segr_in;
  std::optional<ResKey> segr_out;
  std::vector<reservation::SegrRecord> rides;
  for (const ResKey& sk : msg.segrs) {
    auto rec = self.db_.segr_copy(sk);
    if (!rec) continue;
    if (!segr_in) {
      segr_in = sk;
    } else if (!segr_out) {
      segr_out = sk;
    } else {
      continue;
    }
    rides.push_back(std::move(*rec));
  }
  if (!segr_in) {
    return fail(self, pkt, Errc::kNoSuchSegment);
  }
  for (const reservation::SegrRecord& rec : rides) {
    if (rec.expired(now_sec)) {
      // App. C: signal expiry so the initiator can invalidate its cache
      // and retry with the new version.
      return fail(self, pkt, Errc::kExpired);
    }
  }
  // Whitelist enforcement by the SegR's initiating AS (App. C).
  for (const reservation::SegrRecord& rec : rides) {
    if (rec.hops[rec.local_hop].as != rec.hops[0].as) continue;
    if (rec.key.src_as != self.local_) continue;
    if (auto advert = self.registry_.find(rec.key);
        advert && !advert->usable_by(pkt.resinfo.src_as)) {
      return fail(self, pkt, Errc::kNotWhitelisted);
    }
  }

  // The demanded bandwidth travels in the header ResInfo (§4.4).
  BwKbps demand = pkt.resinfo.bw_kbps;
  // Source/destination policy (§4.7): per-host cap.
  const bool is_source = hop == 0;
  const bool is_dest = hop + 1u >= msg.ases.size();
  if (is_source || is_dest) {
    if (msg.min_bw_kbps > self.cfg_.per_host_eer_cap_kbps) {
      self.metrics_.policy_denied.inc();
      return fail(self, pkt, Errc::kPolicyDenied);
    }
    demand = std::min(demand, self.cfg_.per_host_eer_cap_kbps);
  }
  // Destination host acceptance (§4.4).
  if (is_dest && self.host_acceptor_ &&
      !self.host_acceptor_(pkt.eerinfo, demand)) {
    self.metrics_.policy_denied.inc();
    return fail(self, pkt, Errc::kPolicyDenied);
  }

  admission::EerAdmission::Request areq;
  areq.eer_key = pkt.resinfo.key();
  areq.demand_kbps = demand;
  areq.min_bw_kbps = msg.min_bw_kbps;
  areq.segr_in = segr_in;
  areq.segr_out = segr_out;
  auto admitted = [&] {
    AdmissionTimer timer(self.bus_->tracer());
    return self.admission_->admit_eer(self.db_, areq, now_sec);
  }();
  if (!admitted) return fail(self, pkt, admitted.error());

  msg.granted.push_back(admitted.value());
  std::optional<Reply> reply;
  if (!is_dest) {
    reply = forward(self, pkt, ap, msg.ases[hop + 1]);
  } else {
    reply = bottleneck_reply(hop, msg.granted, pkt.resinfo.bw_kbps);
    reply->resp.sealed_hopauths.assign(msg.ases.size(), Bytes{});
  }
  if (!reply || !reply->resp.success) {
    return unwind(self, pkt, std::move(reply), &undo_eer);
  }

  proto::ResInfo final_ri = pkt.resinfo;
  final_ri.bw_kbps = reply->resp.final_bw_kbps;
  store_eer(self, pkt, msg, final_ri.bw_kbps);

  // Issue the hop authenticator σ_i over the *final* reservation
  // parameters (Eq. 4) and seal it for the source AS (Eq. 5).
  const dataplane::HopAuth sigma = dataplane::compute_hopauth(
      self.hop_cipher_, final_ri, pkt.eerinfo, msg.path[hop].ingress,
      msg.path[hop].egress);
  std::uint8_t nonce[16];
  self.rng_.fill(nonce, sizeof(nonce));
  const Bytes aad = wire::hopauth_aad(final_ri, hop);
  if (hop < reply->resp.sealed_hopauths.size()) {
    reply->resp.sealed_hopauths[hop] =
        src.seal(BytesView(nonce, sizeof(nonce)), aad,
                 BytesView(sigma.data(), sigma.size()));
  }
  self.metrics_.eer_granted.inc();
  granted(self, pkt, pkt.resinfo.version, final_ri.bw_kbps,
          pkt.resinfo.exp_time);
  return reply;
}

void Handlers::undo_eer(CServ& self, const proto::Packet& pkt) {
  self.admission_->release_eer(self.db_, pkt.resinfo.key());
}

void Handlers::store_eer(CServ& self, const proto::Packet& pkt,
                         const proto::EerRequest& msg, BwKbps final_bw) {
  reservation::EerVersion ver;
  ver.version = pkt.resinfo.version;
  ver.bw_kbps = final_bw;
  ver.exp_time = pkt.resinfo.exp_time;

  const bool updated = self.db_.with_eer(
      pkt.resinfo.key(), [&](reservation::EerRecord* stored) {
        if (stored == nullptr) return false;
        stored->prune(self.clock_->now_sec());
        stored->versions.push_back(ver);
        if (self.wal_ != nullptr) self.wal_->log_eer_upsert(*stored);
        return true;
      });
  if (updated) return;
  reservation::EerRecord rec;
  rec.key = pkt.resinfo.key();
  rec.src_host = pkt.eerinfo.src_host;
  rec.dst_host = pkt.eerinfo.dst_host;
  rec.path = msg.path;
  rec.local_hop = pkt.current_hop;
  rec.segrs = msg.segrs;
  rec.versions.push_back(ver);
  self.db_.upsert_eer(std::move(rec), [&](reservation::EerRecord& stored) {
    if (self.wal_ != nullptr) self.wal_->log_eer_upsert(stored);
  });
}

}  // namespace colibri::cserv
