// On-path request processing: the forward pass (admission hop by hop) and
// the backward pass (token / HopAuth issuance) of Fig. 1a/1b.
#include <algorithm>
#include <chrono>

#include "colibri/crypto/eax.hpp"
#include "colibri/cserv/cserv.hpp"
#include "colibri/cserv/wire_internal.hpp"
#include "colibri/dataplane/hvf.hpp"

namespace colibri::cserv {

// Friend of CServ; stateless — every function takes the service as `self`.
class Handlers {
 public:
  static Bytes process_request(CServ& self, proto::Packet pkt);

 private:
  static Bytes fail(CServ& self, const proto::Packet& pkt, Errc code,
                    std::uint8_t hop);
  static Bytes respond(CServ& self, const proto::Packet& pkt,
                       const proto::ControlResponse& resp);

  static drkey::Key128 source_key(CServ& self, const proto::ResInfo& ri);
  static bool verify_payload_mac(const crypto::Cmac& src_mac,
                                 const proto::AuthedPayload& ap,
                                 const proto::ResInfo& ri, std::uint8_t hop);

  static Bytes handle_seg(CServ& self, proto::Packet& pkt,
                          proto::AuthedPayload& ap);
  static Bytes handle_seg_activation(CServ& self, proto::Packet& pkt,
                                     proto::AuthedPayload& ap);
  static Bytes handle_eer(CServ& self, proto::Packet& pkt,
                          proto::AuthedPayload& ap);

  static Bytes forward_and_unwind_seg(CServ& self, proto::Packet& pkt,
                                      proto::AuthedPayload& ap,
                                      const proto::SegRequest& msg,
                                      BwKbps my_grant);
  static Bytes forward_and_unwind_eer(CServ& self, proto::Packet& pkt,
                                      proto::AuthedPayload& ap,
                                      const proto::EerRequest& msg,
                                      BwKbps my_grant,
                                      const crypto::Eax& src_ctx);

  static void store_segr(CServ& self, const proto::Packet& pkt,
                         const proto::SegRequest& msg, BwKbps final_bw,
                         bool renewal);
  static void store_eer(CServ& self, const proto::Packet& pkt,
                        const proto::EerRequest& msg, BwKbps final_bw);
};

namespace {

const char* request_name(proto::PacketType t) {
  switch (t) {
    case proto::PacketType::kSegSetup: return "seg-setup";
    case proto::PacketType::kSegRenewal: return "seg-renewal";
    case proto::PacketType::kSegActivation: return "seg-activation";
    case proto::PacketType::kEerSetup: return "eer-setup";
    case proto::PacketType::kEerRenewal: return "eer-renewal";
    default: return "unknown";
  }
}

// Re-stamps the trace context for the next hop: the forwarded packet
// becomes a child span of this AS's delivery span, so each AS on the
// path opens a child of the upstream hop (never a disconnected root).
// No-op when tracing is off — the packet then carries no trace block
// and the wire bytes are identical to the pre-extension format.
void stamp_child_context(MessageBus& bus, proto::Packet& fwd) {
  if (!bus.tracing_active()) return;
  const proto::TraceContext ctx = bus.child_context();
  fwd.trace = ctx;
  fwd.has_trace = ctx.present();
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

Bytes Handlers::fail(CServ& self, const proto::Packet& pkt, Errc code,
                     std::uint8_t hop) {
  // Every refusal funnels through here, so this is the single audit
  // point for denials: the event names the refusing AS (the bottleneck
  // location the initiator learns per §3.3) and the unified reason.
  if (self.cfg_.events != nullptr) {
    self.cfg_.events
        ->emit(telemetry::Severity::kWarn, "cserv", "request.denied")
        .str("as", self.local_.to_string())
        .str("request", request_name(pkt.type))
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
  proto::ControlResponse resp;
  resp.success = false;
  resp.fail_code = code;
  resp.fail_hop = hop;
  return respond(self, pkt, resp);
}

Bytes Handlers::respond(CServ& self, const proto::Packet& pkt,
                        const proto::ControlResponse& resp) {
  return proto::encode_packet(self.make_response_packet(pkt, resp));
}

drkey::Key128 Handlers::source_key(CServ& self, const proto::ResInfo& ri) {
  // K_{me -> SrcAS}: derived on the fly from the local secret value, once
  // per request — no per-source state, which is what makes request
  // filtering DoC-resistant (§5.3).
  return self.drkey_engine_.as_key(ri.src_as, self.clock_->now_sec());
}

bool Handlers::verify_payload_mac(const crypto::Cmac& src_mac,
                                  const proto::AuthedPayload& ap,
                                  const proto::ResInfo& ri, std::uint8_t hop) {
  if (hop >= ap.macs.size()) return false;
  const Bytes input = proto::auth_input(ap.message, ri);
  std::uint8_t tag[crypto::Cmac::kTagSize];
  src_mac.compute(input, tag);
  return crypto::Cmac::verify_prefix(tag, ap.macs[hop].data(), sizeof(tag));
}

Bytes Handlers::process_request(CServ& self, proto::Packet pkt) {
  auto ap = proto::decode_authed(pkt.payload);
  if (!ap) return fail(self, pkt, Errc::kMalformed, pkt.current_hop);

  switch (pkt.type) {
    case proto::PacketType::kSegSetup:
    case proto::PacketType::kSegRenewal:
      return handle_seg(self, pkt, *ap);
    case proto::PacketType::kSegActivation:
      return handle_seg_activation(self, pkt, *ap);
    case proto::PacketType::kEerSetup:
    case proto::PacketType::kEerRenewal:
      return handle_eer(self, pkt, *ap);
    default:
      return fail(self, pkt, Errc::kMalformed, pkt.current_hop);
  }
}

// --- segment reservations ---------------------------------------------------

Bytes Handlers::handle_seg(CServ& self, proto::Packet& pkt,
                           proto::AuthedPayload& ap) {
  auto* msg = std::get_if<proto::SegRequest>(&ap.message);
  const std::uint8_t hop = pkt.current_hop;
  if (msg == nullptr || hop >= msg->ases.size() ||
      msg->ases.size() != pkt.path.size() || msg->ases[hop] != self.local_) {
    return fail(self, pkt, Errc::kMalformed, hop);
  }
  self.metrics_.seg_requests.inc();
  const TimeNs now = self.clock_->now_ns();

  const crypto::Cmac src_mac(source_key(self, pkt.resinfo).bytes.data());
  if (!verify_payload_mac(src_mac, ap, pkt.resinfo, hop)) {
    self.metrics_.auth_failures.inc();
    return fail(self, pkt, Errc::kAuthFailed, hop);
  }
  if (!self.rate_limiter_.allow_request(pkt.resinfo.src_as, now)) {
    self.metrics_.rate_limited.inc();
    return fail(self, pkt, Errc::kRateLimited, hop);
  }
  if (self.denied_sources_.contains(pkt.resinfo.src_as)) {
    return fail(self, pkt, Errc::kBlocked, hop);
  }
  const bool renewal = pkt.type == proto::PacketType::kSegRenewal;
  if (renewal) {
    if (!self.db_.contains_segr(pkt.resinfo.key())) {
      return fail(self, pkt, Errc::kNoSuchReservation, hop);
    }
    if (!self.rate_limiter_.allow_renewal(pkt.resinfo.key(), now)) {
      self.metrics_.rate_limited.inc();
      return fail(self, pkt, Errc::kRateLimited, hop);
    }
  }

  // Admission (§4.7): how much can this AS grant between the request's
  // ingress and egress interfaces? O(1) in existing SegRs.
  admission::SegrAdmissionRequest areq;
  areq.now = self.clock_->now_sec();
  areq.src_as = pkt.resinfo.src_as;
  areq.key = pkt.resinfo.key();
  areq.ingress = pkt.path[hop].ingress;
  areq.egress = pkt.path[hop].egress;
  areq.min_bw_kbps = msg->min_bw_kbps;
  areq.demand_kbps = msg->max_bw_kbps;
  auto admitted = [&] {
    AdmissionTimer timer(self.bus_->tracer());
    return self.admission_->admit_segr(areq);
  }();
  if (!admitted) {
    // Clean up and tell the initiator where the bottleneck is (§3.3).
    return fail(self, pkt, admitted.error(), hop);
  }
  return forward_and_unwind_seg(self, pkt, ap, *msg, admitted.value());
}

Bytes Handlers::forward_and_unwind_seg(CServ& self, proto::Packet& pkt,
                                       proto::AuthedPayload& ap,
                                       const proto::SegRequest& msg,
                                       BwKbps my_grant) {
  const std::uint8_t hop = pkt.current_hop;
  const bool renewal = pkt.type == proto::PacketType::kSegRenewal;
  const bool last = hop + 1u >= msg.ases.size();

  Bytes resp_wire;
  if (last) {
    proto::ControlResponse resp;
    resp.success = true;
    BwKbps final_bw = my_grant;
    auto granted = msg.granted;
    granted.push_back(my_grant);
    for (BwKbps g : granted) final_bw = std::min(final_bw, g);
    resp.final_bw_kbps = std::min(final_bw, msg.max_bw_kbps);
    resp.tokens.assign(msg.ases.size(), proto::Hvf{});
    resp_wire = respond(self, pkt, resp);
  } else {
    // Forward pass: record our grant and hand the request to the next AS.
    auto* fwd_msg = std::get_if<proto::SegRequest>(&ap.message);
    fwd_msg->granted.push_back(my_grant);
    proto::Packet fwd = pkt;
    fwd.current_hop = hop + 1;
    fwd.payload = proto::encode_authed(ap);
    stamp_child_context(*self.bus_, fwd);
    resp_wire = self.bus_->call(msg.ases[hop + 1], wire::packet_frame(proto::encode_packet(fwd)));
  }

  // Backward pass.
  auto resp_pkt = proto::decode_packet(resp_wire);
  auto resp_ap = resp_pkt ? proto::decode_authed(resp_pkt->payload)
                          : std::nullopt;
  auto* resp = resp_ap ? std::get_if<proto::ControlResponse>(&resp_ap->message)
                       : nullptr;
  if (resp == nullptr) {
    self.admission_->release_segr(pkt.resinfo.key());
    return fail(self, pkt, Errc::kInternal, hop);
  }
  if (!resp->success) {
    // Unsuccessful request: clean up the temporary allocation (§3.3).
    if (renewal) {
      // Restore the active version's allocation.
      if (const auto rec = self.db_.segr_copy(pkt.resinfo.key())) {
        admission::SegrAdmissionRequest restore;
        restore.now = self.clock_->now_sec();
        restore.src_as = pkt.resinfo.src_as;
        restore.key = pkt.resinfo.key();
        restore.ingress = pkt.path[hop].ingress;
        restore.egress = pkt.path[hop].egress;
        restore.min_bw_kbps = 0;
        restore.demand_kbps = rec->active.bw_kbps;
        (void)self.admission_->admit_segr(restore);
      }
    } else {
      self.admission_->release_segr(pkt.resinfo.key());
    }
    return resp_wire;
  }

  // Success: store the final bandwidth, shrink the ledger entry to it, and
  // contribute our token (Eq. 3).
  const BwKbps final_bw = resp->final_bw_kbps;
  admission::SegrAdmissionRequest finalize;
  finalize.now = self.clock_->now_sec();
  finalize.src_as = pkt.resinfo.src_as;
  finalize.key = pkt.resinfo.key();
  finalize.ingress = pkt.path[hop].ingress;
  finalize.egress = pkt.path[hop].egress;
  finalize.min_bw_kbps = 0;
  finalize.demand_kbps = final_bw;
  (void)self.admission_->admit_segr(finalize);

  store_segr(self, pkt, msg, final_bw, renewal);

  proto::ResInfo final_ri = pkt.resinfo;
  final_ri.bw_kbps = final_bw;
  if (hop < resp->tokens.size()) {
    resp->tokens[hop] = dataplane::compute_seg_hvf(
        self.hop_cipher_, final_ri, pkt.path[hop].ingress,
        pkt.path[hop].egress);
  }
  self.metrics_.seg_granted.inc();
  if (self.cfg_.events != nullptr) {
    self.cfg_.events
        ->emit(telemetry::Severity::kInfo, "cserv",
               renewal ? "segr.renewed" : "segr.admitted")
        .str("as", self.local_.to_string())
        .str("src_as", pkt.resinfo.src_as.to_string())
        .u64("res_id", pkt.resinfo.res_id)
        .u64("version", pkt.resinfo.version)
        .u64("bw_kbps", final_bw)
        .u64("exp_time", pkt.resinfo.exp_time)
        .u64("hop", hop);
  }
  // Trace-context propagation: this handler ran under the bus span of
  // the hop call that delivered the request, so tag that span with what
  // this AS decided — the Perfetto export then shows the admission
  // verdict on every hop of the setup without a context parameter.
  telemetry::SpanCollector& tracer = self.bus_->tracer();
  if (tracer.in_span()) {
    tracer.annotate("verdict", renewal ? "segr.renewed" : "segr.admitted");
    tracer.annotate("res_id", std::to_string(pkt.resinfo.res_id));
    tracer.annotate("bw_kbps", std::to_string(final_bw));
  }

  resp_pkt->payload = proto::encode_authed(*resp_ap);
  return proto::encode_packet(*resp_pkt);
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

Bytes Handlers::handle_seg_activation(CServ& self, proto::Packet& pkt,
                                      proto::AuthedPayload& ap) {
  auto* msg = std::get_if<proto::SegActivation>(&ap.message);
  const std::uint8_t hop = pkt.current_hop;
  if (msg == nullptr) return fail(self, pkt, Errc::kMalformed, hop);
  const crypto::Cmac src_mac(source_key(self, pkt.resinfo).bytes.data());
  if (!verify_payload_mac(src_mac, ap, pkt.resinfo, hop)) {
    self.metrics_.auth_failures.inc();
    return fail(self, pkt, Errc::kAuthFailed, hop);
  }
  const auto rec = self.db_.segr_copy(pkt.resinfo.key());
  if (!rec) {
    return fail(self, pkt, Errc::kNoSuchReservation, hop);
  }
  if (!rec->pending || rec->pending->version != msg->version) {
    return fail(self, pkt, Errc::kBadVersion, hop);
  }

  const bool last = hop + 1u >= rec->hops.size();
  Bytes resp_wire;
  if (last) {
    proto::ControlResponse resp;
    resp.success = true;
    resp.final_bw_kbps = rec->pending->bw_kbps;
    resp_wire = respond(self, pkt, resp);
  } else {
    proto::Packet fwd = pkt;
    fwd.current_hop = hop + 1;
    stamp_child_context(*self.bus_, fwd);
    resp_wire =
        self.bus_->call(rec->hops[hop + 1].as, wire::packet_frame(proto::encode_packet(fwd)));
  }
  auto resp_pkt = proto::decode_packet(resp_wire);
  auto resp_ap =
      resp_pkt ? proto::decode_authed(resp_pkt->payload) : std::nullopt;
  auto* resp = resp_ap ? std::get_if<proto::ControlResponse>(&resp_ap->message)
                       : nullptr;
  if (resp == nullptr || !resp->success) return resp_wire;

  // Switch: only one version of a SegR is ever live (§4.2). Re-validate
  // under the shard lock — the record may have been swept or renewed
  // again while the activation crossed the bus.
  reservation::SegrVersion activated;
  const bool switched = self.db_.with_segr(
      pkt.resinfo.key(), [&](reservation::SegrRecord* stored) {
        if (stored == nullptr || !stored->pending ||
            stored->pending->version != msg->version) {
          return false;
        }
        stored->active = *stored->pending;
        stored->pending.reset();
        activated = stored->active;
        if (self.wal_ != nullptr) self.wal_->log_segr_upsert(*stored);
        return true;
      });
  if (!switched) return fail(self, pkt, Errc::kBadVersion, hop);
  if (self.cfg_.events != nullptr) {
    self.cfg_.events
        ->emit(telemetry::Severity::kInfo, "cserv", "segr.activated")
        .str("as", self.local_.to_string())
        .str("src_as", pkt.resinfo.src_as.to_string())
        .u64("res_id", pkt.resinfo.res_id)
        .u64("version", msg->version)
        .u64("bw_kbps", activated.bw_kbps)
        .u64("exp_time", activated.exp_time);
  }
  telemetry::SpanCollector& tracer = self.bus_->tracer();
  if (tracer.in_span()) {
    tracer.annotate("verdict", "segr.activated");
    tracer.annotate("res_id", std::to_string(pkt.resinfo.res_id));
    tracer.annotate("version", std::to_string(msg->version));
  }
  return resp_wire;
}

// --- end-to-end reservations --------------------------------------------------

Bytes Handlers::handle_eer(CServ& self, proto::Packet& pkt,
                           proto::AuthedPayload& ap) {
  auto* msg = std::get_if<proto::EerRequest>(&ap.message);
  const std::uint8_t hop = pkt.current_hop;
  if (msg == nullptr || hop >= msg->ases.size() ||
      msg->ases.size() != msg->path.size() || msg->ases[hop] != self.local_) {
    return fail(self, pkt, Errc::kMalformed, hop);
  }
  self.metrics_.eer_requests.inc();
  const TimeNs now = self.clock_->now_ns();
  const UnixSec now_sec = self.clock_->now_sec();

  // One context under K_{me -> SrcAS} checks the request's MAC here and
  // seals this AS's hop authenticator on the way back.
  const crypto::Eax src_ctx(source_key(self, pkt.resinfo).bytes.data());
  if (!verify_payload_mac(src_ctx.cmac(), ap, pkt.resinfo, hop)) {
    self.metrics_.auth_failures.inc();
    return fail(self, pkt, Errc::kAuthFailed, hop);
  }
  if (!self.rate_limiter_.allow_request(pkt.resinfo.src_as, now)) {
    self.metrics_.rate_limited.inc();
    return fail(self, pkt, Errc::kRateLimited, hop);
  }
  if (self.denied_sources_.contains(pkt.resinfo.src_as)) {
    return fail(self, pkt, Errc::kBlocked, hop);
  }
  const bool renewal = pkt.type == proto::PacketType::kEerRenewal;
  if (renewal && !self.rate_limiter_.allow_renewal(pkt.resinfo.key(), now)) {
    self.metrics_.rate_limited.inc();
    return fail(self, pkt, Errc::kRateLimited, hop);
  }

  // Locate the SegR(s) this EER rides at this AS: one for source/transit/
  // destination ASes, two at a transfer AS (§4.1). The checks below run
  // on copies; admission re-reads the records under their shard locks.
  std::optional<ResKey> segr_in;
  std::optional<ResKey> segr_out;
  std::vector<reservation::SegrRecord> rides;
  for (const ResKey& sk : msg->segrs) {
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
    return fail(self, pkt, Errc::kNoSuchSegment, hop);
  }
  for (const reservation::SegrRecord& rec : rides) {
    if (rec.expired(now_sec)) {
      // App. C: signal expiry so the initiator can invalidate its cache
      // and retry with the new version.
      return fail(self, pkt, Errc::kExpired, hop);
    }
  }
  // Whitelist enforcement by the SegR's initiating AS (App. C).
  for (const reservation::SegrRecord& rec : rides) {
    if (rec.hops[rec.local_hop].as != rec.hops[0].as) continue;
    if (rec.key.src_as != self.local_) continue;
    if (auto advert = self.registry_.find(rec.key);
        advert && !advert->usable_by(pkt.resinfo.src_as)) {
      return fail(self, pkt, Errc::kNotWhitelisted, hop);
    }
  }

  // The demanded bandwidth travels in the header ResInfo (§4.4).
  BwKbps demand = pkt.resinfo.bw_kbps;
  // Source/destination policy (§4.7): per-host cap.
  const bool is_source = hop == 0;
  const bool is_dest = hop + 1u >= msg->ases.size();
  if (is_source || is_dest) {
    if (msg->min_bw_kbps > self.cfg_.per_host_eer_cap_kbps) {
      self.metrics_.policy_denied.inc();
      return fail(self, pkt, Errc::kPolicyDenied, hop);
    }
    demand = std::min(demand, self.cfg_.per_host_eer_cap_kbps);
  }
  // Destination host acceptance (§4.4).
  if (is_dest && self.host_acceptor_ &&
      !self.host_acceptor_(pkt.eerinfo, demand)) {
    self.metrics_.policy_denied.inc();
    return fail(self, pkt, Errc::kPolicyDenied, hop);
  }

  admission::EerAdmission::Request areq;
  areq.eer_key = pkt.resinfo.key();
  areq.demand_kbps = demand;
  areq.min_bw_kbps = msg->min_bw_kbps;
  areq.segr_in = segr_in;
  areq.segr_out = segr_out;
  auto admitted = [&] {
    AdmissionTimer timer(self.bus_->tracer());
    return self.admission_->admit_eer(self.db_, areq, now_sec);
  }();
  if (!admitted) return fail(self, pkt, admitted.error(), hop);

  return forward_and_unwind_eer(self, pkt, ap, *msg, admitted.value(),
                                src_ctx);
}

Bytes Handlers::forward_and_unwind_eer(CServ& self, proto::Packet& pkt,
                                       proto::AuthedPayload& ap,
                                       const proto::EerRequest& msg,
                                       BwKbps my_grant,
                                       const crypto::Eax& src_ctx) {
  const std::uint8_t hop = pkt.current_hop;
  const bool last = hop + 1u >= msg.ases.size();

  Bytes resp_wire;
  if (last) {
    proto::ControlResponse resp;
    resp.success = true;
    BwKbps final_bw = my_grant;
    auto granted = msg.granted;
    granted.push_back(my_grant);
    for (BwKbps g : granted) final_bw = std::min(final_bw, g);
    resp.final_bw_kbps = std::min(final_bw, pkt.resinfo.bw_kbps);
    resp.sealed_hopauths.assign(msg.ases.size(), Bytes{});
    resp_wire = respond(self, pkt, resp);
  } else {
    auto* fwd_msg = std::get_if<proto::EerRequest>(&ap.message);
    fwd_msg->granted.push_back(my_grant);
    // At a transfer AS the request payload is copied into a fresh Colibri
    // packet for the next SegR (§4.4); in this model that is the re-encoded
    // packet handed to the next AS.
    proto::Packet fwd = pkt;
    fwd.current_hop = hop + 1;
    fwd.payload = proto::encode_authed(ap);
    stamp_child_context(*self.bus_, fwd);
    resp_wire = self.bus_->call(msg.ases[hop + 1], wire::packet_frame(proto::encode_packet(fwd)));
  }

  auto resp_pkt = proto::decode_packet(resp_wire);
  auto resp_ap =
      resp_pkt ? proto::decode_authed(resp_pkt->payload) : std::nullopt;
  auto* resp = resp_ap ? std::get_if<proto::ControlResponse>(&resp_ap->message)
                       : nullptr;
  if (resp == nullptr) {
    self.admission_->release_eer(self.db_, pkt.resinfo.key());
    return fail(self, pkt, Errc::kInternal, hop);
  }
  if (!resp->success) {
    self.admission_->release_eer(self.db_, pkt.resinfo.key());
    return resp_wire;
  }

  const BwKbps final_bw = resp->final_bw_kbps;
  store_eer(self, pkt, msg, final_bw);

  // Issue the hop authenticator σ_i over the *final* reservation
  // parameters (Eq. 4) and seal it for the source AS (Eq. 5).
  proto::ResInfo final_ri = pkt.resinfo;
  final_ri.bw_kbps = final_bw;
  const dataplane::HopAuth sigma = dataplane::compute_hopauth(
      self.hop_cipher_, final_ri, pkt.eerinfo, msg.path[hop].ingress,
      msg.path[hop].egress);

  std::uint8_t nonce[16];
  self.rng_.fill(nonce, sizeof(nonce));
  const Bytes aad = wire::hopauth_aad(final_ri, hop);
  if (hop < resp->sealed_hopauths.size()) {
    resp->sealed_hopauths[hop] =
        src_ctx.seal(BytesView(nonce, sizeof(nonce)), aad,
                     BytesView(sigma.data(), sigma.size()));
  }
  self.metrics_.eer_granted.inc();
  if (self.cfg_.events != nullptr) {
    self.cfg_.events
        ->emit(telemetry::Severity::kInfo, "cserv",
               pkt.type == proto::PacketType::kEerRenewal ? "eer.renewed"
                                                          : "eer.admitted")
        .str("as", self.local_.to_string())
        .str("src_as", pkt.resinfo.src_as.to_string())
        .u64("res_id", pkt.resinfo.res_id)
        .u64("version", pkt.resinfo.version)
        .u64("bw_kbps", final_bw)
        .u64("exp_time", pkt.resinfo.exp_time)
        .u64("hop", hop);
  }
  telemetry::SpanCollector& tracer = self.bus_->tracer();
  if (tracer.in_span()) {
    tracer.annotate("verdict", pkt.type == proto::PacketType::kEerRenewal
                                   ? "eer.renewed"
                                   : "eer.admitted");
    tracer.annotate("res_id", std::to_string(pkt.resinfo.res_id));
    tracer.annotate("bw_kbps", std::to_string(final_bw));
  }

  resp_pkt->payload = proto::encode_authed(*resp_ap);
  return proto::encode_packet(*resp_pkt);
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

// Out-of-line bridge used by CServ (declared friend).
Bytes process_request_bridge(CServ& self, proto::Packet pkt) {
  return Handlers::process_request(self, std::move(pkt));
}

}  // namespace colibri::cserv
