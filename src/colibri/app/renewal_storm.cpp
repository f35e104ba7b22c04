#include "colibri/app/renewal_storm.hpp"

#include <algorithm>
#include <vector>

namespace colibri::app {

RenewalStorm::RenewalStorm(RenewalStormConfig cfg)
    : cfg_(cfg), owner_(AsId::from_raw(1)), db_(owner_) {}

void RenewalStorm::populate() {
  const topology::Hop hop{owner_, kNoInterface, kNoInterface};
  std::vector<ResKey> segr_keys;
  segr_keys.reserve(cfg_.num_segrs);
  for (size_t i = 0; i < cfg_.num_segrs; ++i) {
    reservation::SegrRecord rec;
    rec.key = ResKey{owner_, db_.next_res_id()};
    rec.seg_type = topology::SegType::kUp;
    rec.hops = {hop};
    rec.local_hop = 0;
    rec.active.version = 0;
    rec.active.bw_kbps = cfg_.segr_bw_kbps;
    rec.active.exp_time = cfg_.setup_time + reservation::kSegrLifetimeSec;
    segr_keys.push_back(rec.key);
    db_.upsert_segr(std::move(rec));
  }

  for (size_t i = 0; i < cfg_.num_eers; ++i) {
    const ResKey eer_key{owner_, db_.next_res_id()};
    const ResKey segr_key = segr_keys[i % segr_keys.size()];
    admission::EerAdmission::Request req;
    req.eer_key = eer_key;
    req.demand_kbps = cfg_.eer_bw_kbps;
    req.min_bw_kbps = 0;
    req.segr_in = segr_key;
    auto granted = admission_.admit(db_, req, cfg_.setup_time);
    if (!granted) continue;

    reservation::EerRecord rec;
    rec.key = eer_key;
    rec.src_host = HostAddr::from_u64(0x50 + i);
    rec.dst_host = HostAddr::from_u64(0xd0 + i);
    rec.path = {hop};
    rec.local_hop = 0;
    rec.segrs = {segr_key};
    reservation::EerVersion ver;
    ver.version = 0;
    ver.bw_kbps = granted.value();
    ver.exp_time = storm_expiry();  // the whole fleet comes due together
    rec.versions.push_back(ver);
    db_.upsert_eer(std::move(rec));
  }
}

bool RenewalStorm::renew_direct(const ResKey& eer_key, UnixSec now) {
  ResKey segr_key;
  const bool found =
      db_.with_eer(eer_key, [&](reservation::EerRecord* rec) {
        if (rec == nullptr || rec->segrs.empty()) return false;
        segr_key = rec->segrs.front();
        return true;
      });
  if (!found) return false;

  admission::EerAdmission::Request req;
  req.eer_key = eer_key;
  req.demand_kbps = cfg_.eer_bw_kbps;
  req.min_bw_kbps = 0;
  req.segr_in = segr_key;
  auto granted = admission_.admit(db_, req, now);
  if (!granted) return false;

  db_.with_eer(eer_key, [&](reservation::EerRecord* rec) {
    if (rec == nullptr) return;
    rec->prune(now);
    ResVer next = 0;
    for (const auto& v : rec->versions) next = std::max(next, v.version);
    reservation::EerVersion ver;
    ver.version = static_cast<ResVer>(next + 1);
    ver.bw_kbps = granted.value();
    ver.exp_time = now + cfg_.renew_lifetime_sec;
    rec->versions.push_back(ver);
  });
  return true;
}

RenewalStormStats RenewalStorm::drain_batched(UnixSec now) {
  std::vector<ResKey> keys;
  keys.reserve(db_.eer_count());
  db_.for_each_eer(
      [&](const reservation::EerRecord& rec) { keys.push_back(rec.key); });
  std::sort(keys.begin(), keys.end());  // one source AS: ResId order
  RenewalStormStats st;
  for (const ResKey& key : keys) {
    if (renew_direct(key, now)) {
      ++st.renewed;
    } else {
      ++st.failed;
    }
  }
  return st;
}

}  // namespace colibri::app
