#include "colibri/cserv/renewal_manager.hpp"

#include <algorithm>

#include "colibri/cserv/failover.hpp"

namespace colibri::cserv {

size_t RenewalManager::manage_all_local() {
  size_t added = 0;
  cserv_->db().for_each_segr([&](const reservation::SegrRecord& rec) {
    if (rec.key.src_as == cserv_->local_as() &&
        !forecasters_.contains(rec.key)) {
      forecasters_.try_emplace(rec.key, cfg_.forecast);
      ++added;
    }
  });
  return added;
}

std::vector<ResKey> RenewalManager::plan(UnixSec now) {
  const reservation::ReservationDb& db = cserv_->db();
  std::vector<ResKey> due;
  std::vector<ResKey> gone;
  for (auto& [key, forecaster] : forecasters_) {
    const auto rec = db.segr_copy(key);
    if (!rec) {
      gone.push_back(key);
      continue;
    }
    // Observe utilization: the EER bandwidth currently riding this SegR.
    forecaster.observe(rec->eer_allocated_kbps);
    if (rec->active.exp_time > now + cfg_.lead_sec) continue;  // not due
    due.push_back(key);
  }
  for (const auto& key : gone) forecasters_.erase(key);

  std::sort(due.begin(), due.end(), [](const ResKey& a, const ResKey& b) {
    return a.res_id != b.res_id ? a.res_id < b.res_id
                                : a.src_as.raw() < b.src_as.raw();
  });
  return due;
}

void RenewalManager::renew_one(const ResKey& key, UnixSec now) {
  const auto rec = cserv_->db().segr_copy(key);
  if (!rec) return;  // swept between plan and drain
  if (cserv_->failover() != nullptr &&
      cserv_->failover()->renewal_suppressed(key)) {
    // Failed-over primary: its path crosses a dead link, so renewing it
    // would chase that link with control traffic. The backup keeps
    // renewing under its own key; the primary resumes after fail-back.
    return;
  }
  if (rec->pending && rec->pending->exp_time > now + cfg_.lead_sec) {
    // A pending version exists (e.g. from a manual renewal): activate it
    // instead of stacking another renewal on top.
    if (cserv_->activate_segr(key, rec->pending->version).ok()) {
      metrics_.activated.inc();
    }
    return;
  }

  // Renew at the forecast demand, never below the current utilization
  // (shrinking under live EERs would strand them at version switch).
  auto it = forecasters_.find(key);
  const BwKbps forecast = it != forecasters_.end() ? it->second.recommend() : 0;
  const BwKbps demand = std::max(forecast, rec->eer_allocated_kbps);
  auto renewed = cserv_->renew_segr(key, cfg_.min_bw_kbps, demand);
  telemetry::EventLog* events = cserv_->event_log();
  if (!renewed.ok()) {
    metrics_.failed.inc();
    if (events != nullptr) {
      events->emit(telemetry::Severity::kWarn, "renewal", "segr.failed")
          .str("as", cserv_->local_as().to_string())
          .str("src_as", key.src_as.to_string())
          .u64("res_id", key.res_id)
          .str("reason", errc_name(renewed.error()))
          .u64("demand_kbps", demand);
    }
    return;
  }
  metrics_.renewed.inc();
  if (events != nullptr) {
    events->emit(telemetry::Severity::kInfo, "renewal", "segr.renewed")
        .str("as", cserv_->local_as().to_string())
        .str("src_as", key.src_as.to_string())
        .u64("res_id", key.res_id)
        .u64("version", renewed.value().version)
        .u64("bw_kbps", renewed.value().bw_kbps)
        .u64("exp_time", renewed.value().exp_time);
  }
  if (cserv_->activate_segr(key, renewed.value().version).ok()) {
    metrics_.activated.inc();
    if (events != nullptr) {
      events->emit(telemetry::Severity::kInfo, "renewal", "segr.activated")
          .str("as", cserv_->local_as().to_string())
          .str("src_as", key.src_as.to_string())
          .u64("res_id", key.res_id)
          .u64("version", renewed.value().version);
    }
    if (cfg_.republish) {
      // Preserve the advert (and its whitelist) across the version bump.
      std::vector<AsId> whitelist;
      if (auto advert = cserv_->registry().find(key)) {
        whitelist = advert->whitelist;
      }
      cserv_->publish_segr(key, std::move(whitelist));
    }
  }
}

void RenewalManager::tick(UnixSec now) {
  const std::vector<ResKey> due = plan(now);
  if (!due.empty()) metrics_.batches.inc();
  for (const ResKey& key : due) renew_one(key, now);
  last_due_ = due.size();
}

}  // namespace colibri::cserv
