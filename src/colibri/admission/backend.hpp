// Admission strategy seam.
//
// CServ handlers talk to admission exclusively through this interface, so
// alternative reservation models (e.g. Hummingbird-style fixed-price
// bandwidth sales) can plug in behind the same control-plane machinery.
// The bounded-tube-fairness algorithm of the paper (§4.7) is the only
// implementation today; its verdicts, error codes, and telemetry labels
// are untouched by the seam.
//
// Implementations must be safe for concurrent calls, like the locked
// ReservationDb they resolve records against.
#pragma once

#include <memory>

#include "colibri/admission/eer_admission.hpp"
#include "colibri/admission/segr_admission.hpp"

namespace colibri::admission {

class AdmissionBackend {
 public:
  virtual ~AdmissionBackend();

  // Identifies the strategy in diagnostics (never in telemetry labels).
  virtual const char* name() const = 0;

  // Capacity wiring from the local traffic matrix (§4.7).
  virtual void set_interface_capacity(IfId ifid, BwKbps capacity_kbps) = 0;
  virtual BwKbps interface_capacity(IfId ifid) const = 0;

  // Segment-reservation admission (forward pass of a SegReq).
  virtual Result<BwKbps> admit_segr(const SegrAdmissionRequest& req) = 0;
  virtual void release_segr(const ResKey& key) = 0;

  // End-to-end-reservation admission; records are resolved against `db`
  // under its lock.
  virtual Result<BwKbps> admit_eer(reservation::ReservationDb& db,
                                   const EerAdmission::Request& req,
                                   UnixSec now) = 0;
  virtual void release_eer(reservation::ReservationDb& db,
                           const ResKey& eer_key) = 0;
};

// The paper's bounded-tube fairness admission: a single-coordinator
// SegrAdmission (the decision needs the complete per-egress view) plus a
// stripe-parallel EerAdmission.
class BoundedTubeBackend final : public AdmissionBackend {
 public:
  explicit BoundedTubeBackend(size_t eer_stripes = 1) : eer_(eer_stripes) {}

  const char* name() const override { return "bounded-tube"; }

  void set_interface_capacity(IfId ifid, BwKbps capacity_kbps) override {
    segr_.set_interface_capacity(ifid, capacity_kbps);
  }
  BwKbps interface_capacity(IfId ifid) const override {
    return segr_.interface_capacity(ifid);
  }

  Result<BwKbps> admit_segr(const SegrAdmissionRequest& req) override {
    return segr_.admit(req);
  }
  void release_segr(const ResKey& key) override { segr_.release(key); }

  Result<BwKbps> admit_eer(reservation::ReservationDb& db,
                           const EerAdmission::Request& req,
                           UnixSec now) override {
    return eer_.admit(db, req, now);
  }
  void release_eer(reservation::ReservationDb& db,
                   const ResKey& eer_key) override {
    eer_.release(db, eer_key);
  }

  // Ledger introspection for tests/diagnostics.
  SegrAdmission& segr() { return segr_; }
  const SegrAdmission& segr() const { return segr_; }
  EerAdmission& eer() { return eer_; }
  const EerAdmission& eer() const { return eer_; }

 private:
  SegrAdmission segr_;
  EerAdmission eer_;
};

}  // namespace colibri::admission
