// End-to-end-reservation store: one ReservationDb shard's EERs, keyed by
// (SrcAS, ResId). Each EER is filed in the store's expiry index under its
// latest version's expiry (EERs expire automatically, §4.2), so a sweep
// pops only the EERs due by `now` and a renewal in place costs nothing.
// There is no per-SegR secondary index: nothing on the control plane
// enumerates the EERs riding a SegR (the per-SegR totals live in
// SegrRecord::eer_allocated_kbps).
#pragma once

#include "colibri/reservation/store.hpp"

namespace colibri::reservation {

using EerStore = RecordStore<EerRecord>;

}  // namespace colibri::reservation
