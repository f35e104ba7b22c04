// Segment-reservation store: a ReservationDb's SegRs, keyed by
// (SrcAS, ResId). The paper stores reservations in a transactional
// database; here an in-memory map whose lookups on the admission path are
// O(1) (the admission algorithm itself never iterates, see
// admission/tube.hpp — that is the point of Fig. 3). Each SegR is filed in
// the store's expiry index under the later of its active and pending
// expiry, so a sweep pops only the SegRs due by `now`. There is no
// interface-pair index: admission keeps its own per-interface ledgers.
#pragma once

#include "colibri/reservation/store.hpp"

namespace colibri::reservation {

using SegrStore = RecordStore<SegrRecord>;

}  // namespace colibri::reservation
