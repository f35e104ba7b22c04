// Tests: reservation WAL — record codecs, replay, torn-tail recovery,
// corruption handling, checkpoint compaction, file storage.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <vector>

#include "colibri/common/rand.hpp"
#include "colibri/crypto/sha256.hpp"
#include "colibri/reservation/persist.hpp"
#include "seed_util.hpp"

namespace colibri::reservation {
namespace {

SegrRecord sample_segr(ResId id) {
  SegrRecord rec;
  rec.key = ResKey{AsId{1, 10}, id};
  rec.seg_type = topology::SegType::kCore;
  rec.hops = {topology::Hop{AsId{1, 10}, kNoInterface, 1},
              topology::Hop{AsId{1, 20}, 2, kNoInterface}};
  rec.local_hop = 1;
  rec.active = SegrVersion{2, 5000, 600};
  rec.pending = SegrVersion{3, 7000, 900};
  rec.eer_allocated_kbps = 1234;
  return rec;
}

EerRecord sample_eer(ResId id) {
  EerRecord rec;
  rec.key = ResKey{AsId{1, 10}, id};
  rec.src_host = HostAddr::from_u64(11);
  rec.dst_host = HostAddr::from_u64(22);
  rec.path = {topology::Hop{AsId{1, 10}, 0, 1}, topology::Hop{AsId{1, 20}, 2, 0}};
  rec.local_hop = 0;
  rec.segrs = {ResKey{AsId{1, 10}, 900}, ResKey{AsId{1, 20}, 901}};
  rec.versions = {EerVersion{0, 100, 50}, EerVersion{1, 150, 66}};
  return rec;
}

TEST(Crc32Test, KnownVector) {
  const Bytes msg = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(msg), 0xCBF43926u);  // the canonical CRC-32 check value
}

TEST(RecordCodecTest, SegrRoundTrip) {
  const SegrRecord rec = sample_segr(7);
  auto decoded = decode_segr_record(encode_segr_record(rec));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->key, rec.key);
  EXPECT_EQ(decoded->seg_type, rec.seg_type);
  EXPECT_EQ(decoded->hops, rec.hops);
  EXPECT_EQ(decoded->local_hop, rec.local_hop);
  EXPECT_EQ(decoded->active.bw_kbps, rec.active.bw_kbps);
  ASSERT_TRUE(decoded->pending.has_value());
  EXPECT_EQ(decoded->pending->version, 3);
  EXPECT_EQ(decoded->eer_allocated_kbps, 1234u);
}

TEST(RecordCodecTest, EerRoundTrip) {
  const EerRecord rec = sample_eer(9);
  auto decoded = decode_eer_record(encode_eer_record(rec));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->key, rec.key);
  EXPECT_EQ(decoded->src_host, rec.src_host);
  EXPECT_EQ(decoded->segrs, rec.segrs);
  ASSERT_EQ(decoded->versions.size(), 2u);
  EXPECT_EQ(decoded->versions[1].bw_kbps, 150u);
}

TEST(RecordCodecTest, RejectsTruncated) {
  const Bytes full = encode_segr_record(sample_segr(1));
  for (size_t cut = 0; cut + 1 < full.size(); cut += 7) {
    EXPECT_FALSE(
        decode_segr_record(BytesView(full.data(), cut)).has_value())
        << cut;
  }
}

TEST(WalTest, ReplayRestoresDb) {
  MemoryStorage storage;
  ReservationWal wal(storage);
  wal.log_segr_upsert(sample_segr(1));
  wal.log_segr_upsert(sample_segr(2));
  wal.log_eer_upsert(sample_eer(3));
  wal.log_segr_erase(ResKey{AsId{1, 10}, 2});

  ReservationDb db(AsId{1, 20});
  EXPECT_EQ(wal.recover(db), 4u);
  EXPECT_TRUE(db.contains_segr(ResKey{AsId{1, 10}, 1}));
  EXPECT_FALSE(db.contains_segr(ResKey{AsId{1, 10}, 2}));  // erased
  EXPECT_TRUE(db.contains_eer(ResKey{AsId{1, 10}, 3}));
}

TEST(WalTest, ReplayRestoresResIdAllocatorFloor) {
  MemoryStorage storage;
  ReservationWal wal(storage);
  wal.log_segr_upsert(sample_segr(17));
  wal.log_eer_upsert(sample_eer(523));
  // Foreign-AS record: its id must NOT advance this owner's allocator.
  EerRecord foreign = sample_eer(9000);
  foreign.key.src_as = AsId{2, 77};
  wal.log_eer_upsert(foreign);

  // The recovering db is owned by the AS that minted ids 17 and 523.
  ReservationDb db(AsId{1, 10});
  EXPECT_EQ(wal.recover(db), 3u);
  EXPECT_EQ(db.last_res_id(), 523u);
  EXPECT_EQ(db.next_res_id(), 524u);  // never re-mints a live id
}

TEST(WalTest, TornTailIsDiscarded) {
  MemoryStorage storage;
  ReservationWal wal(storage);
  wal.log_segr_upsert(sample_segr(1));
  const size_t complete = storage.raw().size();
  wal.log_segr_upsert(sample_segr(2));
  // Crash mid-write: drop half of the second record.
  storage.raw().resize(complete + (storage.raw().size() - complete) / 2);

  ReservationDb db(AsId{1, 20});
  EXPECT_EQ(wal.recover(db), 1u);
  EXPECT_TRUE(db.contains_segr(ResKey{AsId{1, 10}, 1}));
  EXPECT_FALSE(db.contains_segr(ResKey{AsId{1, 10}, 2}));
}

TEST(WalTest, CorruptRecordStopsReplay) {
  MemoryStorage storage;
  ReservationWal wal(storage);
  wal.log_segr_upsert(sample_segr(1));
  const size_t first_end = storage.raw().size();
  wal.log_segr_upsert(sample_segr(2));
  wal.log_segr_upsert(sample_segr(3));
  // Flip a payload byte of record 2: its CRC no longer matches; replay
  // must stop there and keep only record 1 (no torn state applied).
  storage.raw()[first_end + 10] ^= 0xFF;

  ReservationDb db(AsId{1, 20});
  EXPECT_EQ(wal.recover(db), 1u);
  EXPECT_EQ(db.segr_count(), 1u);
}

TEST(WalTest, CheckpointCompacts) {
  MemoryStorage storage;
  ReservationWal wal(storage);
  // Lots of churn.
  for (ResId i = 1; i <= 50; ++i) wal.log_segr_upsert(sample_segr(i));
  for (ResId i = 2; i <= 50; ++i) wal.log_segr_erase(ResKey{AsId{1, 10}, i});
  const size_t churned = storage.raw().size();

  ReservationDb db(AsId{1, 20});
  wal.recover(db);
  ASSERT_EQ(db.segr_count(), 1u);

  wal.checkpoint(db);
  EXPECT_LT(storage.raw().size(), churned / 10);

  ReservationDb fresh(AsId{1, 20});
  EXPECT_EQ(wal.recover(fresh), 1u);
  EXPECT_TRUE(fresh.contains_segr(ResKey{AsId{1, 10}, 1}));
}

TEST(WalTest, FileStorageRoundTrip) {
  const std::string path = "/tmp/colibri_wal_test.log";
  std::remove(path.c_str());
  {
    FileStorage storage(path);
    storage.truncate();
    ReservationWal wal(storage);
    wal.log_segr_upsert(sample_segr(1));
    wal.log_eer_upsert(sample_eer(2));
  }
  {
    FileStorage storage(path);
    ReservationWal wal(storage);
    ReservationDb db(AsId{1, 20});
    EXPECT_EQ(wal.recover(db), 2u);
    EXPECT_EQ(db.segr_count(), 1u);
    EXPECT_EQ(db.eer_count(), 1u);
  }
  std::remove(path.c_str());
}

// Pins the WAL's on-disk bytes: SHA-256 over the log of a fixed
// sequence of upserts and erases of both record kinds, then over the
// same log after a checkpoint compacted it and two more records were
// appended. A refactor of the framing must leave the digest as it is.
TEST(WalFormatGoldenTest, LogBytesMatchGoldenDigest) {
  MemoryStorage storage;
  ReservationWal wal(storage);
  for (ResId id = 1; id <= 4; ++id) {
    wal.log_segr_upsert(sample_segr(id));
    wal.log_eer_upsert(sample_eer(100 + id));
  }
  wal.log_segr_erase(ResKey{AsId{1, 10}, 2});
  wal.log_eer_erase(ResKey{AsId{1, 10}, 103});
  const Bytes churned = storage.raw();

  ReservationDb db(AsId{1, 20});
  ASSERT_EQ(wal.recover(db), 10u);
  wal.checkpoint(db);
  wal.log_eer_erase(ResKey{AsId{1, 10}, 101});
  wal.log_segr_upsert(sample_segr(9));
  const Bytes compacted = storage.raw();

  crypto::Sha256 digest;
  digest.update(churned);
  digest.update(compacted);
  const auto d = digest.finish();
  EXPECT_EQ(to_hex(BytesView(d.data(), d.size())),
            "3b759940199d8bd4bda429275ea1fdb2d32d0b2dc59774a65568ead0c09e4f96")
      << churned.size() << " + " << compacted.size() << " bytes";
}

TEST(WalTest, EmptyLogRecoversNothing) {
  MemoryStorage storage;
  ReservationWal wal(storage);
  ReservationDb db(AsId{1, 20});
  EXPECT_EQ(wal.recover(db), 0u);
  EXPECT_EQ(db.segr_count(), 0u);
}

// --- randomized recovery properties (see docs/TESTING.md) ---------------
//
// Build a log of n records, remember where each complete frame ends,
// then corrupt the raw bytes at a seeded-random spot. Whatever the
// damage, recovery must (a) never crash and (b) replay exactly the
// longest prefix of records untouched by it — the CRC (which spans the
// whole frame, length byte included) rejects the first damaged record
// and replay stops there.
namespace {

struct BuiltLog {
  std::vector<size_t> record_ends;  // raw offset after each append
  size_t appended = 0;
};

BuiltLog build_log(ReservationWal& wal, MemoryStorage& storage, Rng& rng) {
  BuiltLog built;
  const size_t n = 3 + rng.below(12);
  for (size_t i = 0; i < n; ++i) {
    const ResId id = static_cast<ResId>(i + 1);
    if (rng.below(3) == 0) {
      wal.log_eer_upsert(sample_eer(id));
    } else {
      wal.log_segr_upsert(sample_segr(id));
    }
    built.record_ends.push_back(storage.raw().size());
  }
  built.appended = n;
  return built;
}

size_t records_before(const BuiltLog& built, size_t damage_offset) {
  size_t intact = 0;
  for (const size_t end : built.record_ends) {
    if (end <= damage_offset) ++intact;
  }
  return intact;
}

}  // namespace

TEST(WalPropertyTest, RandomTruncationsReplayLongestCompletePrefix) {
  const std::uint64_t seed = colibri::testing::test_seed(0x7EA27A11ULL);
  COLIBRI_SEED_TRACE(seed);
  Rng rng(seed);
  for (int iter = 0; iter < 60; ++iter) {
    MemoryStorage storage;
    ReservationWal wal(storage);
    const BuiltLog built = build_log(wal, storage, rng);
    // Tear anywhere, from "everything lost" to "nothing lost".
    const size_t cut = rng.below(storage.raw().size() + 1);
    storage.raw().resize(cut);

    ReservationDb db(AsId{1, 20});
    const size_t applied = wal.recover(db);
    EXPECT_EQ(applied, records_before(built, cut))
        << "iter " << iter << " cut at " << cut;
    EXPECT_EQ(db.segr_count() + db.eer_count(), applied);
  }
}

TEST(WalPropertyTest, RandomBitFlipsStopReplayAtTheDamagedRecord) {
  const std::uint64_t seed = colibri::testing::test_seed(0xB17F11BULL);
  COLIBRI_SEED_TRACE(seed);
  Rng rng(seed);
  for (int iter = 0; iter < 60; ++iter) {
    MemoryStorage storage;
    ReservationWal wal(storage);
    const BuiltLog built = build_log(wal, storage, rng);
    const size_t bit = rng.below(storage.raw().size() * 8);
    storage.raw()[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));

    ReservationDb db(AsId{1, 20});
    const size_t applied = wal.recover(db);
    // Every record strictly before the flipped byte replays; the CRC
    // rejects the damaged one and recovery stops there.
    EXPECT_EQ(applied, records_before(built, bit / 8))
        << "iter " << iter << " flipped bit " << bit;
  }
}

TEST(WalPropertyTest, RandomTearPlusTrailingGarbageNeverCrashes) {
  const std::uint64_t seed = colibri::testing::test_seed(0x6A2BA6EULL);
  COLIBRI_SEED_TRACE(seed);
  Rng rng(seed);
  for (int iter = 0; iter < 40; ++iter) {
    MemoryStorage storage;
    ReservationWal wal(storage);
    const BuiltLog built = build_log(wal, storage, rng);
    const size_t cut = rng.below(storage.raw().size() + 1);
    storage.raw().resize(cut);
    // A crashed writer can leave arbitrary junk after the tear.
    const size_t junk = rng.below(32);
    for (size_t i = 0; i < junk; ++i) {
      storage.raw().push_back(static_cast<std::uint8_t>(rng.below(256)));
    }

    ReservationDb db(AsId{1, 20});
    const size_t applied = wal.recover(db);
    // The junk can only ever hide records, never invent them.
    EXPECT_GE(applied, records_before(built, cut)) << "iter " << iter;
    EXPECT_LE(applied, built.appended) << "iter " << iter;
  }
}

}  // namespace
}  // namespace colibri::reservation
