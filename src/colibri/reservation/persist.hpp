// Durable reservation storage (paper §6.1: "Reservations are stored in a
// transactional database").
//
// A write-ahead log of reservation mutations plus snapshot checkpoints:
// every record is one frame of the codec below (length-prefixed, with a
// CRC spanning kind byte, length and payload, so a single bit flip
// anywhere in a record is rejected), and recovery after a crash replays
// the longest complete-record prefix, discarding a torn tail and
// everything after the first corrupt record — a CServ restart restores
// all SegR/EER state without re-running setups. The log can target a
// file or an in-memory sink (tests, failure injection via
// sim::FaultyStorage).
#pragma once

#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "colibri/common/bytes.hpp"
#include "colibri/reservation/db.hpp"

namespace colibri::reservation {

std::uint32_t crc32(BytesView data);

// The framed-log codec of the WAL and the telemetry history store:
// kind byte, u32 LE payload length, payload, u32 LE CRC-32 over all
// three — a flipped bit anywhere, length included, fails the CRC.
struct Frame {
  std::uint8_t kind = 0;
  BytesView payload;
};
void append_frame(Bytes& out, std::uint8_t kind, BytesView payload);
// The frame at `data[off...]`, advancing `off` past it; nullopt (and
// `off` untouched) on a torn or corrupt frame.
std::optional<Frame> next_frame(BytesView data, std::size_t& off);

// Where log bytes go / come from.
class LogStorage {
 public:
  virtual ~LogStorage() = default;
  virtual void append(BytesView data) = 0;
  virtual Bytes read_all() const = 0;
  virtual void truncate() = 0;
};

class MemoryStorage final : public LogStorage {
 public:
  void append(BytesView data) override { append_bytes(buf_, data); }
  Bytes read_all() const override { return buf_; }
  void truncate() override { buf_.clear(); }

  Bytes& raw() { return buf_; }  // tests: corrupt / tear at will

 private:
  Bytes buf_;
};

class FileStorage final : public LogStorage {
 public:
  explicit FileStorage(std::string path) : path_(std::move(path)) {}

  void append(BytesView data) override;
  Bytes read_all() const override;
  void truncate() override;

 private:
  std::string path_;
};

// Record codecs (also used by the snapshot).
Bytes encode_segr_record(const SegrRecord& rec);
std::optional<SegrRecord> decode_segr_record(BytesView data);
Bytes encode_eer_record(const EerRecord& rec);
std::optional<EerRecord> decode_eer_record(BytesView data);

// The write-ahead log. Mutating operations on the DB are mirrored here by
// the owner (log first, then apply — write-ahead). Appends are serialized
// by an internal mutex so db shards logging concurrently cannot interleave
// partial frames.
class ReservationWal {
 public:
  explicit ReservationWal(LogStorage& storage) : storage_(&storage) {}

  void log_segr_upsert(const SegrRecord& rec);
  void log_segr_erase(const ResKey& key);
  void log_eer_upsert(const EerRecord& rec);
  void log_eer_erase(const ResKey& key);
  // Resets the log to a full snapshot of `db` (compaction).
  void checkpoint(const ReservationDb& db);

  // Replays the log into `db`. Returns the number of complete records
  // applied; stops cleanly at the first torn or corrupt record. Also
  // restores the db's ResId allocator past every replayed id the owner
  // minted, so a restarted CServ cannot reissue a live reservation's id.
  size_t recover(ReservationDb& db) const;

 private:
  void append_record(std::uint8_t kind, BytesView payload);
  void append_record_locked(std::uint8_t kind, BytesView payload);

  mutable std::mutex mu_;
  LogStorage* storage_;
};

}  // namespace colibri::reservation
