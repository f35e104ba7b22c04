#include "colibri/reservation/persist.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <vector>

namespace colibri::reservation {
namespace {

enum : std::uint8_t {
  kSegrUpsert = 1,
  kSegrErase = 2,
  kEerUpsert = 3,
  kEerErase = 4,
};

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

Bytes encode_key(const ResKey& key) {
  Bytes out;
  put_le(out, key.src_as.raw());
  put_le(out, key.res_id);
  return out;
}

std::optional<ResKey> decode_key(BytesView data) {
  ByteReader r(data);
  ResKey key;
  key.src_as = AsId::from_raw(r.read<std::uint64_t>());
  key.res_id = r.read<std::uint32_t>();
  if (!r.ok()) return std::nullopt;
  return key;
}

}  // namespace

std::uint32_t crc32(BytesView data) {
  static const auto table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::uint8_t b : data) {
    c = table[(c ^ b) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void append_frame(Bytes& out, std::uint8_t kind, BytesView payload) {
  const std::size_t head = out.size();
  // One allocation for a fresh buffer, geometric growth for a long one.
  const std::size_t need = head + 1 + 4 + payload.size() + 4;
  if (need > out.capacity()) out.reserve(std::max(need, 2 * out.capacity()));
  out.push_back(kind);
  put_le(out, static_cast<std::uint32_t>(payload.size()));
  append_bytes(out, payload);
  put_le(out, crc32(BytesView(out.data() + head, out.size() - head)));
}

std::optional<Frame> next_frame(BytesView data, std::size_t& off) {
  if (off > data.size() || data.size() - off < 1 + 4 + 4) return std::nullopt;
  const std::uint32_t len = get_le<std::uint32_t>(data.data() + off + 1);
  if (data.size() - off - (1 + 4 + 4) < len) return std::nullopt;  // torn
  const BytesView head = data.subspan(off, 1 + 4 + len);
  if (crc32(head) != get_le<std::uint32_t>(head.data() + head.size())) {
    return std::nullopt;  // corrupt
  }
  off += head.size() + 4;
  return Frame{head[0], head.subspan(1 + 4)};
}

void FileStorage::append(BytesView data) {
  std::FILE* f = std::fopen(path_.c_str(), "ab");
  if (f == nullptr) return;
  std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
}

Bytes FileStorage::read_all() const {
  Bytes out;
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  if (f == nullptr) return out;
  std::uint8_t buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.insert(out.end(), buf, buf + n);
  }
  std::fclose(f);
  return out;
}

void FileStorage::truncate() {
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  if (f != nullptr) std::fclose(f);
}

Bytes encode_segr_record(const SegrRecord& rec) {
  Bytes out;
  put_le(out, rec.key.src_as.raw());
  put_le(out, rec.key.res_id);
  out.push_back(static_cast<std::uint8_t>(rec.seg_type));
  topology::put_hops(out, rec.hops);
  out.push_back(rec.local_hop);
  out.push_back(rec.active.version);
  put_le(out, rec.active.bw_kbps);
  put_le(out, rec.active.exp_time);
  out.push_back(rec.pending.has_value() ? 1 : 0);
  if (rec.pending) {
    out.push_back(rec.pending->version);
    put_le(out, rec.pending->bw_kbps);
    put_le(out, rec.pending->exp_time);
  }
  put_le(out, rec.eer_allocated_kbps);
  return out;
}

std::optional<SegrRecord> decode_segr_record(BytesView data) {
  ByteReader r(data);
  SegrRecord rec;
  rec.key.src_as = AsId::from_raw(r.read<std::uint64_t>());
  rec.key.res_id = r.read<std::uint32_t>();
  rec.seg_type = static_cast<topology::SegType>(r.read<std::uint8_t>());
  rec.hops = topology::get_hops(r);
  rec.local_hop = r.read<std::uint8_t>();
  rec.active.version = r.read<std::uint8_t>();
  rec.active.bw_kbps = r.read<std::uint32_t>();
  rec.active.exp_time = r.read<std::uint32_t>();
  if (r.read<std::uint8_t>() != 0) {
    SegrVersion pending;
    pending.version = r.read<std::uint8_t>();
    pending.bw_kbps = r.read<std::uint32_t>();
    pending.exp_time = r.read<std::uint32_t>();
    rec.pending = pending;
  }
  rec.eer_allocated_kbps = r.read<std::uint32_t>();
  if (!r.ok() || rec.hops.empty() || rec.local_hop >= rec.hops.size()) {
    return std::nullopt;
  }
  return rec;
}

Bytes encode_eer_record(const EerRecord& rec) {
  Bytes out;
  put_le(out, rec.key.src_as.raw());
  put_le(out, rec.key.res_id);
  append_bytes(out, BytesView(rec.src_host.bytes, 16));
  append_bytes(out, BytesView(rec.dst_host.bytes, 16));
  topology::put_hops(out, rec.path);
  out.push_back(rec.local_hop);
  put_le(out, static_cast<std::uint16_t>(rec.segrs.size()));
  for (const auto& s : rec.segrs) {
    put_le(out, s.src_as.raw());
    put_le(out, s.res_id);
  }
  put_le(out, static_cast<std::uint16_t>(rec.versions.size()));
  for (const auto& v : rec.versions) {
    out.push_back(v.version);
    put_le(out, v.bw_kbps);
    put_le(out, v.exp_time);
  }
  return out;
}

std::optional<EerRecord> decode_eer_record(BytesView data) {
  ByteReader r(data);
  EerRecord rec;
  rec.key.src_as = AsId::from_raw(r.read<std::uint64_t>());
  rec.key.res_id = r.read<std::uint32_t>();
  r.read_bytes(rec.src_host.bytes, 16);
  r.read_bytes(rec.dst_host.bytes, 16);
  rec.path = topology::get_hops(r);
  rec.local_hop = r.read<std::uint8_t>();
  const auto ns = r.read<std::uint16_t>();
  rec.segrs.reserve(ns);
  for (std::uint16_t i = 0; i < ns; ++i) {
    ResKey k;
    k.src_as = AsId::from_raw(r.read<std::uint64_t>());
    k.res_id = r.read<std::uint32_t>();
    rec.segrs.push_back(k);
  }
  const auto nv = r.read<std::uint16_t>();
  rec.versions.reserve(nv);
  for (std::uint16_t i = 0; i < nv; ++i) {
    EerVersion v;
    v.version = r.read<std::uint8_t>();
    v.bw_kbps = r.read<std::uint32_t>();
    v.exp_time = r.read<std::uint32_t>();
    rec.versions.push_back(v);
  }
  if (!r.ok() || rec.path.empty() || rec.local_hop >= rec.path.size()) {
    return std::nullopt;
  }
  return rec;
}

void ReservationWal::append_record(std::uint8_t kind, BytesView payload) {
  std::lock_guard lock(mu_);
  append_record_locked(kind, payload);
}

void ReservationWal::append_record_locked(std::uint8_t kind,
                                          BytesView payload) {
  Bytes frame;
  append_frame(frame, kind, payload);
  storage_->append(frame);
}

void ReservationWal::log_segr_upsert(const SegrRecord& rec) {
  append_record(kSegrUpsert, encode_segr_record(rec));
}

void ReservationWal::log_segr_erase(const ResKey& key) {
  append_record(kSegrErase, encode_key(key));
}

void ReservationWal::log_eer_upsert(const EerRecord& rec) {
  append_record(kEerUpsert, encode_eer_record(rec));
}

void ReservationWal::log_eer_erase(const ResKey& key) {
  append_record(kEerErase, encode_key(key));
}

void ReservationWal::checkpoint(const ReservationDb& db) {
  // Snapshot the DB before taking the WAL mutex: loggers run inside DB
  // callbacks (db lock -> WAL lock), so holding the WAL mutex across the
  // db scan would invert the repo-wide lock order (the WAL is
  // innermost). The checkpoint is point-in-time; callers that
  // need it atomic with respect to writers quiesce them first.
  const std::vector<SegrRecord> segrs = db.segr_snapshot();
  const std::vector<EerRecord> eers = db.eer_snapshot();
  std::lock_guard lock(mu_);
  storage_->truncate();
  for (const SegrRecord& rec : segrs) {
    append_record_locked(kSegrUpsert, encode_segr_record(rec));
  }
  for (const EerRecord& rec : eers) {
    append_record_locked(kEerUpsert, encode_eer_record(rec));
  }
}

size_t ReservationWal::recover(ReservationDb& db) const {
  // Copy the log under the WAL mutex, then replay without it: replay
  // takes the DB lock, and the WAL lock must stay innermost.
  Bytes log;
  {
    std::lock_guard lock(mu_);
    log = storage_->read_all();
  }
  size_t applied = 0;
  size_t off = 0;
  // Every id the owner ever minted (including later-erased reservations)
  // bumps the allocator floor, so post-recovery next_res_id() stays
  // globally unique (§4.3).
  auto note_owner_id = [&](const ResKey& key) {
    if (key.src_as == db.owner()) db.reserve_ids_through(key.res_id);
  };
  while (const std::optional<Frame> frame = next_frame(log, off)) {
    const BytesView payload = frame->payload;
    switch (frame->kind) {
      case kSegrUpsert: {
        auto rec = decode_segr_record(payload);
        if (!rec) return applied;
        note_owner_id(rec->key);
        db.upsert_segr(std::move(*rec));
        break;
      }
      case kSegrErase: {
        auto key = decode_key(payload);
        if (!key) return applied;
        note_owner_id(*key);
        db.erase_segr(*key);
        break;
      }
      case kEerUpsert: {
        auto rec = decode_eer_record(payload);
        if (!rec) return applied;
        note_owner_id(rec->key);
        db.upsert_eer(std::move(*rec));
        break;
      }
      case kEerErase: {
        auto key = decode_key(payload);
        if (!key) return applied;
        note_owner_id(*key);
        db.erase_eer(*key);
        break;
      }
      default:
        return applied;  // unknown kind: stop replay
    }
    ++applied;
  }
  return applied;
}

}  // namespace colibri::reservation
