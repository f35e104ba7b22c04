#include "colibri/telemetry/events.hpp"

#include <atomic>
#include <cstdlib>

#include "colibri/telemetry/metrics.hpp"

namespace colibri::telemetry {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kDebug: return "debug";
    case Severity::kInfo: return "info";
    case Severity::kWarn: return "warn";
    case Severity::kError: return "error";
  }
  return "info";
}

std::string Event::to_json(bool with_seq) const {
  std::string out;
  out.reserve(128 + 32 * fields.size());
  out += "{\"time_ns\":";
  out += std::to_string(time_ns);
  if (with_seq) {
    out += ",\"seq\":";
    out += std::to_string(seq);
  }
  out += ",\"severity\":\"";
  out += severity_name(severity);
  out += "\",\"component\":";
  append_json_string(out, component);
  out += ",\"name\":";
  append_json_string(out, name);
  out += ",\"fields\":{";
  bool first = true;
  for (const EventField& f : fields) {
    if (!first) out.push_back(',');
    first = false;
    append_json_string(out, f.key);
    out.push_back(':');
    switch (f.kind) {
      case EventField::Kind::kU64: out += std::to_string(f.u); break;
      case EventField::Kind::kI64: out += std::to_string(f.i); break;
      case EventField::Kind::kStr: append_json_string(out, f.s); break;
    }
  }
  out += "}}";
  return out;
}

namespace {

// Minimal parser for exactly the JSON subset Event::to_json() emits.
// Not a general JSON parser: object keys are unescaped in the order the
// exporter writes them, values are integers or strings.
struct LineParser {
  std::string_view s;
  std::size_t pos = 0;
  bool ok = true;

  void expect(char c) {
    if (pos < s.size() && s[pos] == c) {
      ++pos;
    } else {
      ok = false;
    }
  }
  bool peek(char c) const { return pos < s.size() && s[pos] == c; }

  std::string string() {
    std::string out;
    expect('"');
    while (ok && pos < s.size() && s[pos] != '"') {
      char c = s[pos++];
      if (c == '\\' && pos < s.size()) {
        const char e = s[pos++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case 'u': {
            // Exactly four hex digits; \uZZZZ is malformed, not 0.
            if (pos + 4 > s.size()) {
              ok = false;
              return out;
            }
            unsigned v = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = s[pos + static_cast<std::size_t>(i)];
              unsigned d;
              if (h >= '0' && h <= '9') {
                d = static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                d = static_cast<unsigned>(h - 'a') + 10;
              } else if (h >= 'A' && h <= 'F') {
                d = static_cast<unsigned>(h - 'A') + 10;
              } else {
                ok = false;
                return out;
              }
              v = v * 16 + d;
            }
            pos += 4;
            // UTF-16 surrogate halves are not code points; the exporter
            // never emits them and pairing is out of scope here.
            if (v >= 0xD800 && v <= 0xDFFF) {
              ok = false;
              return out;
            }
            if (v >= 0x800) {
              out.push_back(static_cast<char>(0xE0 | (v >> 12)));
              out.push_back(static_cast<char>(0x80 | ((v >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (v & 0x3F)));
              continue;
            }
            if (v >= 0x80) {
              out.push_back(static_cast<char>(0xC0 | (v >> 6)));
              out.push_back(static_cast<char>(0x80 | (v & 0x3F)));
              continue;
            }
            c = static_cast<char>(v);
            break;
          }
          default: ok = false; return out;
        }
      }
      out.push_back(c);
    }
    expect('"');
    return out;
  }

  // Parses an integer; sets `negative` so the caller can pick the kind.
  std::int64_t integer(bool& negative) {
    negative = peek('-');
    const std::size_t start = pos;
    if (negative) ++pos;
    while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') ++pos;
    if (pos == start + (negative ? 1u : 0u)) {
      ok = false;
      return 0;
    }
    return std::strtoll(std::string(s.substr(start, pos - start)).c_str(),
                        nullptr, 10);
  }

  void key(std::string_view expected) {
    const std::string k = string();
    if (k != expected) ok = false;
    expect(':');
  }
};

// The exporter only ever writes well-formed UTF-8 (append_json_string
// escapes control bytes); a line whose decoded strings are not valid
// UTF-8 was not written by us and is rejected rather than re-exported.
bool utf8_valid(std::string_view s) {
  std::size_t i = 0;
  while (i < s.size()) {
    const auto b = static_cast<unsigned char>(s[i]);
    std::size_t len;
    unsigned min_cp;
    unsigned cp;
    if (b < 0x80) {
      ++i;
      continue;
    } else if ((b & 0xE0) == 0xC0) {
      len = 2; min_cp = 0x80; cp = b & 0x1Fu;
    } else if ((b & 0xF0) == 0xE0) {
      len = 3; min_cp = 0x800; cp = b & 0x0Fu;
    } else if ((b & 0xF8) == 0xF0) {
      len = 4; min_cp = 0x10000; cp = b & 0x07u;
    } else {
      return false;  // stray continuation or invalid lead byte
    }
    if (i + len > s.size()) return false;
    for (std::size_t k = 1; k < len; ++k) {
      const auto cont = static_cast<unsigned char>(s[i + k]);
      if ((cont & 0xC0) != 0x80) return false;
      cp = (cp << 6) | (cont & 0x3Fu);
    }
    // Overlong encodings and surrogate/overflow code points are invalid.
    if (cp < min_cp || cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF)) {
      return false;
    }
    i += len;
  }
  return true;
}

Severity severity_from_name(std::string_view n, bool& ok) {
  if (n == "debug") return Severity::kDebug;
  if (n == "info") return Severity::kInfo;
  if (n == "warn") return Severity::kWarn;
  if (n == "error") return Severity::kError;
  ok = false;
  return Severity::kInfo;
}

}  // namespace

std::optional<Event> Event::from_json(std::string_view line) {
  LineParser p{line};
  Event ev;
  bool neg = false;

  p.expect('{');
  p.key("time_ns");
  ev.time_ns = p.integer(neg);
  p.expect(',');
  p.key("seq");
  ev.seq = static_cast<std::uint64_t>(p.integer(neg));
  if (neg) p.ok = false;
  p.expect(',');
  p.key("severity");
  ev.severity = severity_from_name(p.string(), p.ok);
  p.expect(',');
  p.key("component");
  ev.component = p.string();
  p.expect(',');
  p.key("name");
  ev.name = p.string();
  p.expect(',');
  p.key("fields");
  p.expect('{');
  bool expect_field = false;  // a consumed ',' promises another field
  while (p.ok && (expect_field || !p.peek('}'))) {
    expect_field = false;
    EventField f;
    f.key = p.string();
    // The exporter never writes the same field key twice; a duplicate
    // means the line was hand-edited or corrupted, and keeping both
    // (or either) silently would misattribute whichever one lookup
    // helpers happen to return.
    for (const EventField& existing : ev.fields) {
      if (existing.key == f.key) p.ok = false;
    }
    p.expect(':');
    if (p.peek('"')) {
      f.kind = EventField::Kind::kStr;
      f.s = p.string();
    } else {
      const std::int64_t v = p.integer(neg);
      if (neg) {
        f.kind = EventField::Kind::kI64;
        f.i = v;
      } else {
        f.kind = EventField::Kind::kU64;
        f.u = static_cast<std::uint64_t>(v);
      }
    }
    ev.fields.push_back(std::move(f));
    // A comma must be followed by another field: `{"k":1,}` is
    // malformed, not an empty continuation.
    if (p.peek(',')) {
      p.expect(',');
      expect_field = true;
    }
  }
  p.expect('}');
  p.expect('}');
  // Nothing may follow the closing brace, and every decoded string must
  // be the valid UTF-8 the exporter writes.
  if (!p.ok || p.pos != line.size()) return std::nullopt;
  if (!utf8_valid(ev.component) || !utf8_valid(ev.name)) return std::nullopt;
  for (const EventField& f : ev.fields) {
    if (!utf8_valid(f.key) || !utf8_valid(f.s)) return std::nullopt;
  }
  return ev;
}

const EventField* Event::field(std::string_view key) const {
  for (const EventField& f : fields) {
    if (f.key == key) return &f;
  }
  return nullptr;
}

std::optional<std::uint64_t> Event::u64(std::string_view key) const {
  const EventField* f = field(key);
  if (f == nullptr) return std::nullopt;
  switch (f->kind) {
    case EventField::Kind::kU64: return f->u;
    case EventField::Kind::kI64: return static_cast<std::uint64_t>(f->i);
    case EventField::Kind::kStr: return std::nullopt;
  }
  return std::nullopt;
}

std::optional<std::string> Event::str(std::string_view key) const {
  const EventField* f = field(key);
  if (f == nullptr || f->kind != EventField::Kind::kStr) return std::nullopt;
  return f->s;
}

void EventLog::append(Event ev) {
  // Process-global, not per-log: a deployment runs one EventLog per
  // registry but tools merge the JSONL streams, and the merged order
  // must be reconstructible.
  static std::atomic<std::uint64_t> next_seq{0};
  ev.seq = next_seq.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= capacity_) {
    events_.pop_front();
    ++dropped_;
  }
  events_.push_back(std::move(ev));
}

std::size_t EventLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::uint64_t EventLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::vector<Event> EventLog::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {events_.begin(), events_.end()};
}

std::vector<Event> EventLog::drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Event> out{events_.begin(), events_.end()};
  events_.clear();
  return out;
}

void EventLog::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  dropped_ = 0;
}

std::string EventLog::to_jsonl() const {
  std::string out;
  for (const Event& ev : events()) {
    out += ev.to_json();
    out += '\n';
  }
  return out;
}

}  // namespace colibri::telemetry
