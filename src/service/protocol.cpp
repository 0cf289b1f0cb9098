#include "service/protocol.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <map>
#include <sstream>
#include <variant>

namespace epi {
namespace service {
namespace {

// --- writing ---------------------------------------------------------------

void append_json_string(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

/// Emits `, "key": value` pairs after the first.
class ObjectWriter {
 public:
  explicit ObjectWriter(std::ostringstream& os) : os_(os) { os_ << '{'; }
  void field(const char* key, const std::string& value) {
    sep();
    append_json_string(os_, key);
    os_ << ": ";
    append_json_string(os_, value);
  }
  void field(const char* key, std::int64_t value) {
    sep();
    append_json_string(os_, key);
    os_ << ": " << value;
  }
  void field(const char* key, std::uint64_t value) {
    sep();
    append_json_string(os_, key);
    os_ << ": " << value;
  }
  void field(const char* key, bool value) {
    sep();
    append_json_string(os_, key);
    os_ << ": " << (value ? "true" : "false");
  }
  void finish() { os_ << '}'; }

 private:
  void sep() {
    if (!first_) os_ << ", ";
    first_ = false;
  }
  std::ostringstream& os_;
  bool first_ = true;
};

// --- reading ---------------------------------------------------------------

using JsonValue = std::variant<std::string, std::int64_t, bool, std::nullptr_t>;

/// Appends one Unicode code point as UTF-8.
void append_utf8(std::string* out, std::uint32_t cp) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

/// Parses one flat JSON object (string/int/bool/null values only).
class FlatObjectReader {
 public:
  explicit FlatObjectReader(const std::string& text) : text_(text) {}

  Status parse(std::map<std::string, JsonValue>* out) {
    skip_ws();
    if (!consume('{')) return error("expected '{'");
    skip_ws();
    if (consume('}')) return at_end_check();
    for (;;) {
      std::string key;
      if (Status s = parse_string(&key); !s.ok()) return s;
      skip_ws();
      if (!consume(':')) return error("expected ':'");
      JsonValue value;
      if (Status s = parse_value(&value); !s.ok()) return s;
      (*out)[key] = std::move(value);
      skip_ws();
      if (consume(',')) {
        skip_ws();
        continue;
      }
      if (consume('}')) return at_end_check();
      return error("expected ',' or '}'");
    }
  }

 private:
  Status error(const std::string& what) const {
    return Status::InvalidArgument("protocol frame, offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  Status at_end_check() {
    skip_ws();
    if (pos_ != text_.size()) return error("trailing bytes after object");
    return Status::Ok();
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_word(const char* word) {
    std::size_t len = 0;
    while (word[len] != '\0') ++len;
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  Status parse_string(std::string* out) {
    skip_ws();
    if (!consume('"')) return error("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          unsigned value = 0;
          if (Status s = parse_hex4(&value); !s.ok()) return s;
          std::uint32_t code_point = value;
          if (value >= 0xD800 && value <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow, and the
            // pair combines into one supplementary-plane code point.
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return error("unpaired high surrogate in \\u escape");
            }
            pos_ += 2;
            unsigned low = 0;
            if (Status s = parse_hex4(&low); !s.ok()) return s;
            if (low < 0xDC00 || low > 0xDFFF) {
              return error("unpaired high surrogate in \\u escape");
            }
            code_point =
                0x10000 + ((value - 0xD800) << 10) + (low - 0xDC00);
          } else if (value >= 0xDC00 && value <= 0xDFFF) {
            return error("unpaired low surrogate in \\u escape");
          }
          // Session keys and query text round-trip losslessly: every escaped
          // code point lands in the string as UTF-8.
          append_utf8(out, code_point);
          break;
        }
        default:
          return error("unknown escape");
      }
    }
    return error("unterminated string");
  }

  /// Reads exactly four hex digits of a \u escape into `*out`.
  Status parse_hex4(unsigned* out) {
    if (pos_ + 4 > text_.size()) return error("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      value <<= 4;
      if (h >= '0' && h <= '9') {
        value |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        value |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        value |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        return error("bad \\u escape");
      }
    }
    *out = value;
    return Status::Ok();
  }

  Status parse_value(JsonValue* out) {
    skip_ws();
    if (pos_ >= text_.size()) return error("expected a value");
    const char c = text_[pos_];
    if (c == '"') {
      std::string s;
      if (Status st = parse_string(&s); !st.ok()) return st;
      *out = std::move(s);
      return Status::Ok();
    }
    if (consume_word("true")) {
      *out = true;
      return Status::Ok();
    }
    if (consume_word("false")) {
      *out = false;
      return Status::Ok();
    }
    if (consume_word("null")) {
      *out = nullptr;
      return Status::Ok();
    }
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      const std::size_t start = pos_;
      if (c == '-') ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ == start || (c == '-' && pos_ == start + 1)) {
        return error("bad number");
      }
      // from_chars never throws: an arbitrarily long digit run from a
      // hostile client yields InvalidArgument, not std::out_of_range
      // escaping onto a connection thread.
      std::int64_t value = 0;
      const char* first = text_.data() + start;
      const char* last = text_.data() + pos_;
      const std::from_chars_result r = std::from_chars(first, last, value);
      if (r.ec == std::errc::result_out_of_range) {
        return error("number out of range");
      }
      if (r.ec != std::errc() || r.ptr != last) return error("bad number");
      *out = value;
      return Status::Ok();
    }
    if (c == '{' || c == '[') {
      return error("nested values are not part of the flat protocol");
    }
    return error("expected a value");
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

/// Typed field access over the parsed map.
class Fields {
 public:
  explicit Fields(const std::map<std::string, JsonValue>& values)
      : values_(values) {}

  Status get_string(const char* key, std::string* out, bool required) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      if (required) return missing(key);
      return Status::Ok();
    }
    if (const auto* s = std::get_if<std::string>(&it->second)) {
      *out = *s;
      return Status::Ok();
    }
    return wrong_type(key, "string");
  }

  Status get_int(const char* key, std::int64_t* out, bool required) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      if (required) return missing(key);
      return Status::Ok();
    }
    if (const auto* v = std::get_if<std::int64_t>(&it->second)) {
      *out = *v;
      return Status::Ok();
    }
    return wrong_type(key, "integer");
  }

  Status get_bool(const char* key, bool* out, bool required) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      if (required) return missing(key);
      return Status::Ok();
    }
    if (const auto* v = std::get_if<bool>(&it->second)) {
      *out = *v;
      return Status::Ok();
    }
    return wrong_type(key, "boolean");
  }

  bool has(const char* key) const { return values_.count(key) != 0; }

 private:
  static Status missing(const char* key) {
    return Status::InvalidArgument(std::string("protocol frame: missing \"") +
                                   key + "\"");
  }
  static Status wrong_type(const char* key, const char* want) {
    return Status::InvalidArgument(std::string("protocol frame: \"") + key +
                                   "\" must be a " + want);
  }
  const std::map<std::string, JsonValue>& values_;
};

}  // namespace

Status LineFramer::feed(std::string_view bytes) {
  if (!status_.ok()) return status_;
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = bytes.find('\n', start);
    if (nl == std::string_view::npos) break;
    partial_.append(bytes.data() + start, nl - start);
    start = nl + 1;
    if (partial_.size() > max_line_bytes_) {
      status_ = Status::ResourceExhausted(
          "protocol line exceeds " + std::to_string(max_line_bytes_) +
          " bytes");
      partial_.clear(); // discard the oversized line: deterministic post-
      return status_;   // overflow state no matter how the bytes arrived
    }
    ready_.push_back(std::move(partial_));
    partial_.clear();
  }
  partial_.append(bytes.data() + start, bytes.size() - start);
  if (partial_.size() > max_line_bytes_) {
    status_ = Status::ResourceExhausted(
        "protocol line exceeds " + std::to_string(max_line_bytes_) + " bytes");
    partial_.clear();
  }
  return status_;
}

bool LineFramer::next(std::string* line) {
  if (ready_.empty()) return false;
  *line = std::move(ready_.front());
  ready_.pop_front();
  return true;
}

std::string to_string(Op op) {
  switch (op) {
    case Op::kHello: return "hello";
    case Op::kAudit: return "audit";
    case Op::kMetrics: return "metrics";
    case Op::kResetSession: return "reset_session";
    case Op::kShutdown: return "shutdown";
    case Op::kAddWorker: return "add_worker";
    case Op::kRemoveWorker: return "remove_worker";
  }
  return "?";
}

std::string status_code_slug(Status::Code code) {
  switch (code) {
    case Status::Code::kOk: return "ok";
    case Status::Code::kInvalidArgument: return "invalid_argument";
    case Status::Code::kOutOfRange: return "out_of_range";
    case Status::Code::kInternal: return "internal";
    case Status::Code::kInconclusive: return "inconclusive";
    case Status::Code::kResourceExhausted: return "resource_exhausted";
    case Status::Code::kDeadlineExceeded: return "deadline_exceeded";
    case Status::Code::kCancelled: return "cancelled";
    case Status::Code::kUnavailable: return "unavailable";
  }
  return "unknown";
}

std::string serialize_request(const WireRequest& request) {
  std::ostringstream os;
  ObjectWriter w(os);
  w.field("op", to_string(request.op));
  w.field("id", request.id);
  if (!request.user.empty()) w.field("user", request.user);
  if (!request.query.empty()) w.field("query", request.query);
  if (request.answer.has_value()) w.field("answer", *request.answer);
  if (request.deadline_ms != 0) w.field("deadline_ms", request.deadline_ms);
  if (!request.addr.empty()) w.field("addr", request.addr);
  w.finish();
  return os.str();
}

std::string serialize_response(const WireResponse& response) {
  std::ostringstream os;
  ObjectWriter w(os);
  w.field("id", response.id);
  w.field("ok", response.ok);
  if (!response.ok) {
    w.field("error", response.error);
    w.field("code", response.code);
    w.finish();
    return os.str();
  }
  if (!response.verdict.empty() || response.denied) {
    w.field("answer", response.answer);
    w.field("denied", response.denied);
    if (!response.denied) {
      w.field("verdict", response.verdict);
      w.field("method", response.method);
      w.field("certified", response.certified);
      w.field("cached", response.cached);
      w.field("cumulative_verdict", response.cumulative_verdict);
      w.field("cumulative_method", response.cumulative_method);
      w.field("cumulative_cached", response.cumulative_cached);
    }
    w.field("sequence", response.sequence);
  }
  if (!response.audit_query.empty()) {
    w.field("audit_query", response.audit_query);
    w.field("prior", response.prior);
  }
  if (!response.metrics_json.empty()) {
    w.field("metrics_json", response.metrics_json);
  }
  w.finish();
  return os.str();
}

Status parse_request(const std::string& line, WireRequest* out) {
  *out = WireRequest{};
  std::map<std::string, JsonValue> values;
  if (Status s = FlatObjectReader(line).parse(&values); !s.ok()) return s;
  Fields fields(values);

  std::string op;
  if (Status s = fields.get_string("op", &op, /*required=*/true); !s.ok()) {
    return s;
  }
  if (op == "hello") {
    out->op = Op::kHello;
  } else if (op == "audit") {
    out->op = Op::kAudit;
  } else if (op == "metrics") {
    out->op = Op::kMetrics;
  } else if (op == "reset_session") {
    out->op = Op::kResetSession;
  } else if (op == "shutdown") {
    out->op = Op::kShutdown;
  } else if (op == "add_worker") {
    out->op = Op::kAddWorker;
  } else if (op == "remove_worker") {
    out->op = Op::kRemoveWorker;
  } else {
    return Status::InvalidArgument("protocol frame: unknown op '" + op + "'");
  }

  std::int64_t id = 0;
  if (Status s = fields.get_int("id", &id, /*required=*/false); !s.ok()) {
    return s;
  }
  out->id = static_cast<std::uint64_t>(id);

  const bool needs_user = out->op == Op::kAudit || out->op == Op::kResetSession;
  if (Status s = fields.get_string("user", &out->user, needs_user); !s.ok()) {
    return s;
  }
  if (Status s = fields.get_string("query", &out->query,
                                   /*required=*/out->op == Op::kAudit);
      !s.ok()) {
    return s;
  }
  if (fields.has("answer")) {
    bool answer = false;
    if (Status s = fields.get_bool("answer", &answer, /*required=*/true);
        !s.ok()) {
      return s;
    }
    out->answer = answer;
  }
  if (Status s = fields.get_int("deadline_ms", &out->deadline_ms,
                                /*required=*/false);
      !s.ok()) {
    return s;
  }
  if (out->deadline_ms < 0) {
    return Status::InvalidArgument("protocol frame: deadline_ms must be >= 0");
  }
  const bool needs_addr =
      out->op == Op::kAddWorker || out->op == Op::kRemoveWorker;
  if (Status s = fields.get_string("addr", &out->addr, needs_addr); !s.ok()) {
    return s;
  }
  return Status::Ok();
}

Status parse_response(const std::string& line, WireResponse* out) {
  *out = WireResponse{};
  std::map<std::string, JsonValue> values;
  if (Status s = FlatObjectReader(line).parse(&values); !s.ok()) return s;
  Fields fields(values);

  std::int64_t id = 0;
  if (Status s = fields.get_int("id", &id, /*required=*/false); !s.ok()) {
    return s;
  }
  out->id = static_cast<std::uint64_t>(id);
  if (Status s = fields.get_bool("ok", &out->ok, /*required=*/true); !s.ok()) {
    return s;
  }
  if (Status s = fields.get_string("error", &out->error, !out->ok); !s.ok()) {
    return s;
  }
  if (Status s = fields.get_string("code", &out->code, /*required=*/false);
      !s.ok()) {
    return s;
  }
  if (Status s = fields.get_bool("answer", &out->answer, false); !s.ok()) {
    return s;
  }
  if (Status s = fields.get_bool("denied", &out->denied, false); !s.ok()) {
    return s;
  }
  if (Status s = fields.get_string("verdict", &out->verdict, false); !s.ok()) {
    return s;
  }
  if (Status s = fields.get_string("method", &out->method, false); !s.ok()) {
    return s;
  }
  if (Status s = fields.get_bool("certified", &out->certified, false);
      !s.ok()) {
    return s;
  }
  if (Status s = fields.get_bool("cached", &out->cached, false); !s.ok()) {
    return s;
  }
  if (Status s = fields.get_string("cumulative_verdict",
                                   &out->cumulative_verdict, false);
      !s.ok()) {
    return s;
  }
  if (Status s = fields.get_string("cumulative_method",
                                   &out->cumulative_method, false);
      !s.ok()) {
    return s;
  }
  if (Status s = fields.get_bool("cumulative_cached", &out->cumulative_cached,
                                 false);
      !s.ok()) {
    return s;
  }
  std::int64_t sequence = 0;
  if (Status s = fields.get_int("sequence", &sequence, false); !s.ok()) {
    return s;
  }
  out->sequence = static_cast<std::uint64_t>(sequence);
  if (Status s = fields.get_string("audit_query", &out->audit_query, false);
      !s.ok()) {
    return s;
  }
  if (Status s = fields.get_string("prior", &out->prior, false); !s.ok()) {
    return s;
  }
  if (Status s = fields.get_string("metrics_json", &out->metrics_json, false);
      !s.ok()) {
    return s;
  }
  return Status::Ok();
}

WireResponse make_audit_response(std::uint64_t id,
                                 const AuditResponse& response) {
  WireResponse wire;
  wire.id = id;
  if (!response.status.ok()) {
    wire.ok = false;
    wire.error = response.status.to_string();
    wire.code = status_code_slug(response.status.code());
    return wire;
  }
  wire.ok = true;
  wire.answer = response.answer;
  wire.denied = response.denied;
  wire.sequence = response.sequence;
  if (!response.denied) {
    wire.verdict = epi::to_string(response.disclosure.verdict);
    wire.method = response.disclosure.method;
    wire.certified = response.disclosure.certified;
    wire.cached = response.disclosure_cached;
    wire.cumulative_verdict = epi::to_string(response.cumulative.verdict);
    wire.cumulative_method = response.cumulative.method;
  }
  return wire;
}

}  // namespace service
}  // namespace epi
