// The audit service's wire protocol: framed JSON lines over a byte stream
// (one request or response object per '\n'-terminated line — the framing —
// served over a Unix-domain socket by examples/audit_server.cpp).
//
// Every message is one FLAT JSON object: values are strings, integers,
// booleans or null only — no nesting — so both ends stay trivially
// parseable and diffable. Grammar (docs/service.md has the full table):
//
//   request  := { "op": "hello" | "audit" | "metrics" | "reset_session"
//                       | "shutdown",
//                 "id": <uint>,                  // echoed on the response
//                 "user": <string>,              // audit / reset_session
//                 "query": <string>,             // audit
//                 "answer": <bool>,              // audit, optional: replay mode
//                 "deadline_ms": <int> }         // audit, optional, relative
//
//   response := { "id": <uint>, "ok": <bool>,
//                 "error": <string>, "code": <slug>,        // when !ok
//                 "answer": <bool>, "denied": <bool>,       // audit
//                 "verdict": <string>, "method": <string>,
//                 "certified": <bool>, "cached": <bool>,
//                 "cumulative_verdict": <string>,
//                 "cumulative_method": <string>,
//                 "cumulative_cached": <bool>,
//                 "sequence": <uint>,
//                 "audit_query": <string>, "prior": <string>,   // hello
//                 "metrics_json": <string> }                    // metrics
//
// The metrics payload is the obs metrics JSON document carried as an
// escaped string ("metrics_json"), keeping the envelope flat.
//
// Parsing is Status-first and never throws; malformed lines come back as
// InvalidArgument naming the byte offset.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>

#include "service/audit_service.h"
#include "util/status.h"

namespace epi {
namespace service {

/// Incremental '\n' framing over a byte stream, shared by the server's event
/// loop, the shard router and the client: feed() bytes as they arrive
/// (partial reads, one byte at a time, whole pipelined bursts — any split),
/// next() yields each complete line exactly once, in order, without the
/// terminator. A line longer than `max_line_bytes` (complete or still
/// partial) trips a sticky ResourceExhausted: feed() keeps returning it (and
/// drops the oversized bytes, so buffered() is 0 regardless of how the bytes
/// were chunked), next() keeps returning lines framed before the overflow,
/// and the owner is expected to answer with an error frame and close the
/// connection.
class LineFramer {
 public:
  /// Requests are small; the cap mostly bounds a hostile peer streaming an
  /// endless unterminated line into server memory. Metrics responses are the
  /// largest legitimate frames, still far under this.
  static constexpr std::size_t kDefaultMaxLineBytes = 1 << 20;

  explicit LineFramer(std::size_t max_line_bytes = kDefaultMaxLineBytes)
      : max_line_bytes_(max_line_bytes) {}

  /// Appends bytes and frames any lines they complete. Returns the sticky
  /// overflow status (Ok until the cap is exceeded).
  Status feed(std::string_view bytes);

  /// Pops the next complete line into `*line`; false when none is ready.
  bool next(std::string* line);

  /// Bytes of the still-unterminated trailing line.
  std::size_t buffered() const { return partial_.size(); }

  /// Ok, or the sticky ResourceExhausted once a line exceeded the cap.
  const Status& status() const { return status_; }

 private:
  std::size_t max_line_bytes_;
  std::string partial_;           ///< bytes after the last '\n' seen
  std::deque<std::string> ready_; ///< framed, not yet handed out
  Status status_ = Status::Ok();
};

enum class Op {
  kHello,
  kAudit,
  kMetrics,
  kResetSession,
  kShutdown,
  // Router-admin ops (shard_router membership; a plain worker answers them
  // with InvalidArgument). `addr` carries the worker listen address.
  kAddWorker,
  kRemoveWorker,
};

std::string to_string(Op op);

struct WireRequest {
  Op op = Op::kAudit;
  std::uint64_t id = 0;
  std::string user;
  std::string query;
  std::optional<bool> answer;   ///< present = replayed-log mode
  std::int64_t deadline_ms = 0; ///< relative; 0 = server default
  std::string addr;             ///< add_worker / remove_worker target
};

struct WireResponse {
  std::uint64_t id = 0;
  bool ok = false;
  std::string error;  ///< Status::to_string() when !ok
  std::string code;   ///< machine-readable status slug ("resource_exhausted")

  // audit
  bool answer = false;
  bool denied = false;
  std::string verdict;
  std::string method;
  bool certified = false;
  bool cached = false;
  std::string cumulative_verdict;
  std::string cumulative_method;
  /// AuditService never serves a cumulative verdict from its memo, so it
  /// sends false; the field stays for wire compatibility.
  bool cumulative_cached = false;
  std::uint64_t sequence = 0;

  // hello
  std::string audit_query;
  std::string prior;

  // metrics
  std::string metrics_json;
};

/// One line (no trailing newline) per message; the caller frames.
std::string serialize_request(const WireRequest& request);
std::string serialize_response(const WireResponse& response);

/// Parse one frame. On failure `*out` is default-reset and the Status names
/// the problem (unknown op, bad JSON, wrong value type).
Status parse_request(const std::string& line, WireRequest* out);
Status parse_response(const std::string& line, WireResponse* out);

/// Lowercase slug for a status code ("ok", "invalid_argument",
/// "resource_exhausted", ...), stable for clients to branch on.
std::string status_code_slug(Status::Code code);

/// Maps a service AuditResponse onto the wire (used by the server; tests
/// use it to check parity between in-process and on-the-wire verdicts).
WireResponse make_audit_response(std::uint64_t id, const AuditResponse& response);

}  // namespace service
}  // namespace epi
