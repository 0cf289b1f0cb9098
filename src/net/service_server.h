// ServiceServer: the wire-protocol brain of a worker process. It owns an
// EventLoop, speaks the JSON-lines protocol (service/protocol.h) on any mix
// of Unix/TCP listeners, and bridges requests into an AuditService via
// submit_async, so one thread serves every connection while the service's
// worker pool does the deciding.
//
// Two ordering invariants the event-loop world must re-establish (the old
// thread-per-connection server got them for free from blocking process()):
//
//  1. Per-connection response order == request order. Responses complete out
//     of order across users, so each connection keeps a FIFO of response
//     slots; a finished response fills its slot and only the ready prefix is
//     flushed. The shard router's per-upstream FIFO matching depends on this.
//  2. Per-user disclosure order == arrival order (absorb order defines the
//     cumulative verdict — Section 3.3 composition). The server hands audits
//     to AuditService::submit_async and resets to reset_session() in arrival
//     order, and the service's per-user admission FIFO runs one request per
//     user at a time and applies a reset after that user's earlier audits,
//     so a replayed rebalance (reset + audits) cannot interleave with a
//     stale in-flight decision. The server keeps no per-user state.
//
// Shutdown (wire `shutdown` op or begin_shutdown()): answer, stop listening,
// let every filled slot flush, close connections as they drain, and stop the
// loop when the last one goes — the caller then drains the AuditService
// itself. Requests arriving mid-drain get Unavailable.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>

#include "net/event_loop.h"
#include "service/audit_service.h"
#include "service/protocol.h"

namespace epi {
namespace net {

class ServiceServer : public EventLoop::Handler {
 public:
  /// `service` must outlive the server. Fails when the loop cannot be built.
  static Status try_create(service::AuditService* service,
                           EventLoop::Options loop_options,
                           std::unique_ptr<ServiceServer>* out);

  /// Forwards to EventLoop::add_listener (unix:/tcp:, repeatable).
  Status add_listener(Address* addr);

  /// Serves until a shutdown drains; returns the loop's verdict.
  Status run();

  /// Loop-thread only (post() it from elsewhere): begins the graceful drain
  /// described above. Idempotent.
  void begin_shutdown();

  /// True once a drain started (wire shutdown or begin_shutdown()).
  bool draining() const { return draining_; }

  EventLoop& loop() { return *loop_; }

 private:
  /// One response's place in a connection's FIFO. Slots are shared with the
  /// service completion callback, so a connection that dies mid-request
  /// leaves the slot alive (the response is simply dropped).
  struct Slot {
    bool ready = false;
    std::string line;  ///< serialized response, valid when ready
  };

  struct ClientConn {
    std::deque<std::shared_ptr<Slot>> slots;
  };

  explicit ServiceServer(service::AuditService* service) : service_(service) {}

  // EventLoop::Handler
  void on_line(EventLoop::ConnId conn, std::string line) override;
  void on_open(EventLoop::ConnId conn) override;
  void on_close(EventLoop::ConnId conn, const Status& why) override;
  void on_overflow(EventLoop::ConnId conn, const Status& why) override;

  /// Fills `slot` and flushes the connection's ready prefix.
  void finish(EventLoop::ConnId conn, const std::shared_ptr<Slot>& slot,
              service::WireResponse response);
  /// Sends every leading ready slot; closes the connection when draining
  /// and nothing is left.
  void flush_ready(EventLoop::ConnId conn);

  /// Hands an audit to the service; completion posts back onto the loop.
  void start_audit(EventLoop::ConnId conn, const std::shared_ptr<Slot>& slot,
                   const service::WireRequest& request);

  service::WireResponse dispatch_inline(const service::WireRequest& request);

  service::AuditService* service_;
  std::unique_ptr<EventLoop> loop_;
  std::unordered_map<EventLoop::ConnId, ClientConn> clients_;
  bool draining_ = false;
};

}  // namespace net
}  // namespace epi
