#include "net/service_server.h"

#include <chrono>
#include <utility>
#include <vector>

#include "obs/export.h"

namespace epi {
namespace net {

using service::Op;
using service::WireRequest;
using service::WireResponse;

Status ServiceServer::try_create(service::AuditService* service,
                                 EventLoop::Options loop_options,
                                 std::unique_ptr<ServiceServer>* out) {
  std::unique_ptr<ServiceServer> server(new ServiceServer(service));
  if (const Status s =
          EventLoop::try_create(server.get(), loop_options, &server->loop_);
      !s.ok()) {
    return s;
  }
  *out = std::move(server);
  return Status::Ok();
}

Status ServiceServer::add_listener(Address* addr) {
  return loop_->add_listener(addr);
}

Status ServiceServer::run() { return loop_->run(); }

void ServiceServer::on_open(EventLoop::ConnId conn) {
  clients_.emplace(conn, ClientConn{});
}

void ServiceServer::on_close(EventLoop::ConnId conn, const Status& why) {
  (void)why;
  clients_.erase(conn);
  // Audits this connection submitted still run (a request once parsed is
  // processed, matching the blocking server); their responses drop on the
  // floor in flush_ready().
  if (draining_ && loop_->connection_count() == 0) loop_->stop();
}

void ServiceServer::on_overflow(EventLoop::ConnId conn, const Status& why) {
  // Protocol breakdown: slot order no longer matters, the connection is
  // ending. One final error frame, flushed by the loop before the close.
  WireResponse response;
  response.ok = false;
  response.error = why.to_string();
  response.code = service::status_code_slug(why.code());
  loop_->send_line(conn, service::serialize_response(response));
}

void ServiceServer::on_line(EventLoop::ConnId conn, std::string line) {
  if (line.empty()) return;  // blank keep-alive lines are ignored
  auto client = clients_.find(conn);
  if (client == clients_.end()) return;
  auto slot = std::make_shared<Slot>();
  client->second.slots.push_back(slot);

  WireRequest request;
  if (const Status s = parse_request(line, &request); !s.ok()) {
    WireResponse response;  // id 0: the frame's id was unreadable
    response.ok = false;
    response.error = s.to_string();
    response.code = service::status_code_slug(s.code());
    finish(conn, slot, std::move(response));
    return;
  }
  if (draining_) {
    WireResponse response;
    response.id = request.id;
    const Status s = Status::Unavailable("server shutting down");
    response.error = s.to_string();
    response.code = service::status_code_slug(s.code());
    finish(conn, slot, std::move(response));
    return;
  }
  switch (request.op) {
    case Op::kAudit:
      start_audit(conn, slot, request);
      return;
    case Op::kShutdown: {
      WireResponse response;
      response.id = request.id;
      response.ok = true;
      finish(conn, slot, std::move(response));
      begin_shutdown();
      return;
    }
    default:
      finish(conn, slot, dispatch_inline(request));
      return;
  }
}

WireResponse ServiceServer::dispatch_inline(const WireRequest& request) {
  WireResponse response;
  response.id = request.id;
  switch (request.op) {
    case Op::kHello:
      response.ok = true;
      response.audit_query = service_->audit_query();
      response.prior = epi::to_string(service_->prior());
      break;
    case Op::kMetrics:
      response.ok = true;
      response.metrics_json =
          obs::metrics_to_json(service_->metrics_snapshot());
      break;
    case Op::kResetSession: {
      // Takes effect after the user's audits admitted before it.
      const Status s = service_->reset_session(request.user);
      response.ok = s.ok();
      if (!s.ok()) {
        response.error = s.to_string();
        response.code = service::status_code_slug(s.code());
      }
      break;
    }
    case Op::kAddWorker:
    case Op::kRemoveWorker: {
      const Status s = Status::InvalidArgument(
          "router-admin op '" + service::to_string(request.op) +
          "' sent to a worker; dial the shard router's admin address");
      response.error = s.to_string();
      response.code = service::status_code_slug(s.code());
      break;
    }
    default:
      break;  // audit / shutdown never reach here
  }
  return response;
}

void ServiceServer::start_audit(EventLoop::ConnId conn,
                                const std::shared_ptr<Slot>& slot,
                                const WireRequest& request) {
  service::AuditRequest audit;
  audit.user = request.user;
  audit.query_text = request.query;
  audit.answer = request.answer;
  if (request.deadline_ms > 0) {
    audit.deadline = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(request.deadline_ms);
  }
  const std::uint64_t id = request.id;
  service_->submit_async(
      std::move(audit), [this, conn, slot, id](service::AuditResponse response) {
        // Worker thread (or inline on rejection): hop back to the loop.
        auto boxed = std::make_shared<service::AuditResponse>(
            std::move(response));
        loop_->post([this, conn, slot, id, boxed] {
          finish(conn, slot, service::make_audit_response(id, *boxed));
        });
      });
}

void ServiceServer::finish(EventLoop::ConnId conn,
                           const std::shared_ptr<Slot>& slot,
                           WireResponse response) {
  slot->line = service::serialize_response(response);
  slot->ready = true;
  flush_ready(conn);
}

void ServiceServer::flush_ready(EventLoop::ConnId conn) {
  for (;;) {
    auto it = clients_.find(conn);
    if (it == clients_.end()) return;  // connection died (send error path)
    auto& slots = it->second.slots;
    if (slots.empty() || !slots.front()->ready) break;
    const std::string line = std::move(slots.front()->line);
    slots.pop_front();
    loop_->send_line(conn, line);
  }
  auto it = clients_.find(conn);
  if (it != clients_.end() && draining_ && it->second.slots.empty()) {
    loop_->close_connection(conn);
  }
}

void ServiceServer::begin_shutdown() {
  if (draining_) return;
  draining_ = true;
  loop_->close_listeners();
  std::vector<EventLoop::ConnId> idle;
  for (const auto& [conn, client] : clients_) {
    if (client.slots.empty()) idle.push_back(conn);
  }
  for (const EventLoop::ConnId conn : idle) loop_->close_connection(conn);
  if (loop_->connection_count() == 0) loop_->stop();
}

}  // namespace net
}  // namespace epi
