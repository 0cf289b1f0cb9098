#include "net/shard_router.h"

#include <unistd.h>

#include <cstdio>
#include <utility>

#include "worlds/dense_bits.h"

namespace epi {
namespace net {
namespace {

using service::Op;
using service::WireRequest;
using service::WireResponse;

/// FNV-1a over the session key, finalized through mix64 so ring points get
/// full avalanche. Stable across processes (no std::hash).
std::uint64_t hash_key(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return bits::mix64(h);
}

}  // namespace

Status ShardRouter::try_create(RouterOptions options,
                               std::unique_ptr<ShardRouter>* out) {
  if (options.vnodes == 0) {
    return Status::InvalidArgument("router vnodes must be >= 1");
  }
  std::unique_ptr<ShardRouter> router(new ShardRouter(options));
  if (const Status s =
          EventLoop::try_create(router.get(), options.loop, &router->loop_);
      !s.ok()) {
    return s;
  }
  *out = std::move(router);
  return Status::Ok();
}

Status ShardRouter::add_listener(Address* addr) {
  return loop_->add_listener(addr);
}

Status ShardRouter::run() {
  schedule_health_check();
  return loop_->run();
}

// --- connection bookkeeping -------------------------------------------------

void ShardRouter::on_open(EventLoop::ConnId conn) {
  if (adopting_upstream_) return;  // add_worker's dial, not a client
  clients_.insert(conn);
}

void ShardRouter::on_close(EventLoop::ConnId conn, const Status& why) {
  (void)why;
  auto up_it = upstream_by_conn_.find(conn);
  if (up_it != upstream_by_conn_.end()) {
    Upstream* up = up_it->second;
    if (draining_) {
      // Expected: the worker drained its shutdown and hung up.
      for (const Forward& f : up->fifo) {
        if (f.kind == Forward::Kind::kAudit ||
            f.kind == Forward::Kind::kReset ||
            f.kind == Forward::Kind::kPassthrough) {
          send_error(f.client, f.request.id,
                     Status::Unavailable("router shutting down"));
        }
      }
      upstream_by_conn_.erase(up_it);
      upstreams_.erase(up->key);
      maybe_finish_drain();
      return;
    }
    worker_died(up->key);
    return;
  }
  clients_.erase(conn);
  maybe_finish_drain();
}

// --- the hash ring ----------------------------------------------------------

void ShardRouter::rebuild_ring() {
  ring_.clear();
  for (const auto& [key, up] : upstreams_) {
    if (!up->in_ring) continue;
    const std::uint64_t base = hash_key(key);
    for (unsigned v = 0; v < options_.vnodes; ++v) {
      ring_.emplace(bits::hash_combine(base, v), key);
    }
  }
}

std::string ShardRouter::ring_owner(const std::string& user) const {
  if (ring_.empty()) return "";
  auto it = ring_.lower_bound(hash_key(user));
  if (it == ring_.end()) it = ring_.begin();  // wrap
  return it->second;
}

ShardRouter::Upstream* ShardRouter::first_worker() {
  if (ring_.empty()) return nullptr;
  return upstream_by_key(ring_.begin()->second);
}

ShardRouter::Upstream* ShardRouter::upstream_by_key(const std::string& key) {
  auto it = upstreams_.find(key);
  return it == upstreams_.end() ? nullptr : it->second.get();
}

// --- membership -------------------------------------------------------------

Status ShardRouter::add_worker(const Address& addr) {
  const std::string key = addr.to_string();
  if (upstreams_.find(key) != upstreams_.end()) {
    return Status::InvalidArgument("'" + key + "' is already a worker");
  }
  int fd = -1;
  if (const Status s = connect_to(addr, &fd); !s.ok()) return s;
  EventLoop::ConnId conn = 0;
  adopting_upstream_ = true;
  const Status adopted = loop_->adopt(fd, &conn);
  adopting_upstream_ = false;
  if (!adopted.ok()) {
    ::close(fd);
    return adopted;
  }
  auto up = std::make_unique<Upstream>();
  up->addr = addr;
  up->key = key;
  up->conn = conn;
  upstream_by_conn_.emplace(conn, up.get());
  upstreams_.emplace(key, std::move(up));
  rebuild_ring();
  rebalance_all();
  return Status::Ok();
}

void ShardRouter::worker_died(const std::string& key) {
  auto it = upstreams_.find(key);
  if (it == upstreams_.end()) return;
  Upstream* up = it->second.get();
  std::fprintf(stderr, "shard_router: worker %s is gone (%zu frames in flight)\n",
               key.c_str(), up->fifo.size());

  // Its un-acked client jobs re-queue ahead of held traffic, in FIFO order:
  // whatever the dead worker absorbed without acking died with it, so the
  // next owner decides them fresh against the replayed (acked) prefix.
  std::unordered_map<std::string, std::vector<HeldJob>> redispatch;
  for (Forward& f : up->fifo) {
    switch (f.kind) {
      case Forward::Kind::kAudit:
      case Forward::Kind::kReset: {
        SessionState& s = sessions_[f.user];
        if (s.in_flight > 0) --s.in_flight;
        redispatch[f.user].push_back(
            HeldJob{f.client, std::move(f.request)});
        break;
      }
      case Forward::Kind::kPassthrough:
        send_error(f.client, f.request.id,
                   Status::Unavailable("worker '" + key + "' died"));
        break;
      case Forward::Kind::kPing:
      case Forward::Kind::kReplay:  // its replay restarts via rebalance_all
      case Forward::Kind::kShutdown:
        break;
    }
  }
  for (auto& [user, jobs] : redispatch) {
    SessionState& s = sessions_[user];
    s.held.insert(s.held.begin(), std::make_move_iterator(jobs.begin()),
                  std::make_move_iterator(jobs.end()));
  }

  const EventLoop::ConnId conn = up->conn;
  upstream_by_conn_.erase(conn);
  upstreams_.erase(it);
  loop_->close_connection(conn);  // no-op when the close is what got us here
  rebuild_ring();
  rebalance_all();
}

// --- rebalance --------------------------------------------------------------

void ShardRouter::rebalance_all() {
  for (auto& [user, s] : sessions_) {
    const std::string target = ring_owner(user);
    if (s.replaying) {
      // Let an intact replay finish; restart it when its target changed or
      // vanished mid-flight.
      if (s.owner == target && upstream_by_key(s.owner) != nullptr) continue;
      if (target.empty()) {
        s.replaying = false;
        s.replay_outstanding = 0;
        s.owner.clear();
        finish_replay(user, s);  // drains held as Unavailable via forward
        continue;
      }
      start_replay(user, s, target);
      continue;
    }
    if (target.empty()) {
      s.owner.clear();  // log survives for the next add_worker
      s.rebalance_pending = false;
      while (!s.held.empty()) {
        send_error(s.held.front().client, s.held.front().request.id,
                   Status::Unavailable("no workers in the ring"));
        s.held.pop_front();
      }
      continue;
    }
    if (s.owner == target) continue;
    if (s.owner.empty() && s.log.empty() && s.in_flight == 0) {
      // Nothing to move: a never-assigned (or ring-emptied, fully reset)
      // session just picks up its owner.
      s.rebalance_pending = false;
      if (!s.held.empty()) {
        s.owner = target;
        finish_replay(user, s);
      }
      continue;
    }
    if (s.in_flight > 0) {
      // Acked disclosures enter the log; moving before the un-acked ones
      // drain would replay a log missing them.
      s.rebalance_pending = true;
      continue;
    }
    start_replay(user, s, target);
  }
}

void ShardRouter::start_replay(const std::string& user, SessionState& state,
                               const std::string& new_owner) {
  Upstream* up = upstream_by_key(new_owner);
  if (up == nullptr) return;  // rebalance_all re-runs on the next change
  state.replaying = true;
  state.rebalance_pending = false;
  state.owner = new_owner;
  state.replay_outstanding = 1 + state.log.size();

  WireRequest reset;
  reset.op = Op::kResetSession;
  reset.user = user;
  loop_->send_line(up->conn, serialize_request(reset));
  Forward f;
  f.kind = Forward::Kind::kReplay;
  f.user = user;
  up->fifo.push_back(f);
}

void ShardRouter::continue_replay(const std::string& user,
                                  SessionState& state) {
  Upstream* up = upstream_by_key(state.owner);
  if (up == nullptr) return;  // rebalance_all restarts the replay
  // Serialized once at ack time; replay is a verbatim byte send.
  const LogEntry& entry =
      state.log[state.log.size() - state.replay_outstanding];
  loop_->send_line(up->conn, entry.replay_frame);
  Forward f;
  f.kind = Forward::Kind::kReplay;
  f.user = user;
  up->fifo.push_back(f);
}

void ShardRouter::finish_replay(const std::string& user, SessionState& state) {
  state.replaying = false;
  while (!state.held.empty() && !state.replaying && !state.rebalance_pending) {
    HeldJob job = std::move(state.held.front());
    state.held.pop_front();
    forward_job(job.client, state, std::move(job.request));
  }
  (void)user;
}

// --- request routing --------------------------------------------------------

void ShardRouter::send_error(EventLoop::ConnId client, std::uint64_t id,
                             const Status& s) {
  WireResponse response;
  response.id = id;
  response.error = s.to_string();
  response.code = service::status_code_slug(s.code());
  loop_->send_line(client, serialize_response(response));
}

void ShardRouter::route_job(EventLoop::ConnId client, WireRequest request) {
  SessionState& s = sessions_[request.user];
  if (s.replaying || s.rebalance_pending) {
    s.held.push_back(HeldJob{client, std::move(request)});
    return;
  }
  if (s.owner.empty()) {
    const std::string owner = ring_owner(request.user);
    if (owner.empty()) {
      send_error(client, request.id,
                 Status::Unavailable("no workers in the ring"));
      if (s.log.empty() && s.held.empty() && s.in_flight == 0) {
        sessions_.erase(request.user);
      }
      return;
    }
    s.owner = owner;
  }
  forward_job(client, s, std::move(request));
}

void ShardRouter::forward_job(EventLoop::ConnId client, SessionState& state,
                              WireRequest request) {
  Upstream* up =
      state.owner.empty() ? nullptr : upstream_by_key(state.owner);
  if (up == nullptr) {
    send_error(client, request.id,
               Status::Unavailable("no worker owns this session"));
    return;
  }
  loop_->send_line(up->conn, serialize_request(request));
  Forward f;
  f.kind = request.op == Op::kAudit ? Forward::Kind::kAudit
                                    : Forward::Kind::kReset;
  f.client = client;
  f.user = request.user;
  f.request = std::move(request);
  up->fifo.push_back(std::move(f));
  ++state.in_flight;
}

void ShardRouter::on_line(EventLoop::ConnId conn, std::string line) {
  if (line.empty()) return;
  auto up_it = upstream_by_conn_.find(conn);
  if (up_it != upstream_by_conn_.end()) {
    handle_upstream_line(*up_it->second, line);
    return;
  }
  handle_client_line(conn, line);
}

void ShardRouter::handle_client_line(EventLoop::ConnId conn,
                                     const std::string& line) {
  WireRequest request;
  if (const Status s = parse_request(line, &request); !s.ok()) {
    send_error(conn, 0, s);
    return;
  }
  if (draining_) {
    send_error(conn, request.id, Status::Unavailable("router shutting down"));
    return;
  }
  switch (request.op) {
    case Op::kAudit:
    case Op::kResetSession:
      route_job(conn, std::move(request));
      return;
    case Op::kHello:
    case Op::kMetrics: {
      // No session key to route by: the first in-ring worker answers.
      Upstream* up = first_worker();
      if (up == nullptr) {
        send_error(conn, request.id,
                   Status::Unavailable("no workers in the ring"));
        return;
      }
      loop_->send_line(up->conn, serialize_request(request));
      Forward f;
      f.kind = Forward::Kind::kPassthrough;
      f.client = conn;
      f.request = std::move(request);
      up->fifo.push_back(std::move(f));
      return;
    }
    case Op::kAddWorker: {
      Address addr;
      Status s = parse_address(request.addr, &addr);
      if (s.ok()) s = add_worker(addr);
      WireResponse response;
      response.id = request.id;
      response.ok = s.ok();
      if (!s.ok()) {
        response.error = s.to_string();
        response.code = service::status_code_slug(s.code());
      }
      loop_->send_line(conn, serialize_response(response));
      return;
    }
    case Op::kRemoveWorker: {
      Upstream* up = upstream_by_key(request.addr);
      if (up == nullptr || !up->in_ring) {
        send_error(conn, request.id,
                   Status::InvalidArgument("'" + request.addr +
                                           "' is not an in-ring worker"));
        return;
      }
      // Graceful drain-out: off the ring now, sessions replay to their new
      // owners; the connection survives until its in-flight frames ack.
      up->in_ring = false;
      rebuild_ring();
      rebalance_all();
      WireResponse response;
      response.id = request.id;
      response.ok = true;
      loop_->send_line(conn, serialize_response(response));
      if (up->fifo.empty()) {
        const EventLoop::ConnId worker_conn = up->conn;
        upstream_by_conn_.erase(worker_conn);
        upstreams_.erase(up->key);
        loop_->close_connection(worker_conn);
      }
      return;
    }
    case Op::kShutdown: {
      WireResponse response;
      response.id = request.id;
      response.ok = true;
      loop_->send_line(conn, serialize_response(response));
      begin_shutdown();
      return;
    }
  }
}

void ShardRouter::handle_upstream_line(Upstream& upstream,
                                       const std::string& line) {
  upstream.missed_pings = 0;  // any traffic proves liveness
  if (upstream.fifo.empty()) {
    std::fprintf(stderr,
                 "shard_router: unexpected frame from %s (empty fifo)\n",
                 upstream.key.c_str());
    return;
  }
  Forward f = std::move(upstream.fifo.front());
  upstream.fifo.pop_front();

  switch (f.kind) {
    case Forward::Kind::kPing:
    case Forward::Kind::kShutdown:
      break;
    case Forward::Kind::kPassthrough:
      loop_->send_line(f.client, line);
      break;
    case Forward::Kind::kReplay: {
      auto it = sessions_.find(f.user);
      if (it == sessions_.end() || !it->second.replaying) break;
      WireResponse response;
      if (!parse_response(line, &response).ok() || !response.ok) {
        std::fprintf(stderr,
                     "shard_router: replay frame for '%s' failed: %s\n",
                     f.user.c_str(), line.c_str());
      }
      if (--it->second.replay_outstanding == 0) {
        finish_replay(f.user, it->second);
      } else {
        continue_replay(f.user, it->second);
      }
      break;
    }
    case Forward::Kind::kAudit:
    case Forward::Kind::kReset: {
      loop_->send_line(f.client, line);  // verbatim: the worker's bytes
      auto it = sessions_.find(f.user);
      if (it == sessions_.end()) break;
      SessionState& s = it->second;
      if (s.in_flight > 0) --s.in_flight;
      WireResponse response;
      if (parse_response(line, &response).ok() && response.ok) {
        if (f.kind == Forward::Kind::kReset) {
          s.log.clear();
        } else if (!response.denied) {
          // An acked successful disclosure: this is the replay script. The
          // replayed-log frame is built and serialized here, once, so every
          // future rebalance replays it as stored bytes.
          LogEntry entry;
          entry.query = f.request.query;
          entry.answer = response.answer;
          WireRequest replay;
          replay.op = Op::kAudit;
          replay.user = f.user;
          replay.query = entry.query;
          replay.answer = entry.answer;
          entry.replay_frame = serialize_request(replay);
          s.log.push_back(std::move(entry));
        }
      }
      if (s.rebalance_pending && s.in_flight == 0) {
        const std::string target = ring_owner(f.user);
        if (target.empty()) {
          s.rebalance_pending = false;
          s.owner.clear();
        } else {
          start_replay(f.user, s, target);
        }
      }
      break;
    }
  }

  // A drained-out worker leaves once its last in-flight frame acks.
  if (!upstream.in_ring && !draining_ && upstream.fifo.empty()) {
    const EventLoop::ConnId conn = upstream.conn;
    const std::string key = upstream.key;
    upstream_by_conn_.erase(conn);
    upstreams_.erase(key);
    loop_->close_connection(conn);
  }
}

// --- health & shutdown ------------------------------------------------------

void ShardRouter::schedule_health_check() {
  if (draining_ || options_.health_interval.count() <= 0 ||
      health_timer_armed_) {
    return;
  }
  health_timer_armed_ = true;
  loop_->post_at(
      std::chrono::steady_clock::now() + options_.health_interval, [this] {
        health_timer_armed_ = false;
        if (draining_) return;
        std::vector<std::string> dead;
        for (const auto& [key, up] : upstreams_) {
          if (up->missed_pings >= options_.health_max_missed) {
            dead.push_back(key);
          }
        }
        for (const std::string& key : dead) worker_died(key);
        for (const auto& [key, up] : upstreams_) {
          WireRequest ping;
          ping.op = Op::kHello;
          loop_->send_line(up->conn, serialize_request(ping));
          Forward f;
          f.kind = Forward::Kind::kPing;
          up->fifo.push_back(std::move(f));
          ++up->missed_pings;
        }
        schedule_health_check();
      });
}

void ShardRouter::begin_shutdown() {
  if (draining_) return;
  draining_ = true;
  loop_->close_listeners();
  for (auto& [user, s] : sessions_) {
    while (!s.held.empty()) {
      send_error(s.held.front().client, s.held.front().request.id,
                 Status::Unavailable("router shutting down"));
      s.held.pop_front();
    }
  }
  for (const auto& [key, up] : upstreams_) {
    WireRequest request;
    request.op = Op::kShutdown;
    loop_->send_line(up->conn, serialize_request(request));
    Forward f;
    f.kind = Forward::Kind::kShutdown;
    up->fifo.push_back(std::move(f));
  }
  maybe_finish_drain();
}

void ShardRouter::maybe_finish_drain() {
  if (!draining_ || !upstreams_.empty()) return;
  // Workers have drained and hung up; flush-and-close every client.
  const std::vector<EventLoop::ConnId> open(clients_.begin(), clients_.end());
  for (const EventLoop::ConnId conn : open) loop_->close_connection(conn);
  if (loop_->connection_count() == 0) loop_->stop();
}

}  // namespace net
}  // namespace epi
