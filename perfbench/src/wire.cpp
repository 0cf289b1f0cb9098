#include "wire.h"

#include <pthread.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "net/address.h"

namespace perfbench {
namespace {

int dial(const std::string& address) {
  epi::net::Address addr;
  if (const epi::Status s = epi::net::parse_address(address, &addr); !s.ok()) {
    throw std::runtime_error(s.to_string());
  }
  int fd = -1;
  if (const epi::Status s = epi::net::connect_to(addr, &fd); !s.ok()) {
    throw std::runtime_error(s.to_string());
  }
  return fd;
}

void send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("send failed: " + std::string(strerror(errno)));
    }
    sent += static_cast<std::size_t>(n);
  }
}

/// The id field of a response frame (the first "id" key), or 0.
std::uint64_t frame_id(const std::string& line) {
  const std::size_t at = line.find("\"id\":");
  if (at == std::string::npos) return 0;
  std::size_t i = at + 5;
  while (i < line.size() && line[i] == ' ') ++i;
  std::uint64_t id = 0;
  while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
    id = id * 10 + static_cast<std::uint64_t>(line[i] - '0');
    ++i;
  }
  return id;
}

/// Lets the generator's threads run the moment they wake, ahead of the
/// servers they load: a sender waiting for a CPU shows up as send lag and a
/// receiver waiting for one inflates every latency. Both threads sleep
/// between events, so they take little CPU from the servers. Needs
/// CAP_SYS_NICE; without it the threads keep the default policy.
void prefer_this_thread() {
  sched_param param{};
  param.sched_priority = 1;
  (void)::pthread_setschedparam(::pthread_self(), SCHED_FIFO, &param);
}

}  // namespace

PhaseResult run_open_loop(const std::string& address, unsigned connections,
                          const std::vector<WireOp>& ops, double rate,
                          double drain_seconds) {
  const std::size_t n = ops.size();
  PhaseResult result;
  result.latency_us.assign(n, std::numeric_limits<double>::quiet_NaN());
  result.send_lag_us.assign(n, 0.0);
  result.responses.assign(n, std::string());
  result.in_flight.assign(n, 0);

  std::vector<int> fds;
  for (unsigned c = 0; c < connections; ++c) fds.push_back(dial(address));

  const int ep = ::epoll_create1(0);
  for (unsigned c = 0; c < connections; ++c) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = c;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, fds[c], &ev);
  }

  std::atomic<std::size_t> received{0};
  std::atomic<bool> sending_done{false};
  // Intended send times live on one origin shared by both threads.
  const Clock::time_point origin = Clock::now() + std::chrono::milliseconds(20);
  auto intended = [&](std::size_t i) {
    return origin + std::chrono::nanoseconds(static_cast<std::int64_t>(
                        1e9 * static_cast<double>(i) / rate));
  };

  std::thread receiver([&] {
    prefer_this_thread();
    std::vector<std::string> partial(connections);
    char buffer[1 << 16];
    epoll_event events[8];
    Clock::time_point drain_deadline = Clock::time_point::max();
    while (received.load(std::memory_order_relaxed) < n) {
      if (sending_done.load(std::memory_order_acquire) &&
          drain_deadline == Clock::time_point::max()) {
        drain_deadline =
            Clock::now() + std::chrono::milliseconds(
                               static_cast<std::int64_t>(drain_seconds * 1000));
      }
      if (Clock::now() >= drain_deadline) break;
      const int ready = ::epoll_wait(ep, events, 8, 5);
      const Clock::time_point now = Clock::now();
      for (int e = 0; e < ready; ++e) {
        const unsigned c = events[e].data.u32;
        for (;;) {
          const ssize_t got = ::recv(fds[c], buffer, sizeof buffer, MSG_DONTWAIT);
          if (got <= 0) break;
          std::string& pending = partial[c];
          pending.append(buffer, static_cast<std::size_t>(got));
          std::size_t start = 0;
          for (std::size_t nl; (nl = pending.find('\n', start)) != std::string::npos;
               start = nl + 1) {
            std::string line = pending.substr(start, nl - start);
            const std::uint64_t id = frame_id(line);
            if (id == 0 || id > n || !result.responses[id - 1].empty()) continue;
            result.latency_us[id - 1] = micros_between(intended(id - 1), now);
            result.responses[id - 1] = std::move(line);
            received.fetch_add(1, std::memory_order_relaxed);
          }
          pending.erase(0, start);
        }
      }
    }
  });

  // Tight sleeps: the default 50 us timer slack would show up as send lag.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  prefer_this_thread();
  const Clock::time_point send_start = Clock::now();
  try {
    for (std::size_t i = 0; i < n; ++i) {
      const Clock::time_point due = intended(i);
      Clock::time_point now = Clock::now();
      if (now < due) {
        std::this_thread::sleep_until(due);
        now = Clock::now();
      }
      result.send_lag_us[i] = micros_between(due, now);
      result.in_flight[i] = static_cast<std::uint32_t>(
          i - std::min(i, received.load(std::memory_order_relaxed)));
      send_all(fds[ops[i].conn], ops[i].line);
    }
  } catch (...) {
    sending_done.store(true, std::memory_order_release);
    receiver.join();
    for (int fd : fds) ::close(fd);
    ::close(ep);
    throw;
  }
  result.send_seconds = seconds_since(send_start);
  sending_done.store(true, std::memory_order_release);
  receiver.join();
  for (int fd : fds) ::close(fd);
  ::close(ep);
  return result;
}

}  // namespace perfbench
