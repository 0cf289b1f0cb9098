// The open-loop load generator of the served workloads: one sender thread
// writes pre-serialized request lines on a fixed schedule over at most four
// connections, one receiver thread matches responses by id. Every latency is
// measured from the request's intended send time, so a stalled server cannot
// slow the generator down and hide the stall; how late the sender itself ran
// is recorded per request so a run whose generator fell behind is marked
// invalid instead of slow.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct WireOp {
  std::string line;    ///< one request frame, '\n'-terminated, id = index + 1
  unsigned conn = 0;   ///< connection index (fixed per user: keeps order)
};

struct PhaseResult {
  std::vector<double> latency_us;   ///< from intended send; NaN = lost
  std::vector<double> send_lag_us;  ///< actual minus intended send time
  std::vector<std::string> responses;  ///< raw frame; empty = lost
  /// Requests sent but not yet answered, sampled at each send.
  std::vector<std::uint32_t> in_flight;
  double send_seconds = 0;
};

/// Connects `connections` sockets to `address` (unix:PATH or tcp:HOST:PORT),
/// sends ops[i] at start + i / rate, and waits up to `drain_seconds` after
/// the last send for the remaining responses. Throws on connect failure.
PhaseResult run_open_loop(const std::string& address, unsigned connections,
                          const std::vector<WireOp>& ops, double rate,
                          double drain_seconds);

}  // namespace perfbench
