// Socket transport for the serve wire protocol: one daemon, two
// listeners, one fleet.
//
// SocketDaemon fronts a serve::Fleet: run() polls a Unix-domain listener
// and (when configured) a loopback TCP listener from ONE accept loop and
// spawns a handler thread per connection. Handlers read framed
// WireRequests, route kInfer by model name to that model's Server (a
// submit that races a hot-swap and lands on the draining old server is
// re-routed to the new one, up to 3 attempts in all), apply kSwap through
// the installed swap factory, answer kStats from Fleet::stats_text, and
// write framed WireResponses. Every connection carries a receive timeout
// (DaemonOptions::read_timeout_ms): a client that stalls mid-frame is
// dropped — it can never wedge the acceptor or a clean shutdown, because
// run()'s exit path also shuts down every open connection before joining
// handlers. A kShutdown frame (or stop() from another thread) wakes the
// poll loop via a self-pipe, drains the fleet, and lets run() return.
//
// Startup is stale-socket safe: a bound-but-dead UDS path left by a
// crashed daemon is detected by probe-connect (ECONNREFUSED = nobody
// home), unlinked, and rebound; a path with a LIVE daemon behind it makes
// the constructor throw instead of silently stealing the address.
//
// Fault sites (chaos drills): kAccept drops freshly accepted connections,
// kFrameDecode fails request decodes (the client still gets a definite
// error response), kRegistrySwap fails swaps before they commit.
//
// The client helpers speak both transports via an endpoint string:
//   "/path/to.sock" | "unix:/path/to.sock"  Unix-domain socket
//   "tcp:<port>" | "tcp:<host>:<port>"      TCP (host defaults to
//                                           127.0.0.1)
// One-shot helpers connect/send/read/close per call; ClientConnection
// keeps one framed connection open across round trips (loadgen's per-
// client path). Both throw std::runtime_error on connect/protocol errors.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "clado/serve/fleet.h"
#include "clado/serve/serve.h"
#include "clado/serve/wire.h"

namespace clado::serve {

struct DaemonOptions {
  std::string socket_path;  ///< UDS listener path; empty = no UDS listener
  /// TCP listener port on 127.0.0.1; -1 = no TCP listener, 0 = ephemeral
  /// (kernel-assigned; read it back via tcp_port()).
  int tcp_port = -1;
  /// Per-connection receive timeout; a connection idle (or stalled
  /// mid-frame) past this is dropped and counted in serve.read_timeouts.
  std::int64_t read_timeout_ms = 30'000;

  /// Defaults overridden by CLADO_SERVE_TCP_PORT / _READ_TIMEOUT_MS
  /// (strict parsing; garbage throws).
  static DaemonOptions from_env();
};

/// Builds a fresh Server for a hot-swap: `bits` per Engine semantics
/// (empty = fp32). Installed by the daemon's owner, which holds the master
/// weights; throws to reject the swap (the fleet keeps the old engine).
using SwapFactory = std::function<std::shared_ptr<Server>(const std::string& model,
                                                          const std::vector<int>& bits)>;

class SocketDaemon {
 public:
  /// Binds the configured listeners. Throws std::runtime_error on
  /// bind/listen failure, on a UDS path owned by a live daemon, or when no
  /// listener is configured. The fleet must outlive the daemon.
  SocketDaemon(Fleet& fleet, DaemonOptions options);
  /// Stops the accept loop (if still running) and removes the socket file.
  ~SocketDaemon();
  SocketDaemon(const SocketDaemon&) = delete;
  SocketDaemon& operator=(const SocketDaemon&) = delete;

  /// Blocking accept loop; returns after a kShutdown frame or stop().
  /// All connection handlers are joined and the fleet drained on return.
  void run();

  /// Thread-safe shutdown trigger; wakes a blocked run().
  void stop();

  /// Enables kSwap control frames; without a factory they are rejected.
  void set_swap_factory(SwapFactory factory);

  const std::string& socket_path() const { return options_.socket_path; }
  /// Actual bound TCP port (resolves tcp_port = 0); -1 when TCP is off.
  int tcp_port() const { return bound_tcp_port_; }

 private:
  struct Handler {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };

  void bind_listeners();
  void handle_connection(int fd);
  WireResponse dispatch(const WireRequest& req);
  void reap_finished_handlers();  ///< joins handlers whose loop has exited
  void close_listeners();

  Fleet* fleet_;
  DaemonOptions options_;
  SwapFactory swap_factory_;
  int bound_tcp_port_ = -1;

  std::atomic<int> uds_fd_{-1};
  std::atomic<int> tcp_fd_{-1};
  int wake_pipe_[2] = {-1, -1};  ///< self-pipe: stop() wakes the poll loop
  std::atomic<bool> stopping_{false};
  std::mutex handlers_mutex_;
  std::list<Handler> handlers_;
  std::mutex conns_mutex_;
  /// Open connection fds; shut down on exit so no handler outlives run().
  std::set<int> conns_;
};

/// Sends one sample to a running daemon and returns its decoded response.
WireResponse query_socket(const std::string& endpoint, const Tensor& sample,
                          std::int64_t deadline_us = 0, const std::string& model = "",
                          DeadlineClass klass = DeadlineClass::kInteractive);

/// Liveness probe: true iff the daemon answered the ping with kOk.
bool ping_socket(const std::string& endpoint);

/// Asks the daemon to drain and exit; true iff it acknowledged.
bool shutdown_socket(const std::string& endpoint);

/// Hot-swaps `model` to `bits` (empty = fp32) via the daemon's swap
/// factory; returns the daemon's response (kOk on success).
WireResponse swap_socket(const std::string& endpoint, const std::string& model,
                         const std::vector<int>& bits);

/// Fleet stats snapshot; throws if the daemon is unreachable.
std::string stats_socket(const std::string& endpoint);

/// One framed connection reused across round trips.
class ClientConnection {
 public:
  explicit ClientConnection(const std::string& endpoint);
  ~ClientConnection();
  ClientConnection(const ClientConnection&) = delete;
  ClientConnection& operator=(const ClientConnection&) = delete;

  /// Sends one request frame and blocks for the response frame. Throws
  /// std::runtime_error on transport or protocol failure; the connection
  /// is unusable afterwards.
  WireResponse roundtrip(const WireRequest& req);

 private:
  int fd_ = -1;
};

}  // namespace clado::serve
