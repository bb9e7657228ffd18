#include "clado/serve/socket.h"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <system_error>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "clado/fault/fault.h"
#include "clado/obs/obs.h"
#include "clado/tensor/env.h"

namespace clado::serve {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Thrown when a read hits the connection's SO_RCVTIMEO budget; the daemon
/// counts these separately from peers that vanished mid-frame.
class ReadTimeout : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// RAII socket fd so every exit path (including decode exceptions in a
/// handler thread) closes the descriptor exactly once.
class Fd {
 public:
  explicit Fd(int fd = -1) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

  int get() const { return fd_; }
  int release() { return std::exchange(fd_, -1); }
  void reset() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

void write_all(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("serve socket write");
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

/// False on clean EOF at a frame boundary; throws on mid-frame EOF. A read
/// that trips the socket's receive timeout throws ReadTimeout.
bool read_all(int fd, std::uint8_t* data, std::size_t len, bool eof_ok) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::read(fd, data + got, len - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw ReadTimeout("serve socket: peer stalled past the read timeout");
      }
      throw_errno("serve socket read");
    }
    if (n == 0) {
      if (got == 0 && eof_ok) return false;
      throw std::runtime_error("serve socket: peer closed mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

void send_frame(int fd, const std::vector<std::uint8_t>& payload) {
  std::uint8_t prefix[4];
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) prefix[i] = static_cast<std::uint8_t>(len >> (8 * i));
  write_all(fd, prefix, sizeof(prefix));
  write_all(fd, payload.data(), payload.size());
}

/// Empty vector on clean EOF before a new frame.
std::vector<std::uint8_t> recv_frame(int fd) {
  std::uint8_t prefix[4];
  if (!read_all(fd, prefix, sizeof(prefix), /*eof_ok=*/true)) return {};
  std::uint32_t len = 0;
  for (int i = 3; i >= 0; --i) len = (len << 8) | prefix[i];
  if (len == 0 || len > kWireMaxFrameBytes) {
    throw std::runtime_error("serve socket: frame length " + std::to_string(len) +
                             " out of range");
  }
  std::vector<std::uint8_t> payload(len);
  read_all(fd, payload.data(), payload.size(), /*eof_ok=*/false);
  return payload;
}

/// Framed request/response round trips are latency-bound small writes;
/// Nagle + delayed ACK stacks ~40ms onto every one of them.
void set_tcp_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("serve socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

// ---- endpoint strings ------------------------------------------------------

struct Endpoint {
  bool tcp = false;
  std::string host;  ///< numeric IPv4 (tcp only)
  int port = 0;      ///< tcp only
  std::string path;  ///< uds only
};

int parse_port(const std::string& text, const std::string& endpoint) {
  try {
    return static_cast<int>(clado::tensor::parse_int_strict(text, 1, 65535, "TCP port"));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error("serve endpoint '" + endpoint + "': " + e.what());
  }
}

Endpoint parse_endpoint(const std::string& endpoint) {
  Endpoint e;
  if (endpoint.rfind("tcp:", 0) == 0) {
    e.tcp = true;
    const std::string rest = endpoint.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos) {
      e.host = "127.0.0.1";
      e.port = parse_port(rest, endpoint);
    } else {
      e.host = rest.substr(0, colon);
      e.port = parse_port(rest.substr(colon + 1), endpoint);
    }
    if (e.host.empty() || e.host == "localhost") e.host = "127.0.0.1";
    return e;
  }
  e.path = endpoint.rfind("unix:", 0) == 0 ? endpoint.substr(5) : endpoint;
  if (e.path.empty()) {
    throw std::runtime_error("serve endpoint '" + endpoint + "': empty socket path");
  }
  return e;
}

Fd connect_endpoint(const std::string& endpoint) {
  const Endpoint e = parse_endpoint(endpoint);
  if (e.tcp) {
    Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (fd.get() < 0) throw_errno("serve tcp socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(e.port));
    if (::inet_pton(AF_INET, e.host.c_str(), &addr.sin_addr) != 1) {
      throw std::runtime_error("serve endpoint '" + endpoint + "': host '" + e.host +
                               "' is not a numeric IPv4 address");
    }
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw_errno("serve connect to " + endpoint);
    }
    set_tcp_nodelay(fd.get());
    return fd;
  }
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (fd.get() < 0) throw_errno("serve socket");
  const sockaddr_un addr = make_addr(e.path);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw_errno("serve connect to " + e.path);
  }
  return fd;
}

WireResponse roundtrip_once(const std::string& endpoint, const WireRequest& req) {
  const Fd fd = connect_endpoint(endpoint);
  send_frame(fd.get(), encode_request(req));
  const std::vector<std::uint8_t> payload = recv_frame(fd.get());
  if (payload.empty()) {
    throw std::runtime_error("serve socket: daemon closed without responding");
  }
  return decode_response(payload);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    throw_errno("serve fcntl O_NONBLOCK");
  }
}

void set_recv_timeout(int fd, std::int64_t timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    throw_errno("serve setsockopt SO_RCVTIMEO");
  }
}

/// True when a connect() to the UDS path reaches a listening daemon.
bool uds_alive(const std::string& path) {
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (fd.get() < 0) return false;
  const sockaddr_un addr = make_addr(path);
  return ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
}

}  // namespace

DaemonOptions DaemonOptions::from_env() {
  using clado::tensor::env_int_strict;
  DaemonOptions o;
  if (const auto v = env_int_strict("CLADO_SERVE_TCP_PORT", 0, 65535)) {
    o.tcp_port = static_cast<int>(*v);
  }
  if (const auto v = env_int_strict("CLADO_SERVE_READ_TIMEOUT_MS", 1, 600'000)) {
    o.read_timeout_ms = *v;
  }
  return o;
}

SocketDaemon::SocketDaemon(Fleet& fleet, DaemonOptions options)
    : fleet_(&fleet), options_(std::move(options)) {
  bind_listeners();
}

void SocketDaemon::bind_listeners() {
  if (options_.socket_path.empty() && options_.tcp_port < 0) {
    throw std::runtime_error("serve daemon: no listener configured (need a UDS path "
                             "and/or a TCP port)");
  }
  if (::pipe(wake_pipe_) != 0) throw_errno("serve wake pipe");

  if (!options_.socket_path.empty()) {
    const std::string& path = options_.socket_path;
    // Stale-socket startup: a daemon that crashed leaves the path bound,
    // so a blind bind() fails with EADDRINUSE forever. Probe-connect first:
    // an answering peer means the address is genuinely taken; a refused
    // connect means the socket file is an orphan and safe to unlink.
    if (std::filesystem::exists(path)) {
      if (uds_alive(path)) {
        throw std::runtime_error("serve bind " + path +
                                 ": a live daemon is already listening here (stop it or "
                                 "choose another --socket path)");
      }
      clado::obs::counter("serve.stale_sockets_reclaimed").add();
      std::error_code ec;
      std::filesystem::remove(path, ec);
    }
    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (fd.get() < 0) throw_errno("serve socket");
    const sockaddr_un addr = make_addr(path);
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw_errno("serve bind " + path);
    }
    if (::listen(fd.get(), 128) != 0) throw_errno("serve listen " + path);
    set_nonblocking(fd.get());
    uds_fd_.store(fd.release());
  }

  if (options_.tcp_port >= 0) {
    Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (fd.get() < 0) throw_errno("serve tcp socket");
    const int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, by design
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw_errno("serve tcp bind port " + std::to_string(options_.tcp_port));
    }
    if (::listen(fd.get(), 128) != 0) {
      throw_errno("serve tcp listen port " + std::to_string(options_.tcp_port));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      throw_errno("serve tcp getsockname");
    }
    bound_tcp_port_ = static_cast<int>(ntohs(bound.sin_port));
    set_nonblocking(fd.get());
    tcp_fd_.store(fd.release());
  }
}

SocketDaemon::~SocketDaemon() {
  stop();
  close_listeners();
  {
    const std::lock_guard<std::mutex> lock(conns_mutex_);
    for (const int fd : conns_) ::shutdown(fd, SHUT_RD);
  }
  {
    const std::lock_guard<std::mutex> lock(handlers_mutex_);
    for (Handler& h : handlers_) {
      if (h.thread.joinable()) h.thread.join();
    }
    handlers_.clear();
  }
  for (int& fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  if (!options_.socket_path.empty()) {
    std::error_code ec;
    std::filesystem::remove(options_.socket_path, ec);
  }
}

void SocketDaemon::stop() {
  if (stopping_.exchange(true)) return;
  // The poll loop blocks on the wake pipe's read end; one byte wakes it on
  // whichever listener set is active (UDS, TCP, or both).
  const std::uint8_t byte = 1;
  if (wake_pipe_[1] >= 0) {
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

void SocketDaemon::set_swap_factory(SwapFactory factory) {
  swap_factory_ = std::move(factory);
}

void SocketDaemon::close_listeners() {
  for (auto* slot : {&uds_fd_, &tcp_fd_}) {
    const int fd = slot->exchange(-1);
    if (fd >= 0) ::close(fd);
  }
}

void SocketDaemon::reap_finished_handlers() {
  const std::lock_guard<std::mutex> lock(handlers_mutex_);
  for (auto it = handlers_.begin(); it != handlers_.end();) {
    if (it->done->load(std::memory_order_acquire)) {
      if (it->thread.joinable()) it->thread.join();
      it = handlers_.erase(it);
    } else {
      ++it;
    }
  }
}

void SocketDaemon::run() {
  clado::obs::counter("serve.daemon_starts").add();
  while (!stopping_.load()) {
    pollfd fds[3];
    int nfds = 0;
    fds[nfds++] = {wake_pipe_[0], POLLIN, 0};
    const int uds = uds_fd_.load();
    const int tcp = tcp_fd_.load();
    if (uds >= 0) fds[nfds++] = {uds, POLLIN, 0};
    if (tcp >= 0) fds[nfds++] = {tcp, POLLIN, 0};
    const int rc = ::poll(fds, static_cast<nfds_t>(nfds), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) != 0) break;  // stop()
    for (int i = 1; i < nfds; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const int conn = ::accept(fds[i].fd, nullptr, nullptr);
      if (conn < 0) {
        // Non-blocking listener: a connection that vanished between poll
        // and accept (or transient fd pressure) must not kill the loop.
        if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR &&
            errno != ECONNABORTED) {
          clado::obs::counter("serve.accept_errors").add();
        }
        continue;
      }
      if (fds[i].fd == tcp) set_tcp_nodelay(conn);
      if (clado::fault::should_inject(clado::fault::Site::kAccept)) {
        // Injected accept failure: the connection is dropped before any
        // frame is read — the client sees a clean EOF, the daemon stays up.
        ::close(conn);
        continue;
      }
      {
        const std::lock_guard<std::mutex> lock(conns_mutex_);
        conns_.insert(conn);
      }
      reap_finished_handlers();
      auto done = std::make_shared<std::atomic<bool>>(false);
      const std::lock_guard<std::mutex> lock(handlers_mutex_);
      handlers_.push_back(Handler{std::thread([this, conn, done] {
                                    handle_connection(conn);
                                    done->store(true, std::memory_order_release);
                                  }),
                                  done});
    }
  }
  close_listeners();
  {
    // SHUT_RD, not SHUT_RDWR: wake every handler blocked on a next-frame
    // read (it sees clean EOF) while still letting an in-flight response
    // finish its write — admitted work resolves even at shutdown.
    const std::lock_guard<std::mutex> lock(conns_mutex_);
    for (const int fd : conns_) ::shutdown(fd, SHUT_RD);
  }
  {
    const std::lock_guard<std::mutex> lock(handlers_mutex_);
    for (Handler& h : handlers_) {
      if (h.thread.joinable()) h.thread.join();
    }
    handlers_.clear();
  }
  fleet_->drain_all();
}

WireResponse SocketDaemon::dispatch(const WireRequest& req) {
  WireResponse resp;
  switch (req.type) {
    case MsgType::kPing:
      resp.status = Status::kOk;
      return resp;
    case MsgType::kStats:
      resp.status = Status::kOk;
      resp.stats = fleet_->stats_text();
      return resp;
    case MsgType::kSwap: {
      const auto name = req.model.empty() ? fleet_->resolve_name("")
                                          : std::optional<std::string>(req.model);
      if (!name.has_value()) {
        resp.status = Status::kUnknownModel;
        resp.error = "swap: name a model (several are loaded)";
        return resp;
      }
      if (!swap_factory_) {
        resp.status = Status::kInvalidInput;
        resp.error = "swap: this daemon has no swap factory installed";
        return resp;
      }
      try {
        const clado::obs::Span span("serve/hot_swap");
        fleet_->put(*name, swap_factory_(*name, req.swap_bits));
        resp.status = Status::kOk;
        resp.stats = "swapped " + *name + " (" + std::to_string(req.swap_bits.size()) +
                     " bit entries)";
      } catch (const std::exception& e) {
        clado::obs::counter("serve.swap_failures").add();
        resp.status = Status::kEngineError;
        resp.error = std::string("swap failed (old engines stay in service): ") + e.what();
      }
      return resp;
    }
    case MsgType::kInfer: {
      for (int attempt = 0; attempt < 3; ++attempt) {
        const std::shared_ptr<Server> server = fleet_->route(req.model);
        if (server == nullptr) {
          resp.status = Status::kUnknownModel;
          resp.error = req.model.empty()
                           ? "no model routable (name one of the loaded models)"
                           : "unknown model '" + req.model + "'";
          return resp;
        }
        Response r = server->submit(req.input, req.deadline_us, req.klass).get();
        if (r.status == Status::kShutdown && !stopping_.load()) {
          // The server started draining under us (hot-swap flipped the
          // table between route() and submit()); re-route to the new one.
          clado::obs::counter("serve.swap_reroutes").add();
          continue;
        }
        resp.status = r.status;
        resp.predicted = r.predicted;
        resp.queue_us = r.queue_us;
        resp.total_us = r.total_us;
        resp.error = std::move(r.error);
        if (r.status == Status::kOk) {
          resp.logits.assign(r.logits.flat().begin(), r.logits.flat().end());
        }
        return resp;
      }
      resp.status = Status::kShutdown;
      resp.error = "server kept draining across re-routes";
      return resp;
    }
    case MsgType::kShutdown:
      resp.status = Status::kShutdown;
      return resp;
  }
  resp.status = Status::kInvalidInput;
  resp.error = "unhandled request type";
  return resp;
}

void SocketDaemon::handle_connection(int raw_fd) {
  clado::obs::counter("serve.connections").add();
  try {
    set_recv_timeout(raw_fd, options_.read_timeout_ms);
    while (true) {
      const std::vector<std::uint8_t> payload = recv_frame(raw_fd);
      if (payload.empty()) break;  // client hung up cleanly
      WireResponse resp;
      try {
        clado::fault::maybe_throw(clado::fault::Site::kFrameDecode, "daemon frame decode");
        const WireRequest req = decode_request(payload);
        resp = dispatch(req);
        if (req.type == MsgType::kShutdown) {
          send_frame(raw_fd, encode_response(resp));
          stop();
          break;
        }
      } catch (const std::exception& e) {
        // Malformed (or fault-injected) frame: the client still gets a
        // definite answer instead of a dropped connection.
        clado::obs::counter("serve.protocol_errors").add();
        resp = WireResponse{};
        resp.status = Status::kInvalidInput;
        resp.error = e.what();
      }
      send_frame(raw_fd, encode_response(resp));
    }
  } catch (const ReadTimeout&) {
    // Stalled client: it held a connection mid-frame past read_timeout_ms.
    // Dropping it frees this handler; the acceptor was never involved.
    clado::obs::counter("serve.read_timeouts").add();
  } catch (const std::exception&) {
    // Transport failure on this connection (peer vanished mid-frame);
    // drop the connection, keep the daemon up.
    clado::obs::counter("serve.connection_errors").add();
  }
  // Deregister-then-close under the lock: run()'s exit path shuts down
  // every registered fd, and must never race a close that lets the kernel
  // recycle the descriptor for an unrelated file.
  const std::lock_guard<std::mutex> lock(conns_mutex_);
  conns_.erase(raw_fd);
  ::close(raw_fd);
}

WireResponse query_socket(const std::string& endpoint, const Tensor& sample,
                          std::int64_t deadline_us, const std::string& model,
                          DeadlineClass klass) {
  WireRequest req;
  req.type = MsgType::kInfer;
  req.deadline_us = deadline_us;
  req.model = model;
  req.klass = klass;
  req.input = sample;
  return roundtrip_once(endpoint, req);
}

bool ping_socket(const std::string& endpoint) {
  try {
    WireRequest req;
    req.type = MsgType::kPing;
    return roundtrip_once(endpoint, req).status == Status::kOk;
  } catch (const std::exception&) {
    return false;
  }
}

bool shutdown_socket(const std::string& endpoint) {
  try {
    WireRequest req;
    req.type = MsgType::kShutdown;
    return roundtrip_once(endpoint, req).status == Status::kShutdown;
  } catch (const std::exception&) {
    return false;
  }
}

WireResponse swap_socket(const std::string& endpoint, const std::string& model,
                         const std::vector<int>& bits) {
  WireRequest req;
  req.type = MsgType::kSwap;
  req.model = model;
  req.swap_bits = bits;
  return roundtrip_once(endpoint, req);
}

std::string stats_socket(const std::string& endpoint) {
  WireRequest req;
  req.type = MsgType::kStats;
  const WireResponse resp = roundtrip_once(endpoint, req);
  if (resp.status != Status::kOk) {
    throw std::runtime_error("serve stats: daemon answered " +
                             std::string(status_name(resp.status)) + " " + resp.error);
  }
  return resp.stats;
}

ClientConnection::ClientConnection(const std::string& endpoint) {
  fd_ = connect_endpoint(endpoint).release();
}

ClientConnection::~ClientConnection() {
  if (fd_ >= 0) ::close(fd_);
}

WireResponse ClientConnection::roundtrip(const WireRequest& req) {
  send_frame(fd_, encode_request(req));
  const std::vector<std::uint8_t> payload = recv_frame(fd_);
  if (payload.empty()) {
    throw std::runtime_error("serve socket: daemon closed without responding");
  }
  return decode_response(payload);
}

}  // namespace clado::serve
