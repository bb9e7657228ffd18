// clado::serve::Fleet — the daemon's model table: each name maps to one
// Server.
//
// A model runs on one admission-controlled Server wrapping its own Engine;
// the Server's worker threads are what runs its micro-batches
// concurrently (ServerConfig::workers), so route() is a table lookup.
//
// Hot-swap contract (put on an existing name): the table is flipped to
// the new server first — lookups atomically see either the old server or
// the new one — and only then is the old server drained, off the registry
// lock. Work already admitted to the old server completes on the old
// engine (shared_ptr holders keep it alive); work that races the flip and
// lands on the draining old server is answered kShutdown, which the
// daemon's dispatch loop converts into a re-route against the new server.
// The clado::fault site kRegistrySwap fires *before* the flip, so an
// injected swap failure leaves the table untouched (strong exception
// safety — chaos drills assert it).
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "clado/serve/serve.h"
#include "clado/tensor/check.h"

namespace clado::serve {

class Fleet {
 public:
  /// Installs `server` (non-null) as the server for `name`, replacing any
  /// previous one. The previous server is drained (admitted work
  /// completes) after the table points at the new one, then released.
  /// Throws std::invalid_argument on an empty name or a null server and
  /// clado::fault::FaultInjected when kRegistrySwap fires; each leaves the
  /// table unchanged.
  void put(const std::string& name, std::shared_ptr<Server> server);

  /// The server of `name`. An empty `name` routes to the sole model when
  /// exactly one is loaded. Returns nullptr when the name is unknown (or
  /// empty while several models are loaded).
  std::shared_ptr<Server> route(const std::string& name) const;

  /// Resolves the routing key the same way route() does: the actual table
  /// key, or nullopt when unknown/ambiguous.
  std::optional<std::string> resolve_name(const std::string& name) const;

  /// Removes `name`, draining its server. False when unknown.
  bool erase(const std::string& name);

  /// Drains every model's server (clean shutdown path).
  void drain_all();

  std::vector<std::string> names() const;
  std::size_t size() const;

  /// Human-readable per-model snapshot (engine label, queue depth, latency
  /// summary) — the payload of the kStats control frame.
  std::string stats_text() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<Server>> table_ CLADO_GUARDED_BY(mutex_);
};

}  // namespace clado::serve
