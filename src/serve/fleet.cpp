#include "clado/serve/fleet.h"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "clado/fault/fault.h"
#include "clado/obs/obs.h"

namespace clado::serve {

void Fleet::put(const std::string& name, std::shared_ptr<Server> server) {
  if (name.empty()) throw std::invalid_argument("Fleet::put: model name is empty");
  if (server == nullptr) throw std::invalid_argument("Fleet::put(" + name + "): null server");
  // Fires before any table mutation: an injected swap failure must leave
  // the previous server fully in service.
  clado::fault::maybe_throw(clado::fault::Site::kRegistrySwap, "Fleet::put(" + name + ")");

  std::shared_ptr<Server> retired;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    retired = std::exchange(table_[name], std::move(server));
  }
  if (retired != nullptr) {
    clado::obs::counter("serve.fleet.swaps").add();
    // Off the lock: draining can take as long as the slowest admitted
    // batch, and lookups must keep resolving against the new server
    // meanwhile.
    retired->drain();
  }
  clado::obs::counter("serve.fleet.puts").add();
}

std::optional<std::string> Fleet::resolve_name(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (name.empty()) {
    if (table_.size() != 1) return std::nullopt;
    return table_.begin()->first;
  }
  return table_.count(name) != 0 ? std::optional<std::string>(name) : std::nullopt;
}

std::shared_ptr<Server> Fleet::route(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = name.empty() ? (table_.size() == 1 ? table_.begin() : table_.end())
                               : table_.find(name);
  return it == table_.end() ? nullptr : it->second;
}

bool Fleet::erase(const std::string& name) {
  std::shared_ptr<Server> retired;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = table_.find(name);
    if (it == table_.end()) return false;
    retired = std::move(it->second);
    table_.erase(it);
  }
  retired->drain();
  return true;
}

void Fleet::drain_all() {
  std::vector<std::shared_ptr<Server>> servers;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    servers.reserve(table_.size());
    for (const auto& [name, server] : table_) servers.push_back(server);
  }
  for (const auto& server : servers) server->drain();
}

std::vector<std::string> Fleet::names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(table_.size());
  for (const auto& [name, server] : table_) out.push_back(name);
  return out;
}

std::size_t Fleet::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return table_.size();
}

std::string Fleet::stats_text() const {
  std::map<std::string, std::shared_ptr<Server>> snapshot;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    snapshot = table_;
  }
  std::ostringstream out;
  for (const auto& [name, server] : snapshot) {
    const LatencySummary lat = server->latency_summary();
    out << name << ": engine=" << server->engine().label()
        << " workers=" << server->config().workers << " queue=" << server->queue_depth()
        << " served=" << lat.count << " p50_ms=" << lat.p50_ms << " p99_ms=" << lat.p99_ms
        << "\n";
  }
  return out.str();
}

}  // namespace clado::serve
