#include "clado/serve/fleet.h"

#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "clado/fault/fault.h"
#include "clado/obs/obs.h"

namespace clado::serve {

void Fleet::put(const std::string& name, std::vector<std::shared_ptr<Server>> replicas) {
  if (name.empty()) throw std::invalid_argument("Fleet::put: model name is empty");
  if (replicas.empty()) {
    throw std::invalid_argument("Fleet::put(" + name + "): replica set is empty");
  }
  for (const auto& server : replicas) {
    if (server == nullptr) {
      throw std::invalid_argument("Fleet::put(" + name + "): null server replica");
    }
  }
  // Fires before any table mutation: an injected swap failure must leave
  // the previous replica set fully in service.
  clado::fault::maybe_throw(clado::fault::Site::kRegistrySwap, "Fleet::put(" + name + ")");

  std::vector<std::shared_ptr<Server>> retired;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = table_[name];
    retired = std::exchange(slot, std::move(replicas));
  }
  if (!retired.empty()) {
    clado::obs::counter("serve.fleet.swaps").add();
    // Off the lock: draining can take as long as the slowest admitted
    // batch, and lookups must keep resolving against the new set meanwhile.
    for (const auto& server : retired) server->drain();
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
  std::vector<std::shared_ptr<Server>> replicas;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = name.empty() ? (table_.size() == 1 ? table_.begin() : table_.end())
                                 : table_.find(name);
    if (it == table_.end()) return nullptr;
    replicas = it->second;  // shared_ptr copies: depth probing happens off the lock
  }
  std::shared_ptr<Server> best;
  std::int64_t best_depth = std::numeric_limits<std::int64_t>::max();
  for (const auto& server : replicas) {
    const std::int64_t depth = server->queue_depth();
    if (depth < best_depth) {
      best_depth = depth;
      best = server;
    }
  }
  return best;
}

bool Fleet::erase(const std::string& name) {
  std::vector<std::shared_ptr<Server>> retired;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = table_.find(name);
    if (it == table_.end()) return false;
    retired = std::move(it->second);
    table_.erase(it);
  }
  for (const auto& server : retired) server->drain();
  return true;
}

void Fleet::drain_all() {
  std::vector<std::vector<std::shared_ptr<Server>>> sets;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    sets.reserve(table_.size());
    for (const auto& [name, replicas] : table_) sets.push_back(replicas);
  }
  for (const auto& replicas : sets) {
    for (const auto& server : replicas) server->drain();
  }
}

std::vector<std::string> Fleet::names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(table_.size());
  for (const auto& [name, replicas] : table_) out.push_back(name);
  return out;
}

std::size_t Fleet::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return table_.size();
}

std::size_t Fleet::replica_count(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = table_.find(name);
  return it == table_.end() ? 0 : it->second.size();
}

std::string Fleet::stats_text() const {
  std::map<std::string, std::vector<std::shared_ptr<Server>>> snapshot;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    snapshot = table_;
  }
  std::ostringstream out;
  for (const auto& [name, replicas] : snapshot) {
    out << name << ": engine=" << (replicas.empty() ? "?" : replicas.front()->engine().label())
        << " replicas=" << replicas.size() << " queue=[";
    for (std::size_t i = 0; i < replicas.size(); ++i) {
      out << (i != 0 ? "," : "") << replicas[i]->queue_depth();
    }
    out << "]";
    // The model's percentiles: one ranking over every replica's samples.
    std::vector<double> samples;
    for (const auto& server : replicas) {
      const std::vector<double> replica_samples = server->latency_samples();
      samples.insert(samples.end(), replica_samples.begin(), replica_samples.end());
    }
    const LatencySummary lat = summarize_latencies(std::move(samples));
    out << " served=" << lat.count << " p50_ms=" << lat.p50_ms << " p99_ms=" << lat.p99_ms
        << "\n";
  }
  return out.str();
}

}  // namespace clado::serve
