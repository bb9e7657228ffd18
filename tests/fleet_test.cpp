// Fleet-serving coverage: the named table of one Server per model (put,
// route, resolve, erase), the kStats line's latency percentiles,
// mid-stream hot-swap bit-identity, swap fault atomicity, the daemon's
// bounded re-route of kShutdown answers, multi-model routing, stale-socket
// reclaim vs live-daemon conflict, and the TCP listener. Runs under TSan in
// CI alongside serve_test: the daemon, streamer, and swap paths here race
// on purpose.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "clado/fault/fault.h"
#include "clado/obs/obs.h"
#include "clado/serve/engine.h"
#include "clado/serve/fleet.h"
#include "clado/serve/serve.h"
#include "clado/serve/socket.h"
#include "clado/serve/wire.h"
#include "clado/tensor/rng.h"
#include "test_models_util.h"

namespace {

using clado::serve::DaemonOptions;
using clado::serve::Engine;
using clado::serve::EngineSpec;
using clado::serve::Fleet;
using clado::serve::Server;
using clado::serve::ServerConfig;
using clado::serve::SocketDaemon;
using clado::serve::Status;
using clado::tensor::Rng;
using clado::tensor::Tensor;

// All engines in this file freeze the same seed-7 tiny model, so two
// engines with equal bits are bit-identical — the property the hot-swap
// tests lean on.
std::shared_ptr<Engine> tiny_engine(std::vector<int> bits, int replicas = 1) {
  Rng rng(7);
  auto model = clado::testing::make_tiny_model(rng);
  EngineSpec spec;
  spec.bits = std::move(bits);
  spec.replicas = replicas;
  spec.label = spec.bits.empty() ? "fp32" : "int";
  return std::make_shared<Engine>(std::move(model), std::move(spec));
}

ServerConfig daemon_config() {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 4;
  return cfg;
}

std::shared_ptr<Server> tiny_server(const std::vector<int>& bits,
                                    ServerConfig cfg = daemon_config()) {
  return std::make_shared<Server>(tiny_engine(bits, cfg.workers), cfg);
}

/// A daemon_config() with two workers, so two batches run at once.
ServerConfig two_worker_config() {
  ServerConfig cfg = daemon_config();
  cfg.workers = 2;
  return cfg;
}

Tensor fixed_sample() {
  Rng rng(91);
  return Tensor::randn({3, 8, 8}, rng);
}

Tensor reference_logits(const std::vector<int>& bits, const Tensor& sample) {
  Tensor one = sample;
  one.reshape_inplace({1, 3, 8, 8});
  return tiny_engine(bits)->infer(one);
}

std::string temp_socket(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

bool logits_equal(const std::vector<float>& got, const Tensor& want) {
  if (static_cast<std::int64_t>(got.size()) != want.numel()) return false;
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    if (got[static_cast<std::size_t>(i)] != want[i]) return false;
  }
  return true;
}

TEST(Fleet, PutRouteResolveErase) {
  Fleet fleet;
  EXPECT_THROW(fleet.put("", tiny_server({})), std::invalid_argument);
  EXPECT_THROW(fleet.put("a", nullptr), std::invalid_argument);
  EXPECT_EQ(fleet.size(), 0u);
  EXPECT_EQ(fleet.route("a"), nullptr);

  const auto a = tiny_server({8, 8, 8, 8}, two_worker_config());
  fleet.put("a", a);
  EXPECT_EQ(fleet.size(), 1u);
  EXPECT_EQ(fleet.route("a"), a);
  // Sole model: the empty routing key resolves to it.
  EXPECT_EQ(fleet.resolve_name("").value_or("?"), "a");
  EXPECT_EQ(fleet.route(""), a);

  fleet.put("b", tiny_server({}));
  EXPECT_EQ(fleet.size(), 2u);
  // Two models: the empty key is ambiguous, unknown names stay unknown.
  EXPECT_FALSE(fleet.resolve_name("").has_value());
  EXPECT_EQ(fleet.route(""), nullptr);
  EXPECT_EQ(fleet.route("nope"), nullptr);

  const std::string stats = fleet.stats_text();
  EXPECT_NE(stats.find("a: engine=int workers=2 queue=0"), std::string::npos) << stats;
  EXPECT_NE(stats.find("b: engine=fp32 workers=1 queue=0"), std::string::npos) << stats;

  EXPECT_TRUE(fleet.erase("b"));
  EXPECT_FALSE(fleet.erase("b"));
  EXPECT_EQ(fleet.names(), std::vector<std::string>{"a"});
  fleet.drain_all();
  EXPECT_EQ(a->submit(fixed_sample()).get().status, Status::kShutdown);
}

TEST(Fleet, StatsLineRanksTheServersLatencies) {
  // One request held ~200 ms behind a paused start, then 99 prompt ones:
  // the served count covers all 100, and p99 is a rank over them (a prompt
  // latency), not the held request's maximum.
  constexpr auto kHold = std::chrono::milliseconds(200);
  ServerConfig cfg = daemon_config();
  cfg.start_paused = true;
  const auto server = tiny_server({}, cfg);
  Fleet fleet;
  fleet.put("tiny", server);

  const Tensor sample = fixed_sample();
  auto slow = server->submit(sample);
  std::this_thread::sleep_for(kHold);
  server->resume();
  ASSERT_EQ(slow.get().status, Status::kOk);
  for (int i = 0; i < 99; ++i) ASSERT_EQ(server->submit(sample).get().status, Status::kOk);
  // A worker records a latency just after answering; drain returns only
  // once every admitted batch has finished, so every sample is in.
  fleet.drain_all();

  const std::string stats = fleet.stats_text();
  EXPECT_NE(stats.find("served=100 "), std::string::npos) << stats;
  const std::size_t p50_at = stats.find("p50_ms=");
  const std::size_t p99_at = stats.find("p99_ms=");
  ASSERT_NE(p50_at, std::string::npos) << stats;
  ASSERT_NE(p99_at, std::string::npos) << stats;
  const double p50 = std::stod(stats.substr(p50_at + 7));
  const double p99 = std::stod(stats.substr(p99_at + 7));
  EXPECT_GT(p50, 0.0) << stats;
  EXPECT_LE(p50, p99) << stats;
  EXPECT_LT(p99, static_cast<double>(kHold.count())) << stats;
  EXPECT_GE(server->latency_summary().max_ms, static_cast<double>(kHold.count()));
}

TEST(Fleet, HotSwapServesBitIdenticalToFreshLoadMidStream) {
  const std::vector<int> old_bits{8, 8, 8, 8};
  const std::vector<int> new_bits{2, 8, 2, 8};
  const Tensor sample = fixed_sample();
  const Tensor ref_old = reference_logits(old_bits, sample);
  const Tensor ref_new = reference_logits(new_bits, sample);
  // The two assignments must actually disagree on this sample, or the
  // bit-identity assertion below would be vacuous.
  ASSERT_FALSE([&] {
    for (std::int64_t i = 0; i < ref_old.numel(); ++i) {
      if (ref_old[i] != ref_new[i]) return false;
    }
    return true;
  }());

  Fleet fleet;
  fleet.put("tiny", tiny_server(old_bits, two_worker_config()));
  DaemonOptions dopts;
  dopts.socket_path = temp_socket("clado_fleet_swap.sock");
  SocketDaemon daemon(fleet, dopts);
  daemon.set_swap_factory([](const std::string& name, const std::vector<int>& bits) {
    if (name != "tiny") throw std::runtime_error("no master weights for " + name);
    return tiny_server(bits, two_worker_config());
  });
  std::thread daemon_thread([&] { daemon.run(); });

  // Stream queries across the swap: every answer must be a definite kOk
  // matching EITHER generation exactly — never a blend, error, or hang.
  std::atomic<bool> stop{false};
  std::atomic<int> bad_status{0};
  std::atomic<int> alien_logits{0};
  std::atomic<int> streamed{0};
  std::thread streamer([&] {
    while (!stop.load()) {
      const auto resp = clado::serve::query_socket(dopts.socket_path, sample);
      if (resp.status != Status::kOk) {
        bad_status.fetch_add(1);
        continue;
      }
      streamed.fetch_add(1);
      if (!logits_equal(resp.logits, ref_old) && !logits_equal(resp.logits, ref_new)) {
        alien_logits.fetch_add(1);
      }
    }
  });

  while (streamed.load() < 3) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const auto swap_resp = clado::serve::swap_socket(dopts.socket_path, "tiny", new_bits);
  EXPECT_EQ(swap_resp.status, Status::kOk) << swap_resp.error;

  const int after_swap = streamed.load();
  while (streamed.load() < after_swap + 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  streamer.join();
  EXPECT_EQ(bad_status.load(), 0);
  EXPECT_EQ(alien_logits.load(), 0);

  // Post-swap, the daemon serves exactly what a fresh load of new_bits
  // serves — the acceptance bar for hot-swap correctness.
  const auto resp = clado::serve::query_socket(dopts.socket_path, sample);
  ASSERT_EQ(resp.status, Status::kOk) << resp.error;
  EXPECT_TRUE(logits_equal(resp.logits, ref_new));
  const std::string stats = clado::serve::stats_socket(dopts.socket_path);
  EXPECT_NE(stats.find("tiny:"), std::string::npos) << stats;

  EXPECT_TRUE(clado::serve::shutdown_socket(dopts.socket_path));
  daemon_thread.join();
}

TEST(Fleet, InjectedSwapFailureLeavesOldSetFullyInService) {
  clado::fault::disarm_all();
  const std::vector<int> old_bits{8, 8, 8, 8};
  const Tensor sample = fixed_sample();
  const Tensor ref_old = reference_logits(old_bits, sample);

  Fleet fleet;
  const auto old_server = tiny_server(old_bits);
  fleet.put("tiny", old_server);
  DaemonOptions dopts;
  dopts.socket_path = temp_socket("clado_fleet_swapfault.sock");
  SocketDaemon daemon(fleet, dopts);
  daemon.set_swap_factory([](const std::string& name, const std::vector<int>& bits) {
    (void)name;
    return tiny_server(bits);
  });
  std::thread daemon_thread([&] { daemon.run(); });

  clado::fault::arm_one_shot(clado::fault::Site::kRegistrySwap, 1);
  const auto failed = clado::serve::swap_socket(dopts.socket_path, "tiny", {2, 2, 2, 2});
  EXPECT_EQ(failed.status, Status::kEngineError);
  EXPECT_NE(failed.error.find("fault:registry_swap"), std::string::npos) << failed.error;
  clado::fault::disarm_all();

  // Strong exception safety: the failed swap changed nothing.
  EXPECT_EQ(fleet.route("tiny"), old_server);
  const auto resp = clado::serve::query_socket(dopts.socket_path, sample);
  ASSERT_EQ(resp.status, Status::kOk) << resp.error;
  EXPECT_TRUE(logits_equal(resp.logits, ref_old));

  // And a retry with the fault gone succeeds.
  EXPECT_EQ(clado::serve::swap_socket(dopts.socket_path, "tiny", {2, 2, 2, 2}).status,
            Status::kOk);

  EXPECT_TRUE(clado::serve::shutdown_socket(dopts.socket_path));
  daemon_thread.join();
}

TEST(Fleet, DaemonReroutesShutdownAnswersAtMostThreeTimes) {
  // A server that answers kShutdown while the daemon still runs is one a
  // hot-swap retired between route() and submit(): the daemon routes the
  // request again. A server that stays draining costs three attempts and
  // then a definite kShutdown, never a loop.
  Fleet fleet;
  const auto server = tiny_server({});
  fleet.put("tiny", server);
  server->drain();
  DaemonOptions dopts;
  dopts.socket_path = temp_socket("clado_fleet_reroute.sock");
  SocketDaemon daemon(fleet, dopts);
  std::thread daemon_thread([&] { daemon.run(); });

  clado::obs::Counter& reroutes = clado::obs::counter("serve.swap_reroutes");
  const std::int64_t before = reroutes.value();
  const auto resp = clado::serve::query_socket(dopts.socket_path, fixed_sample());
  EXPECT_EQ(resp.status, Status::kShutdown);
  EXPECT_NE(resp.error.find("kept draining across re-routes"), std::string::npos) << resp.error;
  EXPECT_EQ(reroutes.value(), before + 3);

  EXPECT_TRUE(clado::serve::shutdown_socket(dopts.socket_path));
  daemon_thread.join();
}

TEST(Fleet, MultiModelRoutingByNameOverOneDaemon) {
  Fleet fleet;
  fleet.put("quant", tiny_server({8, 8, 8, 8}));
  fleet.put("full", tiny_server({}));
  DaemonOptions dopts;
  dopts.socket_path = temp_socket("clado_fleet_multi.sock");
  SocketDaemon daemon(fleet, dopts);
  std::thread daemon_thread([&] { daemon.run(); });

  const Tensor sample = fixed_sample();
  const auto quant = clado::serve::query_socket(dopts.socket_path, sample, 0, "quant");
  ASSERT_EQ(quant.status, Status::kOk) << quant.error;
  EXPECT_TRUE(logits_equal(quant.logits, reference_logits({8, 8, 8, 8}, sample)));
  const auto full = clado::serve::query_socket(dopts.socket_path, sample, 0, "full");
  ASSERT_EQ(full.status, Status::kOk) << full.error;
  EXPECT_TRUE(logits_equal(full.logits, reference_logits({}, sample)));

  // Several models loaded: the empty key is ambiguous; unknown names are a
  // definite protocol answer, not a dropped connection.
  EXPECT_EQ(clado::serve::query_socket(dopts.socket_path, sample).status,
            Status::kUnknownModel);
  EXPECT_EQ(clado::serve::query_socket(dopts.socket_path, sample, 0, "nope").status,
            Status::kUnknownModel);

  EXPECT_TRUE(clado::serve::shutdown_socket(dopts.socket_path));
  daemon_thread.join();
}

TEST(Fleet, StaleSocketReclaimedAfterCrashLiveDaemonConflictRejected) {
  const std::string path = temp_socket("clado_fleet_stale.sock");
  std::filesystem::remove(path);

  // Simulate a daemon killed without cleanup: bind the path, then close the
  // fd. The socket FILE survives the "process" — exactly what a fresh
  // daemon trips over with a blind bind().
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
    ::close(fd);
  }
  ASSERT_TRUE(std::filesystem::exists(path));

  const std::int64_t reclaimed_before =
      clado::obs::counter("serve.stale_sockets_reclaimed").value();
  Fleet fleet;
  fleet.put("tiny", tiny_server({}));
  DaemonOptions dopts;
  dopts.socket_path = path;
  SocketDaemon daemon(fleet, dopts);  // restart must reclaim, not throw
  EXPECT_EQ(clado::obs::counter("serve.stale_sockets_reclaimed").value(),
            reclaimed_before + 1);
  std::thread daemon_thread([&] { daemon.run(); });
  ASSERT_TRUE(clado::serve::ping_socket(path));

  // A SECOND daemon on the same path must refuse: something live answers.
  Fleet other;
  other.put("tiny", tiny_server({}));
  DaemonOptions conflict;
  conflict.socket_path = path;
  try {
    SocketDaemon usurper(other, conflict);
    FAIL() << "daemon bound over a live daemon's socket";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("live daemon"), std::string::npos) << e.what();
  }
  // The conflict probe must not have clobbered the original daemon.
  EXPECT_TRUE(clado::serve::ping_socket(path));

  EXPECT_TRUE(clado::serve::shutdown_socket(path));
  daemon_thread.join();
}

TEST(Fleet, TcpAndUdsListenersAnswerIdentically) {
  Fleet fleet;
  fleet.put("tiny", tiny_server({8, 8, 8, 8}));
  DaemonOptions dopts;
  dopts.socket_path = temp_socket("clado_fleet_tcp.sock");
  dopts.tcp_port = 0;  // ephemeral: the kernel picks, tcp_port() reports
  SocketDaemon daemon(fleet, dopts);
  ASSERT_GT(daemon.tcp_port(), 0);
  const std::string tcp = "tcp:" + std::to_string(daemon.tcp_port());
  std::thread daemon_thread([&] { daemon.run(); });

  ASSERT_TRUE(clado::serve::ping_socket(tcp));
  ASSERT_TRUE(clado::serve::ping_socket(dopts.socket_path));

  const Tensor sample = fixed_sample();
  const auto over_tcp = clado::serve::query_socket(tcp, sample);
  const auto over_uds = clado::serve::query_socket("unix:" + dopts.socket_path, sample);
  ASSERT_EQ(over_tcp.status, Status::kOk) << over_tcp.error;
  ASSERT_EQ(over_uds.status, Status::kOk) << over_uds.error;
  EXPECT_EQ(over_tcp.logits, over_uds.logits);
  EXPECT_EQ(over_tcp.predicted, over_uds.predicted);

  // One persistent connection, several round trips (the loadgen path).
  clado::serve::ClientConnection conn(tcp);
  for (int i = 0; i < 3; ++i) {
    clado::serve::WireRequest req;
    req.type = clado::serve::MsgType::kInfer;
    req.input = sample;
    EXPECT_EQ(conn.roundtrip(req).status, Status::kOk);
  }

  EXPECT_NE(clado::serve::stats_socket(tcp).find("tiny:"), std::string::npos);
  // A shutdown over TCP drains the fleet exactly like one over UDS.
  EXPECT_TRUE(clado::serve::shutdown_socket(tcp));
  daemon_thread.join();
  EXPECT_FALSE(clado::serve::ping_socket(tcp));
}

TEST(Fleet, BadEndpointStringsThrow) {
  EXPECT_THROW(clado::serve::query_socket("tcp:notaport", fixed_sample()),
               std::runtime_error);
  EXPECT_THROW(clado::serve::query_socket("tcp:999999", fixed_sample()),
               std::runtime_error);
  EXPECT_THROW(clado::serve::query_socket("unix:", fixed_sample()), std::runtime_error);
}

}  // namespace
