// clado::serve coverage: engine freezing, micro-batcher contracts
// (max_batch / max_delay_us), admission control (overload, deadlines,
// shutdown), drain semantics, batched-vs-single bit-identity, per-request
// trace capture, the wire protocol, and a socket round trip. The
// concurrency tests are the reason serve_test runs under TSan in CI.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "clado/obs/obs.h"
#include "clado/serve/engine.h"
#include "clado/serve/serve.h"
#include "clado/serve/socket.h"
#include "clado/serve/wire.h"
#include "clado/tensor/rng.h"
#include "test_models_util.h"

namespace {

using clado::serve::BackendMode;
using clado::serve::DeadlineClass;
using clado::serve::Engine;
using clado::serve::EngineSpec;
using clado::serve::Response;
using clado::serve::Server;
using clado::serve::ServerConfig;
using clado::serve::Status;
using clado::tensor::Rng;
using clado::tensor::Tensor;

std::shared_ptr<Engine> make_engine(std::vector<int> bits, int replicas,
                                    std::int64_t max_batch = EngineSpec{}.max_batch) {
  Rng rng(7);
  auto model = clado::testing::make_tiny_model(rng);
  EngineSpec spec;
  spec.bits = std::move(bits);
  spec.replicas = replicas;
  spec.label = spec.bits.empty() ? "fp32" : "int";
  spec.max_batch = max_batch;
  return std::make_shared<Engine>(std::move(model), std::move(spec));
}

Tensor make_sample(Rng& rng) { return Tensor::randn({3, 8, 8}, rng); }

ServerConfig paused_config(int workers, std::int64_t max_batch,
                           std::int64_t max_delay_us = 50'000) {
  ServerConfig cfg;
  cfg.workers = workers;
  cfg.max_batch = max_batch;
  cfg.max_delay_us = max_delay_us;
  cfg.start_paused = true;
  return cfg;
}

TEST(ServeEngine, FreezesAndInfers) {
  auto engine = make_engine({8, 8, 8, 8}, 2);
  EXPECT_EQ(engine->replicas(), 2);
  EXPECT_EQ(engine->num_classes(), 5);
  EXPECT_EQ(engine->sample_shape(), (clado::tensor::Shape{3, 8, 8}));
  EXPECT_EQ(engine->batchnorms_folded(), 0);  // tiny fixture has no BN layers

  Rng rng(11);
  const Tensor batch = Tensor::randn({4, 3, 8, 8}, rng);
  const Tensor logits = engine->infer(batch);
  EXPECT_EQ(logits.shape(), (clado::tensor::Shape{4, 5}));
}

TEST(ServeEngine, QuantizedWeightsSmallerThanFp32) {
  const auto fp32 = make_engine({}, 1);
  const auto int8 = make_engine({8, 8, 8, 8}, 1);
  const auto mixed = make_engine({2, 8, 2, 8}, 1);
  EXPECT_LT(int8->weight_bytes(), fp32->weight_bytes());
  EXPECT_LT(mixed->weight_bytes(), int8->weight_bytes());
}

TEST(ServeEngine, RejectsBadInputs) {
  auto engine = make_engine({}, 1);
  Rng rng(3);
  EXPECT_THROW(engine->infer(Tensor::randn({4, 1, 8, 8}, rng)), std::invalid_argument);
  EXPECT_THROW(engine->infer(Tensor::randn({3, 8, 8}, rng)), std::invalid_argument);
  EXPECT_THROW(engine->infer(Tensor::randn({1, 3, 8, 8}, rng), 5), std::invalid_argument);
  EXPECT_THROW(Engine(clado::testing::make_tiny_model(rng), EngineSpec{{}, 0, "bad"}),
               std::invalid_argument);
}

TEST(ServeEngine, ReplicasAgree) {
  auto engine = make_engine({8, 8, 8, 8}, 3);
  Rng rng(5);
  const Tensor batch = Tensor::randn({2, 3, 8, 8}, rng);
  const Tensor a = engine->infer(batch, 0);
  for (int r = 1; r < 3; ++r) {
    const Tensor b = engine->infer(batch, r);
    ASSERT_EQ(a.shape(), b.shape());
    for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], b[i]) << "replica " << r;
  }
}

TEST(ServeEngine, RejectsHeadThatDoesNotMatchNumClasses) {
  // A 4 -> 5 head under num_classes = 10: infer() would copy 10 floats per
  // row out of a 5-float plan output, so the engine refuses it at load.
  for (const BackendMode backend : {BackendMode::kOff, BackendMode::kOn}) {
    const auto load = [backend](std::int64_t num_classes) {
      Rng rng(13);
      auto model = clado::testing::make_tiny_model(rng);
      model.num_classes = num_classes;
      EngineSpec spec;
      spec.bits = {8, 8, 8, 8};
      spec.max_batch = 2;
      spec.backend = backend;
      return Engine(std::move(model), std::move(spec));
    };
    EXPECT_NO_THROW(load(5));
    EXPECT_THROW(load(10), std::invalid_argument);
  }
}

TEST(ServeServer, BatchedResultsBitIdenticalToSingle) {
  // Two engines frozen from the same seed are bit-identical; one serves
  // batches, the other answers single-sample references.
  auto served = make_engine({8, 8, 8, 8}, 1);
  auto reference = make_engine({8, 8, 8, 8}, 1);

  Server server(served, paused_config(/*workers=*/1, /*max_batch=*/8));
  Rng rng(123);
  std::vector<Tensor> samples;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 6; ++i) {
    samples.push_back(make_sample(rng));
    futures.push_back(server.submit(samples.back()));
  }
  server.resume();
  for (int i = 0; i < 6; ++i) {
    Response r = futures[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(r.status, Status::kOk) << r.error;
    EXPECT_GT(r.batch_size, 1) << "requests were not coalesced";
    Tensor one = samples[static_cast<std::size_t>(i)];
    one.reshape_inplace({1, 3, 8, 8});
    const Tensor expected = reference->infer(one);
    ASSERT_EQ(r.logits.numel(), expected.numel());
    for (std::int64_t k = 0; k < expected.numel(); ++k) {
      EXPECT_EQ(r.logits[k], expected[k]) << "sample " << i << " logit " << k;
    }
    EXPECT_EQ(r.predicted, expected.argmax());
  }
}

TEST(ServeServer, HonorsMaxBatch) {
  auto engine = make_engine({}, 1);
  Server server(engine, paused_config(1, /*max_batch=*/2));
  Rng rng(9);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 5; ++i) futures.push_back(server.submit(make_sample(rng)));
  server.resume();
  for (auto& f : futures) {
    const Response r = f.get();
    ASSERT_EQ(r.status, Status::kOk) << r.error;
    EXPECT_LE(r.batch_size, 2);
    EXPECT_GE(r.batch_size, 1);
  }
}

TEST(ServeServer, MaxDelayFlushesPartialBatch) {
  auto engine = make_engine({}, 1, /*max_batch=*/64);
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 64;  // never reachable with one request
  cfg.max_delay_us = 1000;
  Server server(engine, cfg);
  Rng rng(17);
  auto future = server.submit(make_sample(rng));
  ASSERT_EQ(future.wait_for(std::chrono::seconds(10)), std::future_status::ready)
      << "single request was held hostage by an unfilled batch";
  const Response r = future.get();
  EXPECT_EQ(r.status, Status::kOk) << r.error;
  EXPECT_EQ(r.batch_size, 1);
}

TEST(ServeServer, DeadlineExpiredRequestsNeverRun) {
  auto engine = make_engine({}, 1);
  Server server(engine, paused_config(1, 8));
  Rng rng(21);
  const std::int64_t completed_before = clado::obs::counter("serve.completed").value();
  auto doomed = server.submit(make_sample(rng), /*deadline_us=*/1);
  auto alive = server.submit(make_sample(rng));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.resume();

  const Response dead = doomed.get();
  EXPECT_EQ(dead.status, Status::kDeadlineExpired);
  EXPECT_EQ(dead.predicted, -1);
  EXPECT_TRUE(dead.logits.empty());

  const Response ok = alive.get();
  EXPECT_EQ(ok.status, Status::kOk) << ok.error;
  EXPECT_EQ(ok.batch_size, 1) << "expired request reached the engine batch";
  server.drain();
  EXPECT_EQ(clado::obs::counter("serve.completed").value(), completed_before + 1);
}

TEST(ServeServer, ExpiredRequestsDoNotShortenTheBatch) {
  // Two expired requests queued ahead of four live ones: formation must
  // skip the expired pair and run the live four as one full batch, not
  // two short batches with live work left waiting in the queue.
  auto engine = make_engine({}, 1);
  Server server(engine, paused_config(1, /*max_batch=*/4));
  Rng rng(23);
  std::vector<std::future<Response>> doomed;
  for (int i = 0; i < 2; ++i) doomed.push_back(server.submit(make_sample(rng), /*deadline_us=*/1));
  std::vector<std::future<Response>> alive;
  for (int i = 0; i < 4; ++i) alive.push_back(server.submit(make_sample(rng)));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.resume();

  for (auto& f : doomed) EXPECT_EQ(f.get().status, Status::kDeadlineExpired);
  for (auto& f : alive) {
    const Response r = f.get();
    EXPECT_EQ(r.status, Status::kOk) << r.error;
    EXPECT_EQ(r.batch_size, 4) << "expired requests took slots of the live batch";
  }
}

TEST(ServeServer, OverloadRejectsImmediately) {
  auto engine = make_engine({}, 1);
  ServerConfig cfg = paused_config(1, 8);
  cfg.queue_capacity = 2;
  Server server(engine, cfg);
  Rng rng(31);
  auto a = server.submit(make_sample(rng));
  auto b = server.submit(make_sample(rng));
  auto rejected = server.submit(make_sample(rng));
  // The paused server cannot make progress, so a blocking submit would
  // deadlock this test: readiness here proves admission never blocks.
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(rejected.get().status, Status::kRejectedOverload);
  server.resume();
  EXPECT_EQ(a.get().status, Status::kOk);
  EXPECT_EQ(b.get().status, Status::kOk);
}

TEST(ServeServer, DrainCompletesAdmittedWork) {
  auto engine = make_engine({}, 2);
  Server server(engine, paused_config(2, 4));
  Rng rng(41);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 10; ++i) futures.push_back(server.submit(make_sample(rng)));
  server.drain();  // never resumed: drain itself must flush the backlog
  for (auto& f : futures) EXPECT_EQ(f.get().status, Status::kOk);
  EXPECT_EQ(server.submit(make_sample(rng)).get().status, Status::kShutdown);
  EXPECT_GE(server.latency_summary().count, 10);
  EXPECT_GE(server.latency_summary().p99_ms, server.latency_summary().p50_ms);
}

TEST(ServeServer, BestEffortShedEarlyAndEvictedByInteractive) {
  auto engine = make_engine({}, 1);
  ServerConfig cfg = paused_config(1, 8);
  cfg.queue_capacity = 2;
  cfg.best_effort_cap = 2;
  Server server(engine, cfg);
  Rng rng(111);
  auto be1 = server.submit(make_sample(rng), 0, DeadlineClass::kBestEffort);
  auto be2 = server.submit(make_sample(rng), 0, DeadlineClass::kBestEffort);
  EXPECT_EQ(server.queue_depth(), 2);

  // At the cap, best-effort is shed immediately even though interactive
  // work would still be admitted by eviction.
  auto be3 = server.submit(make_sample(rng), 0, DeadlineClass::kBestEffort);
  ASSERT_EQ(be3.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(be3.get().status, Status::kRejectedOverload);

  // Interactive at a hard-full queue evicts the NEWEST queued best-effort.
  auto interactive = server.submit(make_sample(rng));
  ASSERT_EQ(be2.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const Response evicted = be2.get();
  EXPECT_EQ(evicted.status, Status::kRejectedOverload);
  EXPECT_NE(evicted.error.find("evicted"), std::string::npos) << evicted.error;
  EXPECT_EQ(server.queue_depth(), 2);

  server.resume();
  EXPECT_EQ(be1.get().status, Status::kOk);
  EXPECT_EQ(interactive.get().status, Status::kOk);
}

TEST(ServeServer, BestEffortCapValidationAndAutoDefault) {
  ServerConfig cfg;
  cfg.workers = 1;
  ASSERT_EQ(cfg.best_effort_cap, 0);
  Server server(make_engine({}, 1), cfg);
  EXPECT_EQ(server.config().best_effort_cap, cfg.queue_capacity * 3 / 4);

  ServerConfig bad = cfg;
  bad.best_effort_cap = bad.queue_capacity + 1;
  EXPECT_THROW(Server(make_engine({}, 1), bad), std::invalid_argument);

  ASSERT_EQ(::setenv("CLADO_SERVE_BE_QUEUE_CAP", "7", 1), 0);
  EXPECT_EQ(ServerConfig::from_env().best_effort_cap, 7);
  ASSERT_EQ(::setenv("CLADO_SERVE_BE_QUEUE_CAP", "most", 1), 0);
  EXPECT_THROW(ServerConfig::from_env(), std::invalid_argument);
  ::unsetenv("CLADO_SERVE_BE_QUEUE_CAP");
}

TEST(ServeServer, InvalidShapeRejectedUpFront) {
  auto engine = make_engine({}, 1);
  Server server(engine, paused_config(1, 8));
  Rng rng(51);
  auto future = server.submit(Tensor::randn({1, 8, 8}, rng));
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const Response r = future.get();
  EXPECT_EQ(r.status, Status::kInvalidInput);
  EXPECT_NE(r.error.find("[3, 8, 8]"), std::string::npos) << r.error;
}

TEST(ServeServer, CapturesPerRequestTraces) {
  auto engine = make_engine({}, 1);
  ServerConfig cfg = paused_config(1, 8);
  cfg.capture_traces = true;
  Server server(engine, cfg);
  Rng rng(61);
  auto future = server.submit(make_sample(rng));
  server.resume();
  const Response r = future.get();
  ASSERT_EQ(r.status, Status::kOk) << r.error;
  ASSERT_FALSE(r.trace.empty());
  bool saw_batch = false;
  bool saw_forward = false;
  for (const auto& event : r.trace) {
    if (event.name == "serve/batch") {
      saw_batch = true;
      EXPECT_EQ(event.depth, 0);
    }
    if (event.name == "serve/engine_forward") {
      saw_forward = true;
      EXPECT_GE(event.depth, 1) << "forward should nest inside serve/batch";
    }
  }
  EXPECT_TRUE(saw_batch);
  EXPECT_TRUE(saw_forward);
}

TEST(ServeServer, ConcurrentClientsUnderLoad) {
  auto engine = make_engine({8, 8, 8, 8}, 2);
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 4;
  cfg.max_delay_us = 500;
  Server server(engine, cfg);

  constexpr int kClients = 4;
  constexpr int kPerClient = 25;
  std::vector<std::thread> clients;
  std::vector<int> ok_counts(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(1000 + static_cast<std::uint64_t>(c));
      for (int i = 0; i < kPerClient; ++i) {
        Response r = server.submit(make_sample(rng)).get();
        ASSERT_TRUE(r.status == Status::kOk || r.status == Status::kRejectedOverload)
            << static_cast<int>(r.status) << " " << r.error;
        if (r.status == Status::kOk) ++ok_counts[static_cast<std::size_t>(c)];
      }
    });
  }
  for (auto& t : clients) t.join();
  server.drain();
  int total_ok = 0;
  for (const int n : ok_counts) total_ok += n;
  EXPECT_GT(total_ok, 0);
  EXPECT_EQ(server.latency_summary().count, total_ok);
}

TEST(ServeWire, RequestRoundTrip) {
  Rng rng(71);
  clado::serve::WireRequest req;
  req.type = clado::serve::MsgType::kInfer;
  req.deadline_us = 12345;
  req.input = Tensor::randn({3, 8, 8}, rng);

  const auto bytes = clado::serve::encode_request(req);
  const clado::serve::WireRequest back = clado::serve::decode_request(bytes);
  EXPECT_EQ(back.type, clado::serve::MsgType::kInfer);
  EXPECT_EQ(back.deadline_us, 12345);
  ASSERT_EQ(back.input.shape(), req.input.shape());
  for (std::int64_t i = 0; i < req.input.numel(); ++i) {
    EXPECT_EQ(back.input[i], req.input[i]);
  }
}

TEST(ServeWire, ResponseRoundTrip) {
  clado::serve::WireResponse resp;
  resp.status = Status::kOk;
  resp.predicted = 3;
  resp.queue_us = 17;
  resp.total_us = 170;
  resp.logits = {0.5F, -1.25F, 3.0F};
  resp.error = "none";

  const auto bytes = clado::serve::encode_response(resp);
  const clado::serve::WireResponse back = clado::serve::decode_response(bytes);
  EXPECT_EQ(back.status, Status::kOk);
  EXPECT_EQ(back.predicted, 3);
  EXPECT_EQ(back.queue_us, 17);
  EXPECT_EQ(back.total_us, 170);
  EXPECT_EQ(back.logits, resp.logits);
  EXPECT_EQ(back.error, "none");
}

TEST(ServeWire, RejectsCorruptFrames) {
  Rng rng(81);
  clado::serve::WireRequest req;
  req.input = Tensor::randn({3, 8, 8}, rng);
  auto bytes = clado::serve::encode_request(req);

  auto bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(clado::serve::decode_request(bad_magic), std::runtime_error);

  auto truncated = bytes;
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(clado::serve::decode_request(truncated), std::runtime_error);

  auto trailing = bytes;
  trailing.push_back(0);
  EXPECT_THROW(clado::serve::decode_request(trailing), std::runtime_error);

  // A version-skewed peer must fail loudly, not misparse.
  auto wrong_version = bytes;
  wrong_version[4] = 99;
  EXPECT_THROW(clado::serve::decode_request(wrong_version), std::runtime_error);
}

TEST(ServeWire, V2RequestCarriesModelClassAndSwapBits) {
  clado::serve::WireRequest swap;
  swap.type = clado::serve::MsgType::kSwap;
  swap.model = "resnet_a";
  swap.klass = clado::serve::DeadlineClass::kBestEffort;
  swap.swap_bits = {8, 4, 2, 0};
  const auto back = clado::serve::decode_request(clado::serve::encode_request(swap));
  EXPECT_EQ(back.type, clado::serve::MsgType::kSwap);
  EXPECT_EQ(back.model, "resnet_a");
  EXPECT_EQ(back.klass, clado::serve::DeadlineClass::kBestEffort);
  EXPECT_EQ(back.swap_bits, (std::vector<int>{8, 4, 2, 0}));

  Rng rng(77);
  clado::serve::WireRequest infer;
  infer.type = clado::serve::MsgType::kInfer;
  infer.model = "mobilenet_v3_mini";
  infer.klass = clado::serve::DeadlineClass::kBestEffort;
  infer.deadline_us = 999;
  infer.input = Tensor::randn({3, 8, 8}, rng);
  const auto back2 = clado::serve::decode_request(clado::serve::encode_request(infer));
  EXPECT_EQ(back2.model, "mobilenet_v3_mini");
  EXPECT_EQ(back2.klass, clado::serve::DeadlineClass::kBestEffort);
  EXPECT_EQ(back2.deadline_us, 999);
  ASSERT_EQ(back2.input.shape(), infer.input.shape());

  // Oversized model names are rejected at encode time, not silently cut.
  clado::serve::WireRequest huge;
  huge.type = clado::serve::MsgType::kPing;
  huge.model.assign(clado::serve::kWireMaxModelNameBytes + 1, 'x');
  EXPECT_THROW(clado::serve::encode_request(huge), std::runtime_error);
}

TEST(ServeWire, ResponseCarriesStats) {
  clado::serve::WireResponse resp;
  resp.status = Status::kOk;
  resp.stats = "resnet_a: replicas=2 queue=[0,1]";
  const auto back = clado::serve::decode_response(clado::serve::encode_response(resp));
  EXPECT_EQ(back.stats, resp.stats);
}

TEST(ServeWire, StatusNamesExhaustiveAndDecodable) {
  // Driven by kNumStatuses so adding a Status without a name (or without
  // decoder acceptance) fails here instead of printing "UNKNOWN" in prod.
  std::set<std::string> seen;
  for (std::uint32_t s = 0; s < clado::serve::kNumStatuses; ++s) {
    const auto status = static_cast<Status>(s);
    const char* name = clado::serve::status_name(status);
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "");
    EXPECT_STRNE(name, "UNKNOWN") << "status " << s << " has no real name";
    seen.insert(name);

    clado::serve::WireResponse resp;
    resp.status = status;
    EXPECT_EQ(clado::serve::decode_response(clado::serve::encode_response(resp)).status,
              status);
  }
  EXPECT_EQ(seen.size(), clado::serve::kNumStatuses) << "status names must be unique";

  // One past the end is a protocol error, not a silent cast.
  clado::serve::WireResponse resp;
  resp.status = Status::kOk;
  auto bytes = clado::serve::encode_response(resp);
  bytes[8] = static_cast<std::uint8_t>(clado::serve::kNumStatuses);  // status word
  EXPECT_THROW(clado::serve::decode_response(bytes), std::runtime_error);
}

TEST(ServeWire, FuzzedFramesAlwaysThrowOrDecodeCleanly) {
  // Seeded corpus fuzz: every truncation of a valid frame must throw, and
  // bit-flipped frames must either throw or decode — never crash or read
  // past the payload (the ASan/UBSan CI job is the teeth behind this).
  Rng rng(0xF00D);
  clado::serve::WireRequest infer;
  infer.type = clado::serve::MsgType::kInfer;
  infer.model = "m";
  infer.input = Tensor::randn({3, 8, 8}, rng);
  clado::serve::WireRequest swap;
  swap.type = clado::serve::MsgType::kSwap;
  swap.model = "m";
  swap.swap_bits = {8, 8, 4, 4};
  clado::serve::WireRequest ping;
  ping.type = clado::serve::MsgType::kPing;
  clado::serve::WireResponse resp;
  resp.status = Status::kOk;
  resp.logits = {1.0F, 2.0F, 3.0F};
  resp.error = "e";
  resp.stats = "s";

  const auto fuzz = [&rng](const std::vector<std::uint8_t>& frame, auto decode) {
    for (std::size_t len = 0; len < frame.size(); ++len) {
      auto truncated = frame;
      truncated.resize(len);
      EXPECT_THROW(decode(truncated), std::runtime_error) << "truncated to " << len;
    }
    for (int iter = 0; iter < 300; ++iter) {
      auto mutated = frame;
      const int flips = 1 + static_cast<int>(rng.uniform_int(4));
      for (int f = 0; f < flips; ++f) {
        const auto byte = rng.uniform_int(mutated.size());
        mutated[byte] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(8));
      }
      try {
        decode(mutated);  // decoding garbage is fine; UB is not
      } catch (const std::exception&) {
      }
    }
  };
  const auto decode_req = [](const std::vector<std::uint8_t>& b) {
    return clado::serve::decode_request(b);
  };
  const auto decode_resp = [](const std::vector<std::uint8_t>& b) {
    return clado::serve::decode_response(b);
  };
  fuzz(clado::serve::encode_request(infer), decode_req);
  fuzz(clado::serve::encode_request(swap), decode_req);
  fuzz(clado::serve::encode_request(ping), decode_req);
  fuzz(clado::serve::encode_response(resp), decode_resp);
}

TEST(ServeWire, VersionSkewNamesBothVersions) {
  clado::serve::WireRequest req;
  req.type = clado::serve::MsgType::kPing;
  auto bytes = clado::serve::encode_request(req);
  bytes[4] = 1;  // a v1 peer's version word
  try {
    clado::serve::decode_request(bytes);
    FAIL() << "version-1 frame decoded as version " << clado::serve::kWireVersion;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("wire version 1"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(clado::serve::kWireVersion)), std::string::npos)
        << what;
  }
}

TEST(ServeSocket, EndToEndQueryMatchesInProcess) {
  auto served = make_engine({8, 8, 8, 8}, 1);
  auto reference = make_engine({8, 8, 8, 8}, 1);
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 4;
  cfg.max_delay_us = 200;
  Server server(served, cfg);

  const std::string path =
      (std::filesystem::temp_directory_path() / "clado_serve_test.sock").string();
  clado::serve::SocketDaemon daemon(server, path);
  std::thread daemon_thread([&] { daemon.run(); });

  ASSERT_TRUE(clado::serve::ping_socket(path));
  Rng rng(91);
  for (int i = 0; i < 3; ++i) {
    const Tensor sample = make_sample(rng);
    const auto resp = clado::serve::query_socket(path, sample);
    ASSERT_EQ(resp.status, Status::kOk) << resp.error;
    Tensor one = sample;
    one.reshape_inplace({1, 3, 8, 8});
    const Tensor expected = reference->infer(one);
    EXPECT_EQ(resp.predicted, expected.argmax());
    ASSERT_EQ(static_cast<std::int64_t>(resp.logits.size()), expected.numel());
    for (std::int64_t k = 0; k < expected.numel(); ++k) {
      EXPECT_EQ(resp.logits[static_cast<std::size_t>(k)], expected[k]);
    }
  }

  EXPECT_TRUE(clado::serve::shutdown_socket(path));
  daemon_thread.join();
  EXPECT_FALSE(clado::serve::ping_socket(path));
  EXPECT_EQ(server.submit(Tensor({3, 8, 8})).get().status, Status::kShutdown);
}

TEST(ServeConfig, FromEnvParsesStrictly) {
  ASSERT_EQ(::setenv("CLADO_SERVE_MAX_BATCH", "16", 1), 0);
  ASSERT_EQ(::setenv("CLADO_SERVE_WORKERS", "3", 1), 0);
  ServerConfig cfg = ServerConfig::from_env();
  EXPECT_EQ(cfg.max_batch, 16);
  EXPECT_EQ(cfg.workers, 3);
  ASSERT_EQ(::setenv("CLADO_SERVE_MAX_BATCH", "lots", 1), 0);
  EXPECT_THROW(ServerConfig::from_env(), std::invalid_argument);
  ::unsetenv("CLADO_SERVE_MAX_BATCH");
  ::unsetenv("CLADO_SERVE_WORKERS");
}

TEST(ServeServer, RequiresReplicaPerWorker) {
  auto engine = make_engine({}, 1);
  ServerConfig cfg;
  cfg.workers = 2;
  EXPECT_THROW(Server(engine, cfg), std::invalid_argument);
}

TEST(ServeServer, RejectsBatchCapAbovePlanCapacity) {
  auto engine = make_engine({}, 1, /*max_batch=*/4);
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 5;
  EXPECT_THROW(Server(engine, cfg), std::invalid_argument);
  cfg.max_batch = 4;
  EXPECT_NO_THROW(Server(engine, cfg));
}

TEST(ServeEngine, PlanMatchesFrozenEagerReference) {
  Rng rng(7);
  auto model = clado::testing::make_tiny_model(rng);
  auto reference = model.clone();
  const std::vector<int> bits = {8, 8, 8, 8};
  clado::testing::freeze_reference(reference, bits);
  EngineSpec spec;
  spec.bits = bits;
  Engine engine(std::move(model), std::move(spec));

  Rng data_rng(15);
  const Tensor batch = Tensor::randn({4, 3, 8, 8}, data_rng);
  const Tensor a = engine.infer(batch);
  const Tensor b = reference.net->forward(batch);
  ASSERT_EQ(a.shape(), b.shape());
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(ServeEngine, SteadyStatePinnedPathIsAllocationFree) {
  if (!clado::tensor::alloc_counting_enabled()) {
    GTEST_SKIP() << "tensor allocation counting is compiled out of this build; "
                    "the sanitizer CI job enforces the zero-alloc contract";
  }
  auto engine = make_engine({8, 8, 8, 8}, 1);
  const std::int64_t n = 4;
  Rng rng(19);
  const Tensor batch = Tensor::randn({n, 3, 8, 8}, rng);
  std::memcpy(engine->batch_buffer(0), batch.data(),
              sizeof(float) * static_cast<std::size_t>(batch.numel()));
  Tensor out;
  for (int i = 0; i < 3; ++i) engine->infer_pinned(n, out, 0);  // warmup
  const std::int64_t before = clado::tensor::alloc_count();
  for (int i = 0; i < 100; ++i) engine->infer_pinned(n, out, 0);
  EXPECT_EQ(clado::tensor::alloc_count(), before)
      << "steady-state serving batches must not touch the heap";
}

}  // namespace
