// Serving throughput: dynamic micro-batching vs one-request-at-a-time on a
// frozen INT8 engine (DESIGN.md §9).
//
// Closed-loop harness: a fixed pool of client threads each submit-and-wait
// in a loop against a 2-worker server, for each max_batch in {1, 4, 8}.
// max_batch=1 is the no-batching baseline; larger caps let a free worker
// take up to that many of the requests the 16 clients queued while both
// workers were busy (the server never waits to fill a batch). Expected shape:
// requests/s rises with max_batch (fewer forwards, each amortizing
// per-layer overhead over more rows) while p50/p99 latency falls — the
// batch-1 row spends the same wall-clock on 8x more engine invocations.
// One run of 256 requests takes tens of milliseconds, so a single run
// cannot tell a serving change from host noise: each row is the median of
// kRuns runs, each on a fresh Server over the row's engine, taken in turn
// with the other rows' runs; the runs' req/s min–max is printed beside it.
// The serve.* counters land in the obs dump that every bench appends.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "clado/core/report.h"
#include "clado/obs/obs.h"
#include "clado/serve/engine.h"
#include "clado/serve/serve.h"
#include "clado/tensor/tensor.h"

int main(int argc, char** argv) {
  using namespace clado::bench;
  using clado::core::AsciiTable;
  using clado::serve::Engine;
  using clado::serve::EngineSpec;
  using clado::serve::Response;
  using clado::serve::Server;
  using clado::serve::ServerConfig;
  using clado::serve::Status;
  using clado::tensor::Tensor;
  using Clock = std::chrono::steady_clock;

  const auto names = models_from_args(argc, argv, {"resnet_a"});
  const std::string& name = names.front();
  const int scale = bench_scale();
  constexpr int kWorkers = 2;
  constexpr int kRuns = 21;
  const int clients = 16;
  const int per_client = 16 * scale;

  std::printf("=== Serving: micro-batched throughput on a frozen INT8 engine ===\n");
  std::printf("(%d workers, %d closed-loop clients x %d requests, median of %d runs; "
              "CLADO_BENCH_SCALE to scale)\n\n", kWorkers, clients, per_client, kRuns);

  TrainedModel tm = load_calibrated(name);
  const std::vector<int> int8_bits(tm.model.quant_layers.size(), 8);

  // One request stream, reused across configs so every row serves the
  // identical workload.
  std::vector<Tensor> samples;
  samples.reserve(static_cast<std::size_t>(clients * per_client));
  for (int i = 0; i < clients * per_client; ++i) samples.push_back(tm.val_set.image_of(i));

  AsciiTable table({"max_batch", "requests", "ok", "batches", "mean_batch", "wall_s",
                    "req/s", "req/s min-max", "p50_ms", "p99_ms"});
  std::vector<std::vector<std::string>> csv_rows;
  double baseline_rps = 0.0;

  // One closed-loop run: every client submits its share and waits for each
  // answer, on a fresh Server so the latency summary covers this run only.
  struct Run {
    std::int64_t ok = 0;
    std::int64_t batches = 0;
    double wall = 0.0;
    double rps = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
  };
  auto run_once = [&](const std::shared_ptr<Engine>& engine, std::int64_t max_batch) {
    ServerConfig cfg;
    cfg.workers = kWorkers;
    cfg.max_batch = max_batch;
    cfg.queue_capacity = clients * per_client;
    Server server(engine, cfg);

    const std::int64_t batches_before = clado::obs::counter("serve.batches").value();
    const auto t0 = Clock::now();
    std::vector<std::thread> pool;
    std::vector<int> ok_counts(static_cast<std::size_t>(clients), 0);
    for (int c = 0; c < clients; ++c) {
      pool.emplace_back([&, c] {
        for (int i = 0; i < per_client; ++i) {
          const std::size_t idx = static_cast<std::size_t>(c * per_client + i);
          const Response r = server.submit(samples[idx]).get();
          if (r.status == Status::kOk) ++ok_counts[static_cast<std::size_t>(c)];
        }
      });
    }
    for (auto& t : pool) t.join();
    server.drain();
    Run run;
    run.wall = std::chrono::duration<double>(Clock::now() - t0).count();
    for (const int n : ok_counts) run.ok += n;
    run.batches = clado::obs::counter("serve.batches").value() - batches_before;
    run.rps = run.wall > 0.0 ? static_cast<double>(run.ok) / run.wall : 0.0;
    const auto lat = server.latency_summary();
    run.p50_ms = lat.p50_ms;
    run.p99_ms = lat.p99_ms;
    return run;
  };
  // Median of one field over the runs (kRuns is odd).
  auto median = [](const std::vector<Run>& runs, auto field) {
    std::vector<double> v;
    for (const Run& r : runs) v.push_back(static_cast<double>(r.*field));
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2), v.end());
    return v[v.size() / 2];
  };

  const std::vector<std::int64_t> max_batches = {1, 4, 8};
  std::vector<std::shared_ptr<Engine>> engines;
  for (const std::int64_t max_batch : max_batches) {
    EngineSpec spec;
    spec.bits = int8_bits;
    spec.replicas = kWorkers;
    spec.label = "int8";
    // Plan the arena for exactly this row's batching cap so the pinned
    // buffer path serves every batch the micro-batcher can form.
    spec.max_batch = max_batch;
    engines.push_back(std::make_shared<Engine>(tm.model.clone(), std::move(spec)));
  }
  // Round-robin over the rows, so a slow stretch of the host lands on every
  // row alike instead of on whichever row was running.
  std::vector<std::vector<Run>> row_runs(max_batches.size());
  for (int r = 0; r < kRuns; ++r) {
    for (std::size_t row = 0; row < max_batches.size(); ++row) {
      row_runs[row].push_back(run_once(engines[row], max_batches[row]));
    }
  }

  for (std::size_t row = 0; row < max_batches.size(); ++row) {
    const std::int64_t max_batch = max_batches[row];
    const std::vector<Run>& runs = row_runs[row];
    std::int64_t ok = 0;
    for (const Run& r : runs) ok += r.ok;
    const double batches = median(runs, &Run::batches);
    const double wall = median(runs, &Run::wall);
    const double rps = median(runs, &Run::rps);
    const double p50_ms = median(runs, &Run::p50_ms);
    const double p99_ms = median(runs, &Run::p99_ms);
    const auto [lo, hi] = std::minmax_element(
        runs.begin(), runs.end(), [](const Run& a, const Run& b) { return a.rps < b.rps; });
    const double mean_batch = batches > 0.0 ? clients * per_client / batches : 0.0;
    if (max_batch == 1) baseline_rps = rps;

    table.add_row({std::to_string(max_batch), std::to_string(kRuns * clients * per_client),
                   std::to_string(ok), AsciiTable::num(batches, 0),
                   AsciiTable::num(mean_batch, 2), AsciiTable::num(wall, 3),
                   AsciiTable::num(rps, 1),
                   AsciiTable::num(lo->rps, 0) + "-" + AsciiTable::num(hi->rps, 0),
                   AsciiTable::num(p50_ms, 2), AsciiTable::num(p99_ms, 2)});
    csv_rows.push_back({name, std::to_string(max_batch), std::to_string(kRuns),
                        std::to_string(ok), AsciiTable::num(batches, 0),
                        AsciiTable::num(mean_batch, 3), AsciiTable::num(wall, 4),
                        AsciiTable::num(rps, 2), AsciiTable::num(lo->rps, 2),
                        AsciiTable::num(hi->rps, 2), AsciiTable::num(p50_ms, 3),
                        AsciiTable::num(p99_ms, 3)});
    std::printf("  max_batch %lld: %.1f req/s (%.1f-%.1f over %d runs)%s\n",
                static_cast<long long>(max_batch), rps, lo->rps, hi->rps, kRuns,
                max_batch > 1 && baseline_rps > 0.0
                    ? ("  (" + AsciiTable::num(rps / baseline_rps, 2) + "x vs unbatched)").c_str()
                    : "");
    std::fflush(stdout);
  }

  // Steady-state zero-allocation probe (DESIGN.md §11): after warmup, 100
  // pinned batches through the compiled plan must not touch the heap. The
  // deltas are published as serve.steady.* and pinned by
  // bench/baselines/bench_serve.json — the allocation gauge is only
  // non-vacuous in builds that count (sanitizer CI / CLADO_ENABLE_CHECKS).
  {
    constexpr std::int64_t kSteadyBatch = 8;
    constexpr int kSteadyIters = 100;
    EngineSpec spec;
    spec.bits = int8_bits;
    spec.label = "int8";
    spec.max_batch = kSteadyBatch;
    Engine engine(tm.model.clone(), std::move(spec));

    const std::int64_t per_sample = samples.front().numel();
    float* pin = engine.batch_buffer(0);
    for (std::int64_t i = 0; i < kSteadyBatch; ++i) {
      std::memcpy(pin + i * per_sample, samples[static_cast<std::size_t>(i)].data(),
                  sizeof(float) * static_cast<std::size_t>(per_sample));
    }
    Tensor logits;
    for (int i = 0; i < 3; ++i) engine.infer_pinned(kSteadyBatch, logits, 0);  // warmup

    const std::int64_t allocs_before = clado::tensor::alloc_count();
    const std::int64_t spans_before = clado::obs::span_stat("serve/engine_forward").count;
    const auto s0 = Clock::now();
    for (int i = 0; i < kSteadyIters; ++i) engine.infer_pinned(kSteadyBatch, logits, 0);
    const double steady_wall = std::chrono::duration<double>(Clock::now() - s0).count();
    const std::int64_t alloc_delta = clado::tensor::alloc_count() - allocs_before;
    const std::int64_t span_delta =
        clado::obs::span_stat("serve/engine_forward").count - spans_before;

    clado::obs::counter("serve.steady.batches").add(kSteadyIters);
    clado::obs::counter("serve.steady.forward_spans").add(span_delta);
    clado::obs::gauge("serve.steady.allocs").set(static_cast<double>(alloc_delta));
    std::printf("\nsteady state: %d pinned batches of %lld in %.3fs (%.1f batches/s), "
                "%lld tensor allocs (counting %s)\n",
                kSteadyIters, static_cast<long long>(kSteadyBatch), steady_wall,
                steady_wall > 0.0 ? kSteadyIters / steady_wall : 0.0,
                static_cast<long long>(alloc_delta),
                clado::tensor::alloc_counting_enabled() ? "on" : "off");
  }

  std::printf("\n");
  table.print();
  clado::core::write_csv("bench_results/serve.csv",
                         {"model", "max_batch", "runs", "ok", "batches", "mean_batch", "wall_s",
                          "req_per_s", "req_per_s_min", "req_per_s_max", "p50_ms", "p99_ms"},
                         csv_rows);
  std::printf("\nrows written to bench_results/serve.csv\n");
  return 0;
}
