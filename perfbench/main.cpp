// perfbench — the repo benchmark: one zoo model taken through the offline
// MPQ pipeline (zoo load → calibration → Ĝ sweep → PSD → IQP ladder → PTQ)
// and through serving (frozen mixed-precision engine behind serve::Server
// and a UDS SocketDaemon), timed in interleaved cycles. See README.md.
//
//   perfbench prepare --artifacts DIR
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --artifacts DIR [--trace-file PATH] [--git-rev REV]
//
// `prepare` trains/caches the zoo models and saves each model's Ĝ from a
// serial sweep (untimed). `run` prints a human-readable report and, as its
// last stdout line, one JSON object: {"correct", "attempted", "failed",
// "metrics"} with the end-to-end metrics (trace 0) or every per-layer
// metric measured (trace 1). Exit code 0 only when that line was printed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "clado/obs/obs.h"
#include "clado/tensor/kernels.h"
#include "clado/tensor/rng.h"
#include "clado/tensor/thread_pool.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Samples, Layers, Checks

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Samples::min() const {
  return values_.empty() ? 0.0 : *std::min_element(values_.begin(), values_.end());
}

double Samples::max() const {
  return values_.empty() ? 0.0 : *std::max_element(values_.begin(), values_.end());
}

void Layers::add(const std::string& name, double value, const std::string& unit) {
  samples_[name].add(value);
  units_[name] = unit;
}

void Layers::count(const std::string& name, std::int64_t value) {
  add(name, static_cast<double>(value), "count");
}

void Checks::expect(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

// ---------------------------------------------------------------------------
// Workloads

const std::vector<Workload>& workloads() {
  // resnet_a: the repo's default sensitivity set; the sweep dominates and
  // the IQP is tiny. vit_mini: a 16-sample set keeps its sweep short while
  // its IQP ladder does real branch-and-bound work (README.md, Workloads).
  // The batch times are plan.mixed.b8_ms on the reference host.
  static const std::vector<Workload> all = {{"resnet_a", 64, 6.6},
                                            {"vit_mini", 16, 3.5}};
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.model) return &w;
  }
  return nullptr;
}

namespace {

constexpr int kMinCycles = 3;  ///< every unit kind runs at least this often

struct Args {
  std::string command;
  std::string workload;
  std::string artifacts;
  std::string trace_file;
  std::string git_rev = "unknown";
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool have_seed = false;
};

[[noreturn]] void usage(const std::string& why) {
  throw std::invalid_argument(
      why + "\nusage: perfbench prepare --artifacts DIR\n"
            "       perfbench run --workload W --seed N --seconds S --trace 0|1 "
            "--artifacts DIR [--trace-file PATH] [--git-rev REV]");
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) usage("missing command");
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--artifacts") {
        args.artifacts = value;
      } else if (flag == "--trace-file") {
        args.trace_file = value;
      } else if (flag == "--git-rev") {
        args.git_rev = value;
      } else if (flag == "--seed") {
        std::size_t used = 0;
        args.seed = std::stoull(value, &used);
        if (used != value.size()) usage("bad --seed " + value);
        args.have_seed = true;
      } else if (flag == "--seconds") {
        std::size_t used = 0;
        args.seconds = std::stod(value, &used);
        if (used != value.size() || !(args.seconds > 0.0)) usage("bad --seconds " + value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.artifacts.empty()) usage("--artifacts is required");
  if (args.command == "run") {
    if (find_workload(args.workload) == nullptr) usage("unknown workload '" + args.workload + "'");
    if (!args.have_seed || args.seconds <= 0.0) usage("--seed and --seconds are required");
    if (args.trace && args.trace_file.empty()) usage("--trace 1 needs --trace-file");
  } else if (args.command != "prepare") {
    usage("unknown command " + args.command);
  }
  return args;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

volatile std::uint64_t g_ref_sink = 0;

/// Fixed ALU loop (xorshift), median of five: a slow host period shows up
/// here. Reported only, never used to normalise another metric.
double host_ref_ms() {
  Samples ms;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(rep);
    for (int i = 0; i < 4'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    g_ref_sink = x;
    ms.add(ms_between(t0, Clock::now()));
  }
  return ms.median();
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double pct_change(double now, double base) {
  return base > 0.0 ? 100.0 * (now / base - 1.0) : 0.0;
}

int prepare(const Args& args) {
  for (const Workload& w : workloads()) prepare_model(w, args.artifacts);
  return 0;
}

int run(const Args& args) {
  const Workload& w = *find_workload(args.workload);
  const int nproc = static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));
  const clado::serve::ServerConfig server_defaults{};
  // Thread budget: sweep workers run alone; during serving rounds the
  // server workers plus the generator (open loop) or the clients (UDS)
  // are the busy threads. GEMMs never fan out (CLADO_NUM_THREADS=1).
  const int sweep_threads = nproc;
  const int uds_clients = std::clamp(nproc - server_defaults.workers, 1, 2);
  const int gemm_threads = clado::tensor::ThreadPool::global().num_threads();
  if (gemm_threads != 1) {
    throw std::runtime_error("run with CLADO_NUM_THREADS=1 (the GEMM pool has " +
                             std::to_string(gemm_threads) + " threads)");
  }
  const int busy_serving = server_defaults.workers + std::max(1, uds_clients);
  std::printf("# workload %s seed %llu seconds %.1f trace %d\n", w.model,
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("# host cpu=\"%s\" nproc=%d kernel=%s build=%s rev=%s\n", cpu_model().c_str(),
              nproc,
              clado::tensor::kernels::level_name(clado::tensor::kernels::active_level()),
              PERFBENCH_BUILD_TYPE, args.git_rev.c_str());
  std::printf("# threads sweep_workers=%d gemm_pool=%d server_workers=%d generator=1 "
              "uds_clients=%d (busy at most %d of %d)\n",
              sweep_threads, gemm_threads, server_defaults.workers, uds_clients,
              std::max(sweep_threads, busy_serving), nproc);
  std::printf("# traffic light=%.0f nominal=%.0f overload=%.0f req/s, best_effort share %.2f, "
              "limit %.2f ms, overload deadline %.2f ms\n",
              kLight.rps, kNominal.rps, kOverload.rps, kBestEffortShare, limit_ms(w),
              deadline_ms(w));
  std::fflush(stdout);

  const double ref_start_ms = host_ref_ms();
  Layers layers;
  Checks checks;
  const std::string socket_path = args.artifacts + "/serve.sock";

  // Request inputs: 256 validation images chosen by the seed.
  const clado::data::SynthCvDataset val = clado::models::zoo_val_set();
  std::vector<clado::tensor::Tensor> samples;
  {
    clado::tensor::Rng rng(args.seed);
    for (const std::int64_t idx : clado::data::sample_indices(4096, 256, rng)) {
      samples.push_back(val.image_of(idx));
    }
  }

  std::unique_ptr<ServingStack> stack;
  std::unique_ptr<Offline> off;
  std::vector<int> served_bits;
  Samples setup_s;
  Samples sweep_s;
  Samples solve_s;
  Tally light;
  Tally nominal;
  Tally overload;
  UdsTally uds;
  // Traced runs alternate tracing per cycle; the difference is the overhead.
  Samples sweep_traced;
  Samples sweep_plain;
  Tally nominal_traced;
  Tally nominal_plain;
  std::int64_t units = 0;
  const Clock::time_point measure_start = Clock::now();
  const auto elapsed_s = [&] {
    return std::chrono::duration<double>(Clock::now() - measure_start).count();
  };
  // Set-up from scratch on a fresh stack (teardown is not set-up work).
  // It runs twice per cycle, at its start and halfway through, so set-up
  // is sampled across the run like every other unit.
  const auto set_up = [&] {
    stack.reset();
    off.reset();
    clado::obs::Span setup("perfbench/setup");
    off = setup_offline(w, args.artifacts, sweep_threads, layers);
    stack = std::make_unique<ServingStack>(off->tm.model, off->served.bits, socket_path, layers);
    setup_s.add(setup.close());
    ++units;
    const std::int64_t train_steps = clado::obs::counter("zoo.train_steps").value();
    const std::int64_t recoveries = clado::obs::counter("zoo.cache_recoveries").value();
    if (train_steps != 0 || recoveries != 0) {
      throw std::runtime_error("zoo retrained during set-up (train_steps=" +
                               std::to_string(train_steps) + ", cache_recoveries=" +
                               std::to_string(recoveries) + "); run `perfbench prepare` first");
    }
    checks.expect(off->served.solver_source == clado::solver::SolutionSource::kIqp &&
                      off->served.proven_optimal,
                  "served assignment is a proven-optimal IQP solution");
    if (served_bits.empty()) served_bits = off->served.bits;
    checks.expect(off->served.bits == served_bits, "every set-up serves the same assignment");
    // Warm the fresh serving path (code pages, plan arenas); not tallied.
    open_loop_round(*stack, w, Rate{"warmup", 1000.0, 0.05, false}, samples, args.seed, -1);
  };
  int cycle = 0;
  // Whole cycles only: one more starts while the run ends nearer to
  // --seconds with it than without it.
  for (; cycle < kMinCycles || elapsed_s() * (1.0 + 0.5 / cycle) < args.seconds; ++cycle) {
    const bool traced = args.trace && cycle % 2 == 0;
    if (args.trace) clado::obs::set_trace_path(traced ? args.trace_file : "");
    set_up();
    const double sweep = sweep_unit(*off, sweep_threads, layers, checks);
    sweep_s.add(sweep);
    (traced ? sweep_traced : sweep_plain).add(sweep);
    // Solve units and overload rounds run twice per cycle too, so that
    // their means sample more of the run.
    solve_unit(*off, args.artifacts, w, layers, checks, solve_s);
    overload.merge(open_loop_round(*stack, w, kOverload, samples, args.seed, 4 * cycle));
    light.merge(open_loop_round(*stack, w, kLight, samples, args.seed, 4 * cycle + 1));
    const Tally nom = open_loop_round(*stack, w, kNominal, samples, args.seed, 4 * cycle + 2);
    nominal.merge(nom);
    (traced ? nominal_traced : nominal_plain).merge(nom);
    set_up();
    solve_unit(*off, args.artifacts, w, layers, checks, solve_s);
    overload.merge(open_loop_round(*stack, w, kOverload, samples, args.seed, 4 * cycle + 3));
    uds_round(*stack, uds_clients, kUdsRoundS, samples, args.seed, cycle, uds);
    ++units;  // the sweep; set_up counts set-ups, solve_s the ladders
  }
  const double measured_s = elapsed_s();

  if (args.trace) clado::obs::set_trace_path("");  // plan timings are per call, untraced
  probe_check(*stack, val, checks);
  const double served = served_top1(*stack, val);
  if (args.trace) plan_timings(off->tm.model, off->served.bits, val, layers);
  const double ptq = ptq_top1(*off, layers);
  const std::string daemon_error = stack->stop();
  checks.expect(daemon_error.empty(), "daemon accept loop exited cleanly: " + daemon_error);
  stack.reset();
  off.reset();
  if (args.trace) clado::obs::set_trace_path(args.trace_file);  // written at exit
  const double ref_end_ms = host_ref_ms();

  // Request accounting: refusals and expiries only at the overload rate.
  std::int64_t failed = uds.failed;
  for (const Tally* t : {&light, &nominal, &overload}) {
    failed += t->errors + t->unaccounted;
    checks.expect(t->sent == t->ok + t->refused + t->expired + t->errors + t->unaccounted,
                  "request accounting adds up");
    checks.expect(t->errors == 0 && t->unaccounted == 0, "no request errored or went unanswered");
  }
  for (const Tally* t : {&light, &nominal}) {
    failed += t->refused + t->expired;
    checks.expect(t->refused == 0 && t->expired == 0,
                  "no refusal or expiry below the overload rate");
  }
  checks.expect(uds.failed == 0 && uds.ok == uds.sent, "every UDS request answered OK");
  for (const auto& [name, s] : layers.samples()) {
    if (layers.unit(name) == "count") {
      checks.expect(s.min() == s.max(), name + " repeats exactly across units");
    }
  }
  const std::int64_t attempted = units + static_cast<std::int64_t>(solve_s.size()) + light.sent +
                                 nominal.sent + overload.sent + uds.sent;

  // Per-layer metrics derived from the request tallies.
  layers.add("serve.queue_wait_p50_ms", nominal.queue_ms.median(), "ms");
  layers.add("serve.queue_wait_p99_ms", nominal.queue_ms.quantile(0.99), "ms");
  layers.add("serve.exec_p50_ms", nominal.exec_ms.median(), "ms");
  layers.add("serve.batch_mean.light", light.batch.mean(), "req");
  layers.add("serve.batch_mean.nominal", nominal.batch.mean(), "req");
  layers.add("serve.batch_mean.overload", overload.batch.mean(), "req");
  layers.add("serve.goodput_interactive_rps", overload.goodput_interactive_rps.mean(), "req/s");
  layers.add("serve.goodput_best_effort_rps", overload.goodput_best_effort_rps.mean(), "req/s");
  layers.add("socket.overhead_p50_ms", uds.overhead_ms.median(), "ms");
  Samples late;
  for (const Tally* t : {&light, &nominal, &overload}) late.append(t->late_ms);
  layers.add("gen.late_p99_ms", late.quantile(0.99), "ms");
  layers.add("host.ref_ms", 0.5 * (ref_start_ms + ref_end_ms), "ms");
  if (args.trace) {
    layers.add("trace.sweep_overhead_pct", pct_change(sweep_traced.median(), sweep_plain.median()),
               "%");
    layers.add("trace.p50_overhead_pct",
               pct_change(nominal_traced.latency_ms.median(), nominal_plain.latency_ms.median()),
               "%");
  }

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Metric> end_to_end = {
      {"setup_s", setup_s.median(), "s"},
      {"sweep_s", sweep_s.median(), "s"},
      // Means, not medians: ladder times and overload rounds swing between
      // a fast and a slow mode within a run, and a median of few samples
      // flips between the modes from run to run (README.md).
      {"solve_s", solve_s.mean(), "s"},
      {"ptq_top1", ptq, "%"},
      {"p50_ms", nominal.latency_ms.median(), "ms"},
      {"goodput_rps", overload.goodput_rps.mean(), "req/s"},
      {"rtt_p50_ms", uds.rtt_ms.median(), "ms"},
      {"served_top1", served, "%"},
  };
  std::vector<Metric> per_layer;
  for (const auto& [name, s] : layers.samples()) {
    per_layer.push_back({name, s.median(), layers.unit(name)});
  }

  // Human-readable report.
  std::printf("# measured %.1f s in %d cycles; host.ref_ms start %.3f end %.3f\n", measured_s,
              cycle, ref_start_ms, ref_end_ms);
  std::printf("# samples: setup %zu, sweep %zu, solve %zu, nominal %zu, overload rounds %zu, "
              "uds %zu\n",
              setup_s.size(), sweep_s.size(), solve_s.size(), nominal.latency_ms.size(),
              overload.goodput_rps.size(), uds.rtt_ms.size());
  for (const auto& [label, s] : {std::pair<const char*, const Samples*>{"setup", &setup_s},
                                 {"sweep", &sweep_s}, {"solve", &solve_s}}) {
    std::printf("# %-8s min %.4f s q1 %.4f s median %.4f s q3 %.4f s max %.4f s\n", label,
                s->min(), s->quantile(0.25), s->median(), s->quantile(0.75), s->max());
  }
  for (const auto& [label, t] : {std::pair<const char*, const Tally*>{"light", &light},
                                 {"nominal", &nominal}, {"overload", &overload}}) {
    std::printf("# %-8s sent %lld ok %lld refused %lld expired %lld errors %lld unaccounted %lld "
                "p50 %.3f ms p99 %.3f ms max %.3f ms batch %.2f\n",
                label, static_cast<long long>(t->sent), static_cast<long long>(t->ok),
                static_cast<long long>(t->refused), static_cast<long long>(t->expired),
                static_cast<long long>(t->errors), static_cast<long long>(t->unaccounted),
                t->latency_ms.median(), t->latency_ms.quantile(0.99), t->latency_ms.max(),
                t->batch.mean());
  }
  std::printf("# uds      sent %lld ok %lld failed %lld\n", static_cast<long long>(uds.sent),
              static_cast<long long>(uds.ok), static_cast<long long>(uds.failed));
  for (const Metric& m : end_to_end) {
    std::printf("e2e   %-28s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : per_layer) {
    std::printf("layer %-28s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& f : checks.failures()) std::printf("CHECK FAILED: %s\n", f.c_str());

  std::ostringstream json;
  json << "{\"correct\": " << (checks.ok() && failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed << ", \"metrics\": {";
  const std::vector<Metric>& out = args.trace ? per_layer : end_to_end;
  for (std::size_t i = 0; i < out.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << out[i].name << "\": {\"value\": "
         << json_number(out[i].value) << ", \"unit\": \"" << out[i].unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    return args.command == "prepare" ? perfbench::prepare(args) : perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
