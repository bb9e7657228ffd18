// clado — command-line front end for the MPQ pipeline.
//
//   clado models                         list zoo models
//   clado train <model>                  pretrain (or refresh) a zoo model
//   clado assign <model> [options]       compute a bit-width assignment
//   clado eval <model> [options]         assignment + PTQ accuracy report
//   clado sweep <model> [options]        accuracy across a budget ladder
//   clado serve <m1[,m2,...]> [options]  load quantized engines and serve the
//                                        fleet over UDS and/or loopback TCP
//   clado query [options]                send val samples to a running daemon
//
// Serving options:
//   --socket=<e>        daemon: UDS listener path (default clado.sock)
//                       query: endpoint — "/path.sock" | "unix:/path" |
//                       "tcp:<port>" | "tcp:<host>:<port>"
//   --tcp-port=<n>      also listen on 127.0.0.1:<n> (0 = ephemeral;
//                       default CLADO_SERVE_TCP_PORT or off)
//   --fp32              serve the fp32 models (skip assignment + PTQ)
//   --workers=<n>       serving worker threads per model, each running one
//                       batch at a time over the model's one queue (default
//                       env or 2)
//   --max-batch=<n>     most queued requests a free worker runs as one
//                       batch (default env or 8)
//   --queue-cap=<n>     admission bound (default env or 256)
//   --index=<n>         (query) first val-sample index (default 0)
//   --count=<n>         (query) number of samples to send (default 16)
//   --deadline-us=<n>   (query) per-request queueing budget (default none)
//   --model=<name>      (query) fleet routing key (default: the sole model)
//   --best-effort       (query) send as kBestEffort (shed first on overload)
//   --retries=<n>       (query) retries on REJECTED_OVERLOAD with capped
//                       exponential backoff (default CLADO_QUERY_RETRIES or 0)
//   --stats             (query) print the daemon's fleet stats and exit
//   --swap-bits=<csv>   (query) hot-swap --model to these per-layer bits
//   --swap-fp32         (query) hot-swap --model to the fp32 engine
//
// Common options:
//   --alg=<hawq|mpqco|clado-star|clado|brecq-block>   (default clado)
//   --frac=<f>        target size as a fraction of the INT8 size (default 0.375)
//   --set-size=<n>    sensitivity-set samples (default 64)
//   --seed=<n>        sensitivity-set seed (default 48879)
//   --val=<n>         validation samples for eval (default 1024)
//   --no-psd          disable the PSD projection (Figure 7 ablation)
//   --save-sens=<p>   write the measured sensitivity matrix to <p>
//   --load-sens=<p>   reuse a previously saved sensitivity matrix
//
// A numeric flag that does not parse, or falls outside its range, is an
// error (exit 2) naming the flag; where a flag has a CLADO_* twin, the
// range is the twin's. A command that fails after its flags parse prints
// one "clado: <what>" line to stderr and exits 1.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "clado/core/algorithms.h"
#include "clado/core/report.h"
#include "clado/data/synthcv.h"
#include "clado/models/builders.h"
#include "clado/models/zoo.h"
#include "clado/obs/obs.h"
#include "clado/serve/engine.h"
#include "clado/serve/fleet.h"
#include "clado/serve/serve.h"
#include "clado/serve/socket.h"
#include "clado/tensor/env.h"
#include "clado/tensor/rng.h"

namespace {

using clado::core::Algorithm;
using clado::core::AsciiTable;

struct Options {
  std::string command;
  std::string model;
  Algorithm algorithm = Algorithm::kClado;
  double frac = 0.375;
  std::int64_t set_size = 64;
  std::uint64_t seed = 0xBEEF;
  std::int64_t val_count = 1024;
  bool psd = true;
  std::string save_sens;
  std::string load_sens;
  // serving
  std::string socket_path = "clado.sock";
  bool fp32 = false;
  int workers = 0;            // 0 = ServerConfig default / env
  std::int64_t max_batch = 0;
  std::int64_t queue_cap = 0;
  std::int64_t deadline_us = 0;
  std::int64_t index = 0;
  std::int64_t count = 16;
  int tcp_port = -1;          // -1 = DaemonOptions default / env
  std::string query_model;
  bool best_effort = false;
  bool stats = false;
  bool swap_fp32 = false;
  std::vector<int> swap_bits;  // per-layer bits
  std::int64_t retries = -1;  // -1 = CLADO_QUERY_RETRIES / 0
};

int usage() {
  std::fprintf(stderr,
               "usage: clado <models|train|assign|eval|sweep|serve|query> [model[,model2]] "
               "[--alg=...] [--frac=F] [--set-size=N] [--seed=N] [--val=N] [--no-psd] "
               "[--save-sens=PATH] [--load-sens=PATH] [--socket=ENDPOINT] [--fp32] "
               "[--tcp-port=N] [--workers=N] [--max-batch=N] "
               "[--queue-cap=N] [--index=N] [--count=N] [--deadline-us=N] "
               "[--model=NAME] [--best-effort] [--retries=N] [--stats] "
               "[--swap-bits=CSV] [--swap-fp32]\n");
  return 2;
}

bool parse_algorithm(const std::string& name, Algorithm& out) {
  static const std::map<std::string, Algorithm> table = {
      {"hawq", Algorithm::kHawq},
      {"mpqco", Algorithm::kMpqco},
      {"clado-star", Algorithm::kCladoStar},
      {"clado", Algorithm::kClado},
      {"brecq-block", Algorithm::kBrecqBlock},
  };
  const auto it = table.find(name);
  if (it == table.end()) return false;
  out = it->second;
  return true;
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string piece =
        text.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!piece.empty()) out.push_back(piece);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// The value of `arg` ("<name>=<value>") as an integer in [lo, hi]; throws
/// std::invalid_argument naming the flag otherwise.
std::int64_t int_flag(const std::string& arg, const std::string& name, std::int64_t lo,
                      std::int64_t hi) {
  return clado::tensor::parse_int_strict(arg.substr(name.size() + 1), lo, hi, name);
}

/// The value of `arg` ("<name>=<value>") as a finite number > 0.
double positive_flag(const std::string& arg, const std::string& name) {
  const double v = clado::tensor::parse_double_strict(arg.substr(name.size() + 1), name);
  if (v <= 0.0) throw std::invalid_argument(name + " must be > 0");
  return v;
}

bool parse_flags(int argc, char** argv, Options& opts) {
  if (argc < 2) return false;
  opts.command = argv[1];
  int positional = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--alg=", 0) == 0) {
      if (!parse_algorithm(arg.substr(6), opts.algorithm)) return false;
    } else if (arg.rfind("--frac=", 0) == 0) {
      opts.frac = positive_flag(arg, "--frac");
    } else if (arg.rfind("--set-size=", 0) == 0) {
      opts.set_size = int_flag(arg, "--set-size", 1, 4096);
    } else if (arg.rfind("--seed=", 0) == 0) {
      opts.seed = static_cast<std::uint64_t>(
          int_flag(arg, "--seed", 0, std::numeric_limits<std::int64_t>::max()));
    } else if (arg.rfind("--val=", 0) == 0) {
      opts.val_count = int_flag(arg, "--val", 1, 1 << 20);
    } else if (arg == "--no-psd") {
      opts.psd = false;
    } else if (arg.rfind("--save-sens=", 0) == 0) {
      opts.save_sens = arg.substr(12);
    } else if (arg.rfind("--load-sens=", 0) == 0) {
      opts.load_sens = arg.substr(12);
    } else if (arg.rfind("--socket=", 0) == 0) {
      opts.socket_path = arg.substr(9);
    } else if (arg == "--fp32") {
      opts.fp32 = true;
    } else if (arg.rfind("--workers=", 0) == 0) {
      opts.workers = static_cast<int>(int_flag(arg, "--workers", 1, 256));
    } else if (arg.rfind("--max-batch=", 0) == 0) {
      opts.max_batch = int_flag(arg, "--max-batch", 1, 4096);
    } else if (arg.rfind("--queue-cap=", 0) == 0) {
      opts.queue_cap = int_flag(arg, "--queue-cap", 1, 1 << 20);
    } else if (arg.rfind("--index=", 0) == 0) {
      opts.index = int_flag(arg, "--index", 0, 1 << 30);
    } else if (arg.rfind("--count=", 0) == 0) {
      opts.count = int_flag(arg, "--count", 0, 1 << 20);
    } else if (arg.rfind("--deadline-us=", 0) == 0) {
      opts.deadline_us = int_flag(arg, "--deadline-us", 0, 60'000'000);
    } else if (arg.rfind("--tcp-port=", 0) == 0) {
      opts.tcp_port = static_cast<int>(int_flag(arg, "--tcp-port", 0, 65535));
    } else if (arg.rfind("--model=", 0) == 0) {
      opts.query_model = arg.substr(8);
    } else if (arg == "--best-effort") {
      opts.best_effort = true;
    } else if (arg == "--stats") {
      opts.stats = true;
    } else if (arg.rfind("--retries=", 0) == 0) {
      opts.retries = int_flag(arg, "--retries", 0, 1000);
    } else if (arg.rfind("--swap-bits=", 0) == 0) {
      for (const std::string& piece : split_csv(arg.substr(12))) {
        opts.swap_bits.push_back(
            static_cast<int>(clado::tensor::parse_int_strict(piece, 0, 32, "--swap-bits")));
      }
    } else if (arg == "--swap-fp32") {
      opts.swap_fp32 = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    } else if (positional++ == 0) {
      opts.model = arg;
    } else {
      return false;
    }
  }
  return true;
}

bool parse(int argc, char** argv, Options& opts) {
  try {
    return parse_flags(argc, argv, opts);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return false;
  }
}

// The --frac size budget, as a fraction of the model's INT8 size.
clado::core::Assignment compute_assignment(clado::models::TrainedModel& tm,
                                           clado::core::MpqPipeline& pipeline,
                                           const Options& opts) {
  return pipeline.assign(opts.algorithm, tm.model.uniform_size_bytes(8) * opts.frac);
}

clado::core::MpqPipeline make_pipeline(clado::models::TrainedModel& tm, const Options& opts) {
  tm.model.calibrate_activations(tm.train_set.make_range_batch(0, 128));
  clado::tensor::Rng rng(opts.seed);
  const auto indices = clado::data::sample_indices(4096, opts.set_size, rng);
  clado::core::PipelineOptions popts;
  popts.psd_projection = opts.psd;
  clado::core::MpqPipeline pipeline(tm.model, tm.train_set.make_batch(indices), popts);
  if (!opts.load_sens.empty()) pipeline.load_sensitivities(opts.load_sens);
  if (!opts.save_sens.empty()) pipeline.save_sensitivities(opts.save_sens);
  return pipeline;
}

void print_assignment(const clado::models::Model& model,
                      const clado::core::Assignment& assignment) {
  std::printf("# %s  target %.2f KB  realized %.2f KB  predicted ΔL proxy %.5f  %s\n",
              clado::core::algorithm_name(assignment.algorithm),
              assignment.target_bytes / 1024.0, assignment.bytes / 1024.0,
              assignment.predicted,
              assignment.proven_optimal  ? "(proven optimal)"
              : assignment.used_fallback ? "(annealing fallback)"
                                         : "");
  AsciiTable table({"idx", "layer", "params", "bits"});
  for (std::size_t i = 0; i < assignment.bits.size(); ++i) {
    table.add_row({std::to_string(i), model.quant_layers[i].name,
                   std::to_string(model.quant_layers[i].layer->weight_param().value.numel()),
                   std::to_string(assignment.bits[i])});
  }
  table.print();
}

clado::serve::ServerConfig server_config(const Options& opts) {
  clado::serve::ServerConfig cfg = clado::serve::ServerConfig::from_env();
  if (opts.workers > 0) cfg.workers = opts.workers;
  if (opts.max_batch > 0) cfg.max_batch = opts.max_batch;
  if (opts.queue_cap > 0) cfg.queue_capacity = opts.queue_cap;
  return cfg;
}

int run_serve(const Options& opts) {
  const std::vector<std::string> names = split_csv(opts.model);
  if (names.empty()) return usage();
  const clado::serve::ServerConfig cfg = server_config(opts);

  // Master weights stay resident (and activation-calibrated) for the
  // daemon's lifetime: every hot-swap re-freezes from them, so a swapped
  // engine is bit-identical to one loaded fresh with the same bit-widths.
  std::map<std::string, clado::models::TrainedModel> masters;
  std::map<std::string, std::vector<int>> start_bits;
  std::map<std::string, std::string> start_labels;
  for (const std::string& name : names) {
    clado::models::TrainedModel tm = clado::models::get_or_train(name);
    tm.model.calibrate_activations(tm.train_set.make_range_batch(0, 128));
    if (opts.fp32) {
      start_bits[name] = {};
      start_labels[name] = "fp32";
    } else {
      auto pipeline = make_pipeline(tm, opts);
      const double target = tm.model.uniform_size_bytes(8) * opts.frac;
      const auto assignment = pipeline.assign(opts.algorithm, target);
      start_bits[name] = assignment.bits;
      start_labels[name] = std::string(clado::core::algorithm_name(assignment.algorithm)) +
                           "-" + AsciiTable::num(opts.frac, 4);
    }
    masters.emplace(name, std::move(tm));
  }

  const auto make_server = [&masters, &cfg](const std::string& name,
                                            const std::vector<int>& bits,
                                            const std::string& label) {
    const auto it = masters.find(name);
    if (it == masters.end()) {
      throw std::runtime_error("no master weights loaded for model '" + name + "'");
    }
    clado::serve::EngineSpec spec;
    spec.bits = bits;
    spec.label = label;
    spec.replicas = cfg.workers;
    spec.max_batch = cfg.max_batch;
    auto engine =
        std::make_shared<clado::serve::Engine>(it->second.model.clone(), std::move(spec));
    return std::make_shared<clado::serve::Server>(std::move(engine), cfg);
  };

  clado::serve::Fleet fleet;
  for (const std::string& name : names) {
    fleet.put(name, make_server(name, start_bits[name], start_labels[name]));
  }

  clado::serve::DaemonOptions dopts = clado::serve::DaemonOptions::from_env();
  dopts.socket_path = opts.socket_path;
  if (opts.tcp_port >= 0) dopts.tcp_port = opts.tcp_port;
  clado::serve::SocketDaemon daemon(fleet, dopts);
  daemon.set_swap_factory([make_server](const std::string& name,
                                        const std::vector<int>& bits) {
    return make_server(name, bits,
                       bits.empty() ? "fp32" : "swap-" + std::to_string(bits.size()) + "L");
  });

  std::printf("%s", fleet.stats_text().c_str());
  std::printf("listening on %s%s  (%d workers/model, max_batch %lld)\n",
              daemon.socket_path().c_str(),
              daemon.tcp_port() >= 0
                  ? (" and tcp:127.0.0.1:" + std::to_string(daemon.tcp_port())).c_str()
                  : "",
              cfg.workers, static_cast<long long>(cfg.max_batch));
  std::printf("stop with: clado query --socket=%s --count=0\n", opts.socket_path.c_str());
  std::fflush(stdout);
  daemon.run();

  std::printf("served %lld requests in %lld batches  (rejected %lld, expired %lld, "
              "swaps %lld)\n",
              static_cast<long long>(clado::obs::counter("serve.completed").value()),
              static_cast<long long>(clado::obs::counter("serve.batches").value()),
              static_cast<long long>(clado::obs::counter("serve.rejected_overload").value()),
              static_cast<long long>(clado::obs::counter("serve.deadline_expired").value()),
              static_cast<long long>(clado::obs::counter("serve.fleet.swaps").value()));
  return 0;
}

/// Sends one kInfer and retries REJECTED_OVERLOAD answers with capped
/// exponential backoff (2ms, 4ms, ... capped at 128ms). Other statuses —
/// including transport errors, which throw — are returned as-is: retrying
/// only helps when the daemon itself said "try again later".
clado::serve::WireResponse query_with_retries(const Options& opts,
                                              const clado::tensor::Tensor& sample,
                                              std::int64_t retries) {
  const auto klass = opts.best_effort ? clado::serve::DeadlineClass::kBestEffort
                                      : clado::serve::DeadlineClass::kInteractive;
  std::int64_t backoff_ms = 2;
  while (true) {
    const auto resp = clado::serve::query_socket(opts.socket_path, sample, opts.deadline_us,
                                                 opts.query_model, klass);
    if (resp.status != clado::serve::Status::kRejectedOverload || retries <= 0) return resp;
    --retries;
    clado::obs::counter("query.overload_retries").add();
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = std::min<std::int64_t>(backoff_ms * 2, 128);
  }
}

int run_query(const Options& opts) {
  if (opts.stats) {
    std::printf("%s", clado::serve::stats_socket(opts.socket_path).c_str());
    return 0;
  }
  if (opts.swap_fp32 || !opts.swap_bits.empty()) {
    const auto resp =
        clado::serve::swap_socket(opts.socket_path, opts.query_model, opts.swap_bits);
    const bool ok = resp.status == clado::serve::Status::kOk;
    std::printf("swap %s: %s %s\n", opts.socket_path.c_str(),
                clado::serve::status_name(resp.status),
                ok ? resp.stats.c_str() : resp.error.c_str());
    return ok ? 0 : 1;
  }
  if (opts.count <= 0) {
    const bool ok = clado::serve::shutdown_socket(opts.socket_path);
    std::printf("shutdown %s: %s\n", opts.socket_path.c_str(), ok ? "acknowledged" : "failed");
    return ok ? 0 : 1;
  }
  if (!clado::serve::ping_socket(opts.socket_path)) {
    std::fprintf(stderr, "no daemon answering on %s (start one with: clado serve <model>)\n",
                 opts.socket_path.c_str());
    return 1;
  }
  std::int64_t retries = opts.retries;
  if (retries < 0) {
    retries =
        clado::tensor::env_int_strict("CLADO_QUERY_RETRIES", 0, 1000).value_or(0);
  }
  // Samples are procedural: regenerating the daemon's val split needs only
  // the shared seed, never the trained weights.
  const auto val = clado::models::zoo_val_set();
  AsciiTable table({"idx", "label", "predicted", "status", "queue_us", "total_us"});
  std::int64_t ok = 0;
  std::int64_t correct = 0;
  for (std::int64_t i = opts.index; i < opts.index + opts.count; ++i) {
    const auto resp = query_with_retries(opts, val.image_of(i), retries);
    const std::int64_t label = val.label_of(i);
    if (resp.status == clado::serve::Status::kOk) {
      ++ok;
      if (resp.predicted == label) ++correct;
    }
    table.add_row({std::to_string(i), std::to_string(label), std::to_string(resp.predicted),
                   clado::serve::status_name(resp.status), std::to_string(resp.queue_us),
                   std::to_string(resp.total_us)});
  }
  table.print();
  std::printf("%lld/%lld answered, top-1 %.2f%% on answered\n", static_cast<long long>(ok),
              static_cast<long long>(opts.count),
              ok > 0 ? 100.0 * static_cast<double>(correct) / static_cast<double>(ok) : 0.0);
  return 0;
}

int run_command(const Options& opts) {
  if (opts.command == "query") return run_query(opts);

  if (opts.command == "models") {
    for (const auto& name : clado::models::model_names()) std::printf("%s\n", name.c_str());
    return 0;
  }
  if (opts.model.empty()) return usage();

  if (opts.command == "train") {
    clado::models::ZooConfig cfg;
    cfg.verbose = true;
    const auto tm = clado::models::get_or_train(opts.model, cfg);
    std::printf("%s: fp32 top-1 %.2f%%\n", opts.model.c_str(), 100.0 * tm.val_accuracy);
    return 0;
  }

  if (opts.command == "serve") return run_serve(opts);

  clado::models::TrainedModel tm = clado::models::get_or_train(opts.model);
  if (opts.command == "assign") {
    auto pipeline = make_pipeline(tm, opts);
    print_assignment(tm.model, compute_assignment(tm, pipeline, opts));
    return 0;
  }
  if (opts.command == "eval") {
    auto pipeline = make_pipeline(tm, opts);
    const auto assignment = compute_assignment(tm, pipeline, opts);
    print_assignment(tm.model, assignment);
    auto snapshot = pipeline.apply_ptq(assignment);
    std::printf("\nPTQ top-1 on %lld val samples: %.2f%%  (fp32: %.2f%%)\n",
                static_cast<long long>(opts.val_count),
                100.0 * tm.model.accuracy_on(tm.val_set, opts.val_count),
                100.0 * tm.val_accuracy);
    return 0;
  }
  if (opts.command == "sweep") {
    auto pipeline = make_pipeline(tm, opts);
    const double int8 = tm.model.uniform_size_bytes(8);
    AsciiTable table({"frac", "KB", "top-1 (%)"});
    for (double f : {0.28, 0.3125, 0.375, 0.45, 0.55, 0.7, 0.9}) {
      const auto assignment = pipeline.assign(opts.algorithm, int8 * f);
      auto snapshot = pipeline.apply_ptq(assignment);
      const double acc = tm.model.accuracy_on(tm.val_set, opts.val_count);
      snapshot->restore();
      table.add_row({AsciiTable::num(f, 4), AsciiTable::num(int8 * f / 1024.0, 2),
                     AsciiTable::pct(acc)});
    }
    table.print();
    return 0;
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse(argc, argv, opts)) return usage();
  try {
    return run_command(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "clado: %s\n", e.what());
    return 1;
  }
}
