// The offline user's path: zoo load, calibration, the Ĝ sweep, PSD
// projection, the IQP budget ladder and PTQ evaluation, each timed from
// outside around the pipeline's public calls.
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench.h"
#include "clado/obs/obs.h"
#include "clado/solver/iqp.h"

namespace perfbench {

using clado::core::Algorithm;
using clado::core::MpqPipeline;
using clado::core::PipelineOptions;

namespace {

std::int64_t counter_value(const char* name) { return clado::obs::counter(name).value(); }

/// Every tier of the solver's degradation chain that can replace the IQP.
std::int64_t fallback_count() {
  std::int64_t total = 0;
  for (const char* name :
       {"solver.fallback.iqp_no_incumbent", "solver.fallback.iqp_failures",
        "solver.fallback.mckp_dp_failures", "solver.fallback.mckp_greedy_failures",
        "solver.fallback.exhausted"}) {
    total += counter_value(name);
  }
  return total;
}

clado::models::ZooConfig zoo_config(const std::string& artifacts) {
  clado::models::ZooConfig cfg;
  cfg.artifacts_dir = artifacts;
  return cfg;
}

}  // namespace

std::string g_matrix_path(const std::string& artifacts, const Workload& w) {
  return artifacts + "/" + w.model + "-set" + std::to_string(w.set_size) + ".ghat";
}

std::uint64_t tensor_hash(const clado::tensor::Tensor& t) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(t.data());
  const auto n = static_cast<std::size_t>(t.numel()) * sizeof(float);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

clado::data::Batch sensitivity_set(const clado::models::TrainedModel& tm, std::int64_t size) {
  const auto sets = clado::data::make_sensitivity_sets(4096, size, 1, 0xBEEF);
  return tm.train_set.make_batch(sets.front());
}

std::unique_ptr<Offline> setup_offline(const Workload& w, const std::string& artifacts,
                                       int sweep_threads, Layers& layers) {
  clado::obs::Span load("perfbench/zoo_load");
  clado::models::TrainedModel tm = clado::models::get_or_train(w.model, zoo_config(artifacts));
  layers.add("models.load_s", load.close(), "s");
  auto off = std::make_unique<Offline>(Offline{std::move(tm), {}, nullptr, 0, {}});

  clado::obs::Span calibrate("perfbench/calibrate");
  off->tm.model.calibrate_activations(off->tm.train_set.make_range_batch(0, 128));
  layers.add("quant.calibrate_s", calibrate.close(), "s");

  off->sens = sensitivity_set(off->tm, w.set_size);
  PipelineOptions options;
  options.sweep_threads = sweep_threads;
  clado::obs::Span clean("perfbench/clean_pass");
  off->pipe = std::make_unique<MpqPipeline>(off->tm.model, off->sens, options);
  layers.add("core.clean_pass_s", clean.close(), "s");

  off->pipe->load_sensitivities(g_matrix_path(artifacts, w));
  off->g_hash = tensor_hash(off->pipe->clado_matrix_raw());
  off->served =
      off->pipe->assign(Algorithm::kClado, off->tm.model.uniform_size_bytes(8) * kServedBudget);
  return off;
}

double sweep_unit(Offline& off, int sweep_threads, Layers& layers, Checks& checks) {
  PipelineOptions options;
  options.sweep_threads = sweep_threads;
  // A fresh pipeline: single-layer losses are cached per pipeline, so only
  // a new one measures a complete Ĝ. Its constructor is the clean pass.
  clado::obs::Span clean("perfbench/clean_pass");
  MpqPipeline pipe(off.tm.model, off.sens, options);
  layers.add("core.clean_pass_s", clean.close(), "s");

  const std::int64_t dispatch0 = counter_value("pool.parallel_for.dispatch");
  const std::int64_t inline0 = counter_value("pool.parallel_for.inline");
  clado::obs::Span singles("perfbench/singles");
  pipe.engine().single_losses();
  const double singles_s = singles.close();
  clado::obs::Span sweep("perfbench/sweep");
  const clado::tensor::Tensor& g = pipe.clado_matrix_raw();
  const double pairs_s = sweep.close();

  const auto& stats = pipe.engine().stats();
  const std::int64_t layer_count = pipe.engine().num_layers();
  const std::int64_t bits = pipe.engine().num_bits();
  const std::int64_t pairs = layer_count * (layer_count - 1) / 2 * bits * bits;
  layers.add("core.singles_s", singles_s, "s");
  layers.add("core.pairs_per_s", static_cast<double>(pairs) / pairs_s, "1/s");
  layers.count("core.forwards", stats.forward_measurements);
  layers.count("core.stage_execs", stats.stage_executions);
  layers.add("core.prefix_reuse",
             static_cast<double>(stats.stage_executions_naive) /
                 static_cast<double>(stats.stage_executions),
             "ratio");
  layers.count("tensor.pool_dispatches", counter_value("pool.parallel_for.dispatch") - dispatch0);
  layers.count("tensor.pool_inline", counter_value("pool.parallel_for.inline") - inline0);
  checks.expect(tensor_hash(g) == off.g_hash,
                "the " + std::to_string(sweep_threads) +
                    "-worker sweep reproduces the saved serial G-hat bit for bit");
  return singles_s + pairs_s;
}

void solve_unit(Offline& off, const std::string& artifacts, const Workload& w, Layers& layers,
                Checks& checks, Samples& seconds) {
  const double int8_bytes = off.tm.model.uniform_size_bytes(8);
  const Clock::time_point until = Clock::now() + std::chrono::seconds(1);
  do {
    // Reinstalling Ĝ drops the cached PSD matrix, so every ladder starts
    // from the raw Ĝ (the file load is not timed).
    off.pipe->load_sensitivities(g_matrix_path(artifacts, w));
    const std::int64_t nodes0 = counter_value("solver.iqp.nodes");
    const std::int64_t pruned0 = counter_value("solver.iqp.pruned");
    const std::int64_t oracle0 = counter_value("solver.iqp.oracle_calls");
    const std::int64_t fallbacks0 = fallback_count();

    clado::obs::Span total("perfbench/solve");
    clado::obs::Span psd("perfbench/psd");
    off.pipe->clado_matrix();
    const double psd_s = psd.close();
    clado::obs::Span iqp("perfbench/iqp_ladder");
    for (const double frac : kBudgets) {
      const auto a = off.pipe->assign(Algorithm::kClado, int8_bytes * frac);
      checks.expect(a.solver_source == clado::solver::SolutionSource::kIqp &&
                        !a.used_fallback && a.proven_optimal,
                    "IQP at " + std::to_string(frac) + "x int8 bytes is proven optimal (source " +
                        clado::solver::solution_source_name(a.solver_source) + ")");
    }
    const double iqp_s = iqp.close();
    seconds.add(total.close());

    const std::int64_t fallbacks = fallback_count() - fallbacks0;
    layers.add("linalg.psd_s", psd_s, "s");
    layers.add("solver.iqp_s", iqp_s, "s");
    layers.count("solver.nodes", counter_value("solver.iqp.nodes") - nodes0);
    layers.count("solver.pruned", counter_value("solver.iqp.pruned") - pruned0);
    layers.count("solver.oracle_calls", counter_value("solver.iqp.oracle_calls") - oracle0);
    layers.count("solver.fallbacks", fallbacks);
    checks.expect(fallbacks == 0, "no solver fallback tier ran");
  } while (Clock::now() < until);
}

double ptq_top1(Offline& off, Layers& layers) {
  clado::obs::Span apply("perfbench/ptq_apply");
  auto snapshot = off.pipe->apply_ptq(off.served);
  layers.add("quant.ptq_apply_s", apply.close(), "s");
  const clado::obs::Span eval("perfbench/ptq_eval");
  const double acc = off.tm.model.accuracy_on(off.tm.val_set, kValSamples);
  snapshot->restore();
  return 100.0 * acc;
}

void prepare_model(const Workload& w, const std::string& artifacts) {
  std::filesystem::create_directories(artifacts);
  const std::string g_path = g_matrix_path(artifacts, w);
  // Always through the zoo cache, so weights it cannot load are retrained;
  // a Ĝ saved from earlier weights is then stale and measured again.
  const std::int64_t trained0 =
      counter_value("zoo.train_steps") + counter_value("zoo.cache_recoveries");
  clado::models::ZooConfig cfg = zoo_config(artifacts);
  cfg.verbose = true;
  clado::models::TrainedModel tm = clado::models::get_or_train(w.model, cfg);
  const bool retrained =
      counter_value("zoo.train_steps") + counter_value("zoo.cache_recoveries") != trained0;
  if (!retrained && std::filesystem::exists(g_path)) {
    std::printf("prepare: %s already cached\n", w.model);
    return;
  }
  std::printf("prepare: %s serial G-hat sweep\n", w.model);
  std::fflush(stdout);
  tm.model.calibrate_activations(tm.train_set.make_range_batch(0, 128));
  PipelineOptions options;
  options.sweep_threads = 1;  // the serial reference the timed sweeps must reproduce
  MpqPipeline pipe(tm.model, sensitivity_set(tm, w.set_size), options);
  pipe.save_sensitivities(g_path);
}

}  // namespace perfbench
