// §5.2 runtime comparison: measurement counts and wall-clock per pipeline
// phase for each algorithm.
//
// Expected shape (paper): CLADO and HAWQ cost about the same (dominated by
// the ½|B|I(|B|I+1) network measurements / the Hutchinson backprops);
// MPQCO's proxy is one-to-two orders cheaper; the IQP itself solves in
// (milli)seconds once sensitivities exist, and re-solving for a new budget
// is effectively free — the reusability argument for sensitivity methods.
//
// The CLADO sweep is additionally timed at 1 thread and at the resolved
// thread count (CLADO_NUM_THREADS / hardware); on a multi-core host the
// parallel row shows the replica-sweep speedup at bit-identical output.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "clado/core/report.h"
#include "clado/obs/obs.h"
#include "clado/solver/iqp.h"
#include "clado/tensor/thread_pool.h"

int main(int argc, char** argv) {
  using namespace clado::bench;
  using clado::core::AsciiTable;
  using clado::tensor::ThreadPool;
  using Clock = std::chrono::steady_clock;
  auto secs = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  const auto names = models_from_args(argc, argv, {"resnet_a", "vit_mini"});
  const int sweep_threads = ThreadPool::resolve_threads(0);
  std::printf("=== Runtime: sensitivity measurement and solve cost per phase ===\n");
  std::printf("(sweep threads resolved to %d; set CLADO_NUM_THREADS to override)\n\n",
              sweep_threads);

  AsciiTable table({"model", "I", "|B|I", "phase", "threads", "measurements", "seconds"});
  std::vector<std::vector<std::string>> csv_rows;
  for (const auto& name : names) {
    TrainedModel tm = load_calibrated(name);
    const std::int64_t I = tm.model.num_quant_layers();
    const auto B = static_cast<std::int64_t>(tm.model.candidate_bits.size());
    const std::int64_t bi = B * I;
    const double int8_bytes = tm.model.uniform_size_bytes(8);
    MpqPipeline pipe(tm.model, sensitivity_batch(tm, 64), {});

    auto add = [&](const char* phase, int threads, std::int64_t measurements, double seconds) {
      table.add_row({name, std::to_string(I), std::to_string(bi), phase,
                     threads > 0 ? std::to_string(threads) : "-",
                     measurements >= 0 ? std::to_string(measurements) : "-",
                     AsciiTable::num(seconds, 3)});
      csv_rows.push_back({name, phase, threads > 0 ? std::to_string(threads) : "",
                          measurements >= 0 ? std::to_string(measurements) : "",
                          AsciiTable::num(seconds, 4)});
    };

    // CLADO sensitivity sweep (paper formula: ½|B|I(|B|I+1) measurements),
    // serial reference first. full_matrix recomputes on every call (only
    // the single-layer losses are cached), so the two timings are
    // comparable; clado_matrix_raw() below reuses neither.
    auto t0 = Clock::now();
    pipe.engine().full_matrix({}, 1);
    const double serial_secs = secs(t0);
    add("CLADO sweep", 1, bi * (bi + 1) / 2, serial_secs);

    if (sweep_threads > 1) {
      t0 = Clock::now();
      pipe.engine().full_matrix({}, sweep_threads);
      const double par_secs = secs(t0);
      add("CLADO sweep", sweep_threads, bi * (bi + 1) / 2, par_secs);
      std::printf("  %s: parallel sweep speedup = %.2fx at %d threads\n", name.c_str(),
                  serial_secs / par_secs, sweep_threads);
    }

    const std::int64_t measured_before = pipe.engine().stats().forward_measurements;
    t0 = Clock::now();
    pipe.clado_matrix_raw();
    const auto& stats = pipe.engine().stats();
    add("CLADO sweep (pipeline)", sweep_threads,
        stats.forward_measurements - measured_before, secs(t0));
    std::printf("  %s: paper-formula measurements = %lld, prefix-cache stage speedup = %.2fx\n",
                name.c_str(), static_cast<long long>(bi * (bi + 1) / 2),
                static_cast<double>(stats.stage_executions_naive) /
                    static_cast<double>(stats.stage_executions));

    t0 = Clock::now();
    pipe.clado_matrix();  // PSD projection on top of the cached raw matrix
    add("PSD projection", -1, -1, secs(t0));

    t0 = Clock::now();
    pipe.hawq_values();
    add("HAWQ traces", -1, 2 * 3 * I, secs(t0));  // 2 grad evals x probes x layers

    t0 = Clock::now();
    pipe.mpqco_values();
    add("MPQCO proxy", -1, B * I, secs(t0));

    const std::int64_t nodes_before = clado::obs::counter("solver.iqp.nodes").value();
    const std::int64_t pruned_before = clado::obs::counter("solver.iqp.pruned").value();
    const std::int64_t oracle_before = clado::obs::counter("solver.iqp.oracle_calls").value();
    const std::int64_t incumbents_before =
        clado::obs::counter("solver.iqp.incumbent_updates").value();
    t0 = Clock::now();
    const auto a1 = pipe.assign(Algorithm::kClado, int8_bytes * 0.375);
    add("IQP solve (cold)", -1, a1.solver_nodes, secs(t0));
    // Provenance: which tier of the degradation chain served the
    // assignment (anything but "iqp" means the run silently degraded and
    // the numbers below describe a fallback, not branch-and-bound).
    std::printf("  %s: solver source=%s%s\n", name.c_str(),
                clado::solver::solution_source_name(a1.solver_source),
                a1.used_fallback ? " (degraded)" : "");
    std::printf(
        "  %s: iqp nodes=%lld pruned=%lld oracle_calls=%lld incumbent_updates=%lld "
        "bound_gap=%.3g\n",
        name.c_str(),
        static_cast<long long>(clado::obs::counter("solver.iqp.nodes").value() - nodes_before),
        static_cast<long long>(clado::obs::counter("solver.iqp.pruned").value() - pruned_before),
        static_cast<long long>(clado::obs::counter("solver.iqp.oracle_calls").value() -
                               oracle_before),
        static_cast<long long>(clado::obs::counter("solver.iqp.incumbent_updates").value() -
                               incumbents_before),
        clado::obs::gauge("solver.iqp.bound_gap").value());

    t0 = Clock::now();
    pipe.assign(Algorithm::kClado, int8_bytes * 0.5);
    add("IQP re-solve (new budget)", -1, -1, secs(t0));
    std::fflush(stdout);
  }
  std::printf("\n");
  table.print();

  clado::core::write_csv("bench_results/runtime.csv",
                         {"model", "phase", "threads", "measurements", "seconds"}, csv_rows);
  std::printf("\nrows written to bench_results/runtime.csv\n");
  return 0;
}
