// Shared setup for the benchmark harness binaries (one per paper
// table/figure). Models are pulled from the zoo artifact cache — the first
// bench run on a fresh checkout trains them (minutes); later runs load.
//
// Env knobs:
//   CLADO_ARTIFACTS_DIR   weight-cache directory (default: ./artifacts)
//   CLADO_BENCH_SCALE     multiplies sensitivity-set counts/sizes for the
//                         statistical benches (default 1; paper-scale ~3)
//   CLADO_TRACE           write a Chrome trace-event JSON file at exit
//   CLADO_METRICS         write the obs metrics dump to a file at exit
//
// Every bench binary that includes this header also appends the clado::obs
// metrics dump (phase-span timings, solver/sweep/pool counters) to its
// report output when the process exits — see ObsReportAtExit below.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "clado/core/algorithms.h"
#include "clado/core/report.h"
#include "clado/data/synthcv.h"
#include "clado/models/builders.h"
#include "clado/models/zoo.h"
#include "clado/obs/obs.h"
#include "clado/tensor/env.h"

namespace clado::bench {

using clado::core::Algorithm;
using clado::core::MpqPipeline;
using clado::models::TrainedModel;

inline int bench_scale() {
  // Strict: CLADO_BENCH_SCALE=garbage used to silently run at scale 1 —
  // i.e. a different experiment than the one asked for. Fail loudly.
  try {
    if (const auto s = clado::tensor::env_int_strict("CLADO_BENCH_SCALE", 1, 1024)) {
      return static_cast<int>(*s);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench: %s\n", e.what());
    std::exit(2);
  }
  return 1;
}

namespace detail {

/// Prints the obs metrics dump when the bench exits. Goes to stderr so
/// bench stdout (the paper tables, compared byte-for-byte across thread
/// counts) stays free of run-dependent timings. The constructor touches
/// the obs registry so its exit-time CLADO_TRACE/CLADO_METRICS export is
/// registered first and therefore runs after this destructor.
struct ObsReportAtExit {
  ObsReportAtExit() { clado::obs::touch(); }
  ~ObsReportAtExit() {
    const std::string text = clado::obs::metrics_text();
    if (!text.empty()) {
      std::fprintf(stderr,
                   "\n=== observability (spans / counters; CLADO_TRACE=<path> for a timeline) "
                   "===\n%s",
                   text.c_str());
    }
  }
};
inline const ObsReportAtExit obs_report_at_exit{};

}  // namespace detail

/// Loads (or trains on first use) a zoo model and calibrates its 8-bit
/// activation quantizers, mirroring the paper's common PTQ setup.
inline TrainedModel load_calibrated(const std::string& name, bool announce = true) {
  const clado::obs::Span span("bench/load_calibrated");
  clado::models::ZooConfig cfg;
  if (announce) {
    std::printf("# loading %s (trains on first run; cached in %s)\n", name.c_str(),
                clado::models::resolve_artifacts_dir(cfg).c_str());
    std::fflush(stdout);
  }
  TrainedModel tm = clado::models::get_or_train(name, cfg);
  tm.model.calibrate_activations(tm.train_set.make_range_batch(0, 128));
  return tm;
}

/// Sensitivity set of `size` samples: set index k is identical across
/// algorithms and benches (the paper's multiple-sensitivity-set protocol).
inline clado::data::Batch sensitivity_batch(const TrainedModel& tm, std::int64_t size,
                                            int set_index = 0) {
  const auto sets = clado::data::make_sensitivity_sets(4096, size, set_index + 1, 0xBEEF);
  return tm.train_set.make_batch(sets.back());
}

/// Default sensitivity-set size per model. The transformer's loss
/// differences are noisier (wide-dynamic-range residual stream), so the
/// ViT analogue follows the paper's larger-set recommendation (Figure 4).
inline std::int64_t default_set_size(const std::string& model_name) {
  return model_name == "vit_mini" ? 128 : 64;
}

/// The paper's Table 1 style size grid: three budgets between the 2-bit
/// and 8-bit uniform sizes (between 4- and 8-bit for MobileNet's B set).
inline std::vector<double> table1_fractions(const std::string& model_name) {
  if (model_name == "mobilenet_v3_mini") return {0.55, 0.65, 0.80};
  return {0.3125, 0.375, 0.50};
}

/// PTQ top-1 at an assignment (weights baked, then restored).
inline double ptq_accuracy(TrainedModel& tm, MpqPipeline& pipe,
                           const clado::core::Assignment& assignment,
                           std::int64_t val_count = 1024) {
  const clado::obs::Span span("bench/ptq_eval");
  auto snapshot = pipe.apply_ptq(assignment);
  const double acc = tm.model.accuracy_on(tm.val_set, val_count);
  snapshot->restore();
  return acc;
}

inline const std::vector<Algorithm>& table1_algorithms() {
  static const std::vector<Algorithm> algs = {Algorithm::kHawq, Algorithm::kMpqco,
                                              Algorithm::kCladoStar, Algorithm::kClado};
  return algs;
}

/// Models named on the command line, or a default list. An argument that
/// names no zoo model (a flag included) is a usage error: one stderr line
/// and exit 2, before any model loads.
inline std::vector<std::string> models_from_args(int argc, char** argv,
                                                 std::vector<std::string> defaults) {
  if (argc <= 1) return defaults;
  const std::vector<std::string>& known = clado::models::model_names();
  std::vector<std::string> names;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (std::find(known.begin(), known.end(), arg) == known.end()) {
      std::string list;
      for (const std::string& name : known) list += " " + name;
      std::fprintf(stderr, "usage: %s [model...]: '%s' is not one of:%s\n", argv[0],
                   arg.c_str(), list.c_str());
      std::exit(2);
    }
    names.push_back(arg);
  }
  return names;
}

}  // namespace clado::bench
