#include "clado/core/sensitivity.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>

#include "clado/fault/fault.h"
#include "clado/nn/loss.h"
#include "clado/obs/obs.h"
#include "clado/quant/quantizer.h"
#include "clado/serve/plan.h"
#include "clado/tensor/check.h"
#include "clado/tensor/env.h"
#include "clado/tensor/serialize.h"
#include "clado/tensor/thread_pool.h"

namespace clado::core {

using clado::serve::CompiledPlan;
using clado::tensor::Shape;

namespace {

// Pair-measurement count between progress callbacks.
constexpr std::int64_t kProgressStride = 256;

// Worker::stale_from when every kept activation matches the clean weights.
constexpr std::size_t kCleanCache = static_cast<std::size_t>(-1);

// Sweep passes before a persistent failure propagates: the original
// attempt plus two retries over the uncommitted rows.
constexpr int kMaxSweepPasses = 3;

// Checkpoint fingerprint: shape plus the exact bit pattern of the base
// loss L(w). Two runs with the same (layers, bits, base_loss) measure the
// same deterministic forward passes, so their rows are interchangeable; a
// retrained model or different sensitivity set changes base_loss and
// invalidates the file. The double is split across two float slots
// bit-for-bit (the container stores float32 payloads verbatim).
Tensor encode_ckpt_meta(std::int64_t layers, std::int64_t bits, double base_loss) {
  Tensor meta({4});
  const auto bl = std::bit_cast<std::uint64_t>(base_loss);
  meta.data()[0] = static_cast<float>(layers);
  meta.data()[1] = static_cast<float>(bits);
  meta.data()[2] = std::bit_cast<float>(static_cast<std::uint32_t>(bl >> 32));
  meta.data()[3] = std::bit_cast<float>(static_cast<std::uint32_t>(bl & 0xFFFFFFFFULL));
  return meta;
}

// Workers of a phase: `num_threads` > 0 wins, else CLADO_NUM_THREADS /
// hardware, as for tensor::ThreadPool; never more than `layers`, since
// workers claim whole layers, and at least one.
int resolve_workers(int num_threads, std::int64_t layers) {
  const std::int64_t resolved = clado::tensor::ThreadPool::resolve_threads(num_threads);
  return static_cast<int>(std::max<std::int64_t>(1, std::min(resolved, layers)));
}

bool ckpt_meta_matches(const Tensor& meta, std::int64_t layers, std::int64_t bits,
                       double base_loss) {
  if (meta.dim() != 1 || meta.size(0) != 4) return false;
  if (meta.data()[0] != static_cast<float>(layers) ||
      meta.data()[1] != static_cast<float>(bits)) {
    return false;
  }
  // Compare bit patterns, not float values: the halves of a double are
  // arbitrary bits (possibly NaN payloads, where == would always fail).
  const auto hi = static_cast<std::uint64_t>(std::bit_cast<std::uint32_t>(meta.data()[2]));
  const auto lo = static_cast<std::uint64_t>(std::bit_cast<std::uint32_t>(meta.data()[3]));
  return ((hi << 32) | lo) == std::bit_cast<std::uint64_t>(base_loss);
}

}  // namespace

// Shared endpoint of the off-diagonal sweep. Workers measure a row into a
// private buffer and commit it here in one locked step, so Ĝ only ever
// contains whole rows — the invariant that makes both checkpoint files and
// retry passes safe (a worker dying mid-row leaves no partial data behind,
// only an unset bit in `row_done`).
struct SensitivityEngine::SweepSink {
  float* g = nullptr;     // n x n output matrix (row-major)
  std::int64_t n = 0;
  std::int64_t layers = 0;
  std::int64_t bits = 0;
  double base_loss = 0.0;

  std::string path;         // checkpoint file; empty = in-memory only
  std::int64_t stride = 1;  // rows committed between saves

  std::mutex mutex;
  std::vector<char> row_done;        // guarded by mutex once workers run
  std::int64_t committed_rows = 0;   // guarded by mutex
  std::int64_t rows_since_save = 0;  // guarded by mutex

  std::int64_t pairs_of_row(std::int64_t i) const { return (layers - 1 - i) * bits * bits; }

  bool row_pending(std::int64_t i) {
    const std::lock_guard<std::mutex> lock(mutex);
    return row_done[static_cast<std::size_t>(i)] == 0;
  }

  bool complete() {
    const std::lock_guard<std::mutex> lock(mutex);
    return committed_rows == layers;
  }

  std::int64_t committed_pairs() {
    const std::lock_guard<std::mutex> lock(mutex);
    std::int64_t pairs = 0;
    for (std::int64_t i = 0; i < layers; ++i) {
      if (row_done[static_cast<std::size_t>(i)] != 0) pairs += pairs_of_row(i);
    }
    return pairs;
  }

  // Publishes row i's pair block (layout [m][j>i][nn], matching the sweep
  // loop order) into both mirror halves of Ĝ and checkpoints when due.
  void commit_row(std::int64_t i, const std::vector<float>& row_buf) {
    const std::lock_guard<std::mutex> lock(mutex);
    std::size_t k = 0;
    for (std::int64_t m = 0; m < bits; ++m) {
      for (std::int64_t j = i + 1; j < layers; ++j) {
        for (std::int64_t nn = 0; nn < bits; ++nn) {
          const std::int64_t a = flat_index(i, m, bits);
          const std::int64_t b = flat_index(j, nn, bits);
          const float v = row_buf[k++];
          g[a * n + b] = v;
          g[b * n + a] = v;
        }
      }
    }
    row_done[static_cast<std::size_t>(i)] = 1;
    ++committed_rows;
    ++rows_since_save;
    if (!path.empty() && (rows_since_save >= stride || committed_rows == layers)) {
      save_locked();
      rows_since_save = 0;
    }
  }

  void save_now() {
    const std::lock_guard<std::mutex> lock(mutex);
    if (!path.empty()) save_locked();
  }

  // Best effort: a failed save costs re-measurement on the next run, never
  // correctness of the in-memory sweep.
  void save_locked() {
    clado::tensor::StateDict ck;
    ck.emplace("meta", encode_ckpt_meta(layers, bits, base_loss));
    Tensor rows({layers});
    for (std::int64_t i = 0; i < layers; ++i) {
      rows.data()[i] = row_done[static_cast<std::size_t>(i)] != 0 ? 1.0F : 0.0F;
    }
    ck.emplace("rows", std::move(rows));
    Tensor matrix({n, n});
    std::copy(g, g + n * n, matrix.data());
    ck.emplace("matrix", std::move(matrix));
    try {
      clado::tensor::save_state_dict(ck, path);
    } catch (const std::exception&) {
      clado::obs::counter("sensitivity.checkpoint_save_failures").add();
    }
  }

  // Loads a prior run's rows before workers start. Anything suspect —
  // corrupt file, wrong shape, stale fingerprint — is counted, deleted,
  // and ignored: resuming from a bad checkpoint is strictly worse than
  // re-measuring.
  void preload() {
    auto res = clado::tensor::try_load_state_dict(path);
    if (res.status == clado::tensor::LoadStatus::kMissing) return;
    const auto reject = [&] {
      clado::obs::counter("sensitivity.checkpoint_rejected").add();
      std::error_code ec;
      std::filesystem::remove(path, ec);
    };
    if (!res.ok()) {
      reject();
      return;
    }
    const auto meta_it = res.dict.find("meta");
    const auto rows_it = res.dict.find("rows");
    const auto matrix_it = res.dict.find("matrix");
    const bool shape_ok =
        meta_it != res.dict.end() && rows_it != res.dict.end() &&
        matrix_it != res.dict.end() && rows_it->second.dim() == 1 &&
        rows_it->second.size(0) == layers && matrix_it->second.dim() == 2 &&
        matrix_it->second.size(0) == n && matrix_it->second.size(1) == n;
    if (!shape_ok || !ckpt_meta_matches(meta_it->second, layers, bits, base_loss)) {
      reject();
      return;
    }
    std::copy(matrix_it->second.data(), matrix_it->second.data() + n * n, g);
    for (std::int64_t i = 0; i < layers; ++i) {
      if (rows_it->second.data()[i] != 0.0F) {
        row_done[static_cast<std::size_t>(i)] = 1;
        ++committed_rows;
      }
    }
    clado::obs::counter("sensitivity.checkpoint_rows_resumed").add(committed_rows);
  }
};

// One thread's executor: a Model::clone() replica, whose weights the thread
// perturbs, and a plan over it with the batch staged. The plan keeps every
// activation, so its arena is the prefix cache: a run from layer i's first
// step reuses what earlier runs left in the buffers before it. Workers
// claim units (a singles layer, a sweep row) heaviest-first, in ascending
// layer order, so a worker's next unit may start later in the plan than
// the first buffer its previous unit perturbed. `stale_from` marks that
// buffer; the next unit's first run starts no later than it, so every
// buffer a later run skips holds the clean activation (or, inside sweep
// row i, the i-perturbed one) whatever the claim order.
struct SensitivityEngine::Worker {
  Worker(const Model& model, const Tensor& images, SensitivityStats& worker_stats)
      : replica(model.clone()),
        plan(*replica.net, Shape(images.shape().begin() + 1, images.shape().end()),
             images.size(0), /*prepared=*/nullptr, /*keep_activations=*/true),
        stats(worker_stats) {
    std::memcpy(plan.input(), images.data(),
                sizeof(float) * static_cast<std::size_t>(images.numel()));
    plan.run(images.size(0), logits);  // the clean pass: fills the cache, measures nothing
  }

  Tensor& weight(std::int64_t layer) {
    return replica.quant_layers[static_cast<std::size_t>(layer)].layer->weight_param().value;
  }

  // Called when a unit's measurements end; `step` is the first step of the
  // unit's layer i, the earliest buffer its runs rewrote.
  void finish_unit(std::size_t step) { stale_from = std::min(stale_from, step); }

  Model replica;
  CompiledPlan plan;
  Tensor logits;
  SensitivityStats& stats;
  std::size_t stale_from = kCleanCache;  // first buffer a past unit left perturbed
};

SensitivityEngine::SensitivityEngine(Model& model, Batch batch, int num_threads)
    : model_(model), batch_(std::move(batch)), num_threads_(num_threads) {
  clado::obs::Span span("sensitivity/clean_pass");
  model_.net->set_training(false);

  // Precompute quantized weights and deltas for every (layer, bit).
  const std::int64_t layers = model_.num_quant_layers();
  const std::int64_t bits = num_bits();
  quantized_.resize(static_cast<std::size_t>(layers));
  deltas_.resize(static_cast<std::size_t>(layers));
  for (std::int64_t i = 0; i < layers; ++i) {
    const Tensor& w = model_.quant_layers[static_cast<std::size_t>(i)].layer->weight_param().value;
    for (std::int64_t m = 0; m < bits; ++m) {
      Tensor qw = clado::quant::quantize_weight(w, model_.candidate_bits[static_cast<std::size_t>(m)],
                                                model_.scheme);
      Tensor delta = qw;
      delta -= w;
      quantized_[static_cast<std::size_t>(i)].push_back(std::move(qw));
      deltas_[static_cast<std::size_t>(i)].push_back(std::move(delta));
    }
  }

  // L(w), on a worker like the measuring ones (its clean pass, counted here
  // as the one measurement it is). Compiling its plan refuses a model the
  // plan cannot run and fixes every layer's first step for all workers.
  Worker clean(model_, batch_.images, stats_);
  plan_steps_ = static_cast<std::int64_t>(clean.plan.steps().size());
  for (std::size_t i = 0; i < model_.quant_layers.size(); ++i) {
    // Workers perturb layer i of their replica, which lists its layers in
    // module-tree order; the prefix cache needs that order to be the plan's.
    const auto& ref = clean.replica.quant_layers[i];
    const std::size_t step = clean.plan.first_step(*ref.layer);
    if (ref.name != model_.quant_layers[i].name || (i > 0 && step < first_step_.back())) {
      throw std::invalid_argument("SensitivityEngine: quant layer " +
                                  model_.quant_layers[i].name + " is out of execution order");
    }
    first_step_.push_back(step);
  }
  base_loss_ = clado::nn::cross_entropy(clean.logits, batch_.labels);
  ++stats_.forward_measurements;
  stats_.stage_executions += plan_steps_;
  stats_.stage_executions_naive += plan_steps_;
  stats_.seconds += span.close();
}

const Tensor& SensitivityEngine::delta(std::int64_t layer, std::int64_t bit_index) const {
  return deltas_.at(static_cast<std::size_t>(layer)).at(static_cast<std::size_t>(bit_index));
}

double SensitivityEngine::eval_loss(Worker& worker, std::int64_t layer) const {
  const std::size_t first = first_step_[static_cast<std::size_t>(layer)];
  const std::int64_t executed = plan_steps_ - static_cast<std::int64_t>(first);
  // A unit's first run also re-executes the steps the worker's previous
  // unit left perturbed. That catch-up is cache upkeep, like the worker's
  // clean pass: it stays out of the stats, which must not depend on how
  // units were scheduled.
  std::size_t from = std::min(first, std::exchange(worker.stale_from, kCleanCache));
  if (from < first) clado::obs::counter("sensitivity.catchup_steps").add(first - from);
  for (int attempt = 0;; ++attempt) {
    worker.plan.run_from(from, batch_.images.size(0), worker.logits);
    from = first;  // a re-measurement reruns the same steps over the same prefix
    ++worker.stats.forward_measurements;
    worker.stats.stage_executions += executed;
    worker.stats.stage_executions_naive += plan_steps_;
    clado::obs::counter("sensitivity.forward_measurements").add();
    clado::obs::counter("sensitivity.stage_executions").add(executed);
    const double loss = clado::fault::poison_nan(
        clado::fault::Site::kNanLoss, clado::nn::cross_entropy(worker.logits, batch_.labels));
    if (std::isfinite(loss)) return loss;
    // A non-finite loss silently corrupts the whole sensitivity matrix and
    // only surfaces much later as solver nonsense. The forward pass is
    // deterministic, so one re-measurement separates transient corruption
    // (an injected fault, a flaky accelerator) from a genuinely divergent
    // model — the latter must fail here, at the measurement.
    clado::obs::counter("sensitivity.nonfinite_losses").add();
    if (attempt >= 1) {
      throw std::runtime_error("sensitivity: measured loss is not finite");
    }
  }
}

void SensitivityEngine::run_workers(int workers, const std::function<void(Worker&)>& body) {
  std::vector<SensitivityStats> worker_stats(static_cast<std::size_t>(workers));
  std::exception_ptr error;
  std::mutex error_mutex;
  // Each thread builds its own worker (clone, compile, clean pass), so the
  // setup runs in parallel too. A failure is recorded, not thrown through
  // the thread, and the other workers drain the remaining items.
  const auto run = [&](int t) {
    try {
      Worker worker(model_, batch_.images, worker_stats[static_cast<std::size_t>(t)]);
      body(worker);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> threads;  // joined on scope exit, a throw included
    threads.reserve(static_cast<std::size_t>(workers - 1));
    for (int t = 1; t < workers; ++t) threads.emplace_back(run, t);
    run(0);
  }
  // Merge measurement accounting whether or not the phase survived — the
  // forwards happened either way.
  for (const auto& ws : worker_stats) {
    stats_.forward_measurements += ws.forward_measurements;
    stats_.stage_executions += ws.stage_executions;
    stats_.stage_executions_naive += ws.stage_executions_naive;
  }
  if (error) std::rethrow_exception(error);
}

void SensitivityEngine::measure_singles(Worker& worker, std::atomic<std::int64_t>& next_layer,
                                        std::vector<std::vector<double>>& losses) const {
  const std::int64_t layers = model_.num_quant_layers();
  const std::int64_t bits = num_bits();
  for (;;) {
    const std::int64_t i = next_layer.fetch_add(1, std::memory_order_relaxed);
    if (i >= layers) return;
    auto& w = worker.weight(i);
    const WeightRestoreGuard guard(w);
    for (std::int64_t m = 0; m < bits; ++m) {
      w = quantized_[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)];
      losses[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)] = eval_loss(worker, i);
    }
    worker.finish_unit(first_step_[static_cast<std::size_t>(i)]);
  }
}

void SensitivityEngine::ensure_single_losses(int num_threads) {
  if (singles_done_) return;
  clado::obs::Span span("sensitivity/singles");
  const std::int64_t layers = model_.num_quant_layers();
  std::vector<std::vector<double>> losses(
      static_cast<std::size_t>(layers),
      std::vector<double>(static_cast<std::size_t>(num_bits()), 0.0));
  std::atomic<std::int64_t> next_layer{0};
  run_workers(resolve_workers(num_threads, layers),
              [&](Worker& worker) { measure_singles(worker, next_layer, losses); });
  single_losses_ = std::move(losses);
  singles_done_ = true;
  stats_.seconds += span.close();
}

const std::vector<std::vector<double>>& SensitivityEngine::single_losses() {
  ensure_single_losses(num_threads_);
  return single_losses_;
}

std::vector<std::vector<double>> SensitivityEngine::diagonal_sensitivities() {
  ensure_single_losses(num_threads_);
  std::vector<std::vector<double>> diag = single_losses_;
  for (auto& row : diag) {
    for (auto& v : row) v = 2.0 * (v - base_loss_);
  }
  return diag;
}

void SensitivityEngine::sweep_rows(Worker& worker, SweepSink& sink,
                                   std::atomic<std::int64_t>& next_row,
                                   const std::function<void(std::int64_t)>& report) const {
  const std::int64_t layers = model_.num_quant_layers();
  const std::int64_t bits = num_bits();
  std::vector<float> row_buf;
  for (;;) {
    const std::int64_t i = next_row.fetch_add(1, std::memory_order_relaxed);
    if (i >= layers) return;
    if (!sink.row_pending(i)) continue;  // resumed from checkpoint / retry pass
    row_buf.assign(static_cast<std::size_t>(sink.pairs_of_row(i)), 0.0F);
    auto& w_i = worker.weight(i);
    const WeightRestoreGuard guard_i(w_i);

    for (std::int64_t m = 0; m < bits; ++m) {
      w_i = quantized_[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)];
      // Tail pass: re-measures L_i and leaves the i-perturbed activations
      // of every step from layer i's on in the arena.
      eval_loss(worker, i);
      const double loss_i =
          single_losses_[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)];

      // j runs last-first, so each pair run rewrites every buffer the
      // previous one perturbed and reads the i-perturbed ones before it.
      for (std::int64_t j = layers - 1; j > i; --j) {
        auto& w_j = worker.weight(j);
        const WeightRestoreGuard guard_j(w_j);
        for (std::int64_t nn = 0; nn < bits; ++nn) {
          w_j = quantized_[static_cast<std::size_t>(j)][static_cast<std::size_t>(nn)];
          const double pair_loss = eval_loss(worker, j);
          const double loss_j =
              single_losses_[static_cast<std::size_t>(j)][static_cast<std::size_t>(nn)];
          // Eq. (13): Ω_ij = L_pair + L(w) − L_i − L_j, stored at the
          // [m][j > i][nn] slot commit_row reads.
          const double omega = pair_loss + base_loss_ - loss_i - loss_j;
          row_buf[static_cast<std::size_t>((m * (layers - 1 - i) + (j - i - 1)) * bits + nn)] =
              static_cast<float>(omega);
        }
        report(bits);
      }
    }
    worker.finish_unit(first_step_[static_cast<std::size_t>(i)]);
    sink.commit_row(i, row_buf);
  }
}

Tensor SensitivityEngine::full_matrix(
    const std::function<void(std::int64_t, std::int64_t)>& progress, int num_threads) {
  ensure_single_losses(num_threads);
  clado::obs::Span sweep_span("sensitivity/sweep");
  const std::int64_t layers = model_.num_quant_layers();
  const std::int64_t bits = num_bits();
  const std::int64_t n = layers * bits;
  Tensor g_matrix({n, n});

  SweepSink sink;
  sink.g = g_matrix.data();
  sink.n = n;
  sink.layers = layers;
  sink.bits = bits;
  sink.base_loss = base_loss_;
  sink.row_done.assign(static_cast<std::size_t>(layers), 0);

  // Checkpoint resolution: an explicit set_checkpoint wins (empty dir =
  // forced off); otherwise the environment opts in.
  std::string ckpt_dir;
  std::int64_t ckpt_stride = 1;
  if (checkpoint_.has_value()) {
    ckpt_dir = checkpoint_->dir;
    ckpt_stride = std::max<std::int64_t>(1, checkpoint_->stride);
  } else if (const auto dir = clado::tensor::env_str("CLADO_CHECKPOINT_DIR")) {
    ckpt_dir = *dir;
    ckpt_stride =
        clado::tensor::env_int_strict("CLADO_CHECKPOINT_STRIDE", 1, 1 << 20).value_or(1);
  }
  if (!ckpt_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(ckpt_dir, ec);  // save reports failures
    sink.path = ckpt_dir + "/sweep_" + std::to_string(layers) + "x" + std::to_string(bits) +
                ".ckpt";
    sink.stride = ckpt_stride;
    sink.preload();
  }

  // Diagonal: Ω_ii = 2 (L(w + Δ) − L(w)). Recomputed from the cached
  // singles after preload (a resumed matrix arrives with the same values;
  // rewriting them keeps the diagonal authoritative either way).
  for (std::int64_t i = 0; i < layers; ++i) {
    for (std::int64_t m = 0; m < bits; ++m) {
      const std::int64_t idx = flat_index(i, m, bits);
      g_matrix.data()[idx * n + idx] = static_cast<float>(
          2.0 * (single_losses_[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)] -
                 base_loss_));
    }
  }

  const std::int64_t total_pairs = layers * (layers - 1) / 2 * bits * bits;

  const int workers = resolve_workers(num_threads, layers);

  // Progress shared across passes and workers (one uncontended lock per
  // j-loop boundary is noise next to a forward pass).
  std::atomic<std::int64_t> done_pairs{sink.committed_pairs()};
  std::atomic<bool> cancelled{false};
  std::mutex progress_mutex;
  std::int64_t since_report = 0;    // guarded by progress_mutex
  std::int64_t last_reported = -1;  // guarded by progress_mutex
  const auto report = [&](std::int64_t finished) {
    done_pairs.fetch_add(finished, std::memory_order_relaxed);
    if (!progress) return;
    const std::lock_guard<std::mutex> lock(progress_mutex);
    since_report += finished;
    const std::int64_t done = done_pairs.load();
    if (since_report >= kProgressStride || done == total_pairs) {
      if (done != last_reported) {
        // A throw out of the callback is the caller cancelling the sweep;
        // flag it so the retry loop propagates instead of re-measuring.
        try {
          progress(done, total_pairs);
        } catch (...) {
          cancelled.store(true, std::memory_order_relaxed);
          throw;
        }
        last_reported = done;
      }
      since_report = 0;
    }
  };

  // Retry loop: a pass can die mid-row (a loss that stays non-finite on
  // re-measurement, a worker that cannot be built). Committed rows survive
  // in the sink, so later passes re-measure only what is missing, on fresh
  // workers; a failure that persists through kMaxSweepPasses is real and
  // propagates — after a final checkpoint save so even that run's rows are
  // not lost.
  for (int pass = 0; !sink.complete(); ++pass) {
    std::atomic<std::int64_t> next_row{0};
    try {
      run_workers(workers, [&](Worker& worker) {
        const clado::obs::Span worker_span("sensitivity/sweep_worker");
        sweep_rows(worker, sink, next_row, report);
      });
    } catch (const std::exception&) {
      if (cancelled.load(std::memory_order_relaxed) || pass + 1 >= kMaxSweepPasses) {
        sink.save_now();
        throw;
      }
      clado::obs::counter("sensitivity.sweep_retries").add();
      // Drop in-flight pair counts from the dead rows so progress never
      // exceeds the truth (it may regress to the last committed row).
      done_pairs.store(sink.committed_pairs(), std::memory_order_relaxed);
      continue;
    }
    CLADO_CHECK(sink.complete(), "sensitivity: sweep pass ended with rows missing");
  }
  if (progress && total_pairs > 0 && done_pairs.load() == total_pairs && last_reported == -1) {
    // Fully resumed from checkpoint: no worker ever reported; still honor
    // the "completion is always reported" contract.
    progress(total_pairs, total_pairs);
  }
  clado::obs::counter("sensitivity.pairs").add(total_pairs);
  stats_.seconds += sweep_span.close();
  return g_matrix;
}

std::vector<std::vector<double>> SensitivityEngine::mpqco_proxy() {
  clado::obs::Span span("sensitivity/mpqco_proxy");
  const std::int64_t layers = model_.num_quant_layers();
  const std::int64_t bits = num_bits();
  // The proxy reads each layer's input stash, which one eager forward on the
  // model fills (the engine's own passes run on plans and never touch it).
  // It fills caches, not a loss, so it counts a plan's worth of stage
  // executions but no forward measurement (Table 2 compares measurement
  // costs).
  model_.net->forward(batch_.images);
  stats_.stage_executions += plan_steps_;
  stats_.stage_executions_naive += plan_steps_;

  const auto batch_n = static_cast<double>(batch_.images.size(0));
  std::vector<std::vector<double>> proxy(static_cast<std::size_t>(layers),
                                         std::vector<double>(static_cast<std::size_t>(bits)));
  for (std::int64_t i = 0; i < layers; ++i) {
    auto* layer = model_.quant_layers[static_cast<std::size_t>(i)].layer;
    for (std::int64_t m = 0; m < bits; ++m) {
      const Tensor out_diff = layer->linear_map_on_last_input(
          deltas_[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)]);
      proxy[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)] =
          static_cast<double>(out_diff.sq_norm()) / batch_n;
    }
  }
  stats_.seconds += span.close();
  return proxy;
}

Tensor mask_inter_block(const Tensor& g_matrix, const std::vector<int>& block_of,
                        std::int64_t num_bits) {
  const std::int64_t n = g_matrix.size(0);
  const auto layers = static_cast<std::int64_t>(block_of.size());
  if (layers * num_bits != n) {
    throw std::invalid_argument("mask_inter_block: block map size mismatch");
  }
  Tensor out = g_matrix;
  for (std::int64_t i = 0; i < layers; ++i) {
    for (std::int64_t j = 0; j < layers; ++j) {
      if (block_of[static_cast<std::size_t>(i)] == block_of[static_cast<std::size_t>(j)]) {
        continue;
      }
      for (std::int64_t m = 0; m < num_bits; ++m) {
        for (std::int64_t nn = 0; nn < num_bits; ++nn) {
          out.data()[flat_index(i, m, num_bits) * n + flat_index(j, nn, num_bits)] = 0.0F;
        }
      }
    }
  }
  return out;
}

Tensor keep_diagonal(const Tensor& g_matrix) {
  const std::int64_t n = g_matrix.size(0);
  Tensor out({n, n});
  for (std::int64_t i = 0; i < n; ++i) {
    out.data()[i * n + i] = g_matrix.data()[i * n + i];
  }
  return out;
}

}  // namespace clado::core
