// Shared pieces of the perfbench driver: timing samples, the metric table,
// correctness checks, the per-workload settings, and the two halves of a
// workload — the offline MPQ pipeline (offline.cpp) and the serving stack
// (serving.cpp). main.cpp runs them in interleaved cycles.
//
// Every timing is taken from outside, around a call into a layer's public
// API, through a clado::obs::Span named "perfbench/<what>": the span's
// close() is the measured duration, and with tracing on the same span lands
// in the Chrome trace next to the library's own spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "clado/core/algorithms.h"
#include "clado/data/synthcv.h"
#include "clado/models/zoo.h"
#include "clado/serve/engine.h"
#include "clado/serve/fleet.h"
#include "clado/serve/serve.h"
#include "clado/serve/socket.h"
#include "clado/tensor/tensor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Repeated measurements of one quantity and their order statistics.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void append(const Samples& other);
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Linear interpolation between closest ranks (numpy's default), so a
  /// quantile of ten values moves smoothly instead of jumping by a rank.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double mean() const;
  double min() const;
  double max() const;

 private:
  std::vector<double> values_;
};

/// Named per-layer measurements: each name collects samples in one unit;
/// the reported value is their median. Counts go through count(), which
/// also demands that every sample of a name is identical.
class Layers {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  void count(const std::string& name, std::int64_t value);
  const std::map<std::string, Samples>& samples() const { return samples_; }
  const std::string& unit(const std::string& name) const { return units_.at(name); }

 private:
  std::map<std::string, Samples> samples_;
  std::map<std::string, std::string> units_;
};

/// Correctness checks: every failed expectation is kept with its text.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

/// One open-loop traffic level: a fixed absolute request rate held for a
/// short round.
struct Rate {
  const char* name;
  double rps;
  double round_s;
  bool deadline;  ///< requests carry the workload's queueing deadline
};

/// The traffic every workload serves per cycle. Rates are absolute and
/// the same for both models. Light and nominal stay far below capacity, so
/// the 2 ms batching window, not queueing, sets their latency, and their
/// requests carry no deadline: a host stall shows as latency, not as a
/// failed request. Overload is above either model's capacity.
inline constexpr Rate kLight{"light", 100.0, 1.0, false};
inline constexpr Rate kNominal{"nominal", 400.0, 1.0, false};
inline constexpr Rate kOverload{"overload", 12000.0, 0.5, true};
inline constexpr double kUdsRoundS = 1.0;  ///< closed-loop UDS round length
/// Share of open-loop requests sent as DeadlineClass::kBestEffort, drawn
/// per request from (seed, round, index): the class mix of tools/loadgen.
inline constexpr double kBestEffortShare = 0.5;

/// A workload: one zoo model taken through both users' paths.
struct Workload {
  const char* model;
  std::int64_t set_size;  ///< sensitivity-set samples
  /// The served plan's time for one full micro-batch (plan.mixed.b8_ms,
  /// Engine::infer_pinned at ServerConfig{}.max_batch), measured on the
  /// reference host (README.md) and frozen here so every revision is held
  /// to the same latency limit.
  double batch_ms;
};

/// Latency limit for goodput: twice the time the shipped server takes to
/// drain a full admission queue in full micro-batches on all its workers.
inline double limit_ms(const Workload& w) {
  const clado::serve::ServerConfig shipped{};
  const auto batches_per_queue = static_cast<double>(shipped.queue_capacity) /
                                 static_cast<double>(shipped.max_batch * shipped.workers);
  return 2.0 * batches_per_queue * w.batch_ms;
}
/// Queueing deadline of overload requests. A request is dropped unless its
/// batch forms within the deadline, and a formed batch then runs once, so
/// leaving two batch times makes every request the server executes finish
/// inside the limit even when its batch runs at half speed.
inline double deadline_ms(const Workload& w) { return limit_ms(w) - 2.0 * w.batch_ms; }

/// nullptr when `name` is not a workload.
const Workload* find_workload(const std::string& name);
const std::vector<Workload>& workloads();

/// Table-1 budgets as fractions of the uniform int8 weight size; the
/// middle one is the assignment the serving engine runs.
inline constexpr double kBudgets[3] = {0.3125, 0.375, 0.5};
inline constexpr double kServedBudget = 0.375;
/// Fixed validation slice for both quality metrics.
inline constexpr std::int64_t kValSamples = 1024;

/// The saved serial Ĝ of a workload inside the artifacts directory.
std::string g_matrix_path(const std::string& artifacts, const Workload& w);

/// FNV-1a over the raw bytes of a tensor (the Ĝ identity check).
std::uint64_t tensor_hash(const clado::tensor::Tensor& t);

/// Sensitivity set 0 of the paper's protocol (the same indices every run).
clado::data::Batch sensitivity_set(const clado::models::TrainedModel& tm, std::int64_t size);

// ---------------------------------------------------------------------------
// Offline pipeline (offline.cpp)

/// The offline user's state: a calibrated zoo model and its pipeline with
/// the saved Ĝ installed. Pinned in memory (the pipeline refers to `tm`).
struct Offline {
  clado::models::TrainedModel tm;
  clado::data::Batch sens;
  std::unique_ptr<clado::core::MpqPipeline> pipe;
  std::uint64_t g_hash = 0;  ///< hash of the saved Ĝ
  clado::core::Assignment served;  ///< IQP assignment at kServedBudget
};

/// Zoo load, calibration, pipeline construction (clean pass), saved-Ĝ load
/// and the solve at kServedBudget. Per-phase times go to `layers`.
std::unique_ptr<Offline> setup_offline(const Workload& w, const std::string& artifacts,
                                       int sweep_threads, Layers& layers);

/// One complete Ĝ on a fresh pipeline (singles + off-diagonal sweep),
/// checked against the saved Ĝ. Returns its seconds.
double sweep_unit(Offline& off, int sweep_threads, Layers& layers, Checks& checks);

/// PSD projection plus the three-budget IQP ladder on the saved Ĝ (equal
/// to every sweep's, by the hash check), repeated for at least a second:
/// a resnet_a ladder takes about 0.2 s. Each ladder is one sample.
void solve_unit(Offline& off, const std::string& artifacts, const Workload& w, Layers& layers,
                Checks& checks, Samples& seconds);

/// PTQ top-1 (percent) of the served assignment on the fixed val slice.
double ptq_top1(Offline& off, Layers& layers);

/// Loads or trains the workload's zoo model through the zoo cache and saves
/// its Ĝ, measured with a serial sweep, whenever the Ĝ is missing or the
/// weights were (re)trained. Untimed. `artifacts` is keyed by a hash of
/// the sources (run.py), so cached files always come from the code built.
void prepare_model(const Workload& w, const std::string& artifacts);

// ---------------------------------------------------------------------------
// Serving stack (serving.cpp)

/// The frozen engine for the served assignment, one Server with the shipped
/// ServerConfig{} defaults, and a Unix-socket daemon over a Fleet holding
/// that same Server. The daemon's accept loop runs on its own thread,
/// stopped and joined by the destructor.
class ServingStack {
 public:
  ServingStack(const clado::models::Model& model, const std::vector<int>& bits,
               const std::string& socket_path, Layers& layers);
  ~ServingStack();
  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  clado::serve::Server& server() { return *server_; }
  clado::serve::Engine& engine() { return *engine_; }
  const std::string& socket_path() const { return socket_path_; }

  /// Stops the daemon and joins its thread; returns the accept loop's
  /// error text (empty when it exited cleanly). Idempotent.
  std::string stop();

 private:
  std::string socket_path_;
  std::string daemon_error_;  ///< written by the daemon thread before it ends
  std::shared_ptr<clado::serve::Engine> engine_;
  std::shared_ptr<clado::serve::Server> server_;
  clado::serve::Fleet fleet_;
  std::unique_ptr<clado::serve::SocketDaemon> daemon_;
  std::thread daemon_thread_;
};

/// Request outcomes of open-loop rounds (one round, or several pooled).
struct Tally {
  std::int64_t sent = 0;
  std::int64_t ok = 0;
  std::int64_t refused = 0;
  std::int64_t expired = 0;
  std::int64_t errors = 0;
  std::int64_t unaccounted = 0;  ///< no answer within the wait bound
  Samples latency_ms;            ///< ok requests, from their due time
  Samples queue_ms;              ///< Response::queue_us
  Samples exec_ms;               ///< total_us - queue_us
  Samples batch;                 ///< Response::batch_size
  Samples late_ms;               ///< generator lateness past the due time
  /// Ok within the limit per scheduled second, one sample per round:
  /// every request, then each deadline class alone.
  Samples goodput_rps;
  Samples goodput_interactive_rps;
  Samples goodput_best_effort_rps;

  void merge(const Tally& other);
};

/// Open loop: one generator thread (the caller) submits at `rate` on a
/// fixed schedule; latency counts from each request's due time.
Tally open_loop_round(ServingStack& stack, const Workload& w, const Rate& rate,
                      const std::vector<clado::tensor::Tensor>& samples, std::uint64_t seed,
                      std::int64_t round_index);

/// Closed loop over UDS: `clients` threads, each with one ClientConnection,
/// send back to back for `seconds`.
struct UdsTally {
  std::int64_t sent = 0;
  std::int64_t ok = 0;
  std::int64_t failed = 0;
  Samples rtt_ms;
  Samples overhead_ms;  ///< rtt minus the server's total_us
};
void uds_round(ServingStack& stack, int clients, double seconds,
               const std::vector<clado::tensor::Tensor>& samples, std::uint64_t seed,
               std::int64_t round_index, UdsTally& tally);

/// Fixed probe samples sent one at a time through the server must return
/// exactly Engine::infer's logits.
void probe_check(ServingStack& stack, const clado::data::SynthCvDataset& val, Checks& checks);

/// Engine::infer top-1 (percent) over the fixed val slice in fixed
/// max_batch chunks.
double served_top1(ServingStack& stack, const clado::data::SynthCvDataset& val);

/// Per-call plan latency of fp32 / uniform-int8 / mixed engines at batch
/// 1, 8 and 32 (Engine::infer_pinned), into `layers` as plan.<p>.b<n>_ms.
void plan_timings(const clado::models::Model& model, const std::vector<int>& mixed_bits,
                  const clado::data::SynthCvDataset& val, Layers& layers);

}  // namespace perfbench
