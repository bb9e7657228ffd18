// clado::fault — deterministic fault injection for robustness testing.
//
// A fixed set of named injection points (Site) is compiled into the
// pipeline's failure-prone seams: artifact I/O, loss measurement, thread
// pool task execution, and the IQP solver loop. Each site is disarmed by
// default and costs one relaxed atomic load per hit; arming happens either
// programmatically (tests) or via environment variables (CI smokes, bench
// kill-and-resume drills):
//
//   CLADO_FAULT_IO_WRITE / _IO_READ / _NAN_LOSS / _POOL_TASK /
//   _SOLVER_ORACLE / _ACCEPT / _FRAME_DECODE / _REGISTRY_SWAP = <spec>
//   CLADO_FAULT_SEED = <uint64>            (probability mode only)
//
// where <spec> is one of
//   "<n>"       fire exactly once, on the n-th hit of the site (1-based);
//   "from:<n>"  fire on every hit from the n-th onward (a permanent
//               failure, e.g. to kill a sweep midway and keep it dead);
//   "prob:<p>"  fire each hit independently with probability p, decided by
//               a counter-based hash of (seed, site, hit index) — the same
//               seed always yields the same fire pattern, regardless of
//               thread interleaving.
//
// Every fired injection increments the clado::obs counter
// "fault.injected.<site>", so injected faults are visible in the metrics
// dump alongside the recovery counters of the subsystems that absorb them.
//
// Layering: this subsystem depends only on clado::obs so that clado::tensor
// (serialization, thread pool) can depend on it without an include cycle.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace clado::fault {

enum class Site {
  kIoWrite = 0,    ///< artifact/checkpoint write path (serialize)
  kIoRead,         ///< artifact/checkpoint read path (serialize)
  kNanLoss,        ///< poisons a measured sensitivity loss with NaN
  kPoolTask,       ///< throws from a queued thread-pool chunk runner
  kSolverOracle,   ///< throws from the IQP branch-and-bound node loop
  kAccept,         ///< drops a freshly accepted daemon connection
  kFrameDecode,    ///< throws from the daemon's wire-frame decode path
  kRegistrySwap,   ///< throws from Fleet::put before the swap commits
};
inline constexpr int kNumSites = 8;

/// Stable lowercase name ("io_write", ...); used in env vars (uppercased)
/// and obs counter names.
const char* site_name(Site site);

/// Exception type thrown by maybe_throw so absorbing layers can log the
/// failure distinctly; derives from std::runtime_error so generic handlers
/// treat it like any other transient failure.
class FaultInjected : public std::runtime_error {
 public:
  explicit FaultInjected(const std::string& what) : std::runtime_error(what) {}
};

/// True when `site` currently has any spec armed. One relaxed atomic load.
bool armed(Site site) noexcept;

/// Counts one hit of `site` and returns true when the armed spec says this
/// hit fails. Always false (and hit accounting skipped) when disarmed.
bool should_inject(Site site) noexcept;

/// Throws FaultInjected("<what> [fault:<site>]") when should_inject fires.
void maybe_throw(Site site, const std::string& what);

/// Returns quiet NaN instead of `value` when should_inject fires.
double poison_nan(Site site, double value) noexcept;

// ---- arming (tests and env parsing) ---------------------------------------
// Arming is not synchronized against concurrent hits of the same site; arm
// before the instrumented code runs (the pool/sweep dispatch provides the
// needed happens-before edge for worker threads).

/// Fire exactly once, on the nth_hit-th hit (1-based).
void arm_one_shot(Site site, std::uint64_t nth_hit);
/// Fire on every hit from nth_hit (1-based) onward.
void arm_from(Site site, std::uint64_t nth_hit);
/// Fire each hit independently with probability p in [0, 1].
void arm_probability(Site site, double p);
/// Arm from a spec string ("<n>" | "from:<n>" | "prob:<p>"); throws
/// std::invalid_argument on anything else (same strictness policy as
/// env_int_strict: garbage must not silently run a different experiment).
void arm_spec(Site site, const std::string& spec);
/// Seed for probability mode (also settable via CLADO_FAULT_SEED).
void set_seed(std::uint64_t seed);

/// Disarms every site and resets all hit/injection counters.
void disarm_all();

/// Hits observed while armed / injections fired since the last disarm_all.
std::uint64_t hit_count(Site site) noexcept;
std::uint64_t injected_count(Site site) noexcept;

}  // namespace clado::fault
