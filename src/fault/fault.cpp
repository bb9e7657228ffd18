#include "clado/fault/fault.h"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <limits>
#include <mutex>

#include "clado/obs/obs.h"

// Lock-discipline annotations for tools/clado_lint (rule: lock-discipline).
// fault sits below clado::tensor in the layering, so it cannot include
// clado/tensor/check.h; the no-op definitions are repeated here verbatim.
#ifndef CLADO_GUARDED_BY
#define CLADO_GUARDED_BY(mutex)
#endif
#ifndef CLADO_REQUIRES
#define CLADO_REQUIRES(mutex)
#endif

namespace clado::fault {

namespace {

enum class Mode { kOneShot, kFrom, kProbability };

struct SiteState {
  // mode/n/p are written under Registry::arm_mutex and published to the
  // lock-free hit path by the armed_mask release/acquire pair; the hit-path
  // reads in should_inject carry per-line lint suppressions citing that.
  Mode mode CLADO_GUARDED_BY(arm_mutex) = Mode::kOneShot;
  /// Threshold hit for kOneShot / kFrom.
  std::uint64_t n CLADO_GUARDED_BY(arm_mutex) = 0;
  /// Probability for kProbability.
  double p CLADO_GUARDED_BY(arm_mutex) = 0.0;
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> injected{0};
};

// SplitMix64: counter-based, so probability mode is deterministic per
// (seed, site, hit index) independent of thread interleaving. tensor::Rng
// is off limits here (fault must stay below clado::tensor in the layering).
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

struct Registry {
  // Bit s set <=> site s armed. Release on arm / acquire on hit publishes
  // the (plain) mode fields written by the arming thread.
  std::atomic<std::uint32_t> armed_mask{0};
  std::atomic<std::uint64_t> seed{0xC1AD0FA17ULL};
  /// Serializes arming: concurrent arm_* calls on the same site must not
  /// interleave their mode/n/p writes between each other's armed_mask bumps.
  std::mutex arm_mutex;
  SiteState sites[kNumSites];

  static std::uint64_t parse_u64(const std::string& text, const char* what) {
    std::size_t pos = 0;
    unsigned long long v = 0;
    try {
      v = std::stoull(text, &pos, 10);
    } catch (const std::exception&) {
      pos = 0;
    }
    if (pos == 0 || pos != text.size()) {
      throw std::invalid_argument(std::string(what) + ": expected an unsigned integer, got '" +
                                  text + "'");
    }
    return static_cast<std::uint64_t>(v);
  }
};

void arm_spec_on(Registry& r, Site site, const std::string& spec);

// CLADO_FAULT_* arming must operate on the already-constructed registry
// object, never through the public free functions: those call registry(),
// and re-entering a function-local static's initialization guard from its
// own constructor self-deadlocks on the very first fault-site check.
void arm_from_env(Registry& r) {
  for (int s = 0; s < kNumSites; ++s) {
    std::string var = "CLADO_FAULT_";
    for (const char* c = site_name(static_cast<Site>(s)); *c != '\0'; ++c) {
      var += static_cast<char>(std::toupper(static_cast<unsigned char>(*c)));
    }
    // clado-lint: allow(env-discipline) -- fault layers below env.h; arm_spec_on throws on garbage
    if (const char* v = std::getenv(var.c_str()); v != nullptr && v[0] != '\0') {
      arm_spec_on(r, static_cast<Site>(s), v);
    }
  }
  // clado-lint: allow(env-discipline) -- fault layers below env.h; parse_u64 throws on garbage
  if (const char* v = std::getenv("CLADO_FAULT_SEED"); v != nullptr && v[0] != '\0') {
    r.seed.store(Registry::parse_u64(v, "CLADO_FAULT_SEED"), std::memory_order_relaxed);
  }
}

Registry& registry() {
  static Registry r;
  // Separate statics so arm_from_env sees a fully-constructed registry. A
  // bad spec throws out of here (and terminates from the noexcept hit
  // paths): an env var that silently failed to arm would let a fault drill
  // run green without injecting anything.
  static const bool env_armed = (arm_from_env(r), true);
  (void)env_armed;
  return r;
}

SiteState& state_of(Site site) { return registry().sites[static_cast<int>(site)]; }

void record_injection(Site site) {
  state_of(site).injected.fetch_add(1, std::memory_order_relaxed);
  clado::obs::counter(std::string("fault.injected.") + site_name(site)).add();
}

}  // namespace

const char* site_name(Site site) {
  switch (site) {
    case Site::kIoWrite: return "io_write";
    case Site::kIoRead: return "io_read";
    case Site::kNanLoss: return "nan_loss";
    case Site::kPoolTask: return "pool_task";
    case Site::kSolverOracle: return "solver_oracle";
    case Site::kAccept: return "accept";
    case Site::kFrameDecode: return "frame_decode";
    case Site::kRegistrySwap: return "registry_swap";
  }
  return "unknown";
}

bool armed(Site site) noexcept {
  return (registry().armed_mask.load(std::memory_order_relaxed) &
          (1U << static_cast<int>(site))) != 0;
}

bool should_inject(Site site) noexcept {
  Registry& r = registry();
  if ((r.armed_mask.load(std::memory_order_acquire) & (1U << static_cast<int>(site))) == 0) {
    return false;
  }
  SiteState& s = r.sites[static_cast<int>(site)];
  const std::uint64_t hit = s.hits.fetch_add(1, std::memory_order_relaxed) + 1;  // 1-based
  bool fire = false;
  // The hit path stays lock-free by design; the armed_mask acquire above
  // pairs with arm_on's release and publishes the arming thread's writes.
  switch (s.mode) {  // clado-lint: allow(lock-discipline) -- armed_mask acquire publishes mode
    case Mode::kOneShot:
      fire = hit == s.n;  // clado-lint: allow(lock-discipline) -- armed_mask acquire publishes n
      break;
    case Mode::kFrom:
      fire = hit >= s.n;  // clado-lint: allow(lock-discipline) -- armed_mask acquire publishes n
      break;
    case Mode::kProbability: {
      const std::uint64_t h = splitmix64(r.seed.load(std::memory_order_relaxed) ^
                                         (static_cast<std::uint64_t>(site) << 56) ^ hit);
      const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // uniform [0, 1)
      fire = u < s.p;  // clado-lint: allow(lock-discipline) -- armed_mask acquire publishes p
      break;
    }
  }
  if (fire) record_injection(site);
  return fire;
}

void maybe_throw(Site site, const std::string& what) {
  if (should_inject(site)) {
    throw FaultInjected(what + " [fault:" + site_name(site) + "]");
  }
}

double poison_nan(Site site, double value) noexcept {
  return should_inject(site) ? std::numeric_limits<double>::quiet_NaN() : value;
}

namespace {

void arm_on(Registry& r, Site site, Mode mode, std::uint64_t n, double p) {
  std::lock_guard<std::mutex> lock(r.arm_mutex);
  SiteState& s = r.sites[static_cast<int>(site)];
  s.mode = mode;
  s.n = n;
  s.p = p;
  s.hits.store(0, std::memory_order_relaxed);
  r.armed_mask.fetch_or(1U << static_cast<int>(site), std::memory_order_release);
}

void arm_one_shot_on(Registry& r, Site site, std::uint64_t nth_hit) {
  if (nth_hit == 0) throw std::invalid_argument("fault: hit index is 1-based");
  arm_on(r, site, Mode::kOneShot, nth_hit, 0.0);
}

void arm_from_on(Registry& r, Site site, std::uint64_t nth_hit) {
  if (nth_hit == 0) throw std::invalid_argument("fault: hit index is 1-based");
  arm_on(r, site, Mode::kFrom, nth_hit, 0.0);
}

void arm_probability_on(Registry& r, Site site, double p) {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("fault: probability must be in [0, 1]");
  }
  arm_on(r, site, Mode::kProbability, 0, p);
}

void arm_spec_on(Registry& r, Site site, const std::string& spec) {
  if (spec.rfind("from:", 0) == 0) {
    arm_from_on(r, site, Registry::parse_u64(spec.substr(5), "fault spec from:<n>"));
    return;
  }
  if (spec.rfind("prob:", 0) == 0) {
    const std::string text = spec.substr(5);
    std::size_t pos = 0;
    double p = 0.0;
    try {
      p = std::stod(text, &pos);
    } catch (const std::exception&) {
      pos = 0;
    }
    if (pos == 0 || pos != text.size()) {
      throw std::invalid_argument("fault spec prob:<p>: expected a real number, got '" + text +
                                  "'");
    }
    arm_probability_on(r, site, p);
    return;
  }
  arm_one_shot_on(r, site, Registry::parse_u64(spec, "fault spec <n>"));
}

}  // namespace

void arm_one_shot(Site site, std::uint64_t nth_hit) { arm_one_shot_on(registry(), site, nth_hit); }

void arm_from(Site site, std::uint64_t nth_hit) { arm_from_on(registry(), site, nth_hit); }

void arm_probability(Site site, double p) { arm_probability_on(registry(), site, p); }

void arm_spec(Site site, const std::string& spec) { arm_spec_on(registry(), site, spec); }

void set_seed(std::uint64_t seed) {
  registry().seed.store(seed, std::memory_order_relaxed);
}

void disarm_all() {
  Registry& r = registry();
  r.armed_mask.store(0, std::memory_order_release);
  for (auto& s : r.sites) {
    s.hits.store(0, std::memory_order_relaxed);
    s.injected.store(0, std::memory_order_relaxed);
  }
}

std::uint64_t hit_count(Site site) noexcept {
  return state_of(site).hits.load(std::memory_order_relaxed);
}

std::uint64_t injected_count(Site site) noexcept {
  return state_of(site).injected.load(std::memory_order_relaxed);
}

}  // namespace clado::fault
