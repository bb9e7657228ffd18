#include "clado/tensor/kernels.h"

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "clado/obs/obs.h"
#include "clado/tensor/check.h"
#include "clado/tensor/env.h"
#include "kernels_internal.h"

namespace clado::tensor {
namespace kernels {

static_assert(kGemmBlockM == detail::kBlockM,
              "public row-chunk granularity must match the kernels' M blocking");

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool cpu_supports_avx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  // __builtin_cpu_supports reads CPUID once and caches; both AVX2 and FMA
  // are required because the fp32 kernel issues vfmadd instructions.
  return detail::avx2_compiled() && __builtin_cpu_supports("avx2") != 0 &&
         __builtin_cpu_supports("fma") != 0;
#else
  return false;
#endif
}

Level resolve_level() {
  const std::string value = env_str("CLADO_KERNEL").value_or("");
  if (value.empty() || value == "auto") {
    return cpu_supports_avx2() ? Level::kAvx2 : Level::kScalar;
  }
  if (value == "scalar") return Level::kScalar;
  if (value == "avx2") {
    if (!cpu_supports_avx2()) {
      throw std::invalid_argument(
          "CLADO_KERNEL=avx2 but this CPU/build has no AVX2+FMA support; "
          "use CLADO_KERNEL=scalar or auto");
    }
    return Level::kAvx2;
  }
  // Same strictness policy as env_int_strict: garbage must not silently
  // run a different kernel than the one asked for.
  throw std::invalid_argument("CLADO_KERNEL=\"" + value +
                              "\" is not one of scalar|avx2|auto; unset it to use the default");
}

Level active_level() {
  // Resolved once per process. A throwing resolve (bad CLADO_KERNEL) leaves
  // the static uninitialized, so the error repeats on every call rather
  // than latching an arbitrary level.
  static const Level level = [] {
    const Level l = resolve_level();
    clado::obs::gauge("kernel.active_level").set(static_cast<double>(l));
    return l;
  }();
  return level;
}

namespace {

// Runs `scalar` at Level::kScalar and `avx2` at Level::kAvx2, after checking
// that the host and the build have AVX2; `name` labels the errors.
template <typename... Args>
void run_at(Level level, const char* name, void (*scalar)(Args...), void (*avx2)(Args...),
            std::type_identity_t<Args>... args) {
  switch (level) {
    case Level::kScalar:
      scalar(args...);
      return;
    case Level::kAvx2:
      if (!cpu_supports_avx2()) {
        throw std::invalid_argument(std::string(name) + ": AVX2 kernels unavailable on this host");
      }
      avx2(args...);
      return;
  }
  throw std::invalid_argument(std::string(name) + ": unknown kernel level");
}

}  // namespace

void gemm_f32_row_range(Level level, bool trans_a, bool trans_b, std::int64_t m_begin,
                        std::int64_t m_end, std::int64_t n, std::int64_t k, float alpha,
                        const float* a, const float* b, float* c, std::int64_t lda,
                        std::int64_t ldb) {
  // Bit-identical parallel/serial results rely on chunks starting on block
  // boundaries; a misaligned chunk would also double-accumulate rows.
  CLADO_CHECK(m_begin % kGemmBlockM == 0 && m_begin <= m_end,
              "gemm_f32_row_range: row chunk must start on a kGemmBlockM boundary");
  run_at(level, "gemm_f32_row_range", detail::gemm_f32_row_range_scalar,
         detail::gemm_f32_row_range_avx2, trans_a, trans_b, m_begin, m_end, n, k, alpha, a, b, c,
         lda, ldb);
}

void quantize_f32_s8(Level level, std::int64_t count, const float* x, float inv_scale,
                     std::int32_t zero_point, std::int8_t* out) {
  run_at(level, "quantize_f32_s8", detail::quantize_f32_s8_scalar, detail::quantize_f32_s8_avx2,
         count, x, inv_scale, zero_point, out);
}

void fake_quant_f32(Level level, std::int64_t count, const float* x, float scale,
                    float zero_point, float levels, float* out) {
  run_at(level, "fake_quant_f32", detail::fake_quant_f32_scalar, detail::fake_quant_f32_avx2,
         count, x, scale, zero_point, levels, out);
}

void tanh_f32(Level level, std::int64_t count, const float* x, float* out) {
  run_at(level, "tanh_f32", detail::tanh_f32_scalar, detail::tanh_f32_avx2, count, x, out);
}

void expm1_f32(Level level, std::int64_t count, const float* x, float* out) {
  run_at(level, "expm1_f32", detail::expm1_f32_scalar, detail::expm1_f32_avx2, count, x, out);
}

void exp_f32(Level level, std::int64_t count, const float* x, float* out) {
  run_at(level, "exp_f32", detail::exp_f32_scalar, detail::exp_f32_avx2, count, x, out);
}

void gelu_f32(Level level, std::int64_t count, const float* x, float* out) {
  run_at(level, "gelu_f32", detail::gelu_f32_scalar, detail::gelu_f32_avx2, count, x, out);
}

float tanh_f32(float x) { return detail::tanh_scalar(x); }
float exp_f32(float x) { return detail::exp_scalar(x); }
float gelu_f32(float x) { return detail::gelu_scalar(x); }

}  // namespace kernels
}  // namespace clado::tensor
