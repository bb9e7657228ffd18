#include "clado/tensor/kernels.h"

#include <cstdlib>
#include <stdexcept>
#include <string>

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

void gemm_f32_row_range(Level level, bool trans_a, bool trans_b, std::int64_t m_begin,
                        std::int64_t m_end, std::int64_t n, std::int64_t k, float alpha,
                        const float* a, const float* b, float* c, std::int64_t lda,
                        std::int64_t ldb) {
  // Bit-identical parallel/serial results rely on chunks starting on block
  // boundaries; a misaligned chunk would also double-accumulate rows.
  CLADO_CHECK(m_begin % kGemmBlockM == 0 && m_begin <= m_end,
              "gemm_f32_row_range: row chunk must start on a kGemmBlockM boundary");
  switch (level) {
    case Level::kScalar:
      detail::gemm_f32_row_range_scalar(trans_a, trans_b, m_begin, m_end, n, k, alpha, a, b, c,
                                        lda, ldb);
      return;
    case Level::kAvx2:
      if (!cpu_supports_avx2()) {
        throw std::invalid_argument("gemm_f32_row_range: AVX2 kernels unavailable on this host");
      }
      detail::gemm_f32_row_range_avx2(trans_a, trans_b, m_begin, m_end, n, k, alpha, a, b, c,
                                      lda, ldb);
      return;
  }
  throw std::invalid_argument("gemm_f32_row_range: unknown kernel level");
}

void quantize_f32_s8(Level level, std::int64_t count, const float* x, float inv_scale,
                     std::int32_t zero_point, std::int8_t* out) {
  switch (level) {
    case Level::kScalar:
      detail::quantize_f32_s8_scalar(count, x, inv_scale, zero_point, out);
      return;
    case Level::kAvx2:
      if (!cpu_supports_avx2()) {
        throw std::invalid_argument("quantize_f32_s8: AVX2 kernels unavailable on this host");
      }
      detail::quantize_f32_s8_avx2(count, x, inv_scale, zero_point, out);
      return;
  }
  throw std::invalid_argument("quantize_f32_s8: unknown kernel level");
}

}  // namespace kernels
}  // namespace clado::tensor
