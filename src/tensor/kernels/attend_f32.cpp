// The batched attention core: scratch sizing, dispatch and the scalar level
// (see attend_f32 in clado/tensor/kernels.h).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "clado/tensor/kernels.h"
#include "clado/tensor/ops.h"
#include "kernels_internal.h"

namespace clado::tensor {
namespace kernels {

namespace detail {

void attend_f32_scalar(std::int64_t batch, std::int64_t tokens, std::int64_t dim,
                       std::int64_t heads, const float* q, const float* k, const float* v,
                       float* probs, float* ctx) {
  // gemm's small path per output element, reading q/k/v in place: start at
  // +0, add scale * q[i, p] * k[j, p] (a multiply, then an add) for p
  // ascending, skipping p where scale * q[i, p] is 0; P·V likewise.
  const std::int64_t head_dim = dim / heads;
  const float scale = 1.0F / std::sqrt(static_cast<float>(head_dim));
  for (std::int64_t s = 0; s < batch; ++s) {
    for (std::int64_t h = 0; h < heads; ++h) {
      const std::int64_t head = s * tokens * dim + h * head_dim;
      for (std::int64_t i = 0; i < tokens; ++i) {
        const float* qrow = q + head + i * dim;
        float* prow = probs + ((s * heads + h) * tokens + i) * tokens;
        std::fill(prow, prow + tokens, 0.0F);
        for (std::int64_t p = 0; p < head_dim; ++p) {
          const float a = scale * qrow[p];
          if (a == 0.0F) continue;
          for (std::int64_t j = 0; j < tokens; ++j) prow[j] += a * k[head + j * dim + p];
        }
        softmax_rows(prow, 1, tokens);
        float* crow = ctx + head + i * dim;
        std::fill(crow, crow + head_dim, 0.0F);
        for (std::int64_t p = 0; p < tokens; ++p) {
          const float a = prow[p];
          if (a == 0.0F) continue;
          const float* vrow = v + head + p * dim;
          for (std::int64_t j = 0; j < head_dim; ++j) crow[j] += a * vrow[j];
        }
      }
    }
  }
}

}  // namespace detail

std::int64_t attend_f32_scratch(std::int64_t tokens, std::int64_t head_dim) {
  return head_dim * ((tokens + 7) / 8 * 8);
}

void attend_f32(Level level, std::int64_t batch, std::int64_t tokens, std::int64_t dim,
                std::int64_t heads, const float* q, const float* k, const float* v,
                float* scratch, float* probs, float* ctx) {
  if (heads <= 0 || dim % heads != 0) {
    throw std::invalid_argument("attend_f32: dim must be a positive multiple of heads");
  }
  switch (level) {
    case Level::kScalar:
      detail::attend_f32_scalar(batch, tokens, dim, heads, q, k, v, probs, ctx);
      return;
    case Level::kAvx2:
      if (!cpu_supports_avx2()) {
        throw std::invalid_argument("attend_f32: AVX2 kernels unavailable on this host");
      }
      detail::attend_f32_avx2(batch, tokens, dim, heads, q, k, v, scratch, probs, ctx);
      return;
  }
  throw std::invalid_argument("attend_f32: unknown kernel level");
}

}  // namespace kernels
}  // namespace clado::tensor
