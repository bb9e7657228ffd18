// Portable int8 GEMM (moved verbatim from quant/int8.cpp): the oracle
// behind quant::qlinear / quant::qconv2d and the tests that hold the
// serving entry qconv2d_s8 to it. Integer arithmetic only, so "reference"
// here means exact: a path disagreeing by one count is wrong, and the
// tests assert equality, not tolerance.
#include <vector>

#include "clado/tensor/kernels.h"
#include "kernels_internal.h"

namespace clado::tensor {
namespace kernels {
namespace detail {

void s8_row_sums(const std::int8_t* rows, std::int64_t count, std::int64_t k,
                 std::int32_t* sums) {
  for (std::int64_t i = 0; i < count; ++i) {
    std::int32_t acc = 0;
    const std::int8_t* row = rows + i * k;
    for (std::int64_t p = 0; p < k; ++p) acc += row[p];
    sums[i] = acc;
  }
}

}  // namespace detail

void gemm_s8s8_s32(std::int64_t m, std::int64_t n, std::int64_t k, const std::int8_t* a,
                   std::int32_t za, const std::int8_t* b, std::int32_t zb, std::int32_t* c) {
  // Σ (a − za)(b − zb) = Σ ab − zb Σ a_row − za Σ b_row + K·za·zb.
  std::vector<std::int32_t> row_sum_a(static_cast<std::size_t>(m), 0);
  std::vector<std::int32_t> row_sum_b(static_cast<std::size_t>(n), 0);
  detail::s8_row_sums(a, m, k, row_sum_a.data());
  detail::s8_row_sums(b, n, k, row_sum_b.data());
  const std::int32_t kzz = static_cast<std::int32_t>(k) * za * zb;

  for (std::int64_t i = 0; i < m; ++i) {
    const std::int8_t* arow = a + i * k;
    for (std::int64_t j = 0; j < n; ++j) {
      const std::int8_t* brow = b + j * k;
      // Pure int8 dot product with widening; vectorizes to pmaddubsw-style
      // code under -O3 on most targets.
      std::int32_t acc = 0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<std::int32_t>(arow[p]) * static_cast<std::int32_t>(brow[p]);
      }
      c[i * n + j] = acc - zb * row_sum_a[static_cast<std::size_t>(i)] -
                     za * row_sum_b[static_cast<std::size_t>(j)] + kzz;
    }
  }
}

}  // namespace kernels
}  // namespace clado::tensor
