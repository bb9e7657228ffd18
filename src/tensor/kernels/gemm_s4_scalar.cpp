// Portable int8 x packed-int4 GEMM — the int4 oracle of the tests,
// following gemm_s8_scalar.cpp exactly. The only new ingredient is
// the nibble decode: each packed byte holds codes for two consecutive k
// positions, low nibble first, and the decode is done with fully portable
// unsigned arithmetic ((v & 0xF) ^ 8) - 8 rather than a signed shift so the
// reference has no implementation-defined steps.
#include <vector>

#include "clado/tensor/kernels.h"
#include "kernels_internal.h"

namespace clado::tensor {
namespace kernels {
namespace detail {

namespace {

inline std::int32_t s4_lo(std::uint8_t byte) {
  return static_cast<std::int32_t>((byte & 0xFu) ^ 8u) - 8;
}

inline std::int32_t s4_hi(std::uint8_t byte) {
  return static_cast<std::int32_t>((byte >> 4) ^ 8u) - 8;
}

}  // namespace

void s4_row_sums(const std::uint8_t* packed, std::int64_t count, std::int64_t k,
                 std::int32_t* sums) {
  const std::int64_t stride = (k + 1) / 2;
  for (std::int64_t i = 0; i < count; ++i) {
    const std::uint8_t* row = packed + i * stride;
    std::int32_t acc = 0;
    for (std::int64_t p = 0; p < k; ++p) {
      const std::uint8_t byte = row[p >> 1];
      acc += (p & 1) != 0 ? s4_hi(byte) : s4_lo(byte);
    }
    sums[i] = acc;
  }
}

}  // namespace detail

void gemm_s8s4_s32(std::int64_t m, std::int64_t n, std::int64_t k, const std::int8_t* a,
                   std::int32_t za, const std::uint8_t* b_packed, std::int32_t zb,
                   std::int32_t* c) {
  // Σ (a − za)(b − zb) = Σ ab − zb Σ a_row − za Σ b_row + K·za·zb.
  const std::int64_t bstride = (k + 1) / 2;
  std::vector<std::int32_t> row_sum_a(static_cast<std::size_t>(m), 0);
  std::vector<std::int32_t> row_sum_b(static_cast<std::size_t>(n), 0);
  detail::s8_row_sums(a, m, k, row_sum_a.data());
  detail::s4_row_sums(b_packed, n, k, row_sum_b.data());
  const std::int32_t kzz = static_cast<std::int32_t>(k) * za * zb;

  for (std::int64_t i = 0; i < m; ++i) {
    const std::int8_t* arow = a + i * k;
    for (std::int64_t j = 0; j < n; ++j) {
      const std::uint8_t* brow = b_packed + j * bstride;
      std::int32_t acc = 0;
      for (std::int64_t p = 0; p < k; ++p) {
        const std::uint8_t byte = brow[p >> 1];
        const std::int32_t bq = (p & 1) != 0 ? detail::s4_hi(byte) : detail::s4_lo(byte);
        acc += static_cast<std::int32_t>(arow[p]) * bq;
      }
      c[i * n + j] = acc - zb * row_sum_a[static_cast<std::size_t>(i)] -
                     za * row_sum_b[static_cast<std::size_t>(j)] + kzz;
    }
  }
}

}  // namespace kernels
}  // namespace clado::tensor
