// Internal declarations shared by the kernel dispatch layer and the
// per-level translation units. Not installed; include via a relative path
// from src/tensor/kernels/ only.
//
// Layout note: the AVX2 files are the only TUs in the repo compiled with
// -mavx2 -mfma (set per-file in src/tensor/CMakeLists.txt). Nothing in this
// header may define inline functions containing vector code — an inline
// function compiled under different ISA flags in different TUs would be
// COMDAT-merged into whichever copy the linker keeps, defeating the runtime
// dispatch. Declarations only.
#pragma once

#include <cstdint>

namespace clado::tensor {
namespace kernels {
namespace detail {

// Cache-blocking sizes tuned for a single core with a 32KB L1 / 256KB+ L2,
// shared by both fp32 levels so the parallel row-chunk schedule (multiples
// of kBlockM) is level-independent. kBlockM must equal kernels::kGemmBlockM.
inline constexpr std::int64_t kBlockM = 64;
inline constexpr std::int64_t kBlockN = 128;
inline constexpr std::int64_t kBlockK = 128;

// Register tile of the AVX2 fp32 micro-kernel: kMr rows of C by kNr
// columns. The conv entry sizes its packed panels and index table by them.
inline constexpr std::int64_t kMr = 6;
inline constexpr std::int64_t kNr = 16;

// Index-table entry of a B-panel lane that reads no input element (zero
// padding, or a lane past the last output position); the lane packs 0.
inline constexpr std::int32_t kZeroSlot = -1;

// Portable reference kernels (gemm_f32_scalar.cpp / gemm_s8_scalar.cpp).
void gemm_f32_row_range_scalar(bool trans_a, bool trans_b, std::int64_t m_begin,
                               std::int64_t m_end, std::int64_t n, std::int64_t k, float alpha,
                               const float* a, const float* b, float* c, std::int64_t lda,
                               std::int64_t ldb);
void gemm_s8s8_s32_scalar(std::int64_t m, std::int64_t n, std::int64_t k, const std::int8_t* a,
                          std::int32_t za, const std::int8_t* b, std::int32_t zb,
                          std::int32_t* c);

// Per-row sums of `count` rows of length k — the O(mk + nk) half of the
// int8 zero-point correction, shared by both int8 levels so the correction
// arithmetic is identical by construction.
void s8_row_sums(const std::int8_t* rows, std::int64_t count, std::int64_t k,
                 std::int32_t* sums);

// Packed-int4 variant (gemm_s4_scalar.cpp): rows have stride (k+1)/2 bytes,
// low nibble first; the odd-k pad nibble is counted (it must be zero).
// Shared by both s4 levels, like s8_row_sums.
void s4_row_sums(const std::uint8_t* packed, std::int64_t count, std::int64_t k,
                 std::int32_t* sums);

// Portable reference kernels (gemm_s4_scalar.cpp / requant_scalar.cpp).
void gemm_s8s4_s32_scalar(std::int64_t m, std::int64_t n, std::int64_t k, const std::int8_t* a,
                          std::int32_t za, const std::uint8_t* b_packed, std::int32_t zb,
                          std::int32_t* c);
void quantize_f32_s8_scalar(std::int64_t count, const float* x, float inv_scale,
                            std::int32_t zero_point, std::int8_t* out);
void requant_s32_f32_scalar(std::int64_t rows, std::int64_t n, const std::int32_t* acc,
                            float rescale, const float* bias, float* out);

// AVX2 kernels (gemm_f32_avx2.cpp / gemm_s8_avx2.cpp). When the build
// lacks AVX2 support these compile to scalar forwarders and
// avx2_compiled() reports false, so dispatch never selects them.
bool avx2_compiled() noexcept;
void gemm_f32_row_range_avx2(bool trans_a, bool trans_b, std::int64_t m_begin,
                             std::int64_t m_end, std::int64_t n, std::int64_t k, float alpha,
                             const float* a, const float* b, float* c, std::int64_t lda,
                             std::int64_t ldb);
void gemm_s8s8_s32_avx2(std::int64_t m, std::int64_t n, std::int64_t k, const std::int8_t* a,
                        std::int32_t za, const std::int8_t* b, std::int32_t zb, std::int32_t* c);
void gemm_s8s4_s32_avx2(std::int64_t m, std::int64_t n, std::int64_t k, const std::int8_t* a,
                        std::int32_t za, const std::uint8_t* b_packed, std::int32_t zb,
                        std::int32_t* c);
void quantize_f32_s8_avx2(std::int64_t count, const float* x, float inv_scale,
                          std::int32_t zero_point, std::int8_t* out);
void requant_s32_f32_avx2(std::int64_t rows, std::int64_t n, const std::int32_t* acc,
                          float rescale, const float* bias, float* out);

// Packed conv path of conv2d_f32 (gemm_f32_avx2.cpp, beside the GEMM
// micro-kernel it shares). Writes output = conv(input, weight) for an
// ungrouped conv without bias. `table` is the per-call index table:
// entry [(t * patch + p) * kNr + lane] is the offset within one sample of
// the input element B-panel t needs in `lane` at patch row p, or
// kZeroSlot. `panels` holds out_c rounded up to kMr times patch floats of
// packed weights, then one B block of min(positions rounded up to kNr,
// kBlockN) times min(patch, kBlockK) floats.
void conv2d_f32_packed_avx2(std::int64_t batch, std::int64_t sample_numel,
                            std::int64_t out_c, std::int64_t positions, std::int64_t patch,
                            const float* input, const float* weight, const std::int32_t* table,
                            float* panels, float* output);

}  // namespace detail
}  // namespace kernels
}  // namespace clado::tensor
