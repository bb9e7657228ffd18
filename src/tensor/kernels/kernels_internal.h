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

#include "clado/tensor/kernels.h"

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

// Register tile of the AVX2 integer micro-kernel: kQr output channels by
// kQc output positions, over k-pairs. pack_qweights groups weight rows by
// kQr at every level; the AVX2 panels and index table are kQc lanes wide.
inline constexpr std::int64_t kQr = 4;
inline constexpr std::int64_t kQc = 16;

// Portable reference kernels (gemm_f32_scalar.cpp / quantize_scalar.cpp).
void gemm_f32_row_range_scalar(bool trans_a, bool trans_b, std::int64_t m_begin,
                               std::int64_t m_end, std::int64_t n, std::int64_t k, float alpha,
                               const float* a, const float* b, float* c, std::int64_t lda,
                               std::int64_t ldb);

void quantize_f32_s8_scalar(std::int64_t count, const float* x, float inv_scale,
                            std::int32_t zero_point, std::int8_t* out);

// AVX2 kernels (gemm_f32_avx2.cpp / quantize_avx2.cpp). When the build
// lacks AVX2 support these compile to scalar forwarders and
// avx2_compiled() reports false, so dispatch never selects them.
bool avx2_compiled() noexcept;
void gemm_f32_row_range_avx2(bool trans_a, bool trans_b, std::int64_t m_begin,
                             std::int64_t m_end, std::int64_t n, std::int64_t k, float alpha,
                             const float* a, const float* b, float* c, std::int64_t lda,
                             std::int64_t ldb);
void quantize_f32_s8_avx2(std::int64_t count, const float* x, float inv_scale,
                          std::int32_t zero_point, std::int8_t* out);

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

// Packed paths of qconv2d_s8 (qconv_avx2.cpp). Both pack each 16-position
// panel of a sample as int16 k-pairs and run the same 4-channel tile over
// it; they differ in how the panel is filled. A panel holds 2 * kQc int16
// per k-pair q: slot i (codes 2q and 2q + 1 at int16 2i and 2i + 1) is
// lane panel_lane(i) of the panel's 16 positions. The order — lanes 0-3
// and 8-11 in the first vector, 4-7 and 12-15 in the second — is what
// vpunpck{l,h}wd make of two 8-lane halves, and the tile's epilogue puts
// the positions back in order.
inline constexpr std::int64_t panel_lane(std::int64_t slot) {
  return slot / 4 % 2 * 8 + slot / 8 * 4 + slot % 4;
}
//
// Gather route (any ungrouped geometry): `table` entry
// [(t * kp + q) * 2 * kQc + 2 * slot + h] is the offset within one sample
// of the input element panel t needs in slot `slot` for code 2q + h, or
// sample_numel for a tap that reads the zero point (padding, the odd-k
// pad, lanes past the last position). `codes` holds sample_numel + 1
// widened inputs rounded up to kQc, then one panel of 2 * kQc * kp int16.
void qconv2d_s8_gather_avx2(std::int64_t batch, std::int64_t sample_numel,
                            std::int64_t positions, std::int64_t kp, const std::int8_t* input,
                            std::int32_t za, std::int64_t out_c, const std::int16_t* pairs,
                            const std::int32_t* sums, float rescale, const float* bias,
                            const std::int32_t* table, std::int16_t* codes, float* output);

// Row route (stride 1 with the output width a multiple of 8): each sample
// is widened once into a zero-point-padded [C, H + 2 pad, W + 2 pad] int16
// image, where the 8 positions of half a panel read one contiguous run per
// code, so a k-pair is two loads and an interleave. `table` holds the k
// offsets of code p's tap, (c * (H + 2 pad) + ky) * (W + 2 pad) + kx.
// `codes` holds the padded image, then one panel of 2 * kQc * kp int16.
void qconv2d_s8_rows_avx2(const ConvGeometry& geom, std::int64_t batch,
                          const std::int8_t* input, std::int32_t za, const std::int16_t* pairs,
                          const std::int32_t* sums, float rescale, const float* bias,
                          const std::int32_t* table, std::int16_t* codes, float* output);

}  // namespace detail
}  // namespace kernels
}  // namespace clado::tensor
