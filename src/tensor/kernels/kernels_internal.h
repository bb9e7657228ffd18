// Internal declarations shared by the kernel dispatch layer and the
// per-level translation units. Not installed; include via a relative path
// from src/tensor/kernels/ only.
//
// Layout note: the AVX2 files are the only TUs in the repo compiled with
// -mavx2 -mfma (set per-file in src/tensor/CMakeLists.txt). Nothing in this
// header may define inline functions containing vector code — an inline
// function compiled under different ISA flags in different TUs would be
// COMDAT-merged into whichever copy the linker keeps, defeating the runtime
// dispatch. Declarations and constants only.
#pragma once

#include <bit>
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

// Constants of the transcendental ports (math_scalar.cpp, math_avx2.cpp),
// spelled as fdlibm and glibc spell them: thresholds on the magnitude's bit
// pattern, and the exact binary values of every coefficient.
//
// fdlibm expm1f: branch thresholds on |x|'s bits, then the reduction and
// the five-term polynomial.
inline constexpr std::uint32_t kExpm1Small = 0x33000000U;           // 2^-25
inline constexpr std::uint32_t kExpm1HalfLn2 = 0x3eb17218U;         // ln2 / 2
inline constexpr std::uint32_t kExpm1ThreeHalvesLn2 = 0x3f851592U;  // 3 ln2 / 2
inline constexpr std::uint32_t kExpm1Big = 0x4195b844U;             // 27 ln2
inline constexpr std::uint32_t kExpm1Huge = 0x42b17218U;            // 88.72...
inline constexpr float kExpm1Overflow = std::bit_cast<float>(0x42b17180U);
inline constexpr float kExpm1Tiny = 1.0e-30F;
inline constexpr float kLn2Hi = std::bit_cast<float>(0x3f317180U);
inline constexpr float kLn2Lo = std::bit_cast<float>(0x3717f7d1U);
inline constexpr float kInvLn2 = std::bit_cast<float>(0x3fb8aa3bU);
inline constexpr float kExpm1Q1 = std::bit_cast<float>(0xbd088889U);
inline constexpr float kExpm1Q2 = std::bit_cast<float>(0x3ad00d01U);
inline constexpr float kExpm1Q3 = std::bit_cast<float>(0xb8a670cdU);
inline constexpr float kExpm1Q4 = std::bit_cast<float>(0x36867e54U);
inline constexpr float kExpm1Q5 = std::bit_cast<float>(0xb457edbbU);

// fdlibm tanhf: |x| < 2^-55 returns x (1 + x); |x| >= 22 returns +-1.
inline constexpr std::uint32_t kTanhTiny = 0x24000000U;
inline constexpr std::uint32_t kTanhSaturate = 0x41b00000U;

// glibc expf: |x| >= 88 (top 12 bits of |x| at least those of 88.0f) and
// NaN take the special-case branch; elsewhere
// e^x = 2^(k/32) * 2^(r/32) with k = round(x * 32 / ln2), the table holding
// 2^(i/32) minus i << 47 in its bit pattern.
inline constexpr std::uint32_t kExpSpecialTop = 0x42bU;
inline constexpr float kExpOverflow = 0x1.62e42ep6F;    // ln(2^128)
inline constexpr float kExpUnderflow = -0x1.9fe368p6F;  // ln(2^-150)
inline constexpr double kExpInvLn2N = 0x1.71547652b82fep+5;
// kExpInvLn2N split into 29 significant bits, rounded up, and the other
// 24: each times a float is exact in double (see exp_scalar).
inline constexpr double kExpInvLn2NHi = 0x1.7154766p+5;
inline constexpr double kExpInvLn2NLo = -0x1.a8fa04p-24;
static_assert(kExpInvLn2NHi + kExpInvLn2NLo == kExpInvLn2N);
inline constexpr double kExpShift = 0x1.8p+52;
inline constexpr double kExpC0 = 0x1.c6af84b912394p-20;
inline constexpr double kExpC1 = 0x1.ebfce50fac4f3p-13;
inline constexpr double kExpC2 = 0x1.62e42ff0c52d6p-6;
inline constexpr std::uint64_t kExpTableSize = 32;
inline constexpr std::uint64_t kExp2Table[kExpTableSize] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};

// GELU, tanh form: 0.5 x (1 + tanh(kGeluC (x + kGeluCubic x^3))).
inline constexpr float kGeluC = 0.7978845608028654F;  // sqrt(2 / pi)
inline constexpr float kGeluCubic = 0.044715F;

// Portable reference kernels (gemm_f32_scalar.cpp / quantize_scalar.cpp /
// math_scalar.cpp).
void gemm_f32_row_range_scalar(bool trans_a, bool trans_b, std::int64_t m_begin,
                               std::int64_t m_end, std::int64_t n, std::int64_t k, float alpha,
                               const float* a, const float* b, float* c, std::int64_t lda,
                               std::int64_t ldb);

void quantize_f32_s8_scalar(std::int64_t count, const float* x, float inv_scale,
                            std::int32_t zero_point, std::int8_t* out);
void fake_quant_f32_scalar(std::int64_t count, const float* x, float scale, float zero_point,
                           float levels, float* out);

// One element of the transcendental ports (math_scalar.cpp): every
// level's value.
float tanh_scalar(float x);
float exp_scalar(float x);
float gelu_scalar(float x);

// The elementwise kernels at the scalar level (math_scalar.cpp) and the
// attention core at the scalar level (attend_f32.cpp).
void tanh_f32_scalar(std::int64_t count, const float* x, float* out);
void expm1_f32_scalar(std::int64_t count, const float* x, float* out);
void exp_f32_scalar(std::int64_t count, const float* x, float* out);
void gelu_f32_scalar(std::int64_t count, const float* x, float* out);
void attend_f32_scalar(std::int64_t batch, std::int64_t tokens, std::int64_t dim,
                       std::int64_t heads, const float* q, const float* k, const float* v,
                       float* probs, float* ctx);

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
void fake_quant_f32_avx2(std::int64_t count, const float* x, float scale, float zero_point,
                         float levels, float* out);

// The 8-lane transcendental kernels and attention core (math_avx2.cpp).
// attend_f32_avx2's `kt` holds head_dim rows of tokens rounded up to 8
// floats: one K head, transposed.
void tanh_f32_avx2(std::int64_t count, const float* x, float* out);
void expm1_f32_avx2(std::int64_t count, const float* x, float* out);
void exp_f32_avx2(std::int64_t count, const float* x, float* out);
void gelu_f32_avx2(std::int64_t count, const float* x, float* out);
void attend_f32_avx2(std::int64_t batch, std::int64_t tokens, std::int64_t dim,
                     std::int64_t heads, const float* q, const float* k, const float* v,
                     float* kt, float* probs, float* ctx);

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
