// Runtime-dispatched kernel layer.
//
// Every forward pass in the repo (training, the pairwise sensitivity sweep,
// clado::serve) bottoms out in a few inner loops: the fp32 blocked GEMM
// (directly, or under the batched conv entry conv2d_f32), the integer
// conv/linear entry qconv2d_s8 of the serving backends, the elementwise
// transcendental kernels (GELU, exp) and the attention core attend_f32.
// This header is the single selection seam between their portable scalar
// implementations and the AVX2 versions:
//
//   * Level::kScalar — the portable reference (the exact code every result
//     in the repo was validated against). Always available.
//   * Level::kAvx2   — 256-bit kernels (6x16 FMA tiles for the fp32 GEMM,
//     4x16 vpmaddwd outer-product tiles for int8, 8-lane ports of the
//     transcendental functions), compiled per-file with -mavx2 -mfma and
//     only dispatched to after a runtime CPUID check.
//
// The active level is decided once per process: CLADO_KERNEL=scalar|avx2|auto
// (default auto = best supported), intersected with what the CPU and the
// build actually provide. An explicit CLADO_KERNEL=avx2 on hardware or a
// build without AVX2 is a hard error, never a silent downgrade — the same
// strictness policy as env_int_strict.
//
// Determinism contract:
//   * integer kernels are bit-exact across levels (integer arithmetic, and
//     one multiply then one add in the fp32 requant), so integer serving is
//     reproducible on any machine regardless of dispatch.
//   * the elementwise kernels (quantize, fake-quant, tanh/expm1/exp/GELU)
//     and attend_f32 are bit-exact across levels too: each AVX2 lane runs
//     the scalar level's operations in the same order, with a rounding
//     after each and no FMA (their files are compiled -ffp-contract=off, so
//     the compiler fuses none either).
//   * fp32 GEMM kernels may differ across levels in final-bit rounding (FMA,
//     different accumulation tiling) but every level is deterministic, and
//     within a level the parallel row-chunked schedule is bit-identical to
//     the serial one: rows never interact, and chunk boundaries fall on
//     kGemmBlockM multiples so each row sees the same block decomposition.
#pragma once

#include <cstdint>

namespace clado::tensor {
namespace kernels {

enum class Level {
  kScalar = 0,
  kAvx2 = 1,
};

/// Stable lowercase name ("scalar", "avx2"); matches the CLADO_KERNEL
/// spelling and appears in obs gauges and test output.
const char* level_name(Level level);

/// True when the CPU supports AVX2+FMA *and* this build compiled the AVX2
/// translation units with the required flags.
bool cpu_supports_avx2() noexcept;

/// Resolves the kernel level from CLADO_KERNEL and the CPU, without
/// caching: unset/empty/"auto" picks the best supported level; "scalar"
/// forces the portable path; "avx2" requires AVX2 support (throws
/// std::invalid_argument otherwise, as for any unrecognized value).
Level resolve_level();

/// The process-wide level: resolve_level() evaluated once on first use and
/// cached (also recorded in the obs gauge "kernel.active_level").
Level active_level();

/// Row-block granularity of the fp32 blocked kernels. Parallel callers must
/// start row chunks on multiples of this so every chunk reproduces the
/// serial block decomposition (the bit-identical parallel/serial property).
inline constexpr std::int64_t kGemmBlockM = 64;

/// fp32 blocked GEMM over C rows [m_begin, m_end):
///   C[m_begin:m_end, :] += alpha * op(A)[m_begin:m_end, :] * op(B)
/// op(A) is [M,K] with leading dimension lda (transposed storage when
/// trans_a), op(B) is [K,N] with leading dimension ldb. C is row-major
/// [M,N]. m_begin must be a multiple of kGemmBlockM. Beta-scaling is the
/// caller's job (see gemm_prologue in ops.cpp).
void gemm_f32_row_range(Level level, bool trans_a, bool trans_b, std::int64_t m_begin,
                        std::int64_t m_end, std::int64_t n, std::int64_t k, float alpha,
                        const float* a, const float* b, float* c, std::int64_t lda,
                        std::int64_t ldb);

/// Geometry of a square-kernel 2-d convolution on one NCHW sample (the
/// batch size is passed separately). Weights are [out_channels,
/// in_channels / groups, kernel, kernel], as Conv2d stores them.
struct ConvGeometry {
  std::int64_t in_channels = 0;
  std::int64_t height = 0;
  std::int64_t width = 0;
  std::int64_t out_channels = 0;
  std::int64_t kernel = 0;
  std::int64_t stride = 1;
  std::int64_t pad = 0;
  std::int64_t groups = 1;
};

/// Caller-owned scratch for conv2d_f32, in elements of each type. It does
/// not depend on the batch size, and its contents need no initialization.
struct ConvWorkspace {
  std::int64_t floats = 0;
  std::int64_t indices = 0;
};

/// Scratch conv2d_f32(level, geom, ...) needs. Throws std::invalid_argument
/// on degenerate geometry (see tensor::conv_out_size).
ConvWorkspace conv2d_f32_workspace(Level level, const ConvGeometry& geom);

/// Batched fp32 convolution, the one conv entry of the repo:
///   output[s] = conv(input[s], weight) + bias   for s in [0, batch)
/// input is [batch, C, H, W], output [batch, out_c, out_h, out_w]
/// (contiguous), bias may be null. `floats` and `indices` hold at least
/// conv2d_f32_workspace(level, geom) elements.
///
/// Determinism contract: the output is bit-identical to the per-sample
/// reference — im2col of each sample and group, then
/// tensor::gemm(level, false, true, ...) of the weights against it, then
/// the bias row-add. Level::kScalar runs exactly that reference. At
/// Level::kAvx2, ungrouped shapes above tensor::kGemmSmallMacs per sample
/// pack the weights into micro-kernel panels once per call, fill each
/// sample's B panels through an index table built once per call (no
/// im2col matrix),
/// and run the GEMM's 6x16 micro-kernel with its kBlockK blocking, so
/// every output element is the same FMA chain; grouped and small shapes
/// keep the reference route, whose arithmetic (the small path's zero-skip
/// included) the packed path does not reproduce.
void conv2d_f32(Level level, const ConvGeometry& geom, std::int64_t batch, const float* input,
                const float* weight, const float* bias, float* floats, std::int32_t* indices,
                float* output);

/// The weights of one integer conv/linear layer as qconv2d_s8 reads them
/// at every level: n rows (output channels) of k codes in [-128, 127],
/// zero point 0, packed once by pack_qweights. `pairs` holds the codes
/// widened to int16 k-pairs (code 2q and 2q+1 of a row side by side, the
/// operand order of vpmaddwd) in groups of four rows, zero-padded past n
/// and k; `sums` holds each row's code sum, which the zero-point
/// correction needs on every call. int4 codes are widened the same way, so
/// one kernel serves both precisions. A non-owning view.
struct QWeights {
  std::int64_t n = 0;
  std::int64_t k = 0;
  const std::int16_t* pairs = nullptr;  ///< qweights_pairs(n, k) elements
  const std::int32_t* sums = nullptr;   ///< n row sums
};

/// int16 elements of the packed `pairs` array of an [n, k] weight.
std::int64_t qweights_pairs(std::int64_t n, std::int64_t k);

/// Packs [n, k] row-major codes into `pairs` (qweights_pairs(n, k)
/// elements) and `sums` (n elements). Level-independent.
void pack_qweights(std::int64_t n, std::int64_t k, const std::int8_t* codes,
                   std::int16_t* pairs, std::int32_t* sums);

/// Caller-owned scratch of qconv2d_s8, in elements of each type. Like
/// ConvWorkspace it does not depend on the batch size. `indices` is the
/// step's index table, filled once by qconv2d_s8_table; `codes` needs no
/// initialization.
struct QConvWorkspace {
  std::int64_t codes = 0;
  std::int64_t indices = 0;
};

/// Scratch qconv2d_s8(level, geom, ...) needs. Throws std::invalid_argument
/// on degenerate or grouped geometry.
QConvWorkspace qconv2d_s8_workspace(Level level, const ConvGeometry& geom);

/// Fills the index table of qconv2d_s8(level, geom, ...):
/// qconv2d_s8_workspace(level, geom).indices entries. Build it once (a
/// serving plan does so at compile time) and pass it to every call.
void qconv2d_s8_table(Level level, const ConvGeometry& geom, std::int32_t* indices);

/// Batched integer convolution with the requant fused:
///   output[s] = rescale * conv_int(input[s] - za, w) + bias   for s < batch
/// input is the quantized batch [batch, C, H, W] (int8, zero point za),
/// output the fp32 [batch, out_c, out_h, out_w] (NCHW, contiguous); bias
/// may be null. Ungrouped convs only; a linear layer over rows of k
/// features is the 1x1 conv of a [k, 1, 1] image, with batch = rows.
/// Out-of-image taps read the zero point (real 0). Each output element is
/// the int32 sum minus za * sums[c], converted to fp32, multiplied by
/// rescale and then (separately, no FMA) added to bias[c]. `indices` holds
/// the table qconv2d_s8_table built; `codes` holds
/// qconv2d_s8_workspace(level, geom).codes elements. No allocation.
///
/// Level::kScalar is the reference: per sample, im2col at the zero point,
/// a scalar dot product per output, requant into the NCHW plane. At
/// Level::kAvx2 each sample's activations are packed into 16-position
/// int16 k-pair panels, and a 4-channel x 16-position vpmaddwd tile
/// computes the outputs with the requant in its epilogue. Stride-1 convs
/// whose output width is a multiple of 8 fill the panels from contiguous
/// runs of a zero-point-padded copy of the sample (the table holds one
/// offset per code); every other geometry gathers each lane through the
/// table. Integer sums are exact, so both levels agree bit for bit.
void qconv2d_s8(Level level, const ConvGeometry& geom, std::int64_t batch,
                const std::int8_t* input, std::int32_t za, const QWeights& w, float rescale,
                const float* bias, const std::int32_t* indices, std::int16_t* codes,
                float* output);

/// Affine fp32 fake quantization, ActFakeQuant's forward on a frozen grid:
///   q      = clamp(rint(x[i] * (1 / scale)) + zero_point, 0, levels)
///   out[i] = (q - zero_point) * scale
/// with std::clamp's semantics (a NaN passes through). out may equal x.
/// All levels are bit-identical: vroundps to nearest-even is rint in the
/// default rounding mode, and the AVX2 clamp's operand order passes NaN
/// through as std::clamp does.
void fake_quant_f32(Level level, std::int64_t count, const float* x, float scale,
                    float zero_point, float levels, float* out);

/// Affine fp32 -> int8 quantization:
///   out[i] = clamp(nearbyint(x[i] * inv_scale) + zero_point, -128, 127)
/// inv_scale is passed pre-inverted so every caller divides exactly once.
/// Inputs must be finite. All levels are bit-identical: both paths round
/// to nearest-even and clamp the pre-integral value to +/-2e9 before the
/// int conversion.
void quantize_f32_s8(Level level, std::int64_t count, const float* x, float inv_scale,
                     std::int32_t zero_point, std::int8_t* out);

/// Transcendental kernels, ports of the libm functions the repo's fp32 nets
/// were trained with, owned by the repo so every level and every host
/// computes the same bits. count elements of x into out; out may equal x.
///   * tanh_f32 / expm1_f32: fdlibm's tanhf / expm1f, which glibc ships
///     unchanged (five-term expm1 polynomial).
///   * exp_f32: glibc's expf (32-entry table, cubic in double), returning
///     what glibc's FMA build returns for every float, whether or not the
///     host has FMA. No level uses an FMA: the reduction's fused
///     x * InvLn2N - k is computed exactly from a split constant, and
///     rounding the polynomial's steps separately changes no float result
///     (checked on all 2^32 inputs). Scalar hosts without FMA therefore pay
///     no software fma().
///   * gelu_f32: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))), rounded
///     after each operation in that order.
/// Bit-exact across levels: Level::kAvx2 computes every branch on 8 lanes
/// and blends, and sends exp's |x| >= 88 and NaN lanes to the scalar port.
/// GELU runs batched in act_forward; exp_f32's batched entry serves the
/// kernel race of bench_gemm_kernels, and tanh_f32's and expm1_f32's are a
/// test seam only (they give MathKernels the ports GELU and tanh build on).
void tanh_f32(Level level, std::int64_t count, const float* x, float* out);
void expm1_f32(Level level, std::int64_t count, const float* x, float* out);
void exp_f32(Level level, std::int64_t count, const float* x, float* out);
void gelu_f32(Level level, std::int64_t count, const float* x, float* out);

/// One element of tanh_f32 / exp_f32 / gelu_f32: the value every level
/// computes, for callers that evaluate a formula per element.
float tanh_f32(float x);
float exp_f32(float x);
float gelu_f32(float x);

/// Floats of caller scratch attend_f32 needs for heads of `tokens` tokens
/// and `head_dim` features.
std::int64_t attend_f32_scratch(std::int64_t tokens, std::int64_t head_dim);

/// Batched scaled dot-product attention, the one attention core of the
/// repo. q, k and v are the projected [batch, tokens, dim] activations
/// (contiguous), split into `heads` heads of head_dim = dim / heads
/// features. Per sample and head:
///   probs = softmax(Q Kᵀ / sqrt(head_dim)),   ctx = probs · V
/// written into probs [batch, heads, tokens, tokens] and the head's
/// head_dim columns of ctx [batch, tokens, dim]. `scratch` holds
/// attend_f32_scratch(tokens, head_dim) floats. Throws
/// std::invalid_argument unless dim is a positive multiple of heads.
///
/// Determinism contract: q/k/v are read in place, and each output element
/// of QKᵀ (scaled by 1 / sqrt(head_dim)) and of P·V keeps gemm's small-path
/// order: start at +0; for p ascending a multiply, then a separate add; p
/// skipped where the scaled A element is 0. The softmax between them is
/// tensor::softmax_rows. At Level::kAvx2 each K head is transposed once
/// into the scratch and QKᵀ and P·V are vectorized across the output
/// column only, so attend_f32 is bit-exact across levels for every shape
/// and allocates nothing. Where tokens² · head_dim <= tensor::kGemmSmallMacs
/// (every zoo shape), the result equals the per-head gather + tensor::gemm
/// + softmax_rows route it replaced, whose two GEMMs take that small path.
void attend_f32(Level level, std::int64_t batch, std::int64_t tokens, std::int64_t dim,
                std::int64_t heads, const float* q, const float* k, const float* v,
                float* scratch, float* probs, float* ctx);

}  // namespace kernels
}  // namespace clado::tensor
