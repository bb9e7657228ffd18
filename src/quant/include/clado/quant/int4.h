// Packed 4-bit (s4) storage helpers.
//
// Packed s4 storage holds weight codes two per byte: value range [-8, 7],
// the code for even index 2t in the LOW nibble and 2t+1 in the HIGH
// nibble, encoded as the value's low 4 bits (two's complement). A row of k
// codes occupies (k+1)/2 bytes; when k is odd the final high nibble is a
// zero pad, so a packed row is uniquely determined by its codes and
// round-trips exactly. This is the layout the reference GEMM
// tensor::kernels::gemm_s8s4_s32 consumes; the serving backend widens int4
// codes to the int16 k-pairs of qconv2d_s8 instead (backend::prepare_layer).
#pragma once

#include <cstdint>
#include <vector>

namespace clado::quant {

/// Bytes per packed row of k 4-bit codes.
inline constexpr std::int64_t packed_s4_stride(std::int64_t k) { return (k + 1) / 2; }

/// Packs `count` codes (each in [-8, 7]; throws std::invalid_argument
/// otherwise) into (count+1)/2 bytes at `packed`.
void pack_s4(const std::int8_t* codes, std::int64_t count, std::uint8_t* packed);

/// Unpacks `count` codes from the packed representation.
void unpack_s4(const std::uint8_t* packed, std::int64_t count, std::int8_t* codes);

/// Convenience allocating wrappers.
std::vector<std::uint8_t> pack_s4(const std::vector<std::int8_t>& codes);
std::vector<std::int8_t> unpack_s4(const std::vector<std::uint8_t>& packed, std::int64_t count);

/// Row-wise pack of an [n, k] code matrix into n rows of (k+1)/2 bytes
/// each (the weight layout for the int4 backend).
std::vector<std::uint8_t> pack_s4_rows(const std::int8_t* codes, std::int64_t n, std::int64_t k);

}  // namespace clado::quant
