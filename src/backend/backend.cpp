#include "clado/backend/backend.h"

#include <stdexcept>
#include <string>

#include "clado/quant/qat.h"
#include "clado/tensor/kernels.h"

namespace clado::backend {

const char* precision_name(Precision p) {
  switch (p) {
    case Precision::kFp32: return "fp32";
    case Precision::kInt8: return "int8";
    case Precision::kInt4: return "int4";
  }
  return "?";
}

Precision precision_for_bits(int bits) {
  if (bits <= 0 || bits > 8) return Precision::kFp32;
  return bits <= 4 ? Precision::kInt4 : Precision::kInt8;
}

PreparedLayer prepare_layer(const clado::quant::WeightCodes& codes, std::int64_t n,
                            std::int64_t k) {
  PreparedLayer out;
  out.precision = precision_for_bits(codes.bits);
  out.n = n;
  out.k = k;
  if (out.precision == Precision::kFp32) return out;
  if (static_cast<std::int64_t>(codes.codes.size()) != n * k) {
    throw std::invalid_argument("prepare_layer: " + std::to_string(codes.codes.size()) +
                                " codes for an [" + std::to_string(n) + ", " +
                                std::to_string(k) + "] weight");
  }
  if (out.precision == Precision::kInt4) {
    for (const std::int8_t code : codes.codes) {
      if (code < -8 || code > 7) {
        throw std::invalid_argument("prepare_layer: int4 code " +
                                    std::to_string(static_cast<int>(code)) +
                                    " outside [-8, 7]");
      }
    }
  }
  out.w_scale = codes.scale;
  out.w_pairs.resize(static_cast<std::size_t>(clado::tensor::kernels::qweights_pairs(n, k)));
  out.w_sums.resize(static_cast<std::size_t>(n));
  clado::tensor::kernels::pack_qweights(n, k, codes.codes.data(), out.w_pairs.data(),
                                        out.w_sums.data());
  return out;
}

}  // namespace clado::backend
