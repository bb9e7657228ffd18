// Cholesky factorization — the reference the tests use to certify that a
// PSD-projected sensitivity matrix is positive semi-definite. No shipped
// path calls it.
#pragma once

#include <optional>

#include "clado/tensor/tensor.h"

namespace clado::linalg {

using clado::tensor::Tensor;

/// Attempts A = L Lᵀ for symmetric positive definite A. Returns std::nullopt
/// if a non-positive pivot (beyond `jitter`) is encountered, i.e. A is not
/// PD to within tolerance.
std::optional<Tensor> cholesky(const Tensor& a, double jitter = 0.0);

}  // namespace clado::linalg
