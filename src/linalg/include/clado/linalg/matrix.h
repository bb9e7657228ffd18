// Dense square-matrix helpers used by the sensitivity matrix Ĝ and the
// IQP solver. Matrices are stored as row-major 2-d Tensors; this header
// adds the symmetric-matrix operations the algorithms need.
#pragma once

#include <cstdint>
#include <span>

#include "clado/tensor/tensor.h"

namespace clado::linalg {

using clado::tensor::Tensor;

/// Returns (A + Aᵀ)/2. Sensitivity measurements populate only the upper
/// triangle of Ĝ; symmetrization is applied before PSD projection.
Tensor symmetrize(const Tensor& a);

/// Quadratic form xᵀ A x with double accumulation.
double quad_form(const Tensor& a, std::span<const float> x);

}  // namespace clado::linalg
