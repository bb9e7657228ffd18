#include "clado/linalg/matrix.h"

#include <stdexcept>
#include <string>

namespace clado::linalg {

namespace {

std::int64_t square_size(const Tensor& a, const char* what) {
  if (a.dim() != 2 || a.size(0) != a.size(1)) {
    throw std::invalid_argument(std::string(what) + ": expects a square matrix, got " +
                                a.shape_str());
  }
  return a.size(0);
}

}  // namespace

Tensor symmetrize(const Tensor& a) {
  const std::int64_t n = square_size(a, "symmetrize");
  Tensor out({n, n});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      out.data()[i * n + j] = 0.5F * (a.data()[i * n + j] + a.data()[j * n + i]);
    }
  }
  return out;
}

double quad_form(const Tensor& a, std::span<const float> x) {
  const std::int64_t n = square_size(a, "quad_form");
  if (static_cast<std::int64_t>(x.size()) != n) {
    throw std::invalid_argument("quad_form: vector size mismatch");
  }
  double acc = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    double row = 0.0;
    const float* arow = a.data() + i * n;
    for (std::int64_t j = 0; j < n; ++j) row += static_cast<double>(arow[j]) * x[j];
    acc += row * x[i];
  }
  return acc;
}

}  // namespace clado::linalg
