#include "clado/linalg/cholesky.h"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace clado::linalg {

std::optional<Tensor> cholesky(const Tensor& a, double jitter) {
  if (a.dim() != 2 || a.size(0) != a.size(1)) {
    throw std::invalid_argument("cholesky: expects a square matrix, got " + a.shape_str());
  }
  const std::int64_t n = a.size(0);
  std::vector<double> l(static_cast<std::size_t>(n * n), 0.0);
  for (std::int64_t j = 0; j < n; ++j) {
    double diag = static_cast<double>(a.data()[j * n + j]) + jitter;
    for (std::int64_t k = 0; k < j; ++k) {
      const double ljk = l[static_cast<std::size_t>(j * n + k)];
      diag -= ljk * ljk;
    }
    if (diag <= 0.0) return std::nullopt;
    const double ljj = std::sqrt(diag);
    l[static_cast<std::size_t>(j * n + j)] = ljj;
    for (std::int64_t i = j + 1; i < n; ++i) {
      double acc = a.data()[i * n + j];
      for (std::int64_t k = 0; k < j; ++k) {
        acc -= l[static_cast<std::size_t>(i * n + k)] * l[static_cast<std::size_t>(j * n + k)];
      }
      l[static_cast<std::size_t>(i * n + j)] = acc / ljj;
    }
  }
  Tensor out({n, n});
  for (std::int64_t i = 0; i < n * n; ++i) {
    out.data()[i] = static_cast<float>(l[static_cast<std::size_t>(i)]);
  }
  return out;
}

}  // namespace clado::linalg
