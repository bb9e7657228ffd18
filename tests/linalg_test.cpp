#include <gtest/gtest.h>

#include <cmath>

#include "clado/linalg/cholesky.h"
#include "clado/linalg/eigen.h"
#include "clado/linalg/matrix.h"
#include "clado/tensor/ops.h"

namespace clado::linalg {
namespace {

using clado::tensor::Rng;
using clado::tensor::Tensor;

Tensor random_symmetric(std::int64_t n, Rng& rng) {
  Tensor a = Tensor::randn({n, n}, rng);
  return symmetrize(a);
}

Tensor random_psd(std::int64_t n, Rng& rng) {
  // A Aᵀ is PSD by construction.
  const Tensor a = Tensor::randn({n, n}, rng);
  Tensor out({n, n});
  clado::tensor::gemm(false, true, n, n, n, 1.0F, a.data(), a.data(), 0.0F, out.data());
  return symmetrize(out);
}

TEST(Matrix, Symmetrize) {
  Tensor a({2, 2}, std::vector<float>{1, 2, 4, 3});
  const Tensor s = symmetrize(a);
  EXPECT_FLOAT_EQ(s.at({0, 1}), 3.0F);
  EXPECT_FLOAT_EQ(s.at({1, 0}), 3.0F);
}

TEST(Matrix, QuadFormMatchesHandComputation) {
  Tensor a({2, 2}, std::vector<float>{2, 1, 1, 3});
  std::vector<float> x = {1.0F, -2.0F};
  // xᵀAx = 2·1 + 1·(−2) + 1·(−2) + 3·4 = 10
  EXPECT_DOUBLE_EQ(quad_form(a, x), 10.0);
}

TEST(Eigen, DiagonalMatrixEigenvalues) {
  Tensor a({3, 3});
  a.at({0, 0}) = 3.0F;
  a.at({1, 1}) = -1.0F;
  a.at({2, 2}) = 2.0F;
  const EigenResult eig = sym_eigen(a);
  EXPECT_NEAR(eig.eigenvalues[0], -1.0, 1e-6);
  EXPECT_NEAR(eig.eigenvalues[1], 2.0, 1e-6);
  EXPECT_NEAR(eig.eigenvalues[2], 3.0, 1e-6);
}

TEST(Eigen, Known2x2) {
  // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
  Tensor a({2, 2}, std::vector<float>{2, 1, 1, 2});
  const EigenResult eig = sym_eigen(a);
  EXPECT_NEAR(eig.eigenvalues[0], 1.0, 1e-6);
  EXPECT_NEAR(eig.eigenvalues[1], 3.0, 1e-6);
}

TEST(Eigen, ReconstructionAndOrthogonality) {
  Rng rng(7);
  const std::int64_t n = 24;
  const Tensor a = random_symmetric(n, rng);
  const EigenResult eig = sym_eigen(a);

  // V diag(e) Vᵀ must reconstruct A.
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = i; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t k = 0; k < n; ++k) {
        acc += static_cast<double>(eig.eigenvectors.at({i, k})) * eig.eigenvalues[k] *
               eig.eigenvectors.at({j, k});
      }
      EXPECT_NEAR(acc, a.at({i, j}), 1e-4) << i << "," << j;
    }
  }
  // Columns are orthonormal.
  for (std::int64_t c1 = 0; c1 < n; ++c1) {
    for (std::int64_t c2 = c1; c2 < n; ++c2) {
      double acc = 0.0;
      for (std::int64_t r = 0; r < n; ++r) {
        acc += static_cast<double>(eig.eigenvectors.at({r, c1})) * eig.eigenvectors.at({r, c2});
      }
      EXPECT_NEAR(acc, c1 == c2 ? 1.0 : 0.0, 1e-6);
    }
  }
}

TEST(Eigen, EigenvaluesAscending) {
  Rng rng(9);
  const EigenResult eig = sym_eigen(random_symmetric(16, rng));
  for (std::int64_t k = 1; k < 16; ++k) {
    EXPECT_LE(eig.eigenvalues[k - 1], eig.eigenvalues[k]);
  }
}

TEST(Psd, ProjectionOfPsdMatrixIsIdentityOp) {
  Rng rng(11);
  const Tensor a = random_psd(10, rng);
  const Tensor p = psd_projection(a);
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_NEAR(p[i], a[i], 1e-3 * std::max(1.0, std::abs(static_cast<double>(a[i]))));
  }
}

TEST(Psd, ProjectionClampsNegativeEigenvalues) {
  Rng rng(13);
  const Tensor a = random_symmetric(12, rng);
  ASSERT_LT(min_eigenvalue(a), 0.0);  // random symmetric: essentially certain
  const Tensor p = psd_projection(a);
  EXPECT_GT(min_eigenvalue(p), -1e-4);
}

TEST(Psd, ProjectionIsIdempotent) {
  Rng rng(17);
  const Tensor a = random_symmetric(8, rng);
  const Tensor p1 = psd_projection(a);
  const Tensor p2 = psd_projection(p1);
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_NEAR(p1[i], p2[i], 1e-4);
}

TEST(Psd, QuadraticFormNonNegativeAfterProjection) {
  Rng rng(19);
  const Tensor p = psd_projection(random_symmetric(15, rng));
  for (int trial = 0; trial < 20; ++trial) {
    const Tensor x = Tensor::randn({15}, rng);
    EXPECT_GE(quad_form(p, x.flat()), -1e-4);
  }
}

TEST(Cholesky, Factorizes) {
  Rng rng(23);
  const std::int64_t n = 9;
  Tensor a = random_psd(n, rng);
  for (std::int64_t i = 0; i < n; ++i) a.at({i, i}) += 1.0F;  // make PD
  const auto l = cholesky(a);
  ASSERT_TRUE(l.has_value());
  // L Lᵀ == A.
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j <= i; ++j) {
      double acc = 0.0;
      for (std::int64_t k = 0; k <= j; ++k) {
        acc += static_cast<double>(l->at({i, k})) * l->at({j, k});
      }
      EXPECT_NEAR(acc, a.at({i, j}), 1e-3);
    }
  }
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  Tensor a({2, 2}, std::vector<float>{1, 2, 2, 1});  // eigenvalues 3, −1
  EXPECT_FALSE(cholesky(a).has_value());
}

TEST(Cholesky, CertifiesPsdProjection) {
  // After projection + small jitter the matrix must admit a Cholesky
  // factorization — the certificate the IQP solver relies on.
  Rng rng(29);
  const Tensor p = psd_projection(random_symmetric(20, rng));
  EXPECT_TRUE(cholesky(p, /*jitter=*/1e-4).has_value());
}

}  // namespace
}  // namespace clado::linalg
