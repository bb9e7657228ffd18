// Dense float32 tensor with value semantics.
//
// The engine is deliberately simple: tensors are always contiguous and
// row-major. This keeps every kernel in the NN engine branch-free and easy
// to verify, which matters more than generality for a reproduction whose
// models are small.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "clado/tensor/rng.h"

namespace clado::tensor {

using Shape = std::vector<std::int64_t>;

/// Process-wide count of heap blocks acquired for tensor storage. Counting
/// is active only in CLADO_CHECK builds (Debug / sanitizers /
/// -DCLADO_ENABLE_CHECKS); plain Release builds compile the hook out and
/// the count stays 0. The serving plan's zero-allocation contract is
/// asserted as a delta of this counter across steady-state batches.
std::int64_t alloc_count();

/// Whether this build counts tensor allocations; tests gate their
/// zero-alloc assertions on it instead of passing vacuously in Release.
bool alloc_counting_enabled();

namespace detail {

void note_tensor_alloc();

/// std::allocator<T> plus the allocation-counting hook; stateless, so all
/// instances compare equal and vectors swap/move storage freely.
template <typename T>
struct CountingAllocator {
  using value_type = T;

  CountingAllocator() = default;
  template <typename U>
  CountingAllocator(const CountingAllocator<U>&) {}  // NOLINT(google-explicit-constructor)

  T* allocate(std::size_t n) {
#if defined(CLADO_ENABLE_CHECKS) || !defined(NDEBUG)
    note_tensor_alloc();
#endif
    return std::allocator<T>{}.allocate(n);
  }
  void deallocate(T* p, std::size_t n) { std::allocator<T>{}.deallocate(p, n); }

  friend bool operator==(const CountingAllocator&, const CountingAllocator&) { return true; }
};

}  // namespace detail

/// Tensor's storage vector type. Build hot-path payloads in one of these and
/// hand it to Tensor(Shape, FloatBuffer) to adopt the storage without a copy
/// (std::vector<float> cannot be moved into the counting allocator's vector).
using FloatBuffer = std::vector<float, detail::CountingAllocator<float>>;

/// Contiguous row-major float tensor. Copyable (deep) and movable.
class Tensor {
 public:
  /// Empty 0-d tensor.
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor of the given shape with every element set to `fill`.
  Tensor(Shape shape, float fill);

  /// Tensor wrapping a copy of `values`; values.size() must equal the
  /// product of `shape`.
  Tensor(Shape shape, std::vector<float> values);

  /// Tensor adopting `values` as its storage (no copy); values.size() must
  /// equal the product of `shape`.
  Tensor(Shape shape, FloatBuffer values);

  // -- factories ------------------------------------------------------------
  static Tensor ones(Shape shape);
  static Tensor full(Shape shape, float value);
  /// iid N(0, stddev^2).
  static Tensor randn(Shape shape, Rng& rng, float stddev = 1.0F);
  /// iid U[lo, hi).
  static Tensor uniform(Shape shape, Rng& rng, float lo = 0.0F, float hi = 1.0F);

  // -- metadata ---------------------------------------------------------------
  const Shape& shape() const { return shape_; }
  std::int64_t dim() const { return static_cast<std::int64_t>(shape_.size()); }
  std::int64_t size(std::int64_t axis) const;
  std::int64_t numel() const { return static_cast<std::int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }

  // -- raw access ---------------------------------------------------------
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> flat() { return {data_.data(), data_.size()}; }
  std::span<const float> flat() const { return {data_.data(), data_.size()}; }
  float& operator[](std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
  float operator[](std::int64_t i) const { return data_[static_cast<std::size_t>(i)]; }

  /// Element access by multi-index (bounds-checked in debug builds).
  float& at(std::initializer_list<std::int64_t> idx);
  float at(std::initializer_list<std::int64_t> idx) const;

  // -- shape manipulation ---------------------------------------------------
  /// Returns a tensor with the same data and a new shape; the element count
  /// must match. One axis may be -1 and is inferred.
  Tensor reshape(Shape new_shape) const;
  /// Reshape in place (no data movement).
  void reshape_inplace(Shape new_shape);

  // -- elementwise arithmetic (shapes must match exactly) --------------------
  Tensor& operator+=(const Tensor& rhs);
  Tensor& operator-=(const Tensor& rhs);
  Tensor& operator*=(const Tensor& rhs);
  Tensor& operator+=(float s);
  Tensor& operator*=(float s);
  friend Tensor operator+(Tensor lhs, const Tensor& rhs) { return lhs += rhs; }
  friend Tensor operator-(Tensor lhs, const Tensor& rhs) { return lhs -= rhs; }
  friend Tensor operator*(Tensor lhs, const Tensor& rhs) { return lhs *= rhs; }
  friend Tensor operator*(Tensor lhs, float s) { return lhs *= s; }
  friend Tensor operator*(float s, Tensor rhs) { return rhs *= s; }

  // -- reductions -------------------------------------------------------------
  float sum() const;
  float mean() const;
  float min() const;
  float max() const;
  /// Sum of squared elements.
  float sq_norm() const;
  /// Index of the maximum element (first on ties).
  std::int64_t argmax() const;

  void fill(float value);

  /// Human-readable shape, e.g. "[2, 3, 4]".
  std::string shape_str() const;

 private:
  Shape shape_;
  FloatBuffer data_;
};

/// Throws std::invalid_argument unless both shapes are identical.
void check_same_shape(const Tensor& a, const Tensor& b, const char* what);

/// Product of dims; throws on negative entries (except the -1 reshape wildcard,
/// which is rejected here — resolve it before calling).
std::int64_t shape_numel(const Shape& shape);

}  // namespace clado::tensor
