#include "clado/tensor/tensor.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "clado/tensor/check.h"

namespace clado::tensor {

namespace detail {

namespace {
std::atomic<std::int64_t> g_tensor_allocs{0};
}  // namespace

void note_tensor_alloc() { g_tensor_allocs.fetch_add(1, std::memory_order_relaxed); }

}  // namespace detail

std::int64_t alloc_count() {
  return detail::g_tensor_allocs.load(std::memory_order_relaxed);
}

bool alloc_counting_enabled() {
#if defined(CLADO_ENABLE_CHECKS) || !defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

std::int64_t shape_numel(const Shape& shape) {
  std::int64_t n = 1;
  for (std::int64_t d : shape) {
    if (d < 0) throw std::invalid_argument("shape_numel: negative dimension");
    n *= d;
  }
  return n;
}

void check_same_shape(const Tensor& a, const Tensor& b, const char* what) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument(std::string(what) + ": shape mismatch " + a.shape_str() +
                                " vs " + b.shape_str());
  }
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(static_cast<std::size_t>(shape_numel(shape_)), 0.0F) {}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)), data_(static_cast<std::size_t>(shape_numel(shape_)), fill) {}

// Allocator types differ, so this overload is a single sized copy pass; hot
// paths hand over a FloatBuffer instead (below) and pay no copy at all.
Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)), data_(values.begin(), values.end()) {
  if (static_cast<std::int64_t>(data_.size()) != shape_numel(shape_)) {
    throw std::invalid_argument("Tensor: values size does not match shape " + shape_str());
  }
}

Tensor::Tensor(Shape shape, FloatBuffer values)
    : shape_(std::move(shape)), data_(std::move(values)) {
  if (static_cast<std::int64_t>(data_.size()) != shape_numel(shape_)) {
    throw std::invalid_argument("Tensor: values size does not match shape " + shape_str());
  }
}

Tensor Tensor::ones(Shape shape) { return Tensor(std::move(shape), 1.0F); }
Tensor Tensor::full(Shape shape, float value) { return Tensor(std::move(shape), value); }

Tensor Tensor::randn(Shape shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = static_cast<float>(rng.normal()) * stddev;
  return t;
}

Tensor Tensor::uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

std::int64_t Tensor::size(std::int64_t axis) const {
  if (axis < 0) axis += dim();
  if (axis < 0 || axis >= dim()) throw std::out_of_range("Tensor::size: axis out of range");
  return shape_[static_cast<std::size_t>(axis)];
}

namespace {

std::int64_t flat_offset(const Shape& shape, std::initializer_list<std::int64_t> idx) {
  CLADO_CHECK(idx.size() == shape.size(), "Tensor::at: index rank must match tensor rank");
  std::int64_t offset = 0;
  std::size_t axis = 0;
  for (std::int64_t i : idx) {
    CLADO_CHECK(i >= 0 && i < shape[axis], "Tensor::at: index out of bounds");
    offset = offset * shape[axis] + i;
    ++axis;
  }
  return offset;
}

}  // namespace

float& Tensor::at(std::initializer_list<std::int64_t> idx) {
  return data_[static_cast<std::size_t>(flat_offset(shape_, idx))];
}

float Tensor::at(std::initializer_list<std::int64_t> idx) const {
  return data_[static_cast<std::size_t>(flat_offset(shape_, idx))];
}

Tensor Tensor::reshape(Shape new_shape) const {
  Tensor out = *this;
  out.reshape_inplace(std::move(new_shape));
  return out;
}

void Tensor::reshape_inplace(Shape new_shape) {
  // Resolve a single -1 wildcard.
  std::int64_t known = 1;
  std::int64_t wildcard = -1;
  for (std::size_t i = 0; i < new_shape.size(); ++i) {
    if (new_shape[i] == -1) {
      if (wildcard != -1) throw std::invalid_argument("reshape: multiple -1 dims");
      wildcard = static_cast<std::int64_t>(i);
    } else {
      known *= new_shape[i];
    }
  }
  if (wildcard != -1) {
    if (known == 0 || numel() % known != 0) {
      throw std::invalid_argument("reshape: cannot infer -1 dim");
    }
    new_shape[static_cast<std::size_t>(wildcard)] = numel() / known;
  }
  if (shape_numel(new_shape) != numel()) {
    throw std::invalid_argument("reshape: element count mismatch");
  }
  shape_ = std::move(new_shape);
}

Tensor& Tensor::operator+=(const Tensor& rhs) {
  check_same_shape(*this, rhs, "operator+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& rhs) {
  check_same_shape(*this, rhs, "operator-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(const Tensor& rhs) {
  check_same_shape(*this, rhs, "operator*=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator+=(float s) {
  for (auto& v : data_) v += s;
  return *this;
}

Tensor& Tensor::operator*=(float s) {
  for (auto& v : data_) v *= s;
  return *this;
}

float Tensor::sum() const {
  // Kahan summation: sensitivity measurements subtract nearly equal losses,
  // so reductions need better than naive accumulation.
  double acc = 0.0;
  double comp = 0.0;
  for (float v : data_) {
    const double y = static_cast<double>(v) - comp;
    const double t = acc + y;
    comp = (t - acc) - y;
    acc = t;
  }
  return static_cast<float>(acc);
}

float Tensor::mean() const {
  if (data_.empty()) return 0.0F;
  return sum() / static_cast<float>(data_.size());
}

float Tensor::min() const {
  if (data_.empty()) throw std::logic_error("Tensor::min on empty tensor");
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
  if (data_.empty()) throw std::logic_error("Tensor::max on empty tensor");
  return *std::max_element(data_.begin(), data_.end());
}

float Tensor::sq_norm() const {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return static_cast<float>(acc);
}

std::int64_t Tensor::argmax() const {
  if (data_.empty()) throw std::logic_error("Tensor::argmax on empty tensor");
  return static_cast<std::int64_t>(
      std::distance(data_.begin(), std::max_element(data_.begin(), data_.end())));
}

void Tensor::fill(float value) { std::fill(data_.begin(), data_.end(), value); }

std::string Tensor::shape_str() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) os << ", ";
    os << shape_[i];
  }
  os << ']';
  return os.str();
}

}  // namespace clado::tensor
