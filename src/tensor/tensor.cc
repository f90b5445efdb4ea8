#include "tensor/tensor.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace stepping {

float* Tensor::empty_slot() {
  static float slot = 0.0f;
  return &slot;
}

std::int64_t Tensor::numel_of(const std::vector<int>& shape) {
  std::int64_t n = 1;
  for (const int d : shape) {
    if (d <= 0) throw std::invalid_argument("Tensor: non-positive extent");
    n *= d;
  }
  return shape.empty() ? 0 : n;
}

Tensor::Tensor(std::vector<int> shape) : shape_(std::move(shape)) {
  data_.assign(static_cast<std::size_t>(numel_of(shape_)), 0.0f);
}

Tensor::Tensor(std::initializer_list<int> shape) : Tensor(std::vector<int>(shape)) {}

Tensor::Tensor(std::vector<int> shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  if (numel_of(shape_) != static_cast<std::int64_t>(data_.size())) {
    throw std::invalid_argument("Tensor: shape/data size mismatch");
  }
}

void Tensor::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

Tensor Tensor::reshaped(std::vector<int> new_shape) const {
  Tensor t = *this;
  t.reshape_inplace(std::move(new_shape));
  return t;
}

void Tensor::reshape_inplace(std::vector<int> new_shape) {
  if (numel_of(new_shape) != numel()) {
    throw std::invalid_argument("Tensor::reshape: numel mismatch");
  }
  shape_ = std::move(new_shape);
}

double Tensor::sum() const {
  double s = 0.0;
  for (const float v : data_) s += v;
  return s;
}

std::int64_t Tensor::argmax() const {
  assert(numel() > 0);
  return std::max_element(data_.begin(), data_.end()) - data_.begin();
}

std::string Tensor::shape_str() const {
  std::ostringstream ss;
  ss << "[";
  for (int i = 0; i < rank(); ++i) {
    if (i > 0) ss << ", ";
    ss << shape_[static_cast<std::size_t>(i)];
  }
  ss << "]";
  return ss.str();
}

}  // namespace stepping
