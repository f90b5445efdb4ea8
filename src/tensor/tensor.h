// A small dense float tensor.
//
// Design notes (see DESIGN.md §3):
//  * contiguous row-major storage, value semantics (copies are deep);
//  * shapes are vectors of positive extents; rank 0 = scalar is not used,
//    an empty tensor has numel() == 0;
//  * all heavy math lives in ops.h as free functions so the class stays a
//    plain data container with bounds-checked (debug) element access.
#pragma once

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace stepping {

class Tensor {
 public:
  Tensor() = default;

  /// Construct zero-filled with the given shape. All extents must be > 0.
  explicit Tensor(std::vector<int> shape);
  Tensor(std::initializer_list<int> shape);

  /// Construct from shape + data (data.size() must equal numel).
  Tensor(std::vector<int> shape, std::vector<float> data);

  const std::vector<int>& shape() const { return shape_; }
  int dim(int i) const {
    assert(i >= 0 && i < rank());
    return shape_[static_cast<std::size_t>(i)];
  }
  int rank() const { return static_cast<int>(shape_.size()); }
  std::int64_t numel() const { return static_cast<std::int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }

  /// Never null: an empty tensor's data() points at zero readable floats
  /// (a shared slot that must not be written), so a memcpy or memcmp of
  /// numel() floats is defined for every tensor — a ladder state keeps
  /// empty entries inside fused stages (core/incremental.h). The slot is
  /// defined out of line: a one-float object the compiler can see lets
  /// gcc 12 flag a loop over a tensor it cannot prove non-empty with
  /// -Warray-bounds.
  float* data() { return data_.empty() ? empty_slot() : data_.data(); }
  const float* data() const {
    return data_.empty() ? empty_slot() : data_.data();
  }

  float& operator[](std::int64_t i) {
    assert(i >= 0 && i < numel());
    return data_[static_cast<std::size_t>(i)];
  }
  float operator[](std::int64_t i) const {
    assert(i >= 0 && i < numel());
    return data_[static_cast<std::size_t>(i)];
  }

  /// 2-D element access (row-major). Requires rank() == 2.
  float& at(int r, int c) {
    assert(rank() == 2);
    return data_[static_cast<std::size_t>(r) * shape_[1] + c];
  }
  float at(int r, int c) const {
    assert(rank() == 2);
    return data_[static_cast<std::size_t>(r) * shape_[1] + c];
  }

  /// 4-D element access (NCHW). Requires rank() == 4.
  float& at(int n, int c, int h, int w) {
    assert(rank() == 4);
    return data_[offset4(n, c, h, w)];
  }
  float at(int n, int c, int h, int w) const {
    assert(rank() == 4);
    return data_[offset4(n, c, h, w)];
  }

  void fill(float v);
  void zero() { fill(0.0f); }

  /// Reinterpret with a new shape of equal numel; returns a copy of the
  /// metadata sharing no storage (data is copied — tensors are values).
  Tensor reshaped(std::vector<int> new_shape) const;

  /// In-place metadata-only reshape (numel must match).
  void reshape_inplace(std::vector<int> new_shape);

  /// Sum of all elements.
  double sum() const;

  /// Index of the max element (first on ties). Requires numel() > 0.
  std::int64_t argmax() const;

  /// "[2, 3, 4]" style shape string for diagnostics.
  std::string shape_str() const;

  static std::int64_t numel_of(const std::vector<int>& shape);

 private:
  std::size_t offset4(int n, int c, int h, int w) const {
    const std::size_t C = static_cast<std::size_t>(shape_[1]);
    const std::size_t H = static_cast<std::size_t>(shape_[2]);
    const std::size_t W = static_cast<std::size_t>(shape_[3]);
    return ((static_cast<std::size_t>(n) * C + static_cast<std::size_t>(c)) * H +
            static_cast<std::size_t>(h)) *
               W +
           static_cast<std::size_t>(w);
  }

  static float* empty_slot();

  std::vector<int> shape_;
  std::vector<float> data_;
};

}  // namespace stepping
