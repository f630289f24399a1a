// A dense row-major CPU tensor: either owning its storage or a
// non-owning view of memory that lives elsewhere.
//
// This is the numeric substrate standing in for Chainer's GPU arrays. The
// data backend keeps every feature map and gradient as a view into one
// device slab, at the offset the simulated arena placed it, and runs real
// kernels on them, so swap/recompute correctness is checked against
// actual numbers in the plan's own memory layout.
//
// Copying any tensor, view or not, makes an owning deep copy; moving
// transfers the storage or the view.
//
// Storage is always float32; `dtype` is carried for size accounting (the
// timing-only simulation never allocates a Tensor at all).
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/dtype.hpp"
#include "tensor/shape.hpp"

namespace pooch {

class Tensor {
 public:
  Tensor() = default;
  /// Owning, zero-filled.
  explicit Tensor(Shape shape, DType dtype = DType::kF32);

  /// A non-owning view of `shape.numel()` floats at `data`, which must
  /// outlive every use of the view; null leaves the view unbound (empty).
  static Tensor view(Shape shape, float* data);

  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(Tensor&& other) noexcept;
  ~Tensor() = default;

  const Shape& shape() const { return shape_; }
  DType dtype() const { return dtype_; }
  std::int64_t numel() const { return shape_.numel(); }
  std::size_t byte_size() const {
    return static_cast<std::size_t>(numel()) * dtype_size(dtype_);
  }
  bool empty() const { return data_ == nullptr; }

  float* data() { return data_; }
  const float* data() const { return data_; }

  float& operator[](std::int64_t i) { return data_[i]; }
  float operator[](std::int64_t i) const { return data_[i]; }

  /// Bounds-checked element access (linear index); for tests.
  float at(std::int64_t i) const;

  /// Multi-dimensional index helpers for the common ranks.
  std::int64_t index4(std::int64_t a, std::int64_t b, std::int64_t c,
                      std::int64_t d) const;
  std::int64_t index5(std::int64_t a, std::int64_t b, std::int64_t c,
                      std::int64_t d, std::int64_t e) const;

  void fill(float value);
  void zero() { fill(0.0f); }

  /// Become a view of `data` (see view()), keeping the shape; owned
  /// storage is released. Allocates nothing.
  void view_at(float* data);

  /// Release storage (or drop the view) but remember the shape (models a
  /// discarded feature map whose metadata survives).
  void release();

  /// Re-allocate owned storage after release(); contents are zero.
  void materialize();

  bool materialized() const { return data_ != nullptr || numel() == 0; }

 private:
  Shape shape_;
  DType dtype_ = DType::kF32;
  std::vector<float> storage_;  // owned elements; empty for a view
  float* data_ = nullptr;       // storage_'s elements or the viewed memory
};

}  // namespace pooch
