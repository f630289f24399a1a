#include "tensor/tensor.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace pooch {

Tensor::Tensor(Shape shape, DType dtype)
    : shape_(std::move(shape)), dtype_(dtype) {
  POOCH_CHECK_MSG(dtype_ == DType::kF32,
                  "only f32 tensors carry data in this build");
  materialize();
}

Tensor Tensor::view(Shape shape, float* data) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_ = data;
  return t;
}

Tensor::Tensor(const Tensor& other)
    : shape_(other.shape_), dtype_(other.dtype_) {
  if (other.data_ != nullptr) {
    storage_.assign(other.data_, other.data_ + other.numel());
    data_ = storage_.empty() ? nullptr : storage_.data();
  }
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this != &other) *this = Tensor(other);
  return *this;
}

// A moved vector keeps its buffer, so data_ stays valid for owned storage.
Tensor::Tensor(Tensor&& other) noexcept
    : shape_(std::move(other.shape_)),
      dtype_(other.dtype_),
      storage_(std::move(other.storage_)),
      data_(std::exchange(other.data_, nullptr)) {}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  shape_ = std::move(other.shape_);
  dtype_ = other.dtype_;
  storage_ = std::move(other.storage_);
  data_ = std::exchange(other.data_, nullptr);
  return *this;
}

float Tensor::at(std::int64_t i) const {
  POOCH_CHECK_MSG(i >= 0 && i < numel(),
                  "index " << i << " out of range " << numel());
  return data_[i];
}

std::int64_t Tensor::index4(std::int64_t a, std::int64_t b, std::int64_t c,
                            std::int64_t d) const {
  POOCH_CHECK(shape_.rank() == 4);
  return ((a * shape_[1] + b) * shape_[2] + c) * shape_[3] + d;
}

std::int64_t Tensor::index5(std::int64_t a, std::int64_t b, std::int64_t c,
                            std::int64_t d, std::int64_t e) const {
  POOCH_CHECK(shape_.rank() == 5);
  return (((a * shape_[1] + b) * shape_[2] + c) * shape_[3] + d) * shape_[4] +
         e;
}

void Tensor::fill(float value) {
  if (data_ != nullptr) std::fill(data_, data_ + numel(), value);
}

void Tensor::view_at(float* data) {
  release();
  data_ = data;
}

void Tensor::release() {
  storage_.clear();
  storage_.shrink_to_fit();
  data_ = nullptr;
}

void Tensor::materialize() {
  storage_.assign(static_cast<std::size_t>(shape_.numel()), 0.0f);
  data_ = storage_.empty() ? nullptr : storage_.data();
}

}  // namespace pooch
