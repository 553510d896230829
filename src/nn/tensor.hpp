#pragma once
// Dense row-major float tensor over ref-counted shared Storage. This is the
// storage type underneath the autograd engine (nn/autograd.hpp); it
// deliberately supports only what the paper's models need: elementwise math,
// 2D matmul, and NCHW image ops.
//
// Memory model (see docs/performance.md, "Memory model"):
//   - A Tensor is (shared_ptr<Storage>, offset, numel, shape). Copies,
//     `reshaped()`, `detach()`, and `flat_slice()` alias the same buffer in
//     O(1) — no element traffic.
//   - Mutation goes through copy-on-write: every non-const accessor calls
//     ensure_unique(), which clones this tensor's range iff the storage is
//     shared. Value semantics are therefore preserved exactly — writers
//     never observe each other — while read-only copies stay free.
//   - clone() forces an independent deep copy up front (for callers that
//     will mutate in a loop and want the COW check out of the way, or that
//     need a snapshot divorced from any future aliasing).
//   - Buffers come from util::Arena, so repeated allocation of the same
//     shapes across DCO iterations is free-list reuse, and peak live bytes
//     show up in the arena statistics.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "util/arena.hpp"

namespace dco3d::nn {

/// Shape of a tensor; up to 4 dimensions are used in practice (NCHW).
using Shape = std::vector<std::int64_t>;

inline std::int64_t shape_numel(const Shape& s) {
  std::int64_t n = 1;
  for (auto d : s) {
    assert(d >= 0);
    n *= d;
  }
  return n;
}

inline std::string shape_str(const Shape& s) {
  std::string out = "[";
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(s[i]);
  }
  return out + "]";
}

/// Flat float buffer drawn from the arena. Shared between tensor aliases via
/// shared_ptr; the use_count is the COW sharing test.
class Storage {
 public:
  explicit Storage(std::int64_t n) : size_(n) {
    data_ = static_cast<float*>(
        util::Arena::instance().acquire(static_cast<std::size_t>(n) * sizeof(float)));
  }
  ~Storage() {
    util::Arena::instance().release(data_, static_cast<std::size_t>(size_) * sizeof(float));
  }
  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  float* data() { return data_; }
  const float* data() const { return data_; }
  std::int64_t size() const { return size_; }

 private:
  float* data_ = nullptr;
  std::int64_t size_ = 0;
};

class Tensor {
 public:
  Tensor() = default;

  explicit Tensor(Shape shape, float fill = 0.0f) : shape_(std::move(shape)) {
    numel_ = shape_numel(shape_);
    storage_ = std::make_shared<Storage>(numel_);
    std::fill_n(storage_->data(), numel_, fill);
  }

  Tensor(Shape shape, const std::vector<float>& data) : shape_(std::move(shape)) {
    numel_ = shape_numel(shape_);
    assert(static_cast<std::int64_t>(data.size()) == numel_);
    storage_ = std::make_shared<Storage>(numel_);
    std::copy(data.begin(), data.end(), storage_->data());
  }

  Tensor(Shape shape, std::initializer_list<float> data)
      : Tensor(std::move(shape), std::vector<float>(data)) {}

  static Tensor scalar(float v) { return Tensor({1}, {v}); }

  // Copies and moves alias the same storage; divergence happens lazily at
  // the first mutation (ensure_unique).
  Tensor(const Tensor&) = default;
  Tensor(Tensor&&) = default;
  Tensor& operator=(const Tensor&) = default;
  Tensor& operator=(Tensor&&) = default;

  const Shape& shape() const { return shape_; }
  std::int64_t dim(std::size_t i) const {
    assert(i < shape_.size());
    return shape_[i];
  }
  std::size_t rank() const { return shape_.size(); }
  std::int64_t numel() const { return numel_; }
  bool empty() const { return numel_ == 0; }

  std::span<float> data() {
    ensure_unique();
    return {raw(), static_cast<std::size_t>(numel_)};
  }
  std::span<const float> data() const {
    return {raw(), static_cast<std::size_t>(numel_)};
  }

  float& operator[](std::int64_t i) {
    assert(i >= 0 && i < numel_);
    ensure_unique();
    return raw()[i];
  }
  float operator[](std::int64_t i) const {
    assert(i >= 0 && i < numel_);
    return raw()[i];
  }

  /// 2D indexed access (rank-2 tensors).
  float& at(std::int64_t r, std::int64_t c) {
    assert(rank() == 2);
    ensure_unique();
    return raw()[r * shape_[1] + c];
  }
  float at(std::int64_t r, std::int64_t c) const {
    assert(rank() == 2);
    return raw()[r * shape_[1] + c];
  }

  /// 4D indexed access (NCHW tensors).
  float& at(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) {
    assert(rank() == 4);
    ensure_unique();
    return raw()[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
  }
  float at(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) const {
    assert(rank() == 4);
    return raw()[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
  }

  void fill(float v) {
    if (numel_ == 0) return;
    // A shared buffer gets a fresh one instead of a clone — the old contents
    // are about to be overwritten anyway.
    if (storage_.use_count() > 1) {
      storage_ = std::make_shared<Storage>(numel_);
      offset_ = 0;
    }
    std::fill_n(raw(), numel_, v);
  }

  /// Reinterpret with a new shape of identical element count. O(1): the
  /// result aliases this tensor's storage (COW protects both sides).
  Tensor reshaped(Shape new_shape) const& {
    assert(shape_numel(new_shape) == numel_);
    Tensor t(*this);
    t.shape_ = std::move(new_shape);
    return t;
  }
  Tensor reshaped(Shape new_shape) && {
    assert(shape_numel(new_shape) == numel_);
    Tensor t(std::move(*this));
    t.shape_ = std::move(new_shape);
    return t;
  }

  /// O(1) view of `n = shape_numel(view_shape)` elements starting at flat
  /// index `offset`. Shares storage; COW on either side copies only that
  /// side's range.
  Tensor flat_slice(std::int64_t offset, Shape view_shape) const {
    const std::int64_t n = shape_numel(view_shape);
    assert(offset >= 0 && offset + n <= numel_);
    Tensor t;
    t.storage_ = storage_;
    t.offset_ = offset_ + offset;
    t.numel_ = n;
    t.shape_ = std::move(view_shape);
    return t;
  }

  /// Deep copy with exclusively owned storage.
  Tensor clone() const {
    Tensor t;
    t.shape_ = shape_;
    t.numel_ = numel_;
    if (numel_ > 0) {
      t.storage_ = std::make_shared<Storage>(numel_);
      std::memcpy(t.storage_->data(), raw(), static_cast<std::size_t>(numel_) * sizeof(float));
    }
    return t;
  }

  /// Drop the storage reference (tape reclamation). Leaves an empty tensor.
  void reset() { *this = Tensor(); }

  /// True if both tensors read the same underlying buffer (test helper).
  bool aliases(const Tensor& o) const {
    return storage_ && storage_ == o.storage_;
  }

  bool same_shape(const Tensor& o) const { return shape_ == o.shape_; }

 private:
  float* raw() { return storage_ ? storage_->data() + offset_ : nullptr; }
  const float* raw() const { return storage_ ? storage_->data() + offset_ : nullptr; }

  /// Clone this tensor's range iff the buffer is shared with another alias.
  void ensure_unique() {
    if (storage_ && storage_.use_count() > 1) {
      auto fresh = std::make_shared<Storage>(numel_);
      std::memcpy(fresh->data(), raw(), static_cast<std::size_t>(numel_) * sizeof(float));
      storage_ = std::move(fresh);
      offset_ = 0;
    }
  }

  std::shared_ptr<Storage> storage_;
  std::int64_t offset_ = 0;
  std::int64_t numel_ = 0;
  Shape shape_;
};

}  // namespace dco3d::nn
