/// \file small_vec.hpp
/// \brief Small-buffer vector for trivially-copyable elements.
///
/// `SmallVec<T, N>` stores up to N elements inline and spills to the heap
/// beyond that. The DP witness (`DpWitness::chunk_first`, one entry per
/// layer-pair in the prefix) rides in every RankResult and is rewritten on
/// every solve; with the paper-scale stacks (<= 14 pairs) the inline buffer
/// keeps that and every copy of the result allocation-free, which the
/// steady-state zero-allocation contract (DESIGN.md Section 10.6) depends
/// on.

#pragma once

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <type_traits>

namespace iarank::util {

template <typename T, std::size_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(N >= 1);

 public:
  SmallVec() = default;

  SmallVec(const SmallVec& other) { assign_raw(other.data(), other.size_); }

  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) assign_raw(other.data(), other.size_);
    return *this;
  }

  SmallVec(SmallVec&& other) noexcept {
    steal(other);
  }

  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      if (heap_ != nullptr) std::free(heap_);
      heap_ = nullptr;
      cap_ = N;
      steal(other);
    }
    return *this;
  }

  ~SmallVec() {
    if (heap_ != nullptr) std::free(heap_);
  }

  void assign(std::size_t n, const T& value) {
    reserve(n);
    T* d = data();
    for (std::size_t i = 0; i < n; ++i) d[i] = value;
    size_ = n;
  }

  void resize(std::size_t n) {
    reserve(n);
    T* d = data();
    for (std::size_t i = size_; i < n; ++i) d[i] = T{};
    size_ = n;
  }

  void reserve(std::size_t n) {
    if (n <= cap_) return;
    std::size_t want = cap_ * 2;
    if (want < n) want = n;
    T* fresh = static_cast<T*>(std::malloc(want * sizeof(T)));
    if (fresh == nullptr) throw std::bad_alloc();
    if (size_ > 0) std::memcpy(fresh, data(), size_ * sizeof(T));
    if (heap_ != nullptr) std::free(heap_);
    heap_ = fresh;
    cap_ = want;
  }

  void push_back(const T& v) {
    if (size_ == cap_) reserve(size_ + 1);
    data()[size_++] = v;
  }

  void clear() { size_ = 0; }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] T* data() { return heap_ != nullptr ? heap_ : inline_; }
  [[nodiscard]] const T* data() const {
    return heap_ != nullptr ? heap_ : inline_;
  }
  [[nodiscard]] T& operator[](std::size_t i) { return data()[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data()[i]; }
  [[nodiscard]] T& front() { return data()[0]; }
  [[nodiscard]] const T& front() const { return data()[0]; }
  [[nodiscard]] T& back() { return data()[size_ - 1]; }
  [[nodiscard]] const T& back() const { return data()[size_ - 1]; }
  [[nodiscard]] T* begin() { return data(); }
  [[nodiscard]] T* end() { return data() + size_; }
  [[nodiscard]] const T* begin() const { return data(); }
  [[nodiscard]] const T* end() const { return data() + size_; }

  friend bool operator==(const SmallVec& a, const SmallVec& b) {
    if (a.size_ != b.size_) return false;
    const T* pa = a.data();
    const T* pb = b.data();
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (!(pa[i] == pb[i])) return false;
    }
    return true;
  }

 private:
  void assign_raw(const T* src, std::size_t n) {
    reserve(n);
    if (n > 0) std::memcpy(data(), src, n * sizeof(T));
    size_ = n;
  }

  void steal(SmallVec& other) noexcept {
    if (other.heap_ != nullptr) {
      heap_ = other.heap_;
      cap_ = other.cap_;
      size_ = other.size_;
      other.heap_ = nullptr;
      other.cap_ = N;
      other.size_ = 0;
    } else {
      if (other.size_ > 0) {
        std::memcpy(inline_, other.inline_, other.size_ * sizeof(T));
      }
      size_ = other.size_;
      other.size_ = 0;
    }
  }

  T inline_[N] = {};
  T* heap_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = N;
};

}  // namespace iarank::util
