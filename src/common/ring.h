// A FIFO over one power-of-two circular buffer, for the datapath's
// queues (PCIe root complex, NIC input and completion queues, IOMMU
// walk queue, rx-thread backlog).
//
// `std::deque` allocates and frees a chunk every few hundred elements
// as a queue slides through it, so a steady stream through a short
// queue still costs a malloc/free pair per chunk. A Ring doubles its
// buffer when a push finds it full and never shrinks, so it grows to
// the queue's high-water mark once and then recycles the same storage
// forever. Elements are constructed on push and destroyed on pop, as
// in a deque, so move-only types (InlineCallback captures) work.
// hicc-lint: hotpath -- steady state must stay allocation-free (DESIGN.md §8).
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace hicc {

template <typename T>
class Ring {
 public:
  Ring() = default;
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;
  ~Ring() {
    clear();
    if (buf_ != nullptr) std::allocator<T>{}.deallocate(buf_, cap_);
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Slots allocated: 0, then a power of two that only ever doubles.
  [[nodiscard]] std::size_t capacity() const { return cap_; }

  /// The i-th element from the front (0 = front()).
  [[nodiscard]] T& operator[](std::size_t i) { return buf_[(head_ + i) & (cap_ - 1)]; }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return buf_[(head_ + i) & (cap_ - 1)];
  }
  [[nodiscard]] T& front() { return buf_[head_]; }
  [[nodiscard]] const T& front() const { return buf_[head_]; }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == cap_) grow();
    T* slot = buf_ + ((head_ + size_) & (cap_ - 1));
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }
  void push_back(T&& v) { emplace_back(std::move(v)); }
  void push_back(const T& v) { emplace_back(v); }

  void pop_front() {
    buf_[head_].~T();
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

  /// Destroys every element; the buffer is kept.
  void clear() {
    while (size_ > 0) pop_front();
    head_ = 0;
  }

 private:
  // Moves the elements, front first, into a buffer twice the size
  // (16 slots the first time), so they sit unwrapped from index 0.
  void grow() {
    const std::size_t cap = cap_ == 0 ? 16 : cap_ * 2;
    T* buf = std::allocator<T>{}.allocate(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      T& from = (*this)[i];
      ::new (static_cast<void*>(buf + i)) T(std::move(from));
      from.~T();
    }
    if (buf_ != nullptr) std::allocator<T>{}.deallocate(buf_, cap_);
    buf_ = buf;
    cap_ = cap;
    head_ = 0;
  }

  T* buf_ = nullptr;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace hicc
