// Cache-line/SIMD aligned allocation.
//
// All dense storage in tlrwse uses 64-byte alignment so that vectorised
// fmac loops never straddle; this mirrors the CS-2 constraint (Sec. 6.5)
// that operands of a dual-read fmac must sit in distinct SRAM banks with
// aligned, padded arrays.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>

namespace tlrwse {

inline constexpr std::size_t kDefaultAlignment = 64;

/// Minimal C++17-style aligned allocator usable with std::vector.
template <typename T, std::size_t Alignment = kDefaultAlignment>
struct AlignedAllocator {
  using value_type = T;
  // Explicit rebind: required because the allocator carries a non-type
  // template parameter, which defeats the default rebinding machinery.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };
  static_assert(Alignment >= alignof(T));
  static_assert((Alignment & (Alignment - 1)) == 0, "alignment must be pow2");

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_alloc();
    }
    // Round the byte size up to a multiple of the alignment as required by
    // std::aligned_alloc.
    const std::size_t bytes = ((n * sizeof(T) + Alignment - 1) / Alignment) * Alignment;
    void* p = std::aligned_alloc(Alignment, bytes);
    if (p == nullptr) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) noexcept { std::free(p); }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Alignment>&) const noexcept {
    return true;
  }
};

/// AlignedAllocator whose value-initialising construct() default-initialises
/// instead, so resize() leaves new trivial elements unwritten: for buffers
/// the owner overwrites in full, which then cost one write pass, not two.
template <typename T, std::size_t Alignment = kDefaultAlignment>
struct UninitAlignedAllocator : AlignedAllocator<T, Alignment> {
  template <typename U>
  struct rebind {
    using other = UninitAlignedAllocator<U, Alignment>;
  };

  UninitAlignedAllocator() noexcept = default;
  template <typename U>
  UninitAlignedAllocator(const UninitAlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

}  // namespace tlrwse
