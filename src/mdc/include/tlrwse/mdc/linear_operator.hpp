// Abstract real linear operator, the interface consumed by the LSQR solver.
#pragma once

#include <cstddef>
#include <span>

#include "tlrwse/common/types.hpp"

namespace tlrwse::mdc {

/// A real linear map A : R^cols -> R^rows with an exact adjoint.
/// Implementations must satisfy <A x, y> == <x, A^T y> to solver precision
/// (verified by the dot test in the test suite).
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;

  [[nodiscard]] virtual index_t rows() const = 0;
  [[nodiscard]] virtual index_t cols() const = 0;

  /// y = A x.
  virtual void apply(std::span<const float> x, std::span<float> y) const = 0;
  /// x = A^T y.
  virtual void apply_adjoint(std::span<const float> y,
                             std::span<float> x) const = 0;
  /// X = A^T Y for `nrhs` right-hand sides stored back to back. Operators
  /// with a shared multi-RHS sweep override this; every column must stay
  /// bitwise identical to its single apply_adjoint call.
  virtual void apply_adjoint_batch(std::span<const float> Y,
                                   std::span<float> X, index_t nrhs) const {
    const auto m = static_cast<std::size_t>(rows());
    const auto n = static_cast<std::size_t>(cols());
    for (index_t r = 0; r < nrhs; ++r) {
      const auto k = static_cast<std::size_t>(r);
      apply_adjoint(Y.subspan(k * m, m), X.subspan(k * n, n));
    }
  }
};

}  // namespace tlrwse::mdc
