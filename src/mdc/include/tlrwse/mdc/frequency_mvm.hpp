// Per-frequency MVM backends of the MDC kernel K.
//
// The MDC operator applies, at every retained frequency, the kernel matrix
// K_f to the transformed wavefield. The paper's contribution is swapping
// the dense backend for TLR-MVM; each storage format has exactly one host
// execution path behind this interface: DenseMvm (la::gemv), TlrMvm (a
// compiled tlr::MvmPlan) and SharedBasisMvm (one frequency of a band-shared
// tlr::SharedBasisMvmPlan). The paper's stacked 3-phase / fused layouts and
// the four-real-MVM split live on in src/tlr as reference oracles only.
//
// Two apply signatures exist: the workspace-carrying overloads are the hot
// path (the MDC frequency loop hands each OpenMP thread its own
// FrequencyWorkspace, so steady-state applies never allocate), and the
// two-argument forms remain valid for casual callers — they run through
// one thread-local workspace per calling thread rather than allocating.
#pragma once

#include <memory>
#include <span>
#include <utility>

#include "tlrwse/la/blas.hpp"
#include "tlrwse/tlr/mvm_plan.hpp"
#include "tlrwse/tlr/shared_basis_plan.hpp"

namespace tlrwse::mdc {

/// Reusable scratch for one FrequencyMvm apply: the plan workspace of the
/// TLR and shared-basis backends (DenseMvm needs none). One instance must
/// not be shared by concurrent calls.
struct FrequencyWorkspace {
  tlr::PlanWorkspace plan;
};

/// One frequency slice of the kernel: y = K x and y = K^H x.
class FrequencyMvm {
 public:
  virtual ~FrequencyMvm() = default;
  [[nodiscard]] virtual index_t rows() const = 0;
  [[nodiscard]] virtual index_t cols() const = 0;
  /// Workspace-carrying forms: the hot path.
  virtual void apply(std::span<const cf32> x, std::span<cf32> y,
                     FrequencyWorkspace& ws) const = 0;
  virtual void apply_adjoint(std::span<const cf32> x, std::span<cf32> y,
                             FrequencyWorkspace& ws) const = 0;
  /// Two-argument forms: run through the calling thread's workspace.
  virtual void apply(std::span<const cf32> x, std::span<cf32> y) const {
    apply(x, y, thread_workspace());
  }
  virtual void apply_adjoint(std::span<const cf32> x,
                             std::span<cf32> y) const {
    apply_adjoint(x, y, thread_workspace());
  }
  /// Multi-RHS forms: X holds nrhs input vectors back to back (cols() apart
  /// for apply, rows() apart for the adjoint), Y the matching outputs. The
  /// default loops over single-RHS applies; backends with a real multi-RHS
  /// kernel (the plans) override to amortise one sweep over the operator
  /// across all RHS. Every RHS column must equal the corresponding
  /// single-RHS call bitwise.
  virtual void apply_batch(std::span<const cf32> X, std::span<cf32> Y,
                           index_t nrhs, FrequencyWorkspace& ws) const {
    const std::size_t nin = static_cast<std::size_t>(cols());
    const std::size_t nout = static_cast<std::size_t>(rows());
    for (index_t r = 0; r < nrhs; ++r) {
      apply(X.subspan(static_cast<std::size_t>(r) * nin, nin),
            Y.subspan(static_cast<std::size_t>(r) * nout, nout), ws);
    }
  }
  virtual void apply_adjoint_batch(std::span<const cf32> X, std::span<cf32> Y,
                                   index_t nrhs, FrequencyWorkspace& ws) const {
    const std::size_t nin = static_cast<std::size_t>(rows());
    const std::size_t nout = static_cast<std::size_t>(cols());
    for (index_t r = 0; r < nrhs; ++r) {
      apply_adjoint(X.subspan(static_cast<std::size_t>(r) * nin, nin),
                    Y.subspan(static_cast<std::size_t>(r) * nout, nout), ws);
    }
  }

 protected:
  /// The calling thread's workspace, shared by every backend's
  /// two-argument calls on that thread (grown on first use, then reused).
  static FrequencyWorkspace& thread_workspace() {
    thread_local FrequencyWorkspace ws;
    return ws;
  }
};

/// Dense reference backend.
class DenseMvm final : public FrequencyMvm {
 public:
  explicit DenseMvm(la::MatrixCF K) : K_(std::move(K)) {}
  using FrequencyMvm::apply;
  using FrequencyMvm::apply_adjoint;
  [[nodiscard]] index_t rows() const override { return K_.rows(); }
  [[nodiscard]] index_t cols() const override { return K_.cols(); }
  void apply(std::span<const cf32> x, std::span<cf32> y,
             FrequencyWorkspace& /*ws*/) const override {
    la::gemv(K_, x, y);
  }
  void apply_adjoint(std::span<const cf32> x, std::span<cf32> y,
                     FrequencyWorkspace& /*ws*/) const override {
    la::gemv_adjoint(K_, x, y);
  }

 private:
  la::MatrixCF K_;
};

/// TLR backend: owns the compiled MvmPlan of one frequency (the plan copies
/// every factor into its own arena, so the source is not kept).
class TlrMvm final : public FrequencyMvm {
 public:
  explicit TlrMvm(const tlr::StackedTlr<cf32>& stacks) : plan_(stacks) {}
  explicit TlrMvm(tlr::MvmPlan plan) : plan_(std::move(plan)) {}
  /// Hands the plan's storage back for another build (see
  /// tlr::MvmPlan::Storage); the kernel is unusable afterwards.
  [[nodiscard]] tlr::MvmPlan::Storage release_storage() && {
    return std::move(plan_).release_storage();
  }
  using FrequencyMvm::apply;
  using FrequencyMvm::apply_adjoint;
  [[nodiscard]] index_t rows() const override { return plan_.rows(); }
  [[nodiscard]] index_t cols() const override { return plan_.cols(); }
  void apply(std::span<const cf32> x, std::span<cf32> y,
             FrequencyWorkspace& ws) const override {
    plan_.apply(x, y, ws.plan);
  }
  void apply_adjoint(std::span<const cf32> x, std::span<cf32> y,
                     FrequencyWorkspace& ws) const override {
    plan_.apply_adjoint(x, y, ws.plan);
  }
  void apply_batch(std::span<const cf32> X, std::span<cf32> Y, index_t nrhs,
                   FrequencyWorkspace& ws) const override {
    plan_.apply_multi(X, Y, nrhs, ws.plan);
  }
  void apply_adjoint_batch(std::span<const cf32> X, std::span<cf32> Y,
                           index_t nrhs,
                           FrequencyWorkspace& ws) const override {
    plan_.apply_adjoint_multi(X, Y, nrhs, ws.plan);
  }

 private:
  tlr::MvmPlan plan_;
};

/// Shared-basis backend: one frequency slice of a band whose tile bases
/// are shared (tlr::SharedBasisStackedTlr). All slices of one band hold
/// the SAME compiled SharedBasisMvmPlan, so the basis arena is laid out
/// once and stays hot as the MDC frequency loop walks the band; only the
/// small per-frequency core program changes between slices. Construct the
/// band's kernels with make_shared_basis_kernels().
class SharedBasisMvm final : public FrequencyMvm {
 public:
  SharedBasisMvm(std::shared_ptr<const tlr::SharedBasisMvmPlan> plan,
                 index_t freq)
      : plan_(std::move(plan)), freq_(freq) {
    TLRWSE_REQUIRE(plan_ != nullptr, "SharedBasisMvm: null plan");
    TLRWSE_REQUIRE(freq_ >= 0 && freq_ < plan_->num_freqs(),
                   "SharedBasisMvm: frequency index out of range");
  }
  using FrequencyMvm::apply;
  using FrequencyMvm::apply_adjoint;
  [[nodiscard]] index_t rows() const override { return plan_->rows(); }
  [[nodiscard]] index_t cols() const override { return plan_->cols(); }
  void apply(std::span<const cf32> x, std::span<cf32> y,
             FrequencyWorkspace& ws) const override {
    plan_->apply(freq_, x, y, ws.plan);
  }
  void apply_adjoint(std::span<const cf32> x, std::span<cf32> y,
                     FrequencyWorkspace& ws) const override {
    plan_->apply_adjoint(freq_, x, y, ws.plan);
  }
  void apply_batch(std::span<const cf32> X, std::span<cf32> Y, index_t nrhs,
                   FrequencyWorkspace& ws) const override {
    plan_->apply_multi(freq_, X, Y, nrhs, ws.plan);
  }
  void apply_adjoint_batch(std::span<const cf32> X, std::span<cf32> Y,
                           index_t nrhs,
                           FrequencyWorkspace& ws) const override {
    plan_->apply_adjoint_multi(freq_, X, Y, nrhs, ws.plan);
  }

 private:
  std::shared_ptr<const tlr::SharedBasisMvmPlan> plan_;
  index_t freq_;
};

/// Builds one FrequencyMvm per frequency of the band, all sharing one
/// SharedBasisMvmPlan compiled from it.
inline std::vector<std::unique_ptr<FrequencyMvm>> make_shared_basis_kernels(
    const tlr::SharedBasisStackedTlr<cf32>& band) {
  const auto plan = std::make_shared<const tlr::SharedBasisMvmPlan>(band);
  std::vector<std::unique_ptr<FrequencyMvm>> kernels;
  kernels.reserve(static_cast<std::size_t>(plan->num_freqs()));
  for (index_t f = 0; f < plan->num_freqs(); ++f) {
    kernels.push_back(std::make_unique<SharedBasisMvm>(plan, f));
  }
  return kernels;
}

}  // namespace tlrwse::mdc
