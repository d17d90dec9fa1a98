// Cooperative cancellation for long-running operator applies.
//
// A CancelScope installs a thread-local hook for the duration of one call
// chain; MdcOperator polls it between per-frequency MVMs (and
// RemoteMdcOperator before each fan-out) so a deadline or a cancel
// interrupts an apply mid-batch instead of only between LSQR iterations.
// The hook must be safe to call from any thread: the frequency loop
// captures it once before entering its OpenMP region and every team member
// polls the same callable.
//
// When the hook fires, the apply finishes draining its parallel region
// (skipping remaining MVMs) and then throws CancelledError, leaving the
// output buffer unspecified. The request engine translates
// CancelledError into kCancelled or kDeadlineExceeded, whichever of its
// two stop conditions fired.
#pragma once

#include <functional>
#include <stdexcept>
#include <utility>

namespace tlrwse::mdc {

/// Thrown by cancellable operations when the installed hook reports stop.
class CancelledError : public std::runtime_error {
 public:
  CancelledError() : std::runtime_error("operation cancelled") {}
  explicit CancelledError(const std::string& what)
      : std::runtime_error(what) {}
};

/// RAII installer of a thread-local cancellation hook. Scopes nest: the
/// innermost scope wins for the thread that created it, and destruction
/// restores the previous hook.
class CancelScope {
 public:
  using Hook = std::function<bool()>;

  explicit CancelScope(Hook hook)
      : previous_(current_), hook_(std::move(hook)) {
    current_ = hook_ ? &hook_ : previous_;
  }

  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

  ~CancelScope() { current_ = previous_; }

  /// The hook installed on the calling thread, or nullptr. The returned
  /// pointer stays valid for the lifetime of the innermost scope; capture
  /// it before handing work to other threads.
  [[nodiscard]] static const Hook* current() noexcept { return current_; }

  /// True when a hook is installed on this thread and it reports stop.
  [[nodiscard]] static bool cancelled() {
    return current_ != nullptr && (*current_)();
  }

 private:
  static inline thread_local const Hook* current_ = nullptr;
  const Hook* previous_;
  Hook hook_;
};

}  // namespace tlrwse::mdc
