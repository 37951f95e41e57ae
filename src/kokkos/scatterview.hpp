// kk::ScatterView — write-conflict-free unstructured accumulation (§3.2).
//
// Transparently swaps between three deconflicting strategies:
//   * Atomic     — every contribution is a thread-atomic add (GPU default:
//                  with O(100k) active threads duplication is infeasible),
//   * Duplicated — one private replica per pool thread, combined by
//                  contribute() (CPU default, best with modest thread counts),
//   * Sequential — plain adds, only on a serial space (kk::Host, or a
//                  Device pool of one thread). On a threaded Device pool
//                  plain adds would lose increments, so Sequential resolves
//                  to Duplicated there and mode() reports Duplicated.
// The access handle pattern matches Kokkos: create, access() inside the
// kernel, contribute() after.
#pragma once

#include <vector>

#include "kokkos/core.hpp"
#include "kokkos/threadpool.hpp"
#include "kokkos/view.hpp"

namespace kk {

enum class ScatterMode { Atomic, Duplicated, Sequential };

/// Default deconflicting strategy per space, as the paper describes.
template <class Space>
constexpr ScatterMode default_scatter_mode() {
  return Space::is_device ? ScatterMode::Atomic : ScatterMode::Sequential;
}

template <class T, int Rank, class Space = DefaultExecutionSpace>
class ScatterView {
  using target_view = View<T, Rank, typename Space::default_layout>;

 public:
  ScatterView() = default;

  explicit ScatterView(target_view target,
                       ScatterMode mode = default_scatter_mode<Space>())
      : target_(target), mode_(resolve(mode)) {
    if (mode_ == ScatterMode::Duplicated) {
      const int nrep = ThreadPool::instance().concurrency();
      replicas_.assign(std::size_t(nrep), {});
      for (auto& r : replicas_) {
        r = target_view("scatter_replica", target_.extent(0),
                        Rank > 1 ? target_.extent(1) : 0,
                        Rank > 2 ? target_.extent(2) : 0);
        r.fill(T(0));
      }
    }
  }

  /// The strategy in effect: a requested Sequential reports Duplicated on a
  /// threaded Device pool.
  ScatterMode mode() const { return mode_; }

  class Access {
   public:
    Access(const ScatterView* sv) : sv_(sv) {}
    void add(std::size_t i0, T v) const {
      static_assert(Rank == 1);
      T* addr = sv_->slot(i0, 0, 0);
      sv_->accumulate(addr, v);
    }
    void add(std::size_t i0, std::size_t i1, T v) const {
      static_assert(Rank == 2);
      T* addr = sv_->slot(i0, i1, 0);
      sv_->accumulate(addr, v);
    }
    void add(std::size_t i0, std::size_t i1, std::size_t i2, T v) const {
      static_assert(Rank == 3);
      T* addr = sv_->slot(i0, i1, i2);
      sv_->accumulate(addr, v);
    }

   private:
    const ScatterView* sv_;
  };

  Access access() const { return Access(this); }

  /// Combine replicas into the target (no-op for Atomic/Sequential, whose
  /// adds already landed in the target).
  void contribute() {
    if (mode_ != ScatterMode::Duplicated) return;
    const std::size_t n = target_.size();
    for (auto& r : replicas_) {
      T* dst = target_.data();
      const T* src = r.data();
      for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
      r.fill(T(0));
    }
  }

  /// Zero replicas (Duplicated) so the handle can be reused next timestep.
  void reset() {
    if (mode_ == ScatterMode::Duplicated)
      for (auto& r : replicas_) r.fill(T(0));
  }

 private:
  friend class Access;

  /// Duplicated is the strategy whose plain adds stay conflict-free when
  /// several pool threads run the kernel.
  static ScatterMode resolve(ScatterMode mode) {
    if constexpr (Space::is_device)
      if (mode == ScatterMode::Sequential &&
          ThreadPool::instance().concurrency() > 1)
        return ScatterMode::Duplicated;
    return mode;
  }

  T* slot(std::size_t i0, std::size_t i1, std::size_t i2) const {
    const target_view& v =
        mode_ == ScatterMode::Duplicated
            ? replicas_[std::size_t(ThreadPool::this_thread_rank())]
            : target_;
    if constexpr (Rank == 1)
      return &v(i0);
    else if constexpr (Rank == 2)
      return &v(i0, i1);
    else
      return &v(i0, i1, i2);
  }

  void accumulate(T* addr, T v) const {
    if (mode_ == ScatterMode::Atomic)
      atomic_add(addr, v);
    else
      *addr += v;
  }

  target_view target_;
  ScatterMode mode_ = ScatterMode::Sequential;
  std::vector<target_view> replicas_;
};

}  // namespace kk
