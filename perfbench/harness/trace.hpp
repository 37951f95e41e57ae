// Per-layer tracing of the benchmark's traced run. Spans are recorded from
// the benchmark's own files, around the calls into each layer; src/ carries
// no instrumentation for it:
//   * Neighbor::build and CommBrick::forward_positions are non-virtual; the
//     linker routes the engine's calls to them through wrappers in trace.cpp
//     (see CMakeLists.txt), which time them while tracing is on.
//   * Pair::compute is virtual; TimedPair stands in for the style and times
//     each call before handing it on.
// Totals are kept per simmpi rank (the rank threads' profiling tag), so two
// ranks never write the same slot.
#pragma once

#include <cstdint>
#include <memory>

#include "engine/pair.hpp"

namespace mdbench::trace {

struct LayerTotals {
  double neigh_s = 0.0;
  std::int64_t neigh_calls = 0;
  double forward_s = 0.0;
  std::int64_t forward_calls = 0;
  double pair_s = 0.0;
  std::int64_t pair_calls = 0;
};

constexpr int kMaxRanks = 16;

/// Turn the wrappers' timing on or off (off: they only forward the call).
void set_enabled(bool on);

/// Totals of rank `rank` since the last reset().
LayerTotals totals(int rank);
void reset();

/// Stands in for a pair style and times compute(); every other call and the
/// public state the engine reads are handed through to the wrapped style.
class TimedPair : public mlk::Pair {
 public:
  explicit TimedPair(std::unique_ptr<mlk::Pair> inner);

  void init(mlk::Simulation& sim) override;
  void compute(mlk::Simulation& sim, bool eflag) override;
  bool supports_overlap(const mlk::NeighborList& list) const override {
    return inner_->supports_overlap(list);
  }
  void compute_interior(mlk::Simulation& sim, bool eflag,
                        kk::DeviceInstance& instance) override;
  void compute_boundary(mlk::Simulation& sim, bool eflag) override;
  double cutoff() const override { return inner_->cutoff(); }
  mlk::NeighStyle neigh_style() const override { return inner_->neigh_style(); }
  bool newton() const override { return inner_->newton(); }
  bool ghost_rows_needed() const override {
    return inner_->ghost_rows_needed();
  }

 private:
  void mirror();
  std::unique_ptr<mlk::Pair> inner_;
};

}  // namespace mdbench::trace
