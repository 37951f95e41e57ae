#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "engine/comm_pair.hpp"
#include "engine/neighbor.hpp"
#include "kokkos/profiling.hpp"

namespace mdbench::trace {
namespace {

std::atomic<bool> g_enabled{false};
LayerTotals g_totals[kMaxRanks];

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

LayerTotals& slot() {
  const int tag = kk::profiling::thread_tag();
  return g_totals[std::clamp(tag, 0, kMaxRanks - 1)];
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

LayerTotals totals(int rank) { return g_totals[rank]; }

void reset() {
  for (auto& t : g_totals) t = LayerTotals{};
}

TimedPair::TimedPair(std::unique_ptr<mlk::Pair> inner)
    : inner_(std::move(inner)) {
  mirror();
}

void TimedPair::mirror() {
  ntypes_hint = inner_->ntypes_hint;
  datamask_read = inner_->datamask_read;
  datamask_modify = inner_->datamask_modify;
  execution_space = inner_->execution_space;
  needs_reverse_comm = inner_->needs_reverse_comm;
  eng_vdwl = inner_->eng_vdwl;
  eng_coul = inner_->eng_coul;
  std::copy(std::begin(inner_->virial), std::end(inner_->virial), virial);
  style_name = inner_->style_name;
}

void TimedPair::init(mlk::Simulation& sim) {
  inner_->init(sim);
  mirror();
}

void TimedPair::compute(mlk::Simulation& sim, bool eflag) {
  if (!enabled()) {
    inner_->compute(sim, eflag);
  } else {
    const double t0 = now();
    inner_->compute(sim, eflag);
    LayerTotals& s = slot();
    s.pair_s += now() - t0;
    ++s.pair_calls;
  }
  mirror();
}

void TimedPair::compute_interior(mlk::Simulation& sim, bool eflag,
                                 kk::DeviceInstance& instance) {
  inner_->compute_interior(sim, eflag, instance);
  mirror();
}

void TimedPair::compute_boundary(mlk::Simulation& sim, bool eflag) {
  inner_->compute_boundary(sim, eflag);
  mirror();
}

}  // namespace mdbench::trace

// Linker wrappers (--wrap): the engine's calls to these member functions land
// here. A member function takes `this` as its first argument in the Itanium
// C++ ABI, which is what these C signatures spell out.
extern "C" {
void __real__ZN3mlk8Neighbor5buildERKNS_4AtomERKNS_6DomainE(
    mlk::Neighbor* self, const mlk::Atom& atom, const mlk::Domain& domain);
void __real__ZN3mlk9CommBrick17forward_positionsERNS_4AtomE(
    mlk::CommBrick* self, mlk::Atom& atom);

void __wrap__ZN3mlk8Neighbor5buildERKNS_4AtomERKNS_6DomainE(
    mlk::Neighbor* self, const mlk::Atom& atom, const mlk::Domain& domain) {
  using namespace mdbench::trace;
  if (!enabled()) {
    __real__ZN3mlk8Neighbor5buildERKNS_4AtomERKNS_6DomainE(self, atom, domain);
    return;
  }
  const double t0 = now();
  __real__ZN3mlk8Neighbor5buildERKNS_4AtomERKNS_6DomainE(self, atom, domain);
  LayerTotals& s = slot();
  s.neigh_s += now() - t0;
  ++s.neigh_calls;
}

void __wrap__ZN3mlk9CommBrick17forward_positionsERNS_4AtomE(
    mlk::CommBrick* self, mlk::Atom& atom) {
  using namespace mdbench::trace;
  if (!enabled()) {
    __real__ZN3mlk9CommBrick17forward_positionsERNS_4AtomE(self, atom);
    return;
  }
  const double t0 = now();
  __real__ZN3mlk9CommBrick17forward_positionsERNS_4AtomE(self, atom);
  LayerTotals& s = slot();
  s.forward_s += now() - t0;
  ++s.forward_calls;
}
}
