// E12 ablation: ScatterView deconflicting strategies (atomics vs data
// duplication vs sequential) for the LJ half-list force kernel — the §3.2
// discussion of why ScatterView swaps strategies per architecture.
// Atomics and duplication run lj/cut/kk on the Device pool; sequential runs
// lj/cut/kk/host on the serial Host space, the only place its plain adds are
// kept (on a threaded pool ScatterView resolves Sequential to Duplicated).
// Real kernels, google-benchmark harness.
#include <benchmark/benchmark.h>

#include <string>

#include "bench_common.hpp"
#include "kokkos/threadpool.hpp"
#include "pair/pair_lj_cut_kokkos.hpp"

using namespace mlk;

namespace {

template <class Space>
void configure(Pair* pair, kk::ScatterMode mode) {
  auto* kkpair = dynamic_cast<PairLJCutKokkos<Space>*>(pair);
  kkpair->set_neighbor_mode(NeighStyle::Half, true);
  kkpair->set_scatter_mode(mode);
}

std::unique_ptr<Simulation> make_system(kk::ScatterMode mode) {
  init_all();
  const bool on_host = mode == kk::ScatterMode::Sequential;
  auto sim = std::make_unique<Simulation>();
  sim->thermo.print = false;
  Input in(*sim);
  in.line("units lj");
  in.line("lattice fcc 0.8442");
  in.line("create_atoms 10 10 10 jitter 0.02 771");
  in.line("mass 1 1.0");
  in.line(on_host ? "pair_style lj/cut/kk/host 2.5"
                  : "pair_style lj/cut/kk 2.5");
  in.line("pair_coeff * * 1.0 1.0");
  if (on_host)
    configure<kk::Host>(sim->pair.get(), mode);
  else
    configure<kk::Device>(sim->pair.get(), mode);
  sim->setup();
  return sim;
}

void BM_scatter(benchmark::State& state, kk::ScatterMode mode) {
  auto sim = make_system(mode);
  for (auto _ : state) {
    sim->compute_forces(false);
    benchmark::DoNotOptimize(sim->atom.k_f.h_view.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * sim->atom.nlocal);
  state.counters["atoms"] = double(sim->atom.nlocal);
}

}  // namespace

BENCHMARK_CAPTURE(BM_scatter, half_list_atomics, kk::ScatterMode::Atomic);
BENCHMARK_CAPTURE(BM_scatter, half_list_duplicated, kk::ScatterMode::Duplicated);
BENCHMARK_CAPTURE(BM_scatter, half_list_sequential, kk::ScatterMode::Sequential);

int main(int argc, char** argv) {
  bench::Metrics metrics("bench_ablation_scatter");
  mlk::perf::banner(
      "ScatterView deconflicting ablation: atomics vs duplication on a " +
          std::to_string(kk::ThreadPool::instance().concurrency()) +
          "-thread Device pool vs sequential on the serial Host space (LJ "
          "half list, 4000 atoms, real kernels)",
      "Section 3.2 (ScatterView strategy swap)");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::printf(
      "\nshape check: sequential is one thread of plain adds; with few "
      "threads duplication is steady while contended atomics vary from run "
      "to run; on GPUs (O(100k) threads) duplication is infeasible and "
      "atomics win — why ScatterView swaps strategies per backend\n");
  return 0;
}
