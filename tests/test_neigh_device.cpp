// The Device neighbor build wired into the engine (docs/NEIGHBOR.md): the
// list feeds host and device pair styles, trajectories are bitwise the same
// with comm/compute overlap off and on (serial and decomposed over simmpi
// ranks), and under spatial sorting and load balancing.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "comm/simmpi.hpp"
#include "test_helpers.hpp"

namespace mlk {
namespace {

using testing::make_lj_system;

struct Snapshot {
  std::vector<double> x, v;
  double pe = 0.0;
  double ke = 0.0;
};

Snapshot snapshot(Simulation& sim) {
  sim.atom.sync<kk::Host>(X_MASK | V_MASK);
  const auto x = sim.atom.k_x.h_view;
  const auto v = sim.atom.k_v.h_view;
  Snapshot s;
  for (localint i = 0; i < sim.atom.nlocal; ++i) {
    for (int d = 0; d < 3; ++d) {
      s.x.push_back(x(std::size_t(i), std::size_t(d)));
      s.v.push_back(v(std::size_t(i), std::size_t(d)));
    }
  }
  s.pe = sim.potential_energy();
  s.ke = sim.kinetic_energy();
  return s;
}

void expect_bitwise(const Snapshot& a, const Snapshot& b) {
  ASSERT_EQ(a.x.size(), b.x.size());
  ASSERT_EQ(a.v.size(), b.v.size());
  for (std::size_t k = 0; k < a.x.size(); ++k) {
    ASSERT_EQ(a.x[k], b.x[k]) << "position diverged at component " << k;
    ASSERT_EQ(a.v[k], b.v[k]) << "velocity diverged at component " << k;
  }
  EXPECT_NEAR(a.pe, b.pe, 1e-9 * std::abs(a.pe) + 1e-12);
  EXPECT_NEAR(a.ke, b.ke, 1e-9 * std::abs(a.ke) + 1e-12);
}

TEST(NeighDevice, NeighborCommandSetsSkin) {
  init_all();
  Simulation sim;
  Input in(sim);
  in.line("neighbor 0.4 bin");
  EXPECT_DOUBLE_EQ(sim.neighbor.skin, 0.4);
  EXPECT_THROW(in.line("neighbor style device"), Error);  // no such form
}

TEST(NeighDevice, EngineBuildPopulatesPartition) {
  // Satellite of the stale-partition bug: the build must leave the engine
  // list with a valid interior/boundary partition, or the overlapped force
  // phase would silently run on empty row sets.
  auto sim = make_lj_system(3, 0.8442, 0.05, "lj/cut/kk");
  sim->setup();
  const NeighborList& l = sim->neighbor.list;
  EXPECT_EQ(l.ninterior + l.nboundary, l.inum);
  EXPECT_TRUE(sim->pair->supports_overlap(l));
  EXPECT_EQ(sim->neighbor.nbuilds, 1);
}

// One melt trajectory with overlap off or on.
Snapshot run_serial_melt(bool overlap, int steps) {
  auto sim = make_lj_system(3, 0.8442, 0.02, "lj/cut/kk", 1.44);
  sim->overlap_enabled = overlap;
  Input in(*sim);
  in.line("fix 1 all nve");
  in.line("thermo 10");
  in.line("run " + std::to_string(steps));
  return snapshot(*sim);
}

TEST(NeighDevice, SerialMeltOverlapOnMatchesOff) {
  expect_bitwise(run_serial_melt(false, 40), run_serial_melt(true, 40));
}

TEST(NeighDevice, PlainHostPairStyleReadsDeviceList) {
  // A non-kokkos pair style consumes the device-built list through the
  // DualView sync machinery: its forces match those it computes from the
  // brute-force list of the same configuration.
  auto sim = make_lj_system(2, 0.8442, 0.03, "lj/cut", 1.44);
  sim->setup();
  sim->compute_forces(/*eflag=*/true);
  sim->atom.sync<kk::Host>(F_MASK);
  const auto nlocal = std::size_t(sim->atom.nlocal);
  std::vector<double> f_binned(3 * nlocal);
  for (std::size_t i = 0; i < nlocal; ++i)
    for (std::size_t d = 0; d < 3; ++d)
      f_binned[3 * i + d] = sim->atom.k_f.h_view(i, d);
  const double pe_binned = sim->potential_energy();

  const Neighbor& n = sim->neighbor;
  sim->neighbor.list = brute_force_list(sim->atom, sim->domain, n.cutghost(),
                                        n.style, n.newton, sim->atom.nlocal);
  sim->compute_forces(/*eflag=*/true);
  sim->atom.sync<kk::Host>(F_MASK);
  for (std::size_t i = 0; i < nlocal; ++i)
    for (std::size_t d = 0; d < 3; ++d)
      EXPECT_NEAR(sim->atom.k_f.h_view(i, d), f_binned[3 * i + d], 1e-10)
          << "atom " << i << " dim " << d;
  EXPECT_NEAR(sim->potential_energy(), pe_binned,
              1e-10 * std::abs(pe_binned));
}

std::vector<Snapshot> run_multirank_melt(int nranks, bool overlap,
                                         int steps) {
  init_all();
  std::vector<Snapshot> out(static_cast<std::size_t>(nranks));
  std::mutex mu;
  simmpi::World world(nranks);
  world.run([&](simmpi::Comm& comm) {
    Simulation sim;
    sim.mpi = &comm;
    sim.overlap_enabled = overlap;
    sim.thermo.print = false;
    Input in(sim);
    in.line("units lj");
    in.line("lattice fcc 0.8442");
    in.line("create_atoms 4 4 4 jitter 0.02 771");
    in.line("mass 1 1.0");
    in.line("velocity all create 1.44 87287");
    in.line("suffix kk");
    in.line("pair_style lj/cut 2.5");
    in.line("pair_coeff * * 1.0 1.0");
    in.line("fix 1 all nve");
    in.line("thermo 10");
    in.line("run " + std::to_string(steps));
    Snapshot s = snapshot(sim);  // collectives: every rank participates
    std::lock_guard<std::mutex> lk(mu);
    out[std::size_t(comm.rank())] = std::move(s);
  });
  return out;
}

TEST(NeighDevice, TwoRankMeltOverlapOnMatchesOff) {
  const auto off = run_multirank_melt(2, false, 30);
  const auto on = run_multirank_melt(2, true, 30);
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t r = 0; r < off.size(); ++r) expect_bitwise(off[r], on[r]);
}

// --- sort x balance bitwise sweep -------------------------------------------
//
// Spatial sorting permutes storage order and `balance rcb` permutes atom
// *ownership*; with canonical neighbor rows (neigh_modify canonical yes) a
// trajectory must not depend on either (docs/DECOMPOSITION.md "bitwise
// policy"). The sweep runs melt (uniform) and droplet (vacuum-gap lattice,
// examples/in.droplet) under every combination of sort x balance x rank
// count and compares per-tag positions/velocities exactly against the
// sort-off/balance-off reference.

struct GlobalSnapshot {
  std::map<tagint, std::array<double, 6>> atoms;  // tag -> x[3], v[3]
  double pe = 0.0, ke = 0.0;
};

struct SweepConfig {
  bool droplet = false;
  bool sort = false;
  bool balance = false;
};

GlobalSnapshot run_sweep(int nranks, const SweepConfig& cfg, int steps) {
  init_all();
  GlobalSnapshot out;
  std::mutex mu;
  simmpi::World world(nranks);
  world.run([&](simmpi::Comm& comm) {
    Simulation sim;
    sim.mpi = &comm;
    sim.thermo.print = false;
    Input in(sim);
    in.line("units lj");
    in.line("lattice fcc 0.8442");
    if (cfg.droplet)
      in.line("create_atoms 6 6 6 jitter 0.02 771 region 0 0.55 0 0.55 0 0.55");
    else
      in.line("create_atoms 4 4 4 jitter 0.02 771");
    in.line("mass 1 1.0");
    in.line("velocity all create 1.44 87287");
    in.line("suffix kk");
    in.line("pair_style lj/cut 2.5");
    in.line("pair_coeff * * 1.0 1.0");
    in.line("neigh_modify canonical yes");
    if (cfg.sort) in.line("sort every 2");
    if (cfg.balance) in.line("balance rcb 1.1");
    in.line("fix 1 all nve");
    in.line("thermo 10");
    in.line("run " + std::to_string(steps));

    sim.atom.sync<kk::Host>(X_MASK | V_MASK | TAG_MASK);
    const double pe = sim.potential_energy();  // collectives: all ranks
    const double ke = sim.kinetic_energy();
    std::lock_guard<std::mutex> lk(mu);
    for (localint i = 0; i < sim.atom.nlocal; ++i) {
      std::array<double, 6> rec;
      for (int d = 0; d < 3; ++d) {
        rec[std::size_t(d)] = sim.atom.k_x.h_view(std::size_t(i), std::size_t(d));
        rec[std::size_t(3 + d)] =
            sim.atom.k_v.h_view(std::size_t(i), std::size_t(d));
      }
      const tagint t = sim.atom.k_tag.h_view(std::size_t(i));
      EXPECT_TRUE(out.atoms.emplace(t, rec).second)
          << "tag " << t << " owned by two ranks";
    }
    if (comm.rank() == 0) {
      out.pe = pe;
      out.ke = ke;
    }
  });
  return out;
}

void expect_same_trajectory(const GlobalSnapshot& ref, const GlobalSnapshot& got,
                            const std::string& what) {
  ASSERT_EQ(ref.atoms.size(), got.atoms.size()) << what;
  for (const auto& [tag, rec] : ref.atoms) {
    const auto it = got.atoms.find(tag);
    ASSERT_NE(it, got.atoms.end()) << what << ": tag " << tag << " lost";
    for (std::size_t k = 0; k < 6; ++k)
      ASSERT_EQ(rec[k], it->second[k])
          << what << ": tag " << tag << (k < 3 ? " position" : " velocity")
          << " component " << k % 3 << " diverged";
  }
  // Energy sums permute across ownership changes: NEAR, not EQ.
  EXPECT_NEAR(ref.pe, got.pe, 1e-9 * std::abs(ref.pe) + 1e-12) << what;
  EXPECT_NEAR(ref.ke, got.ke, 1e-9 * std::abs(ref.ke) + 1e-12) << what;
}

void sweep_scenario(bool droplet, int steps) {
  for (const int nranks : {1, 2}) {
    SweepConfig refcfg;
    refcfg.droplet = droplet;
    const GlobalSnapshot ref = run_sweep(nranks, refcfg, steps);
    ASSERT_FALSE(ref.atoms.empty());
    for (const bool sort : {false, true}) {
      for (const bool balance : {false, true}) {
        if (!sort && !balance) continue;
        SweepConfig cfg;
        cfg.droplet = droplet;
        cfg.sort = sort;
        cfg.balance = balance;
        const std::string what =
            std::string(droplet ? "droplet" : "melt") + " ranks=" +
            std::to_string(nranks) + (sort ? " sort" : "") +
            (balance ? " balance" : "");
        expect_same_trajectory(ref, run_sweep(nranks, cfg, steps), what);
      }
    }
  }
}

TEST(SortBalanceSweep, MeltBitwiseAcrossSortBalanceAndRanks) {
  sweep_scenario(/*droplet=*/false, 30);
}

TEST(SortBalanceSweep, DropletBitwiseAcrossSortBalanceAndRanks) {
  sweep_scenario(/*droplet=*/true, 30);
}

}  // namespace
}  // namespace mlk
