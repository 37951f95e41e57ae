// mdbench --selftest: every correctness check of the benchmark accepts the
// program's real output and rejects a wrong answer (a force off by 1%, an
// atom dropped or owned twice, a momentum or charge error, a run with a
// stale neighbor list). Small systems, a few seconds in all.
#include <cmath>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "checks.hpp"
#include "sim_util.hpp"

namespace mdbench {
namespace {

constexpr double kRc = 2.5;
// The energy-drift limit run.py gives the LJ workloads.
constexpr double kLjDriftTol = 1e-3;

struct Tally {
  int cases = 0;
  std::vector<std::string> failed;
  void expect(const std::string& what, const CheckResult& r, bool want_ok) {
    ++cases;
    const bool good = r.ok == want_ok;
    std::printf("selftest %-44s %-8s value %.3e limit %.3e  %s\n",
                what.c_str(), r.ok ? "accepts" : "rejects", r.value, r.limit,
                good ? "ok" : "WRONG");
    if (!good) failed.push_back(what);
  }
};

std::vector<std::string> lj_script(const std::string& neigh_modify) {
  return {"units lj",
          "lattice fcc 0.8442",
          "create_atoms 4 4 4 jitter 0.05 1234",
          "mass 1 1.0",
          "velocity all create 1.44 4321",
          "suffix kk",
          "pair_style lj/cut 2.5",
          "pair_coeff * * 1.0 1.0",
          "neighbor 0.3 bin",
          neigh_modify,
          "fix 1 all nve"};
}

/// Drift of the corrected LJ energy over `steps` steps, as a share of the
/// initial kinetic energy (the measured run's energy check).
double corrected_drift(const std::vector<std::string>& script, int steps) {
  double drift = 0.0;
  simmpi::World world(1);
  world.run([&](simmpi::Comm& comm) {
    RankCtx ctx{comm, false};
    auto sim = make_sim(script, ctx);
    std::mutex mu;
    const auto natoms = sim->global_natoms();
    SystemState s0, s1;
    gather(*sim, mu, natoms, s0, ctx);
    const double ke0 = sim->kinetic_energy();
    const double e0 =
        corrected_lj_energy(ke0, sim->potential_energy(), s0, kRc);
    sim->run(steps);
    gather(*sim, mu, natoms, s1, ctx);
    const double e1 = corrected_lj_energy(
        sim->kinetic_energy(), sim->potential_energy(), s1, kRc);
    drift = std::abs(e1 - e0) / ke0;
  });
  return drift;
}

void lj_cases(Tally& t) {
  simmpi::World world(1);
  world.run([&](simmpi::Comm& comm) {
    RankCtx ctx{comm, false};
    auto sim = make_sim(lj_script("neigh_modify every 20 check no"), ctx);
    std::mutex mu;
    const auto natoms = sim->global_natoms();
    SystemState s;
    gather(*sim, mu, natoms, s, ctx);
    const auto sample = pick(s.natoms(), 16, 99);

    t.expect("lj forces as computed",
             check_lj_forces(s, sample, kRc, kForceTol), true);
    SystemState bad = s;
    for (std::size_t k = 0; k < 3; ++k) bad.f[3 * sample[0] + k] *= 1.01;
    t.expect("lj forces, one atom's force +1%",
             check_lj_forces(bad, sample, kRc, kForceTol), false);

    t.expect("ownership as gathered", check_ownership(s), true);
    bad = s;
    bad.owners[7] = 0;
    t.expect("ownership, one atom dropped", check_ownership(bad), false);
    t.expect("atom count, one atom dropped",
             check_count(natoms, natoms - 1), false);
    bad = s;
    bad.owners[7] = 2;
    t.expect("ownership, one atom on two ranks", check_ownership(bad), false);

    const double scale = momentum_scale(s);
    t.expect("momentum unchanged",
             check_momentum(momentum(s), momentum(s), scale, kMomentumTol),
             true);
    bad = s;
    for (std::size_t k = 0; k < 3; ++k) bad.v[3 * 5 + k] *= 1.01;
    t.expect("momentum, one velocity +1%",
             check_momentum(momentum(s), momentum(bad), scale,
                            kMomentumTol), false);
  });

  // The same run with a list that is never rebuilt misses pairs that come
  // into range, and the corrected energy stops being conserved.
  const double tol = kLjDriftTol;
  const double ok =
      corrected_drift(lj_script("neigh_modify every 20 check no"), 200);
  t.expect("corrected energy, 200 steps", {"drift", ok <= tol, ok, tol}, true);
  const double stale =
      corrected_drift(lj_script("neigh_modify every 100000 check no"), 200);
  t.expect("corrected energy, stale neighbor list",
           {"drift", stale <= tol, stale, tol}, false);
}

void fd_cases(Tally& t) {
  simmpi::World world(1);
  world.run([&](simmpi::Comm& comm) {
    RankCtx ctx{comm, false};
    auto sim = make_sim({"units metal", "lattice bcc 3.16",
                         "create_atoms 3 3 3 jitter 0.02 5511",
                         "mass 1 183.84", "velocity all create 600.0 9182",
                         "pair_style snap/kk", "pair_coeff * * 4.7 6 7771",
                         "fix 1 all nve/kk"},
                        ctx);
    std::vector<double> analytic, fd;
    fd_forces(*sim, {3, 17}, analytic, fd);
    t.expect("snap forces against -dE/dx",
             check_fd_forces(analytic, fd, kFdTol), true);
    std::size_t big = 0;
    for (std::size_t k = 0; k < fd.size(); ++k)
      if (std::abs(fd[k]) > std::abs(fd[big])) big = k;
    analytic[big] *= 1.01;
    t.expect("snap forces, one component +1%",
             check_fd_forces(analytic, fd, kFdTol), false);
  });
}

void charge_cases(Tally& t) {
  simmpi::World world(1);
  world.run([&](simmpi::Comm& comm) {
    RankCtx ctx{comm, false};
    auto sim = make_sim({"units real", "lattice hns_like 5.2",
                         "create_atoms 2 2 2 jitter 0.02 4411", "mass 1 12.0",
                         "mass 2 16.0", "velocity all create 300.0 7123",
                         "pair_style reaxff-lite/kk", "pair_coeff * * hns",
                         "timestep 0.1", "fix 1 all nve/kk"},
                        ctx);
    std::mutex mu;
    SystemState s;
    gather(*sim, mu, sim->global_natoms(), s, ctx);
    t.expect("charges after QEq", check_neutral(s, kChargeTol), true);
    s.q[3] *= 1.01;
    t.expect("charges, one charge +1%", check_neutral(s, kChargeTol), false);
  });
}

}  // namespace

int run_selftest() {
  mlk::init_all();
  Tally t;
  lj_cases(t);
  fd_cases(t);
  charge_cases(t);
  std::printf("{\"ok\": %s, \"cases\": %d, \"wrong\": %zu}\n",
              t.failed.empty() ? "true" : "false", t.cases, t.failed.size());
  return t.failed.empty() ? 0 : 1;
}

}  // namespace mdbench
