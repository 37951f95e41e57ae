#include "sim_util.hpp"

#include <algorithm>
#include <fstream>
#include <random>
#include <stdexcept>

namespace mdbench {

std::vector<std::string> read_script(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    line = line.substr(0, line.find('#'));
    if (line.find_first_not_of(" \t\r") != std::string::npos)
      lines.push_back(line);
  }
  return lines;
}

std::unique_ptr<mlk::Simulation> make_sim(const std::vector<std::string>& lines,
                                          RankCtx& ctx) {
  auto sim = std::make_unique<mlk::Simulation>();
  sim->mpi = ctx.mpi ? &ctx.comm : nullptr;
  sim->thermo.print = false;
  mlk::Input in(*sim);
  for (const auto& l : lines) in.line(l);
  sim->prepare_run();
  return sim;
}

void gather(mlk::Simulation& sim, std::mutex& mu, std::int64_t natoms,
            SystemState& st, RankCtx& ctx) {
  ctx.barrier();
  if (ctx.rank() == 0) {
    st.resize(std::size_t(natoms));
    for (int d = 0; d < 3; ++d) {
      st.boxlo[d] = sim.domain.boxlo[d];
      st.prd[d] = sim.domain.prd(d);
    }
  }
  ctx.barrier();
  mlk::Atom& a = sim.atom;
  a.sync<kk::Host>(mlk::X_MASK | mlk::V_MASK | mlk::F_MASK | mlk::TAG_MASK |
                   mlk::TYPE_MASK | mlk::Q_MASK);
  {
    std::lock_guard<std::mutex> lk(mu);
    const auto x = a.k_x.h_view;
    const auto v = a.k_v.h_view;
    const auto f = a.k_f.h_view;
    for (mlk::localint i = 0; i < a.nlocal; ++i) {
      const std::size_t li = std::size_t(i);
      const mlk::tagint tag = a.k_tag.h_view(li);
      if (tag < 1 || tag > natoms) {
        ++st.stray_tags;
        continue;
      }
      const std::size_t t = std::size_t(tag - 1);
      ++st.owners[t];
      for (std::size_t d = 0; d < 3; ++d) {
        st.x[3 * t + d] = x(li, d);
        st.v[3 * t + d] = v(li, d);
        st.f[3 * t + d] = f(li, d);
      }
      st.mass[t] = a.mass_of_type(a.k_type.h_view(li));
      st.q[t] = a.k_q.h_view(li);
    }
  }
  ctx.barrier();
}

void fd_forces(mlk::Simulation& sim, const std::vector<std::size_t>& tags,
               std::vector<double>& analytic, std::vector<double>& fd) {
  const double h = 1e-4;
  mlk::Atom& a = sim.atom;
  sim.compute_forces(true);
  a.sync<kk::Host>(mlk::X_MASK | mlk::F_MASK | mlk::TAG_MASK);
  std::vector<std::size_t> local;
  for (std::size_t t : tags)
    for (mlk::localint i = 0; i < a.nlocal; ++i)
      if (a.k_tag.h_view(std::size_t(i)) == mlk::tagint(t) + 1)
        local.push_back(std::size_t(i));
  for (std::size_t i : local)
    for (std::size_t d = 0; d < 3; ++d) analytic.push_back(a.k_f.h_view(i, d));

  // The displaced atom's ghost images follow through forward comm; the
  // neighbor list stays valid for displacements far below the skin.
  const auto move = [&](std::size_t i, std::size_t d, double xval) {
    a.sync<kk::Host>(mlk::X_MASK);
    a.k_x.h_view(i, d) = xval;
    a.modified<kk::Host>(mlk::X_MASK);
    sim.comm.forward_positions(a);
  };
  const auto energy_at = [&](std::size_t i, std::size_t d, double xval) {
    move(i, d, xval);
    sim.compute_forces(true);
    return sim.potential_energy();
  };
  for (std::size_t i : local)
    for (std::size_t d = 0; d < 3; ++d) {
      a.sync<kk::Host>(mlk::X_MASK);
      const double x0 = a.k_x.h_view(i, d);
      const double ep = energy_at(i, d, x0 + h);
      const double em = energy_at(i, d, x0 - h);
      move(i, d, x0);
      fd.push_back(-(ep - em) / (2.0 * h));
    }
  sim.compute_forces(true);
}

std::vector<std::size_t> pick(std::size_t n, int count, unsigned long seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  std::shuffle(all.begin(), all.end(), rng);
  all.resize(std::min(n, std::size_t(count)));
  return all;
}

}  // namespace mdbench
