// Helpers shared by the measured run (main.cpp) and the self-test: building
// a Simulation from script lines, gathering its atoms across ranks, and
// differentiating its energy numerically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "checks.hpp"
#include "minilammps.hpp"

namespace mdbench {

/// One rank's view of the simmpi world; the collectives are no-ops when the
/// run is serial.
struct RankCtx {
  simmpi::Comm& comm;
  bool mpi;
  int rank() const { return comm.rank(); }
  void barrier() {
    if (mpi) comm.barrier();
  }
  double sum(double v) { return mpi ? comm.allreduce_sum(v) : v; }
  double max(double v) { return mpi ? comm.allreduce_max(v) : v; }
};

/// Script lines with comments and blank lines removed.
std::vector<std::string> read_script(const std::string& path);

/// An empty Simulation taken through the script and set up to step:
/// lattice, velocities, styles, first neighbor list and first forces.
std::unique_ptr<mlk::Simulation> make_sim(const std::vector<std::string>& lines,
                                          RankCtx& ctx);

/// Copy every rank's owned atoms into `st`, indexed by tag - 1, for a system
/// of `natoms` atoms. `mu` guards `st` across the rank threads. Collective.
void gather(mlk::Simulation& sim, std::mutex& mu, std::int64_t natoms,
            SystemState& st, RankCtx& ctx);

/// For the atoms with tag index in `tags` (tag - 1): the program's forces
/// and -dE/dx from central differences of the program's own energy, one
/// entry per component. Serial runs only; forces are recomputed at the
/// original positions before returning.
void fd_forces(mlk::Simulation& sim, const std::vector<std::size_t>& tags,
               std::vector<double>& analytic, std::vector<double>& fd);

/// `count` distinct indices in [0, n), drawn from `seed`.
std::vector<std::size_t> pick(std::size_t n, int count, unsigned long seed);

}  // namespace mdbench
