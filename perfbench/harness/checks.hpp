// Correctness checks of the benchmark. Every check compares the program's
// output with a quantity computed here, independently of the program, or
// with a property the method must have (conservation laws, neutrality). None
// compares against a stored copy of earlier output. The checks work on plain
// gathered data so the self-test can hand them deliberately wrong answers.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mdbench {

// Limits. Direct summation agrees with the program to rounding. The others
// sit far above what correct code shows over a run (README.md) and far below
// what a 1% error produces (selftest.cpp).
constexpr double kForceTol = 1e-8;     // check_lj_forces
constexpr double kFdTol = 1e-4;        // check_fd_forces
constexpr double kMomentumTol = 1e-9;  // check_momentum
constexpr double kChargeTol = 1e-9;    // check_neutral

struct CheckResult {
  std::string name;
  bool ok = false;
  double value = 0.0;  // measured error (or count mismatch)
  double limit = 0.0;  // largest accepted value
};

/// Whole-system state gathered from every rank and indexed by tag - 1.
struct SystemState {
  double boxlo[3] = {0, 0, 0};
  double prd[3] = {1, 1, 1};
  std::vector<double> x, v, f;   // 3 per atom
  std::vector<double> mass;      // per atom
  std::vector<double> q;         // per atom (charge styles only)
  std::vector<int> owners;       // ranks that reported each tag
  std::int64_t stray_tags = 0;   // tags outside [1, natoms]

  void resize(std::size_t natoms);
  std::size_t natoms() const { return owners.size(); }
};

/// Lennard-Jones pair energy with epsilon = sigma = 1, unshifted.
double lj_energy(double r);

/// Forces on `sample` atoms recomputed by direct minimum-image summation over
/// every other atom (epsilon = sigma = 1, cutoff rc), compared with the
/// program's forces. value = largest component error as a share of the RMS
/// direct force component.
CheckResult check_lj_forces(const SystemState& s,
                            const std::vector<std::size_t>& sample, double rc,
                            double tol);

/// Number of distinct pairs closer than rc (minimum image, cell list).
std::int64_t count_pairs_within(const SystemState& s, double rc);

/// KE + PE - (pairs within rc) * V(rc). lj/cut is unshifted, so its raw total
/// energy jumps by V(rc) whenever a pair crosses rc; this sum does not.
double corrected_lj_energy(double ke, double pe, const SystemState& s,
                           double rc);

/// |e1 - e0| / scale <= tol.
CheckResult check_drift(const std::string& name, double e0, double e1,
                        double scale, double tol);

std::array<double, 3> momentum(const SystemState& s);
/// sum_i m_i |v_i|: the scale momentum errors are measured against.
double momentum_scale(const SystemState& s);
CheckResult check_momentum(const std::array<double, 3>& p0,
                           const std::array<double, 3>& p1, double scale,
                           double tol);

/// The same number of atoms before and after.
CheckResult check_count(std::int64_t n0, std::int64_t n1);

/// Every tag in [1, natoms] is owned by exactly one rank and no other tag
/// appears. value = number of tags violating this.
CheckResult check_ownership(const SystemState& s);

/// Analytic forces against -dE/dx from central differences; value = largest
/// component error as a share of the RMS finite-difference component.
CheckResult check_fd_forces(const std::vector<double>& analytic,
                            const std::vector<double>& fd, double tol);

/// |sum q| / (sum |q|) <= tol.
CheckResult check_neutral(const SystemState& s, double tol);

}  // namespace mdbench
