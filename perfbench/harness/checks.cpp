#include "checks.hpp"

#include <algorithm>
#include <cmath>

namespace mdbench {

void SystemState::resize(std::size_t natoms) {
  x.assign(3 * natoms, 0.0);
  v.assign(3 * natoms, 0.0);
  f.assign(3 * natoms, 0.0);
  mass.assign(natoms, 0.0);
  q.assign(natoms, 0.0);
  owners.assign(natoms, 0);
  stray_tags = 0;
}

double lj_energy(double r) {
  const double s6 = 1.0 / (r * r * r * r * r * r);
  return 4.0 * (s6 * s6 - s6);
}

namespace {

void min_image(const SystemState& s, double* d) {
  for (int k = 0; k < 3; ++k)
    d[k] -= s.prd[k] * std::nearbyint(d[k] / s.prd[k]);
}

CheckResult make(const std::string& name, double value, double limit) {
  return {name, value <= limit, value, limit};
}

/// Largest |got - want| over the components, as a share of the RMS of
/// `want`: unit-free, and a 1% error on the largest component reads >= 0.01.
double scaled_error(const std::vector<double>& got,
                    const std::vector<double>& want) {
  if (got.size() != want.size() || want.empty()) return HUGE_VAL;
  double worst = 0.0, sq = 0.0;
  for (std::size_t k = 0; k < want.size(); ++k) {
    worst = std::max(worst, std::abs(got[k] - want[k]));
    sq += want[k] * want[k];
  }
  const double rms = std::sqrt(sq / double(want.size()));
  return rms > 0.0 ? worst / rms : HUGE_VAL;
}

}  // namespace

CheckResult check_lj_forces(const SystemState& s,
                            const std::vector<std::size_t>& sample, double rc,
                            double tol) {
  const std::size_t n = s.natoms();
  const double rc2 = rc * rc;
  std::vector<double> direct, program;
  for (std::size_t i : sample) {
    double fd[3] = {0, 0, 0};
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      double d[3] = {s.x[3 * i] - s.x[3 * j], s.x[3 * i + 1] - s.x[3 * j + 1],
                     s.x[3 * i + 2] - s.x[3 * j + 2]};
      min_image(s, d);
      const double r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
      if (r2 >= rc2) continue;
      const double r2inv = 1.0 / r2;
      const double r6inv = r2inv * r2inv * r2inv;
      const double fpair = 24.0 * r6inv * (2.0 * r6inv - 1.0) * r2inv;
      for (int k = 0; k < 3; ++k) fd[k] += fpair * d[k];
    }
    for (std::size_t k = 0; k < 3; ++k) {
      direct.push_back(fd[k]);
      program.push_back(s.f[3 * i + k]);
    }
  }
  return make("lj_direct_forces", scaled_error(program, direct), tol);
}

std::int64_t count_pairs_within(const SystemState& s, double rc) {
  const std::size_t n = s.natoms();
  int nc[3];
  for (int k = 0; k < 3; ++k) nc[k] = std::max(1, int(s.prd[k] / rc));
  const auto cell_of = [&](std::size_t i, int k) {
    double u = (s.x[3 * i + std::size_t(k)] - s.boxlo[k]) / s.prd[k];
    u -= std::floor(u);
    return std::min(nc[k] - 1, int(u * nc[k]));
  };
  const auto flat = [&](int a, int b, int c) {
    return (std::size_t(a) * std::size_t(nc[1]) + std::size_t(b)) *
               std::size_t(nc[2]) + std::size_t(c);
  };
  std::vector<std::vector<std::size_t>> cells(std::size_t(nc[0]) *
                                              std::size_t(nc[1]) *
                                              std::size_t(nc[2]));
  for (std::size_t i = 0; i < n; ++i)
    cells[flat(cell_of(i, 0), cell_of(i, 1), cell_of(i, 2))].push_back(i);

  // With fewer than three cells along a dimension the 27 neighbor offsets
  // alias; visit each distinct neighbor cell once.
  const double rc2 = rc * rc;
  std::int64_t pairs = 0;
  for (int a = 0; a < nc[0]; ++a)
    for (int b = 0; b < nc[1]; ++b)
      for (int c = 0; c < nc[2]; ++c) {
        const auto& home = cells[flat(a, b, c)];
        std::vector<std::size_t> seen;
        for (int da = -1; da <= 1; ++da)
          for (int db = -1; db <= 1; ++db)
            for (int dc = -1; dc <= 1; ++dc) {
              const std::size_t other =
                  flat((a + da + nc[0]) % nc[0], (b + db + nc[1]) % nc[1],
                       (c + dc + nc[2]) % nc[2]);
              if (std::find(seen.begin(), seen.end(), other) != seen.end())
                continue;
              seen.push_back(other);
              for (std::size_t i : home)
                for (std::size_t j : cells[other]) {
                  if (j <= i) continue;
                  double d[3] = {s.x[3 * i] - s.x[3 * j],
                                 s.x[3 * i + 1] - s.x[3 * j + 1],
                                 s.x[3 * i + 2] - s.x[3 * j + 2]};
                  min_image(s, d);
                  if (d[0] * d[0] + d[1] * d[1] + d[2] * d[2] < rc2) ++pairs;
                }
            }
      }
  return pairs;
}

double corrected_lj_energy(double ke, double pe, const SystemState& s,
                           double rc) {
  return ke + pe - double(count_pairs_within(s, rc)) * lj_energy(rc);
}

CheckResult check_drift(const std::string& name, double e0, double e1,
                        double scale, double tol) {
  return make(name, std::abs(e1 - e0) / scale, tol);
}

std::array<double, 3> momentum(const SystemState& s) {
  std::array<double, 3> p{0, 0, 0};
  for (std::size_t i = 0; i < s.natoms(); ++i)
    for (std::size_t k = 0; k < 3; ++k) p[k] += s.mass[i] * s.v[3 * i + k];
  return p;
}

double momentum_scale(const SystemState& s) {
  double sum = 0.0;
  for (std::size_t i = 0; i < s.natoms(); ++i)
    sum += s.mass[i] * std::sqrt(s.v[3 * i] * s.v[3 * i] +
                                 s.v[3 * i + 1] * s.v[3 * i + 1] +
                                 s.v[3 * i + 2] * s.v[3 * i + 2]);
  return sum;
}

CheckResult check_momentum(const std::array<double, 3>& p0,
                           const std::array<double, 3>& p1, double scale,
                           double tol) {
  double d2 = 0.0;
  for (std::size_t k = 0; k < 3; ++k) d2 += (p1[k] - p0[k]) * (p1[k] - p0[k]);
  return make("momentum_conserved", std::sqrt(d2) / scale, tol);
}

CheckResult check_count(std::int64_t n0, std::int64_t n1) {
  return make("atom_count_conserved", double(std::abs(n1 - n0)), 0.0);
}

CheckResult check_ownership(const SystemState& s) {
  double bad = double(s.stray_tags);
  for (int c : s.owners)
    if (c != 1) bad += 1.0;
  return make("tags_owned_once", bad, 0.0);
}

CheckResult check_fd_forces(const std::vector<double>& analytic,
                            const std::vector<double>& fd, double tol) {
  return make("fd_forces", scaled_error(analytic, fd), tol);
}

CheckResult check_neutral(const SystemState& s, double tol) {
  double sum = 0.0, abs_sum = 0.0;
  for (double qi : s.q) {
    sum += qi;
    abs_sum += std::abs(qi);
  }
  return make("charge_neutral",
              abs_sum > 0.0 ? std::abs(sum) / abs_sum : HUGE_VAL, tol);
}

}  // namespace mdbench
