// mdbench — one run of one benchmark workload (driven by perfbench/run.py).
//
//   mdbench --script <file> --kind lj|snap|reaxff --ranks <R> --round <N>
//           --seconds <S> --setups <K> --sample-seed <n> --trace 0|1
//           [--drift-tol <x>] [--setup-only 1]
//   mdbench --selftest
//
// A run sets the workload up K times from an empty Simulation, timing each
// set-up, and keeps the last one. It runs one untimed warm-up round of N
// steps, then whole rounds of N steps until S seconds have passed, and then
// checks the program's outputs (checks.hpp). With --trace 1 it also records
// the per-layer split (trace.hpp plus the KernelTimer and MemorySpaceTracker
// profiling tools). The last line of stdout is one JSON object of raw
// measurements; run.py turns it into the benchmark's metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "sim_util.hpp"
#include "kokkos/profiling.hpp"
#include "kokkos/threadpool.hpp"
#include "minilammps.hpp"
#include "reaxff/pair_reaxff_lite.hpp"
#include "tools/json.hpp"
#include "tools/kernel_timer.hpp"
#include "tools/memory_tracker.hpp"
#include "trace.hpp"

namespace mdbench {
int run_selftest();
}

namespace {

using mdbench::CheckResult;
using mdbench::RankCtx;
using mdbench::SystemState;

using mdbench::kChargeTol;
using mdbench::kFdTol;
using mdbench::kForceTol;
using mdbench::kMomentumTol;

constexpr double kLjCutoff = 2.5;
constexpr int kForceSample = 64;
constexpr int kFdAtoms = 2;

struct Options {
  std::string script;
  std::string kind;  // lj | snap | reaxff
  int ranks = 1;
  int round = 20;
  double seconds = 10.0;
  int setups = 3;
  unsigned long sample_seed = 1;
  bool trace = false;
  bool setup_only = false;  // time the set-ups, run nothing
  double drift_tol = 1e-3;
};

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "mdbench: %s\n", why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--script") o.script = v;
    else if (a == "--kind") o.kind = v;
    else if (a == "--ranks") o.ranks = std::atoi(v.c_str());
    else if (a == "--round") o.round = std::atoi(v.c_str());
    else if (a == "--seconds") o.seconds = std::atof(v.c_str());
    else if (a == "--setups") o.setups = std::atoi(v.c_str());
    else if (a == "--sample-seed") o.sample_seed = std::stoul(v);
    else if (a == "--drift-tol") o.drift_tol = std::atof(v.c_str());
    else if (a == "--trace") o.trace = v == "1";
    else if (a == "--setup-only") o.setup_only = v == "1";
    else usage("unknown argument " + a);
  }
  if (o.script.empty()) usage("--script is required");
  if (o.kind != "lj" && o.kind != "snap" && o.kind != "reaxff")
    usage("--kind must be lj, snap or reaxff");
  if (o.ranks < 1 || o.ranks > mdbench::trace::kMaxRanks)
    usage("--ranks out of range");
  if (o.kind != "lj" && o.ranks != 1)
    usage("the finite-difference checks need --ranks 1");
  if (o.round < 1 || o.setups < 1 || o.seconds <= 0.0 || o.drift_tol <= 0.0)
    usage("--round, --setups, --seconds and --drift-tol must be positive");
  return o;
}

std::string num(double v) {
  std::ostringstream s;
  s.precision(17);
  s << v;
  return s.str();
}

std::string quoted(const std::string& s) {
  return "\"" + mlk::json::escape(s) + "\"";
}

// --- state shared by the rank threads -------------------------------------

using KernelStats = std::map<std::string, mlk::tools::KernelTimer::Stat>;
using MemoryStats =
    std::map<std::string, mlk::tools::MemorySpaceTracker::SpaceStat>;

struct Tools {
  std::shared_ptr<mlk::tools::KernelTimer> kernels;
  std::shared_ptr<mlk::tools::MemorySpaceTracker> memory;
  // Snapshots at the start and end of the timed loop.
  KernelStats kernels_before, kernels_after;
  MemoryStats memory_before, memory_after;
  std::uint64_t launches_before = 0, launches_after = 0;
};

struct Shared {
  explicit Shared(int ranks)
      : t_begin(std::size_t(ranks)),
        t_force(std::size_t(ranks)),
        t_end(std::size_t(ranks)) {}

  std::mutex mu;
  std::vector<double> setup_s;
  std::vector<double> round_s;
  std::int64_t natoms = 0;
  std::int64_t attempted = 0;
  bool threw = false;
  std::string error;
  SystemState start, end;
  std::vector<CheckResult> checks;
  std::map<std::string, double> layers;
  // Traced run: per-rank per-step phase times (seconds) and QEq iterations.
  std::vector<std::vector<double>> t_begin, t_force, t_end;
  std::vector<double> qeq_iters;
};

mlk::PairReaxFFLite<kk::Device>* reaxff_style(mlk::Pair* p) {
  return dynamic_cast<mlk::PairReaxFFLite<kk::Device>*>(p);
}

/// Per-layer figures read from the program's own state at the end of the
/// traced loop (the timed spans are reduced in main()). Collective.
void end_of_loop_layers(mlk::Simulation& sim, mlk::Pair* style, Shared& sh,
                        RankCtx& ctx, mlk::bigint nsorts0,
                        mlk::bigint nbalances0, mlk::bigint nretries0) {
  const double nlocal = double(sim.atom.nlocal);
  const double pairs = ctx.sum(double(sim.neighbor.list.total_pairs()));
  const double ghosts = ctx.sum(double(sim.atom.nghost));
  const double fwd = ctx.sum(double(sim.comm.forward_doubles_per_step()));
  const double nmax = ctx.max(nlocal);
  const double ntot = ctx.sum(nlocal);
  const double retries =
      ctx.sum(double(sim.neighbor.nretries() - nretries0));
  double bonds = 0.0, survival = 0.0;
  if (auto* rx = reaxff_style(style)) {
    bonds = ctx.sum(double(rx->bonds().total_bonds())) / ntot;
    survival = rx->quads().survival_fraction();
  }
  if (ctx.rank() != 0) return;
  std::lock_guard<std::mutex> lk(sh.mu);
  auto& L = sh.layers;
  L["neigh.pairs"] = pairs;
  L["neigh.neighbors_per_atom"] = pairs / ntot;
  L["neigh.retries_total"] = retries;
  L["comm.ghosts"] = ghosts;
  L["comm.forward_doubles_per_step"] = fwd;
  L["balance.imbalance"] = nmax / (ntot / double(sh.t_begin.size()));
  L["balance.rebalances_total"] = double(sim.balancer.nbalances - nbalances0);
  L["sort.sorts_total"] = double(sim.sorter.nsorts - nsorts0);
  L["reaxff.bonds_per_atom"] = bonds;
  L["reaxff.quad_survival"] = survival;
}

void rank_main(const Options& o, const std::vector<std::string>& lines,
               Shared& sh, Tools& tools, RankCtx ctx) {
  const bool rank0 = ctx.rank() == 0;
  std::unique_ptr<mlk::Simulation> sim;
  for (int k = 0; k < o.setups; ++k) {
    sim.reset();
    ctx.barrier();
    const double t0 = now();
    sim = mdbench::make_sim(lines, ctx);
    ctx.barrier();
    if (rank0) sh.setup_s.push_back(now() - t0);
  }
  if (o.setup_only) return;

  mlk::Pair* style = sim->pair.get();
  if (o.trace)
    sim->pair =
        std::make_unique<mdbench::trace::TimedPair>(std::move(sim->pair));

  const std::int64_t natoms0 = sim->global_natoms();
  if (rank0) sh.natoms = natoms0;
  mdbench::gather(*sim, sh.mu, natoms0, sh.start, ctx);
  const double ke0 = sim->kinetic_energy();
  const double pe0 = sim->potential_energy();

  // One long run, stopped after whole rounds; thermo output (and with it an
  // energy evaluation) falls on every round's last step.
  sim->thermo.every = o.round;
  mlk::Verlet verlet(*sim);
  verlet.begin(std::numeric_limits<mlk::bigint>::max() / 4);
  auto* rx = reaxff_style(style);
  const int r = ctx.rank();
  const auto run_round = [&](bool traced) {
    for (int s = 0; s < o.round; ++s) {
      if (!traced) {
        const auto p = verlet.step_begin();
        verlet.step_force(p);
        verlet.step_end(p);
        continue;
      }
      const double t0 = now();
      const auto p = verlet.step_begin();
      const double t1 = now();
      verlet.step_force(p);
      const double t2 = now();
      verlet.step_end(p);
      const double t3 = now();
      sh.t_begin[std::size_t(r)].push_back(t1 - t0);
      sh.t_force[std::size_t(r)].push_back(t2 - t1);
      sh.t_end[std::size_t(r)].push_back(t3 - t2);
      if (rx && rank0) sh.qeq_iters.push_back(rx->qeq().last_iterations());
    }
  };

  run_round(false);  // warm-up: lazy allocations, caches, first rebuild

  const mlk::bigint nsorts0 = sim->sorter.nsorts;
  const mlk::bigint nbalances0 = sim->balancer.nbalances;
  const mlk::bigint nretries0 = sim->neighbor.nretries();
  ctx.barrier();
  if (o.trace && rank0) {
    tools.kernels_before = tools.kernels->stats();
    tools.memory_before = tools.memory->stats();
    tools.launches_before = kk::profiling::total_launches();
    mdbench::trace::reset();
    mdbench::trace::set_enabled(true);
  }
  ctx.barrier();

  const double loop_t0 = now();
  for (;;) {
    const double r0 = now();
    if (rank0) sh.attempted += o.round;
    run_round(o.trace);
    const double t = now();
    if (rank0) sh.round_s.push_back(t - r0);
    if (ctx.max(rank0 && t - loop_t0 >= o.seconds ? 1.0 : 0.0) > 0.5) break;
  }
  ctx.barrier();
  if (o.trace && rank0) {
    mdbench::trace::set_enabled(false);
    tools.kernels_after = tools.kernels->stats();
    tools.memory_after = tools.memory->stats();
    tools.launches_after = kk::profiling::total_launches();
  }
  verlet.finish();
  if (o.trace)
    end_of_loop_layers(*sim, style, sh, ctx, nsorts0, nbalances0, nretries0);

  // --- checks --------------------------------------------------------------
  const std::int64_t natoms1 = sim->global_natoms();
  mdbench::gather(*sim, sh.mu, natoms0, sh.end, ctx);
  const double ke1 = sim->kinetic_energy();
  const double pe1 = sim->potential_energy();

  std::vector<double> analytic, fd;
  if (o.kind != "lj")
    mdbench::fd_forces(
        *sim, mdbench::pick(std::size_t(natoms0), kFdAtoms, o.sample_seed),
        analytic, fd);
  if (!rank0) return;

  std::vector<CheckResult> checks;
  checks.push_back(mdbench::check_count(natoms0, natoms1));
  checks.push_back(mdbench::check_ownership(sh.end));
  checks.push_back(mdbench::check_momentum(
      mdbench::momentum(sh.start), mdbench::momentum(sh.end),
      mdbench::momentum_scale(sh.start), kMomentumTol));
  if (o.kind == "lj") {
    const auto sample =
        mdbench::pick(std::size_t(natoms0), kForceSample, o.sample_seed);
    checks.push_back(
        mdbench::check_lj_forces(sh.end, sample, kLjCutoff, kForceTol));
    const double ec0 =
        mdbench::corrected_lj_energy(ke0, pe0, sh.start, kLjCutoff);
    const double ec1 =
        mdbench::corrected_lj_energy(ke1, pe1, sh.end, kLjCutoff);
    checks.push_back(mdbench::check_drift("corrected_energy_conserved", ec0,
                                          ec1, ke0, o.drift_tol));
  } else {
    checks.push_back(mdbench::check_fd_forces(analytic, fd, kFdTol));
    checks.push_back(mdbench::check_drift("energy_conserved", ke0 + pe0,
                                          ke1 + pe1, ke0, o.drift_tol));
  }
  if (o.kind == "reaxff")
    checks.push_back(mdbench::check_neutral(sh.end, kChargeTol));
  std::lock_guard<std::mutex> lk(sh.mu);
  sh.checks = checks;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Reduce the traced spans and tool deltas into per-layer figures.
void traced_layers(Shared& sh, Tools& tools) {
  auto& L = sh.layers;
  const std::size_t ranks = sh.t_begin.size();
  const std::size_t steps = sh.t_force[0].size();
  const double dsteps = double(std::max<std::size_t>(steps, 1));
  const auto mean_ms = [&](const std::vector<std::vector<double>>& t) {
    double s = 0.0;
    for (const auto& v : t)
      for (double x : v) s += x;
    return 1e3 * s / (dsteps * double(ranks));
  };
  L["engine.step_begin_ms"] = mean_ms(sh.t_begin);
  L["engine.step_force_ms"] = mean_ms(sh.t_force);
  L["engine.step_end_ms"] = mean_ms(sh.t_end);
  double wait = 0.0;
  for (std::size_t s = 0; s < steps; ++s) {
    double lo = sh.t_force[0][s], hi = lo;
    for (std::size_t r = 1; r < ranks; ++r) {
      lo = std::min(lo, sh.t_force[r][s]);
      hi = std::max(hi, sh.t_force[r][s]);
    }
    wait += hi - lo;
  }
  L["comm.wait_ms"] = 1e3 * wait / dsteps;

  mdbench::trace::LayerTotals sum;
  for (std::size_t r = 0; r < ranks; ++r) {
    const auto t = mdbench::trace::totals(int(r));
    sum.neigh_s += t.neigh_s;
    sum.neigh_calls += t.neigh_calls;
    sum.forward_s += t.forward_s;
    sum.forward_calls += t.forward_calls;
    sum.pair_s += t.pair_s;
    sum.pair_calls += t.pair_calls;
  }
  const auto per_call_ms = [](double s, std::int64_t n) {
    return n > 0 ? 1e3 * s / double(n) : 0.0;
  };
  L["neigh.build_ms"] = per_call_ms(sum.neigh_s, sum.neigh_calls);
  L["neigh.builds"] = double(sum.neigh_calls) / double(ranks) / dsteps;
  L["neigh.retries"] = sum.neigh_calls > 0
                           ? L["neigh.retries_total"] /
                                 (double(sum.neigh_calls) / double(ranks))
                           : 0.0;
  L["comm.forward_ms"] = per_call_ms(sum.forward_s, sum.forward_calls);
  L["pair.compute_ms"] = per_call_ms(sum.pair_s, sum.pair_calls);
  // Neighbor entries visited per call, summed over ranks, against the
  // per-rank call time summed over ranks.
  L["pair.ns_per_neighbor"] =
      L["neigh.pairs"] > 0.0 && sum.pair_calls > 0
          ? 1e9 * sum.pair_s / (double(sum.pair_calls) / double(ranks)) /
                L["neigh.pairs"]
          : 0.0;
  L["balance.rebalances"] = L["balance.rebalances_total"] / dsteps;
  L["sort.sorts"] = L["sort.sorts_total"] / dsteps;
  double qeq = 0.0;
  for (double q : sh.qeq_iters) qeq += q;
  L["reaxff.qeq_iterations"] =
      sh.qeq_iters.empty() ? 0.0 : qeq / double(sh.qeq_iters.size());

  // Tool deltas over the timed loop. Counts and bytes are summed over ranks;
  // kernel times are per rank (ranks run concurrently).
  const KernelStats& after = tools.kernels_after;
  const auto delta = [&](const std::string& name) {
    mlk::tools::KernelTimer::Stat d;
    auto a = after.find(name);
    if (a == after.end()) return d;
    d = a->second;
    auto b = tools.kernels_before.find(name);
    if (b != tools.kernels_before.end()) {
      d.count -= b->second.count;
      d.total_items -= b->second.total_items;
      d.total_s -= b->second.total_s;
    }
    return d;
  };
  const auto h2d = delta("deep_copy[Device<-Host]");
  const auto d2h = delta("deep_copy[Host<-Device]");
  L["kk.launches_per_step"] =
      double(tools.launches_after - tools.launches_before) / dsteps;
  L["kk.h2d_copies_per_step"] = double(h2d.count) / dsteps;
  L["kk.d2h_copies_per_step"] = double(d2h.count) / dsteps;
  L["kk.h2d_bytes_per_step"] = double(h2d.total_items) / dsteps;
  L["kk.d2h_bytes_per_step"] = double(d2h.total_items) / dsteps;
  for (const auto& [name, stat] : after) {
    if (name.rfind("deep_copy[", 0) == 0) continue;
    const auto d = delta(name);
    if (d.count > 0)
      L["kernel." + name + ".ms_per_step"] =
          1e3 * d.total_s / dsteps / double(ranks);
  }
  const MemoryStats& mem = tools.memory_after;
  double allocs = 0.0, alloc_bytes = 0.0;
  for (const auto& [space, s] : mem) {
    allocs += double(s.alloc_count);
    alloc_bytes += double(s.total_alloc_bytes);
    auto b = tools.memory_before.find(space);
    if (b != tools.memory_before.end()) {
      allocs -= double(b->second.alloc_count);
      alloc_bytes -= double(b->second.total_alloc_bytes);
    }
  }
  L["kk.allocs_per_step"] = allocs / dsteps;
  L["kk.alloc_bytes_per_step"] = alloc_bytes / dsteps;
  auto dev = mem.find("Device");
  L["kk.device_hwm_mb"] =
      dev == mem.end() ? 0.0 : double(dev->second.high_water_bytes) / 1048576.0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--selftest")
    return mdbench::run_selftest();
  const Options o = parse(argc, argv);
  std::vector<std::string> lines;
  try {
    lines = mdbench::read_script(o.script);
  } catch (const std::exception& e) {
    usage(e.what());
  }
  mlk::init_all();

  Tools tools;
  if (o.trace) {
    tools.kernels = std::make_shared<mlk::tools::KernelTimer>();
    tools.memory = std::make_shared<mlk::tools::MemorySpaceTracker>();
    tools.memory->set_print_leaks(false);
    kk::profiling::register_tool(tools.kernels);
    kk::profiling::register_tool(tools.memory);
  }

  Shared sh(o.ranks);
  simmpi::World world(o.ranks);
  try {
    world.run([&](simmpi::Comm& comm) {
      rank_main(o, lines, sh, tools, RankCtx{comm, o.ranks > 1});
    });
  } catch (const std::exception& e) {
    sh.threw = true;
    sh.error = e.what();
  }
  if (o.trace && !sh.threw) traced_layers(sh, tools);
  if (o.trace) {
    kk::profiling::deregister_tool(tools.kernels);
    kk::profiling::deregister_tool(tools.memory);
  }

  bool correct = !sh.threw && (o.setup_only || !sh.checks.empty());
  for (const auto& c : sh.checks) correct = correct && c.ok;
  // A step that throws fails, and a failed check fails every step of the run.
  const std::int64_t attempted = std::max<std::int64_t>(sh.attempted, 1);
  const std::int64_t failed = correct ? 0 : attempted;

  std::ostringstream out;
  out << "{\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"error\":" << quoted(sh.error) << ",\"natoms\":" << sh.natoms
      << ",\"round\":" << o.round << ",\"ranks\":" << o.ranks
      << ",\"threads\":" << kk::ThreadPool::instance().size()
      << ",\"build_type\":" << quoted(MDBENCH_BUILD_TYPE)
      << ",\"compiler\":" << quoted("gcc " __VERSION__)
      << ",\"avx2\":" << (MDBENCH_AVX2 ? "true" : "false")
      << ",\"peak_rss_mb\":" << num(peak_rss_mb()) << ",\"setup_s\":[";
  for (std::size_t i = 0; i < sh.setup_s.size(); ++i)
    out << (i ? "," : "") << num(sh.setup_s[i]);
  out << "],\"round_s\":[";
  for (std::size_t i = 0; i < sh.round_s.size(); ++i)
    out << (i ? "," : "") << num(sh.round_s[i]);
  out << "],\"checks\":[";
  for (std::size_t i = 0; i < sh.checks.size(); ++i) {
    const auto& c = sh.checks[i];
    out << (i ? "," : "") << "{\"name\":" << quoted(c.name)
        << ",\"ok\":" << (c.ok ? "true" : "false")
        << ",\"value\":" << num(c.value) << ",\"limit\":" << num(c.limit)
        << "}";
  }
  out << "],\"layers\":{";
  bool first = true;
  for (const auto& [k, v] : sh.layers) {
    out << (first ? "" : ",") << quoted(k) << ":" << num(v);
    first = false;
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  return 0;
}
