#!/usr/bin/env python3
"""End-to-end benchmark of the MD engine: one workload per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a source tree. The first run builds the program's
libraries and the `mdbench` harness into .bench_build/ (perfbench/CMakeLists.txt).
A run writes the workload's input script from its template in
perfbench/workloads/, filling in velocity and jitter seeds derived from
--seed; the program receives only that script. The harness runs in its own
process at the workload's pinned thread and rank count. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "mdbench")
# Longest a run may take once the build is done (a run must end within 180 s;
# only a run that builds may take longer).
RUN_LIMIT_S = 160.0

# Each workload runs at a pinned thread and rank count. On a shared 4-vCPU
# virtual machine a second busy thread raises the share of time the
# hypervisor takes away (steal) from 1-4% to 10-20%, and runs of the same
# code then differ by 15-30% (README.md). So the single-rank workloads run
# one pool thread, and the two-rank workload one pool thread per rank (all
# rank threads share the one global kk::ThreadPool).
#   round:  steps per timed round; every round holds the same operations
#           (a whole number of neighbor-rebuild and sort periods)
#   setups: set-ups in each of SETUP_PROCESSES extra processes; setup_s is
#           the median of these and the measured run's one set-up. Set-up
#           time varies more between processes than within one, and the
#           measured run sets up once so that its peak RSS is that of one
#           simulation.
#   drift:  largest accepted energy drift over a run, as a share of the
#           initial kinetic energy
WORKLOADS = {
    "lj_melt": dict(kind="lj", ranks=1, threads=1, round=20, setups=3,
                    drift=1e-3),
    "snap_w": dict(kind="snap", ranks=1, threads=1, round=2, setups=3,
                   drift=1e-3),
    "reaxff_hns": dict(kind="reaxff", ranks=1, threads=1, round=5, setups=3,
                       drift=1e-2),
    "droplet_2rank": dict(kind="lj", ranks=2, threads=1, round=50, setups=10,
                          drift=1e-3),
}
SETUP_PROCESSES = 4

# Environment variables that switch the program onto another code path, or
# add delays to it. A run refuses to start while any of them is set.
REFUSED_ENV = ("MLK_SIMD", "MLK_NEIGH", "MLK_OVERLAP", "MLK_SORT",
               "MLK_PROFILE", "MLK_TRACE", "MLK_TELEMETRY", "MLK_FAULT_STEP",
               "MLK_SIMMPI_LATENCY_US", "MLK_SIMMPI_BW_MBS")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def derived_seed(workload, seed, what):
    """A positive 31-bit seed for `what`, fixed by (workload, seed)."""
    h = hashlib.sha256(f"{workload}:{seed}:{what}".encode()).digest()
    return 1 + int.from_bytes(h[:4], "little") % 2147483000


def build():
    """Configure once, then build incrementally; logs go to .bench_build/."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources at src/ next to perfbench/")
    log_path = os.path.join(ROOT, ".bench_build", "build.log")
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    # The compiler's temporary files stay inside the source tree too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    cwd=ROOT, env=env).returncode
            except OSError as e:
                fail(f"cannot run {cmd[0]}: {e}")
            if rc != 0:
                fail(f"build step {' '.join(cmd)} failed; see {log_path}", 3)


def source_digest():
    """sha256 over the program and benchmark sources (the checkout a run
    measures need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    # Only this tree's own repository: git would otherwise search the parent
    # directories of a tree that is not one.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def metric_name(kernel):
    """kernel.<Name>.ms_per_step with '::' written as '.', closing brackets
    dropped and other characters a metric name may not hold written as '_'
    (PairComputeLJCut<Device> -> PairComputeLJCut_Device)."""
    name = re.sub(r"[>)\]]", "", kernel.replace("::", "."))
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


def write_input(workload, seed, vseed, jseed):
    with open(os.path.join(HERE, "workloads", workload + ".in")) as f:
        text = f.read()
    text = text.replace("{velocity_seed}", str(vseed))
    text = text.replace("{jitter_seed}", str(jseed))
    inputs = os.path.join(ROOT, ".bench_build", "inputs")
    os.makedirs(inputs, exist_ok=True)
    path = os.path.join(inputs, f"{workload}-seed{seed}.in")
    with open(path, "w") as f:
        f.write(text)
    return path


def run_harness(args, env, deadline):
    try:
        proc = subprocess.run(args, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("harness did not finish in time", 4)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"harness exited with code {proc.returncode}", 4)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("harness printed no result", 4)
    return lines, json.loads(lines[-1])


def selftest(deadline):
    """Each correctness check accepts real output and rejects wrong answers
    (harness/selftest.cpp); BENCHMARK.json names the workloads run.py runs."""
    try:
        rc = subprocess.run([HARNESS, "--selftest"],
                            timeout=max(1.0, deadline - time.monotonic()),
                            ).returncode
    except subprocess.TimeoutExpired:
        fail("self-test did not finish in time", 4)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = sorted(w["name"] for w in json.load(f)["workloads"])
    if names != sorted(WORKLOADS):
        print(f"BENCHMARK.json workloads {names} differ from {sorted(WORKLOADS)}")
        rc = rc or 1
    sys.exit(rc)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()

    refused = [v for v in REFUSED_ENV if v in os.environ]
    if refused:
        fail("refusing to run with " + ", ".join(refused) +
             " set: they change the program's code path")
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail("BENCHMARK.json not found at the source root")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    build()
    deadline = time.monotonic() + RUN_LIMIT_S
    if a.selftest:
        selftest(deadline)
    if a.workload is None:
        fail("--workload is required")
    if a.seconds <= 0:
        fail("--seconds must be positive")

    w = WORKLOADS[a.workload]
    vseed = derived_seed(a.workload, a.seed, "velocity")
    jseed = derived_seed(a.workload, a.seed, "jitter")
    sseed = derived_seed(a.workload, a.seed, "sample")
    script = write_input(a.workload, a.seed, vseed, jseed)
    env = dict(os.environ)
    env["MLK_NUM_THREADS"] = str(w["threads"])
    args = [HARNESS, "--script", script, "--kind", w["kind"],
            "--ranks", str(w["ranks"]), "--round", str(w["round"]),
            "--seconds", repr(a.seconds), "--sample-seed", str(sseed),
            "--drift-tol", repr(w["drift"]), "--trace", str(a.trace)]
    _, r = run_harness(args + ["--setups", "1"], env, deadline)
    setup_s = list(r["setup_s"])
    if a.trace == 0:
        for _ in range(SETUP_PROCESSES):
            _, extra = run_harness(
                args + ["--setups", str(w["setups"]), "--setup-only", "1"],
                env, deadline)
            setup_s += extra["setup_s"]

    fingerprint = {
        "workload": a.workload, "seed": a.seed, "velocity_seed": vseed,
        "jitter_seed": jseed, "sample_seed": sseed, "trace": a.trace,
        "threads": r["threads"], "ranks": r["ranks"], "natoms": r["natoms"],
        "round_steps": r["round"], "build_type": r["build_type"],
        "compiler": r["compiler"], "avx2": r["avx2"], "git_sha": git_sha(),
        "source_sha256": source_digest(), "host_cpus": os.cpu_count(),
    }
    print("fingerprint " + json.dumps(fingerprint))
    for c in r["checks"]:
        print(f"check {c['name']}: {'ok' if c['ok'] else 'FAILED'} "
              f"(value {c['value']:.3e}, limit {c['limit']:.3e})")
    if r["error"]:
        print("error: " + r["error"])

    # A run that threw may have no complete round.
    throughput = (r["natoms"] * r["round"] / statistics.median(r["round_s"])
                  if r["round_s"] else 0.0)
    metrics = {}
    if a.trace == 0:
        values = {
            "atom_steps_per_s": throughput,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": r["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    else:
        layers = dict(r["layers"])
        layers["engine.atom_steps_per_s"] = throughput
        values = {}
        for k, v in layers.items():
            values[metric_name(k) if k.startswith("kernel.") else k] = v
        wanted = spec["per_layer"]
        extra = sorted((v, k) for k, v in values.items()
                       if k.startswith("kernel.")
                       and k not in {m["name"] for m in wanted})
        for v, k in reversed(extra):
            print(f"unlisted {k} {v:.4f}")
    for m in wanted:
        name = m["name"]
        if (name not in values and not name.startswith("kernel.")
                and r["correct"]):
            fail(f"the harness reported no value for {name}", 4)
        # A kernel that never ran on this workload took no time.
        metrics[name] = {"value": values.get(name, 0.0), "unit": m["unit"]}
    print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
