#!/usr/bin/env python3
"""parastat benchmark: fresh-process workloads with checked outputs.

    python3 perfbench/run.py --workload {derive,sweep,gauge,fock}
                             --seed N --seconds S --trace {0,1}

Run from the repository root.  Every operation runs alone in a fresh
interpreter (perfbench/child.py) with PYTHONPATH=src, the way a user runs the
CLI.  One iteration runs the workload's operations in order; a run ends at
the iteration end nearest to S seconds (at least one iteration runs).

The benchmark and its children run on one CPU.  While a child runs, a
thread of the benchmark times a fixed reference loop on that CPU every
SAMPLE_EVERY_S, and every time reported below is scaled by the mean speed it
saw, to seconds at the speed where the loop takes REF_NOMINAL_S.  This
removes most of the host's speed changes from the figures; the elapsed
wall time is printed beside them.

--trace 0 prints the end-to-end metrics: wall_s (spawn-to-exit time summed
over an iteration's processes, averaged over the run's iterations), setup_s
(median spawn to first-call time over every process of the run, including
import-only probes), trials_per_s (work units per second of in-process
time, over the whole run), peak_rss_mb (largest max RSS of any operation).
--trace 1 alternates untraced and traced iterations and prints the
per-layer metrics from the traced ones.

The last stdout line is one JSON object: correct, attempted, failed (the
operations whose exit code or output check failed) and metrics.  Lines
before it give the environment, each operation and the error rate.
"""

import argparse
import itertools
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DEADLINE_S = 170.0
SETUP_PROBES = 2
IMPORTTIME_PROBES = 3
TOL = 1e-10
# Host-speed normalisation (perfbench/README.md): a fixed pure-Python loop of
# REF_LOOPS steps is timed every SAMPLE_EVERY_S on the CPU the child runs on,
# and each time the benchmark reports is scaled to the speed at which that
# loop takes REF_NOMINAL_S (the fast speed of the 2-vCPU Xeon host it was
# tuned on).
REF_LOOPS = 20000
REF_NOMINAL_S = 1.5e-3
SAMPLE_EVERY_S = 0.1

END_TO_END = {"wall_s": "s", "setup_s": "s", "trials_per_s": "1/s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; span names are grouped by GROUPS before summing
PER_LAYER = {
    "cli.import_s": "s", "cli.import_sympy_s": "s", "cli.main.self_s": "s",
    **{f"group_engine.{f}.self_s": "s" for f in (
        "enumerate_group", "character_table", "irreps", "find_para_pair",
        "solve_intertwiner", "derive_r", "gauge_match")},
    "group_engine.self_s": "s", "group_engine.group_order": "count",
    "group_engine.irreps.count": "count", "group_engine.irreps.max_dim": "count",
    "rmatrix.checks.self_s": "s", "rmatrix.checks.calls": "count", "rmatrix.self_s": "s",
    "parafock.normal_form.self_s": "s", "parafock.normal_form.calls": "count",
    "parafock.normal_form.peak_support": "count",
    "parafock.transport.self_s": "s", "parafock.transport.calls": "count",
    "parafock.self_s": "s",
    **{f"game.{f}.self_s": "s" for f in (
        "run_protocol", "twist_experiment", "noise_experiment", "decode")},
    "game.decode.calls": "count", "game.run_protocol.calls": "count",
    "game.trials": "count", "game.self_s": "s",
    **{f"gauge_sim.{f}.self_s": "s" for f in (
        "commutator_residuals", "ground_state", "vertex_projector", "wilson")},
    "gauge_sim.vertex_projector.calls": "count", "gauge_sim.ground_state.configs": "count",
    "gauge_sim.ground_state.support": "count", "gauge_sim.self_s": "s",
    "trace.overhead_s": "s", "trace.overhead_share": "ratio", "trace.spans": "count",
    "trace.coverage": "ratio", "trace.coverage.longest_op": "ratio",
}
GROUPS = {
    **{f"rmatrix.{f}": "rmatrix.checks" for f in (
        "check_yang_baxter", "check_unitary", "check_perfect_tensor",
        "is_trivial_product", "spectral_invariants", "invariants_close")},
    **{f"parafock.{f}": "parafock.transport" for f in (
        "create", "move", "measure_corner", "annihilate")},
    **{f"gauge_sim.{f}": "gauge_sim.wilson" for f in (
        "apply_wilson_line", "apply_wilson_loop", "verify_deformation")},
}
# span counters combined by max; every other counter is summed
MAX_COUNTERS = {"group_engine.group_order", "group_engine.irreps.count",
                "group_engine.irreps.max_dim", "parafock.normal_form.peak_support"}


class CheckFailed(Exception):
    pass


def need(cond, what):
    if not cond:
        raise CheckFailed(what)


class Op:
    """One process: a CLI call (target "cli") or a workload module's run(seed)."""

    def __init__(self, label, target, args, check, units=lambda out: 1):
        self.label, self.target, self.args = label, target, args
        self.check, self.units = check, units


# ---------------------------------------------------------------------------
# output checks


def check_derive(out):
    need(out["group_order"] == 128, "group order 128")
    need(out["invariants_match_builtin"] is True, "invariants match builtin paper3d")
    need(all(c["passed"] for c in out["checks"]), "derived R passes every check")
    return {"gauge_match_found": out["gauge_match_found"]}  # recorded, not gated


def check_verify(out):
    need(all(c["passed"] for c in out["checks"]) and out["nontrivial"], "verify-r passes")


def check_simulate(out):
    need(out["pairs"] == 16 and out["wins"] == 16, "16/16 wins")


def check_twist(expect_half):
    def check(out):
        rate, n = out["success_rate"], out["manifest"]["config"]["trials"]
        if expect_half:
            need(abs(rate - 0.5) <= 5 * math.sqrt(0.25 / n), "braid twist rate within 5 sigma of 1/2")
        else:
            need(rate == 1.0, "involutive twist rate 1.0")
    return check


def check_noise(out):
    shield = out["manifest"]["config"]["noise_l"]
    need(len(out["curve"]) == shield + 3, "one point per distance 0..noise_l+2")
    for pt in out["curve"]:
        if pt["distance"] > shield:
            need(pt["success_rate"] == 1.0, "noise curve 1.0 beyond noise_l")
        else:
            need(pt["success_rate"] < 1.0, "noise curve below 1 within noise_l")


def check_gauge(order):
    def check(out):
        need(out["passed"] is True and out["group_order"] == order, f"gauge-check passed, |G|={order}")
    return check


def check_ladder(out):
    flat = out["group_order"] ** (out["n_edges"] - out["n_plaquettes"])
    need(out["support"] == flat, "ground state supported on every flat configuration")
    need(abs(out["norm"] - 1) <= TOL, "ground state normalized")
    need(max(out["projector_residuals"].values()) <= TOL, "projector residuals")
    need(all(abs(x - 1) <= TOL for x in out["vertices"] + out["plaquettes"]), "ground expectations 1")
    need(out["deformation"] <= TOL, "homotopic Wilson lines agree")
    for v, x in enumerate(out["wilson_vertices"]):
        if v in out["endpoints"]:
            need(x < 1 - 1e-6, "Wilson endpoints excited")
        else:
            need(abs(x - 1) <= TOL, "Wilson line invisible away from endpoints")


def check_fock(out):
    need(out["norm_drift"] <= TOL, "normal forms keep unit norm")
    need(out["gauge_error"] <= TOL, "gauged normal form equals rotated paper3d normal form")
    need(out["deterministic_support"] == 1, "paper3d normal forms are single configurations")
    for t in out["transport"]:
        need(t["in_column"], "transport outcome in the R column")
        need(abs(t["vacuum_amplitude"] - 1) <= TOL and t["norm_drift"] <= TOL, "transport back to vacuum")
    need(not out["imported_cli"] and not out["imported_sympy"], "fock imports neither cli nor sympy")


# ---------------------------------------------------------------------------
# workloads


def trial_units(out):
    cfg = out["manifest"]["config"]
    if "curve" in out:
        return len(out["curve"]) * cfg["trials"]
    return cfg["trials"]


def workload_ops(name, seed):
    """The operations of one iteration, with program seeds drawn from seed."""
    rng = random.Random(f"{name}:{seed}")

    def s():
        return str(rng.randrange(10 ** 6))

    if name == "derive":
        return [
            Op("derive-r", "cli", ["--seed", s(), "derive-r", "--out-r", "derived.json"], check_derive),
            Op("verify-r", "cli", ["--seed", s(), "verify-r", "--input", "derived.json"], check_verify),
        ]
    if name == "sweep":
        return [
            Op("simulate", "cli", ["--seed", s(), "simulate", "--builtin", "paper3d", "--all-pairs"],
               check_simulate, lambda out: out["pairs"]),
            Op("twist-paper3d", "cli", ["--seed", s(), "twist", "--builtin", "paper3d",
                                        "--trials", "10000"], check_twist(False), trial_units),
            Op("twist-braid", "cli", ["--seed", s(), "twist", "--builtin", "braid-fixture",
                                      "--trials", "10000"], check_twist(True), trial_units),
            Op("noise-sweep", "cli", ["--seed", s(), "noise-sweep", "--builtin", "paper3d"],
               check_noise, trial_units),
        ]
    if name == "gauge":
        return [Op(f"gauge-check-{g}", "cli", ["--seed", s(), "gauge-check", "--group", g,
                                               "--patch", "2x2"], check_gauge(order))
                for g, order in (("Z2", 2), ("S3", 6), ("D4", 8))] + [
            Op("ladder-S3", "gauge_ladder", [s()], check_ladder)]
    if name == "fock":
        return [Op("fock", "fock_suite", [s()], check_fock)]
    raise ValueError(name)


WORKLOADS = ("derive", "sweep", "gauge", "fock")


# ---------------------------------------------------------------------------
# processes


def child_env():
    env = dict(os.environ)
    env.pop("PARASTAT_THREADS", None)  # the program's default: one worker
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
    return env


class Proc:
    """Result of one child process."""

    def __init__(self, **kw):
        self.__dict__.update(kw)


def reference_loop():
    """Seconds one run of a fixed pure-Python loop takes now."""
    t = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t


class SpeedProbe(threading.Thread):
    """Times the reference loop every SAMPLE_EVERY_S while a child runs.

    The parent and its children share one CPU (main pins it), so each sample
    sees the speed the child sees at that moment."""

    def __init__(self):
        super().__init__(daemon=True)
        self.stop, self.samples = threading.Event(), [reference_loop()]

    def run(self):
        while not self.stop.wait(SAMPLE_EVERY_S):
            self.samples.append(reference_loop())

    def finish(self):
        """Mean speed over the samples, relative to the nominal speed.  The
        samples are evenly spaced, so elapsed time x mean speed is the time
        the same work takes at the nominal speed."""
        self.stop.set()
        self.join()
        self.samples.append(reference_loop())
        return statistics.mean(REF_NOMINAL_S / s for s in self.samples)


def spawn(cmd, cwd, deadline, tag, timing=None):
    """Run cmd in cwd to completion; returns Proc with wall, setup and inproc
    at the nominal speed, raw_wall as elapsed, the speed factor and rss_mb."""
    out, err = cwd / f"{tag}.stdout", cwd / f"{tag}.stderr"
    with open(out, "wb") as fo, open(err, "wb") as fe:
        probe = SpeedProbe()
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=cwd, env=ENV, stdout=fo, stderr=fe)
        probe.start()
        timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            t1 = time.monotonic()
            speed = probe.finish()
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    rec = {}
    if timing is not None and timing.exists():
        rec = json.loads(timing.read_text())
        spans = Path(f"{timing}.spans")
        if spans.exists():
            rec["spans"] = json.loads(spans.read_text())
    return Proc(rc=rc, raw_wall=t1 - t0, speed=speed, wall=(t1 - t0) * speed,
                setup=(rec["ready"] - t0) * speed if "ready" in rec else None,
                inproc=(rec["done"] - rec["run"]) * speed if "done" in rec else None,
                spans=rec.get("spans", []), trace_cost=rec.get("trace_cost", 0.0) * speed,
                rss_mb=usage.ru_maxrss / 1024.0, stdout=out.read_text(), stderr=err.read_text())


def run_child(target, args, cwd, deadline, tag, trace=False, mode="run"):
    cwd.mkdir(parents=True, exist_ok=True)
    timing = cwd / f"{tag}.timing.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(timing), "1" if trace else "0",
           mode, target, *args]
    return spawn(cmd, cwd, deadline, tag, timing)


def run_iteration(name, seed, tag, state, trace=False):
    """Run one iteration's operations in order and check every output."""
    procs, extras = [], {}
    for k, op in enumerate(workload_ops(name, seed)):
        # operations of one iteration share a directory for the files they pass on
        p = run_child(op.target, op.args, state.run_dir / tag, state.deadline, str(k), trace)
        state.attempted += 1
        try:
            need(p.rc == 0, f"exit code {p.rc}")
            out = json.loads(p.stdout)
            extras.update(op.check(out) or {})
            p.ok, p.units = True, op.units(out)
        except (CheckFailed, ValueError, KeyError, IndexError, TypeError) as exc:
            state.failed += 1
            p.ok, p.units = False, 0
            tail = p.stderr.strip().splitlines()[-3:]
            print(f"FAILED {op.label}: {exc!r} {' | '.join(tail)}", file=sys.stderr)
        print(f"op {op.label:16s} rc={p.rc} wall={p.wall:.3f}s setup={_fmt(p.setup)}s "
              f"inproc={_fmt(p.inproc)}s raw_wall={p.raw_wall:.3f}s speed={p.speed:.3f} "
              f"rss={p.rss_mb:.1f}MB trace={int(trace)} "
              f"{'ok' if p.ok else 'FAILED'}")
        procs.append(p)
    state.extras.update(extras)
    return procs


def _fmt(x):
    return "-" if x is None else f"{x:.3f}"


# ---------------------------------------------------------------------------
# metrics


def targets(name, seed):
    return sorted({op.target for op in workload_ops(name, seed)})


def end_to_end(state, name, seed, seconds):
    setups = []
    for i in range(SETUP_PROBES):
        for target in targets(name, seed):
            p = run_child(target, [], state.run_dir / "probes", state.deadline,
                          f"{target}-{i}", mode="probe")
            if p.rc == 0 and p.setup is not None:
                setups.append(p.setup)
    iterations = []
    start = time.monotonic()
    for it in itertools.count():
        procs = run_iteration(name, seed, f"it{it}", state)
        iterations.append(procs)
        setups += [p.setup for p in procs if p.setup is not None]
        if _stop(start, sum(p.raw_wall for p in procs), seconds, state):
            break
    procs = [p for it in iterations for p in it]
    inproc = sum(p.inproc or 0.0 for p in procs)
    state.extras["elapsed_wall_s"] = sum(p.raw_wall for p in procs) / len(iterations)
    state.extras["speed"] = statistics.mean(p.speed for p in procs)
    return {
        "wall_s": mean_wall(iterations),
        "setup_s": statistics.median(setups),
        "trials_per_s": sum(p.units for p in procs) / inproc if inproc else 0.0,
        "peak_rss_mb": max(p.rss_mb for p in procs),
    }, len(iterations)


def mean_wall(iterations):
    """Wall time summed over each iteration's processes, averaged over iterations."""
    return sum(p.wall for it in iterations for p in it) / len(iterations)


def _stop(start, last, seconds, state):
    """Stop at the iteration end nearest to `seconds`, so that a slow host
    does not lose a whole iteration of averaging."""
    now = time.monotonic()
    return now - start + last / 2 > seconds or now + 2 * last > state.deadline


def importtime(state):
    """Cumulative import times of parastat.cli and of sympy, via -X importtime,
    at the nominal speed."""
    cli_s, sympy_s = [], []
    for i in range(IMPORTTIME_PROBES):
        cwd = state.run_dir / "importtime"
        cwd.mkdir(parents=True, exist_ok=True)
        p = spawn([sys.executable, "-X", "importtime", "-c", "import parastat.cli"],
                  cwd, state.deadline, str(i))
        if p.rc != 0:
            continue
        top, sympy = 0.0, 0.0
        for line in p.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cum, mod = line.split("|")
            if cum.strip().isdigit():
                depth = (len(mod) - len(mod.lstrip()) - 1) // 2
                if depth == 0 and mod.strip().split(".")[0] == "parastat":
                    top += int(cum) / 1e6 * p.speed
                if mod.strip() == "sympy":
                    sympy = int(cum) / 1e6 * p.speed
        cli_s.append(top)
        sympy_s.append(sympy)
    return {"cli.import_s": statistics.median(cli_s) if cli_s else float("nan"),
            "cli.import_sympy_s": statistics.median(sympy_s) if sympy_s else float("nan")}


def layer_metrics(procs):
    """Sum self time (at the nominal speed), calls and counters of one traced
    iteration by layer."""
    m = defaultdict(float)
    covered_total = inproc_total = 0.0
    longest = (-1.0, 0.0)
    for p in procs:
        spans = p.spans
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        covered = 0.0
        for i, (name, t0, t1, parent, counters) in enumerate(spans):
            self_s = ((t1 - t0) - child_time[i]) * p.speed
            layer = name.split(".")[0]
            key = GROUPS.get(name, name)
            if layer != "cli":
                m[f"{layer}.self_s"] += self_s
                if parent < 0 or spans[parent][0].startswith("cli."):
                    covered += (t1 - t0) * p.speed
            m[f"{key}.self_s"] += self_s
            m[f"{key}.calls"] += 1
            for k, v in (counters or {}).items():
                m[k] = max(m[k], v) if k in MAX_COUNTERS else m[k] + v
        m["trace.spans"] += len(spans)
        m["trace.overhead_s"] += p.trace_cost
        if p.inproc:
            covered_total += covered
            inproc_total += p.inproc
            if p.inproc > longest[0]:
                longest = (p.inproc, covered / p.inproc)
    m["trace.coverage"] = covered_total / inproc_total if inproc_total else 0.0
    m["trace.overhead_share"] = m["trace.overhead_s"] / inproc_total if inproc_total else 0.0
    m["trace.coverage.longest_op"] = longest[1]
    return m


def per_layer(state, name, seed, seconds):
    out = importtime(state)
    plain, traced, layers = [], [], []
    start = time.monotonic()
    for it in itertools.count():
        t0 = time.monotonic()
        plain.append(run_iteration(name, seed, f"it{it}-plain", state))
        traced.append(run_iteration(name, seed, f"it{it}-traced", state, trace=True))
        layers.append(layer_metrics(traced[-1]))
        if _stop(start, time.monotonic() - t0, seconds, state):
            break
    for metric in PER_LAYER:
        if metric not in out:
            out[metric] = statistics.median(m.get(metric, 0.0) for m in layers)
    # host noise swamps this difference unless many pairs fit into the run
    diff = mean_wall(traced) - mean_wall(plain)
    state.extras["trace.wall_difference_s"] = f"{diff:.4f} over {len(plain)} pair(s)"
    return out, len(plain)


# ---------------------------------------------------------------------------


def environment(seed, workload):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    return {
        "workload": workload, "seed": seed,
        "python": platform.python_version(), "numpy": version("numpy"), "sympy": version("sympy"),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": ENV.get("OPENBLAS_NUM_THREADS"),
        "PARASTAT_THREADS": ENV.get("PARASTAT_THREADS", "unset (1 worker)"),
        "commit": git_commit(),
    }


def git_commit():
    """HEAD of the git checkout at the root, or "unknown" outside one."""
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class State:
    def __init__(self, run_dir, deadline):
        self.run_dir, self.deadline = run_dir, deadline
        self.attempted = self.failed = 0
        self.extras = {}


ENV = child_env()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "parastat" / "cli.py").is_file():
        print(f"error: no parastat sources under {SRC}", file=sys.stderr)
        return 2

    state = State(WORK / f"run-{os.getpid()}", time.monotonic() + DEADLINE_S)
    shutil.rmtree(state.run_dir, ignore_errors=True)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(environment(args.seed, args.workload), sort_keys=True))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # children inherit it
    try:
        for target in targets(args.workload, args.seed):  # fill the bytecode cache
            warm = run_child(target, [], state.run_dir / "probes", state.deadline,
                             f"warm-{target}", mode="probe")
            if warm.rc != 0:
                print(f"error: cannot import {target}: {warm.stderr.strip()[-500:]}",
                      file=sys.stderr)
                return 1
        if args.trace:
            values, iters = per_layer(state, args.workload, args.seed, args.seconds)
            units = PER_LAYER
        else:
            values, iters = end_to_end(state, args.workload, args.seed, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(state.run_dir, ignore_errors=True)

    for key, val in sorted(state.extras.items()):
        print(f"recorded {key}={val}")
    print(f"iterations {iters}")
    for metric, unit in units.items():
        print(f"metric {metric} {values[metric]:.6g} {unit}")
    print(f"error_rate {state.failed / max(1, state.attempted):.6g} "
          f"({state.failed}/{state.attempted} operations failed)")
    print(json.dumps({
        "correct": state.failed == 0,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
