"""Command-line front end.

Subcommands: verify-r, derive-r, simulate, twist, noise-sweep, gauge-check.
Exit codes: 0 success, 1 domain failure (a check failed or the game was
lost), 2 usage or parse error.  Every JSON artifact embeds a run manifest
(command, resolved arguments, seed, version, timestamp, input digests);
apart from the timestamp, reruns with the same arguments are byte-identical.
Each random draw is seeded, so reruns reproduce: the game sweeps (simulate,
twist, noise-sweep) draw from Philox counter-based generators keyed by
--seed; derive-r's intertwiner draw and gauge-check's commutator samples use
numpy's default PCG64 generator seeded with --seed; and the irreps that both
build come from a PCG64 generator with the fixed seed 0.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__, game, gauge_sim, group_engine, parafock, rmatrix

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2


class CliError(Exception):
    def __init__(self, message, code=EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _manifest(args, inputs=()) -> dict:
    return {
        "command": args.command,
        "config": {
            k: v for k, v in sorted(vars(args).items())
            if k not in ("command", "func") and v is not None
        },
        "seed": args.seed,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "input_digests": {str(p): _digest(p) for p in inputs},
    }


def _load_r(args) -> tuple[rmatrix.RMatrix, list]:
    if getattr(args, "builtin", None):
        try:
            return rmatrix.builtin_r(args.builtin), []
        except KeyError as exc:
            raise CliError(str(exc)) from exc
    if getattr(args, "input", None):
        try:
            return rmatrix.load_rmatrix(args.input), [args.input]
        except rmatrix.RMatrixError:
            raise  # readable JSON that is no valid R-matrix: a domain failure
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read R-matrix: {exc}") from exc
    raise CliError("provide --builtin or --input")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def _emit(args, payload: dict, rows=None) -> None:
    """Write the report as JSON (default) or, under --format csv, the CSV rows."""
    out = args.out
    if args.format == "csv":
        target = open(out, "w", newline="") if out else sys.stdout
        try:
            writer = csv.DictWriter(target, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        finally:
            if out:
                target.close()
    else:
        text = json.dumps(_jsonable(payload), indent=1, sort_keys=True)
        if out:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify_r(args) -> int:
    r, inputs = _load_r(args)
    tol = args.tol
    reports = [
        rmatrix.check_yang_baxter(r, tol),
        rmatrix.check_unitary(r, tol),
        rmatrix.check_perfect_tensor(r, tol),
    ]
    factors = rmatrix.is_trivial_product(r, max(tol, 1e-10))
    nontrivial = factors is None
    inv = rmatrix.spectral_invariants(r)
    payload = {
        "manifest": _manifest(args, inputs),
        "m": r.m,
        "checks": [rep.as_dict() for rep in reports],
        "nontrivial": nontrivial,
        "spectral_invariants": {"trace": inv["trace"], "eigenvalues": inv["eigenvalues"]},
    }
    _emit(args, payload)
    ok = all(rep.passed for rep in reports) and nontrivial
    return EXIT_OK if ok else EXIT_FAIL


def cmd_derive_r(args) -> int:
    inputs = []
    if args.presentation:
        try:
            pres = group_engine.load_presentation(args.presentation)
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot read presentation: {exc}") from exc
        inputs.append(args.presentation)
    else:
        pres = group_engine.gamma_presentation()
    G = group_engine.enumerate_group(pres, args.order_bound)
    payload = {"manifest": _manifest(args, inputs), "group_order": G.order}
    try:
        inter, derived = group_engine.find_para_pair(G, seed=args.seed)
    except group_engine.GroupError as exc:
        payload["error"] = str(exc)
        _emit(args, payload)
        return EXIT_FAIL
    ref = rmatrix.paper_r(+1)
    inv_d = rmatrix.spectral_invariants(derived)
    same_m = derived.m == ref.m
    inv_match = same_m and rmatrix.invariants_close(inv_d, rmatrix.spectral_invariants(ref))
    q = group_engine.gauge_match(derived, ref) if same_m else None
    payload.update({
        "d_sigma": inter.sigma.dim,
        "d_psi": inter.psi.dim,
        "derived_supplementary": pres.derived_supplementary,
        "checks": [
            rmatrix.check_yang_baxter(derived, args.tol).as_dict(),
            rmatrix.check_unitary(derived, args.tol).as_dict(),
            rmatrix.check_perfect_tensor(derived, args.tol).as_dict(),
        ],
        "invariants": {"trace": inv_d["trace"], "eigenvalues": inv_d["eigenvalues"]},
        "invariants_match_builtin": bool(inv_match),
        "gauge_match_found": q is not None,
    })
    if args.out_r:
        rmatrix.save_rmatrix(derived, args.out_r)
    _emit(args, payload)
    ok = inv_match and all(check["passed"] for check in payload["checks"])
    return EXIT_OK if ok else EXIT_FAIL


def cmd_simulate(args) -> int:
    r, inputs = _load_r(args)
    base = game.GameConfig(L=args.L, r=r, a=1, b=1, seed=args.seed, r0=args.r0)
    payload = {"manifest": _manifest(args, inputs)}
    if args.all_pairs:
        table = {}
        for _, report in game.run_all_pairs(base):
            table.update(report.success_table)
        wins = sum(table.values())
        payload.update({
            "mode": "all-pairs",
            "wins": wins,
            "pairs": len(table),
            "table": {f"{a},{b}": v for (a, b), v in table.items()},
        })
        _emit(args, payload)
        return EXIT_OK if wins == len(table) else EXIT_FAIL
    cfg = replace(base, a=args.a, b=args.b)
    transcript, report = game.run_protocol(cfg)
    payload.update({
        "transcript": transcript.as_dict(),
        "report": report.as_dict(),
    })
    _emit(args, payload)
    return EXIT_OK if report.success else EXIT_FAIL


def cmd_twist(args) -> int:
    r, inputs = _load_r(args)
    result = game.twist_experiment(r, range(args.n_max + 1), args.trials, args.seed)
    payload = {
        "manifest": _manifest(args, inputs),
        "success_rate": result["success_rate"],
        "rho_b_n_deviation": result["rho_b_n_deviation"],
        "n_support": result["n_support"],
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_noise_sweep(args) -> int:
    r, inputs = _load_r(args)
    curve = game.noise_experiment(r, args.trials, args.seed, args.p,
                                  args.noise_d, args.noise_l)
    payload = {"manifest": _manifest(args, inputs), "curve": curve}
    rows = [{"distance": pt["distance"], "success_rate": pt["success_rate"]}
            for pt in curve]
    _emit(args, payload, rows=rows)
    return EXIT_OK


def cmd_gauge_check(args) -> int:
    if args.group not in group_engine.NAMED_PRESENTATIONS:
        raise CliError(f"unknown group {args.group!r}")
    G = group_engine.enumerate_group(group_engine.NAMED_PRESENTATIONS[args.group]())
    lat, wilson, homotopic, endpoints = gauge_sim.PATCHES[args.patch]
    # the ground state refuses oversized groups at once; the projector checks
    # would first spend seconds on them.  Neither call draws the other's numbers.
    g0 = gauge_sim.ground_state(G, lat)
    residuals = gauge_sim.commutator_residuals(G, lat, seed=args.seed)
    va = gauge_sim.vertex_expectations(g0)
    pa = gauge_sim.plaquette_expectations(g0)
    reps = group_engine.irreps(G)
    # most structured nontrivial irrep: largest dimension, then least trivial
    psi = max(reps, key=lambda rep: (rep.dim, float(np.sum(np.abs(rep.character - 1)))))
    line = gauge_sim.WilsonLine(psi, wilson)
    excited = gauge_sim.apply_wilson_line(g0, line, 0, 0)
    vexc = gauge_sim.vertex_expectations(excited)
    deform = gauge_sim.verify_deformation(
        g0, line, gauge_sim.WilsonLine(psi, homotopic), 0, 0
    )
    ground_ok = (max(abs(x - 1.0) for x in va + pa) <= 1e-10)
    endpoints_ok = all(
        x < 1 - 1e-6 if v in endpoints else abs(x - 1.0) <= 1e-10
        for v, x in enumerate(vexc)
    )
    ok = (
        residuals["idempotence"] <= 1e-10
        and residuals["commutation"] <= 1e-10
        and ground_ok
        and endpoints_ok
        and deform <= 1e-10
    )
    payload = {
        "manifest": _manifest(args),
        "group": args.group,
        "group_order": G.order,
        "projector_residuals": residuals,
        "ground_state_expectations": {"vertices": va, "plaquettes": pa},
        "wilson_endpoint_expectations": vexc,
        "deformation_deviation": deform,
        "passed": bool(ok),
    }
    _emit(args, payload)
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# argument parsing


# Largest twist --n-max.  twist_experiment keeps three m^2 x m^2 complex128
# blocks per n (matrix power, states, Bob-slot density matrices): 192 KiB per n
# at m = rmatrix.MAX_M = 8, about 19 MiB here, plus 9 bytes per trial per n.
TWIST_N_MAX = 100
# Largest --trials.  A twist trial keeps its draws and its row of the twist
# CDF: about 1.7 KiB per trial at --n-max TWIST_N_MAX and m = 8.  A noise-sweep
# trial keeps its label states, their product and its outcome CDF: about
# 3.1 KiB at m = 8.  Either bound comes to about 0.9 GiB at worst.
TWIST_TRIALS_MAX = 500_000
NOISE_TRIALS_MAX = 300_000
# Largest noise-sweep --noise-d; d enters only p / (2d + 1), in Python ints.
NOISE_D_MAX = np.iinfo(np.int64).max - 1
# Largest simulate --L.  A game moves each particle across the chain and logs
# every step: about 35 us and 0.8 KiB of transcript per site.  --all-pairs
# plays the m^2 games one at a time and keeps only their wins: simulate
# --builtin trivial8 --all-pairs peaks at 55 MB RSS and takes 15 s at this bound.
CHAIN_L_MAX = 10_000
# Largest noise-sweep --noise-l.  The sweep runs --trials trials at each of
# the noise_l + 3 distances, in flat memory: about 1 ms per distance at the
# default 2000 trials and m = 4, so about 0.1 s at this bound; at
# NOISE_TRIALS_MAX and m = 8 a distance takes under 1 s (2-vCPU Xeon).
NOISE_L_MAX = 100
# Largest derive-r --order-bound.  The group's multiplication table takes
# 8 * order^2 bytes: 128 MiB at this bound.
ORDER_BOUND_MAX = 4096


def _int_at_least(low: int, at_most: float = float("inf")):
    """argparse type: an integer in low..at_most."""
    def integer(text: str) -> int:
        value = int(text)
        if not low <= value <= at_most:
            raise argparse.ArgumentTypeError(f"must lie in {low}..{at_most}, got {value}")
        return value
    return integer


def _finite_in(low: float, high: float = math.inf):
    """argparse type: a finite number in [low, high]."""
    span = f"in [{low}, {high}]" if math.isfinite(high) else f">= {low}"

    def number(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and low <= value <= high):
            raise argparse.ArgumentTypeError(f"must be a finite number {span}, got {text}")
        return value
    return number


def _add_r_source(p):
    p.add_argument("--builtin", help="paper2d, paper3d, trivial{m}, or braid-fixture")
    p.add_argument("--input", help="R-matrix JSON file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="parastat")
    ap.add_argument("--seed", type=_int_at_least(0), default=0)
    ap.add_argument("--tol", type=_finite_in(0), default=rmatrix.DEFAULT_TOL,
                    help="check tolerance, a finite number >= 0")
    ap.add_argument("--out", help="write the report here instead of stdout")
    ap.add_argument("--format", choices=("json", "csv"), default="json",
                    help="csv writes noise-sweep's curve; no other subcommand has a table")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-r", help="run all algebraic checks on an R-matrix")
    _add_r_source(p)
    p.set_defaults(func=cmd_verify_r)

    p = sub.add_parser("derive-r", help="derive an R-matrix from a group presentation")
    p.add_argument("--presentation", help="presentation JSON (default: bundled order-128 group)")
    p.add_argument("--order-bound", type=_int_at_least(1, at_most=ORDER_BOUND_MAX),
                   default=2048, help=f"largest group order accepted, at most {ORDER_BOUND_MAX}")
    p.add_argument("--out-r", help="write the derived R-matrix here")
    p.set_defaults(func=cmd_derive_r)

    p = sub.add_parser("simulate", help="run the challenge game")
    _add_r_source(p)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--L", type=_int_at_least(2, at_most=CHAIN_L_MAX), default=20,
                   help=f"chain length, at most {CHAIN_L_MAX}")
    p.add_argument("--r0", type=int, default=3)
    p.add_argument("--all-pairs", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("twist", help="repeated-exchange experiment")
    _add_r_source(p)
    p.add_argument("--n-max", type=_int_at_least(0, at_most=TWIST_N_MAX), default=7,
                   help=f"at most {TWIST_N_MAX}")
    p.add_argument("--trials", type=_int_at_least(1, at_most=TWIST_TRIALS_MAX), default=10000,
                   help=f"at most {TWIST_TRIALS_MAX}")
    p.set_defaults(func=cmd_twist)

    p = sub.add_parser("noise-sweep", help="decode success vs corner standoff")
    _add_r_source(p)
    p.add_argument("--p", type=_finite_in(0, 1), default=0.2)
    p.add_argument("--trials", type=_int_at_least(1, at_most=NOISE_TRIALS_MAX), default=2000,
                   help=f"per distance, at most {NOISE_TRIALS_MAX}")
    p.add_argument("--noise-d", type=_int_at_least(0, at_most=NOISE_D_MAX), default=1)
    p.add_argument("--noise-l", type=_int_at_least(0, at_most=NOISE_L_MAX), default=2,
                   help=f"at most {NOISE_L_MAX}")
    p.set_defaults(func=cmd_noise_sweep)

    p = sub.add_parser("gauge-check", help="lattice-gauge validation suite")
    p.add_argument("--group", default="S3",
                   help="Z2, S3, D4, or gamma128 (gamma128 exits 1: its ground "
                        "state exceeds the configuration cap)")
    p.add_argument("--patch", choices=tuple(gauge_sim.PATCHES), default="2x2",
                   help="2x2 (one plaquette) or ladder (two plaquettes; D4 exits 1: "
                        "its ground state exceeds the configuration cap)")
    p.set_defaults(func=cmd_gauge_check)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if args.format == "csv" and args.command != "noise-sweep":
            ap.error("--format csv needs a table, and only noise-sweep writes one")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull so the
        # interpreter's final flush cannot fail, and exit without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (game.GameError, group_engine.GroupError, gauge_sim.GaugeError,
            parafock.FockError, rmatrix.RMatrixError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
