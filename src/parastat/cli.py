"""Command-line front end.

Subcommands: verify-r, derive-r, simulate, twist, noise-sweep, gauge-check.
Each returns its report and verdict and writes nothing; main alone writes
the report and picks the exit code: 0 success, 1 domain failure (a check
failed or the game was lost), 2 usage or parse error, a report that cannot
be written included.  Every JSON artifact embeds a run manifest
(command, resolved arguments, seed, version, timestamp, input digests);
apart from the timestamp, reruns with the same arguments are byte-identical.
Each random draw is seeded, so reruns reproduce: every draw comes from one
counter-based stream (group_engine._seeded) keyed by --seed, of any size,
and the irreps, all that derive-r draws, from the stream of seed 0.  No
subcommand loads numpy's random module.  Importing this module registers
gc.freeze as an exit hook, so the interpreter's final collections skip the
objects the imports made (about 19 ms less per run, 2 vCPUs, Python 3.11);
`import parastat` and the API modules register no hook.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, game, gauge_sim, group_engine, parafock, rmatrix
from .group_engine import ORDER_BOUND_MAX

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2
# At exit the interpreter's final collections walk the ~22k objects that the
# imports created, numpy's included: a CLI process ran a median 26-27 ms after
# main returned, 7-8 ms with this hook (2 vCPUs, Python 3.11).  Freezing moves
# them to the permanent generation, which those collections skip.
atexit.register(gc.freeze)


class CliError(Exception):
    """A usage or parse error: exit 2."""


def _read_json(path, what: str) -> tuple[object, dict]:
    """The JSON value in the file at path and {path: sha256 of its bytes}, read
    once; an unreadable file, no UTF-8 JSON or nesting past json's recursion
    limit is a usage error."""
    # hashlib loads OpenSSL's libcrypto (about 3.5 MB of RSS and a few ms), so
    # only a run that reads an input file imports it
    import hashlib

    try:
        with open(path, "rb") as fh:
            blob = fh.read()
        return json.loads(blob.decode()), {path: hashlib.sha256(blob).hexdigest()}
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError(f"cannot read {what}: {exc}") from exc


def _manifest(args, digests=()) -> dict:
    return {
        "command": args.command,
        "config": {
            k: v for k, v in sorted(vars(args).items())
            if k not in ("command", "func") and v is not None
        },
        "seed": args.seed,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "input_digests": dict(digests),
    }


def _load_r(args) -> tuple[rmatrix.RMatrix, dict]:
    """The R of --builtin or --input, and the input's digest; argparse admits
    exactly one of them."""
    if args.builtin is not None:
        try:
            return rmatrix.builtin_r(args.builtin), {}
        except KeyError as exc:
            raise CliError(exc.args[0]) from exc  # str() would quote it
    data, digests = _read_json(args.input, "R-matrix")
    return rmatrix.rmatrix_from_dict(data), digests


def _checks(r: rmatrix.RMatrix, tol: float) -> list:
    """The reports of the three algebraic checks verify-r and derive-r run."""
    return [check(r, tol) for check in (rmatrix.check_yang_baxter, rmatrix.check_unitary,
                                        rmatrix.check_perfect_tensor)]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonable(obj.item())
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None  # strict JSON has no NaN or Infinity
    if isinstance(obj, complex):
        return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def _emit(args, payload: dict) -> None:
    """Write the report as JSON (default) or, under --format csv, its curve."""
    target = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        if args.format == "csv":
            import csv

            writer = csv.DictWriter(target, fieldnames=list(payload["curve"][0]))
            writer.writeheader()
            writer.writerows(payload["curve"])
        else:
            target.write(json.dumps(_jsonable(payload), indent=1, sort_keys=True,
                                    allow_nan=False) + "\n")
    finally:
        if args.out:
            target.close()


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify_r(args) -> tuple[dict, bool]:
    r, digests = _load_r(args)
    reports = _checks(r, args.tol)
    factors = rmatrix.is_trivial_product(r, max(args.tol, 1e-10))
    nontrivial = factors is None
    inv = rmatrix.spectral_invariants(r)
    payload = {
        "manifest": _manifest(args, digests),
        "m": r.m,
        "checks": [rep.as_dict() for rep in reports],
        "nontrivial": nontrivial,
        "spectral_invariants": {"trace": inv["trace"], "eigenvalues": inv["eigenvalues"]},
    }
    return payload, all(rep.passed for rep in reports) and nontrivial


def cmd_derive_r(args) -> tuple[dict, bool]:
    if args.presentation:
        data, digests = _read_json(args.presentation, "presentation")
        pres = group_engine.presentation_from_dict(data)
    else:
        pres, digests = group_engine.gamma_presentation(), {}
    G = group_engine.enumerate_group(pres, args.order_bound)
    payload = {"manifest": _manifest(args, digests), "group_order": G.order}
    try:
        inter, derived = group_engine.find_para_pair(G)
    except group_engine.GroupError as exc:
        return {**payload, "error": str(exc)}, False
    ref = rmatrix.paper_r(+1)
    inv_d = rmatrix.spectral_invariants(derived)
    inv_match = rmatrix.invariants_close(inv_d, rmatrix.spectral_invariants(ref))
    q = group_engine.gauge_match(derived, ref) if derived.m == ref.m else None
    payload.update({
        "d_sigma": inter.sigma.dim,
        "d_psi": inter.psi.dim,
        "derived_supplementary": pres.derived_supplementary,
        "checks": [rep.as_dict() for rep in _checks(derived, args.tol)],
        "invariants": {"trace": inv_d["trace"], "eigenvalues": inv_d["eigenvalues"]},
        "invariants_match_builtin": bool(inv_match),
        "gauge_match_found": q is not None,
    })
    if args.out_r:
        try:
            rmatrix.save_rmatrix(derived, args.out_r)
        except OSError as exc:
            raise CliError(f"cannot write R-matrix: {exc}") from exc
    return payload, inv_match and all(check["passed"] for check in payload["checks"])


def cmd_simulate(args) -> tuple[dict, bool]:
    r, digests = _load_r(args)
    try:
        cfg = game.GameConfig(L=args.L, r=r, a=args.a, b=args.b, seed=args.seed, r0=args.r0)
    except game.GameError as exc:
        raise CliError(str(exc)) from exc
    payload = {"manifest": _manifest(args, digests)}
    if args.all_pairs:
        table = {}
        for _, report in game.run_all_pairs(cfg):
            table.update(report.success_table)
        wins = sum(table.values())
        payload.update({
            "mode": "all-pairs",
            "wins": wins,
            "pairs": len(table),
            "table": {f"{a},{b}": v for (a, b), v in table.items()},
        })
        return payload, wins == len(table)
    transcript, report = game.run_protocol(cfg)
    payload.update({
        "transcript": transcript.as_dict(),
        "report": report.as_dict(),
    })
    return payload, report.success


def cmd_twist(args) -> tuple[dict, bool]:
    r, digests = _load_r(args)
    result = game.twist_experiment(r, args.n_max, args.trials, args.seed)
    payload = {
        "manifest": _manifest(args, digests),
        "success_rate": result["success_rate"],
        "rho_b_n_deviation": result["rho_b_n_deviation"],
        "n_support": result["n_support"],
    }
    return payload, True


def cmd_noise_sweep(args) -> tuple[dict, bool]:
    r, digests = _load_r(args)
    curve = game.noise_experiment(r, args.trials, args.seed, args.p,
                                  args.noise_d, args.noise_l)
    return {"manifest": _manifest(args, digests), "curve": curve}, True


def cmd_gauge_check(args) -> tuple[dict, bool]:
    if args.group not in group_engine.NAMED_PRESENTATIONS:
        raise CliError(f"unknown group {args.group!r}")
    G = group_engine.enumerate_group(group_engine.NAMED_PRESENTATIONS[args.group]())
    report = gauge_sim.gauge_check(G, args.patch, seed=args.seed)
    payload = {"manifest": _manifest(args), "group": args.group, "group_order": G.order,
               **report}
    return payload, report["passed"]


# ---------------------------------------------------------------------------
# argument parsing


# Largest twist --n-max.  twist_experiment keeps three m^2 x m^2 complex128
# blocks per n (matrix power, states, Bob-slot density matrices): 192 KiB per n
# at m = rmatrix.MAX_M = 8, about 19 MiB here.
TWIST_N_MAX = 100
# Largest --trials.  A twist trial keeps only its draws and its row index
# into the shared likelihood table: about 40 bytes, whatever
# --n-max and m; twist --builtin trivial8 --n-max TWIST_N_MAX peaks at 81 MB
# RSS at this bound (60 MB with one trial).  A noise-sweep trial keeps its
# draws and row indices and reads the shared Born table; within --noise-l a
# scrambled label, on a share 1 - (1 - q)^2 of the trials, adds two float64
# normals per component (256 bytes at m = 8), and the label states, product
# states and outcome rows of those trials are built a block at a time.
# noise-sweep --builtin trivial8 peaks at 105 MB RSS at this bound and the
# default --p 0.2, 74 MB at --p 0.02, and 150 MB at --p 1 --noise-d 0, where
# every label is scrambled (32 MB with one trial).
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
# NOISE_TRIALS_MAX and m = 8 a distance takes under 2 s (2-vCPU Xeon).
NOISE_L_MAX = 100


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
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--builtin", help="paper2d, paper3d, trivial{m}, or braid-fixture")
    source.add_argument("--input", help="R-matrix JSON file")


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
                   help="2x2 (one plaquette) or ladder (two plaquettes)")
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
        payload, ok = args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (game.GameError, group_engine.GroupError, gauge_sim.GaugeError,
            parafock.FockError, rmatrix.RMatrixError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    try:
        _emit(args, payload)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull so the
        # interpreter's final flush cannot fail, and exit without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_FAIL
    except OSError as exc:  # a full disk, or an --out path that cannot be opened
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if ok else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
