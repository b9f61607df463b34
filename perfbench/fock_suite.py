"""Fock workload: parastat.parafock called directly, without cli or sympy.

run(seed) normal-forms n-particle lists under three R-matrices and
transports two particles along a long chain, then returns the quantities
the benchmark checks:

- braid-fixture (every exchange branches in two), n = 2..6;
- paper3d under a seeded Haar gauge Q (dense R, 16 branches per exchange),
  n = 2..3, compared with the paper3d normal form rotated back by Q;
- paper3d itself (one branch per exchange) on shuffled lists, n = 16..64;
- create / move / measure_corner / annihilate on a 600-site chain, twice
  each for paper3d and braid-fixture.
"""

import itertools
import sys

import numpy as np

from parastat import parafock as pf
from parastat import rmatrix as rm

BRAID_N = range(2, 7)
GAUGED_N = range(2, 4)
SORT_N = (16, 32, 48, 64)
SORT_REPEATS = 8
CHAIN = 600
TRANSPORTS = 2


def _haar(m, rng):
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _rotate(amps, q, inverse=False):
    """Apply Q (or Q^dagger) to every label of a {config: amplitude} map."""
    u = q.conj().T if inverse else q
    m = q.shape[0]
    out = {}
    for cfg, c in amps.items():
        pos = [p for p, _ in cfg]
        for new in itertools.product(range(1, m + 1), repeat=len(cfg)):
            f = c * np.prod([u[x - 1, l - 1] for x, (_, l) in zip(new, cfg)])
            if f != 0:
                key = tuple(zip(pos, new))
                out[key] = out.get(key, 0.0) + f
    return out


def _max_diff(a, b):
    return max(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b))


def _transport(r, a, b, rng):
    """Walk a from site 1 and b from site CHAIN past each other, measure both
    corners, annihilate, and return (outcomes, |vacuum amplitude|, norm drift)."""
    state = pf.create(pf.vacuum(r), 1, a, "front")
    state = pf.create(state, CHAIN, b, "back")
    pa, pb, drift = 1, CHAIN, 0.0
    while (pa, pb) != (CHAIN, 1):
        for who, goal, step in (("a", CHAIN, 1), ("b", 1, -1)):
            src = pa if who == "a" else pb
            other = pb if who == "a" else pa
            if src == goal:
                continue
            dst = src + step
            if dst == other:
                dst += step  # hop over the partner: one exchange
                if not 1 <= dst <= CHAIN:
                    continue
            state = pf.move(state, src, dst)
            drift = max(drift, abs(state.norm() - 1.0))
            if who == "a":
                pa = dst
            else:
                pb = dst
    dist_back, collapsed = pf.measure_corner(state, "back", pos=CHAIN)
    ap = sorted(dist_back)[int(rng.integers(len(dist_back)))]
    dist_front, collapsed = pf.measure_corner(collapsed[ap], "front", pos=1)
    bp = sorted(dist_front)[int(rng.integers(len(dist_front)))]
    state = pf.annihilate(collapsed[bp], CHAIN, ap, "back")
    state = pf.annihilate(state, 1, bp, "front")
    vac = abs(state.amps.get((), 0.0)) if set(state.amps) <= {()} else 0.0
    return (ap, bp), vac, drift


def run(seed):
    rng = np.random.default_rng(seed)
    braid, paper = rm.braid_fixture(), rm.paper_r(+1)
    out = {"norm_drift": 0.0, "normal_forms": 0}

    def nf(raw, r, coeff=1.0):
        state = pf.normal_form(raw, r, coeff)
        out["normal_forms"] += 1
        return state

    def unit_norm(state):
        out["norm_drift"] = max(out["norm_drift"], abs(state.norm() - 1.0))

    out["braid_support"] = {}
    for n in BRAID_N:
        labels = rng.integers(1, braid.m + 1, n)
        state = nf([(n - i, int(labels[i])) for i in range(n)], braid)
        unit_norm(state)
        out["braid_support"][n] = len(state.amps)

    q = _haar(paper.m, rng)
    qq = np.kron(q, q)
    gauged = rm.from_map(qq @ rm.as_map(paper).astype(np.complex128) @ qq.conj().T, paper.m)
    out["gauge_error"] = 0.0
    for n in GAUGED_N:
        raw = [(n - i, int(l)) for i, l in enumerate(rng.integers(1, paper.m + 1, n))]
        direct = nf(raw, gauged)
        unit_norm(direct)
        # NF_{Q R Q^+}(x) = Q^n NF_R(Q^+n x): the same state sorted in the R frame
        back = {}
        for cfg, c in _rotate({tuple(raw): 1.0 + 0j}, q, inverse=True).items():
            for k, v in nf(cfg, paper, c).amps.items():
                back[k] = back.get(k, 0.0) + v
        out["gauge_error"] = max(out["gauge_error"], _max_diff(direct.amps, _rotate(back, q)))

    out["deterministic_support"] = 0
    for n in SORT_N:
        for _ in range(SORT_REPEATS):
            pos = rng.permutation(n) + 1
            labels = rng.integers(1, paper.m + 1, n)
            state = nf(list(zip(pos.tolist(), labels.tolist())), paper)
            unit_norm(state)
            out["deterministic_support"] = max(out["deterministic_support"], len(state.amps))

    out["transport"] = []
    for name, r in (("paper3d", paper), ("braid-fixture", braid)) * TRANSPORTS:
        a, b = (int(x) for x in rng.integers(1, r.m + 1, 2))
        (ap, bp), vac, drift = _transport(r, a, b, rng)
        # one exchange maps |a b> onto the R column (a, b): the outcome must lie in it
        col = np.abs(np.asarray(r.entries)[:, :, a - 1, b - 1]) > 0
        out["transport"].append({
            "r": name, "a": a, "b": b, "a_prime": ap, "b_prime": bp,
            "in_column": bool(col[bp - 1, ap - 1]), "vacuum_amplitude": vac,
            "norm_drift": drift})
    out["imported_cli"] = "parastat.cli" in sys.modules
    out["imported_sympy"] = "sympy" in sys.modules
    return out
