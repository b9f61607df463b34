"""Abstract paraparticle Fock space on a chain of sites.

An n-particle basis state is an ordered list of (position, label) pairs in
normal form (positions strictly increasing); labels run 1..m.  Reordering a
list costs R-matrix factors: swapping adjacent out-of-order entries
(p, a), (q, b) with p > q produces sum_{a',b'} R^{b'a'}_{ab} (q, b'), (p, a').
The Yang-Baxter equation plus involutivity make the resulting normal form
independent of the swap sequence, so states are well defined.

Positions are arbitrary integers; geometry only enters through their order.
Two particles never share a position (exclusion is rejected, not modeled).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rmatrix import RMatrix, as_map

PRUNE = 1e-14

Config = tuple[tuple[int, int], ...]  # ((position, label), ...), labels 1-based


class FockError(ValueError):
    pass


@dataclass(frozen=True)
class Lattice1D:
    """Site chain 1..L with the two designated corner sites o=1, s=L."""

    L: int

    def __post_init__(self):
        if self.L < 2:
            raise FockError("need at least two sites")

    @property
    def o(self) -> int:
        return 1

    @property
    def s(self) -> int:
        return self.L


@dataclass
class StateVector:
    """Sparse superposition over normal-form configurations."""

    r: RMatrix
    amps: dict[Config, complex] = field(default_factory=dict)

    def norm(self) -> float:
        return float(np.sqrt(sum(abs(v) ** 2 for v in self.amps.values())))

    def positions(self) -> set[int]:
        out = set()
        for cfg in self.amps:
            out.update(p for p, _ in cfg)
        return out

    def allclose(self, other: "StateVector", tol: float = 1e-12) -> bool:
        keys = set(self.amps) | set(other.amps)
        return all(abs(self.amps.get(k, 0.0) - other.amps.get(k, 0.0)) <= tol for k in keys)


def vacuum(r: RMatrix) -> StateVector:
    return StateVector(r, {(): 1.0 + 0.0j})


def _sorted(pairs) -> bool:
    return all(pairs[i][0] < pairs[i + 1][0] for i in range(len(pairs) - 1))


def _accumulate(amps: dict, cfg: Config, coeff: complex) -> None:
    new = amps.get(cfg, 0.0) + coeff
    if abs(new) <= PRUNE:
        amps.pop(cfg, None)
    else:
        amps[cfg] = new


def normal_form(raw, r: RMatrix, coeff: complex = 1.0) -> StateVector:
    """Sort a raw (position, label) list into normal form, paying R factors."""
    raw = tuple((int(p), int(l)) for p, l in raw)
    if len({p for p, _ in raw}) != len(raw):
        raise FockError("exclusion statistics not modeled")
    e = r.entries
    amps: dict[Config, complex] = {}
    work = [(raw, complex(coeff))]
    while work:
        pairs, c = work.pop()
        if _sorted(pairs):
            _accumulate(amps, pairs, c)
            continue
        k = next(i for i in range(len(pairs) - 1) if pairs[i][0] > pairs[i + 1][0])
        (p, a), (q, b) = pairs[k], pairs[k + 1]
        col = e[:, :, a - 1, b - 1]
        for bp, ap in zip(*np.nonzero(col)):
            swapped = pairs[:k] + ((q, int(bp) + 1), (p, int(ap) + 1)) + pairs[k + 2:]
            work.append((swapped, c * complex(col[bp, ap])))
    return StateVector(r, amps)


def _merge(r: RMatrix, terms) -> StateVector:
    amps: dict[Config, complex] = {}
    for sv in terms:
        for cfg, c in sv.amps.items():
            _accumulate(amps, cfg, c)
    return StateVector(r, amps)


def create(state: StateVector, pos: int, label: int, end: str) -> StateVector:
    """Insert a particle at the front or back of the list, then normal-form."""
    if end not in ("front", "back"):
        raise FockError(f"end must be front or back, got {end!r}")
    terms = []
    for cfg, c in state.amps.items():
        if any(p == pos for p, _ in cfg):
            raise FockError(f"position {pos} already occupied")
        raw = ((pos, label),) + cfg if end == "front" else cfg + ((pos, label),)
        terms.append(normal_form(raw, state.r, c))
    return _merge(state.r, terms)


def annihilate(state: StateVector, pos: int, label: int, end: str) -> StateVector:
    """Inverse of create: pull the particle at pos to the chosen end (paying
    inverse R factors), then remove it with a Kronecker delta on the label."""
    if end not in ("front", "back"):
        raise FockError(f"end must be front or back, got {end!r}")
    m = state.r.m
    minv = np.linalg.inv(as_map(state.r).astype(np.complex128)).reshape(m, m, m, m)
    # minv[a][b][b'][a'] = coefficient of the unordered pair (a, b) in (b', a')
    amps: dict[Config, complex] = {}
    for cfg, c in state.amps.items():
        try:
            k = next(i for i, (p, _) in enumerate(cfg) if p == pos)
        except StopIteration:
            raise FockError(f"no particle at position {pos}") from None
        # branch over label assignments while un-bubbling the particle to the end
        work = [(cfg, c)]
        steps = range(k, 0, -1) if end == "front" else range(k, len(cfg) - 1)
        for j in steps:
            nxt = []
            for pairs, cc in work:
                if end == "front":
                    (q, bp), (p, ap) = pairs[j - 1], pairs[j]
                    col = minv[:, :, bp - 1, ap - 1]
                    for a, b in zip(*np.nonzero(np.abs(col) > PRUNE)):
                        repl = pairs[:j - 1] + ((p, int(a) + 1), (q, int(b) + 1)) + pairs[j + 1:]
                        nxt.append((repl, cc * complex(col[a, b])))
                else:
                    (p, ap), (q, bp) = pairs[j], pairs[j + 1]
                    col = minv[:, :, ap - 1, bp - 1]
                    for a, b in zip(*np.nonzero(np.abs(col) > PRUNE)):
                        repl = pairs[:j] + ((q, int(a) + 1), (p, int(b) + 1)) + pairs[j + 2:]
                        nxt.append((repl, cc * complex(col[a, b])))
            work = nxt
        for pairs, cc in work:
            idx = 0 if end == "front" else len(pairs) - 1
            p, lab = pairs[idx]
            if lab != label:
                continue
            rest = pairs[:idx] + pairs[idx + 1:]
            _accumulate(amps, rest, cc)
    return StateVector(state.r, amps)


def move(state: StateVector, src: int, dst: int) -> StateVector:
    """Relocate the particle at src to dst, keeping its label; re-normal-form."""
    terms = []
    for cfg, c in state.amps.items():
        if any(p == dst for p, _ in cfg):
            raise FockError(f"target position {dst} occupied")
        moved = tuple((dst, l) if p == src else (p, l) for p, l in cfg)
        if moved == cfg:
            raise FockError(f"no particle at position {src}")
        terms.append(normal_form(moved, state.r, c))
    return _merge(state.r, terms)


def measure_corner(state: StateVector, end: str, pos: int | None = None):
    """Projective label measurement of the front or back particle.

    Returns (distribution over labels, {label: collapsed normalized state}).
    """
    if end not in ("front", "back"):
        raise FockError(f"end must be front or back, got {end!r}")
    idx = 0 if end == "front" else -1
    dist: dict[int, float] = {}
    branches: dict[int, dict[Config, complex]] = {}
    for cfg, c in state.amps.items():
        if not cfg:
            raise FockError("no particle at corner")
        p, lab = cfg[idx]
        if pos is not None and p != pos:
            raise FockError("no particle at corner")
        dist[lab] = dist.get(lab, 0.0) + abs(c) ** 2
        branches.setdefault(lab, {})[cfg] = c
    total = sum(dist.values())
    dist = {lab: w / total for lab, w in dist.items()}
    collapsed = {}
    for lab, amps in branches.items():
        nrm = np.sqrt(sum(abs(v) ** 2 for v in amps.values()))
        collapsed[lab] = StateVector(state.r, {k: v / nrm for k, v in amps.items()})
    return dist, collapsed


def local_expectation(state: StateVector, window, kind: str = "number",
                      label: int | None = None) -> complex:
    """<state| O_W |state> for an occupation observable on the site window W.

    kind="number" counts particles in W regardless of label; kind="label"
    counts only particles carrying the given label.  Diagonal in the
    normal-form basis, so this is a weighted count over configurations.
    """
    window = set(window)
    total = 0.0
    for cfg, c in state.amps.items():
        count = sum(
            1 for p, l in cfg
            if p in window and (kind == "number" or l == label)
        )
        total += count * abs(c) ** 2
    return total


def window_occupation_distribution(state: StateVector, window) -> dict:
    """Label-blind occupation-pattern distribution on a window.

    This is everything an observer confined to the window can learn: which
    window sites are occupied, with what probability.  Labels never appear.
    """
    window = set(window)
    dist: dict[tuple, float] = {}
    for cfg, c in state.amps.items():
        pattern = tuple(sorted(p for p, _ in cfg if p in window))
        dist[pattern] = dist.get(pattern, 0.0) + abs(c) ** 2
    return dist


def single_particle_spectrum(L: int, J: float, mu, r: RMatrix) -> np.ndarray:
    """Eigenvalues of the free hopping Hamiltonian in the one-particle sector.

    The one-particle sector factorizes as (chain of length L) x (label space),
    so the spectrum is m identical copies of the one-body spectrum of the
    tridiagonal matrix with hoppings -J and potentials -mu.
    """
    mu = np.broadcast_to(np.asarray(mu, dtype=float), (L,))
    h = np.diag(-mu) + np.diag([-J] * (L - 1), 1) + np.diag([-J] * (L - 1), -1)
    full = np.kron(h, np.eye(r.m))
    return np.linalg.eigvalsh(full)


# --- serialization ----------------------------------------------------------


def dump_state(state: StateVector) -> list:
    out = []
    for cfg, c in sorted(state.amps.items()):
        out.append({
            "positions": [p for p, _ in cfg],
            "labels": [l for _, l in cfg],
            "re": complex(c).real,
            "im": complex(c).imag,
        })
    return out


def load_state(data: list, r: RMatrix) -> StateVector:
    amps: dict[Config, complex] = {}
    for term in data:
        pairs = tuple(zip(term["positions"], term["labels"]))
        if not _sorted(pairs):
            raise FockError("state dump not in normal form")
        amps[pairs] = complex(term["re"], term["im"])
    return StateVector(r, amps)
