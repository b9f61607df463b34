"""Abstract paraparticle Fock space on a chain of sites.

An n-particle basis state is an ordered list of (position, label) pairs in
normal form (positions strictly increasing); labels run 1..m.  Reordering a
list costs R-matrix factors: swapping adjacent out-of-order entries
(p, a), (q, b) with p > q produces sum_{a',b'} R^{b'a'}_{ab} (q, b'), (p, a').
Only such descents are swapped, so the braid relation alone makes the normal
form independent of the swap sequence; involutivity is what makes moving a
particle past another and back the identity.  Each swap acts on the whole
superposition and merges equal configurations at once, so sorting costs
O(swaps x support) configuration updates, not one pass per branch.

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


def _accumulate(amps: dict, cfg: Config, coeff: complex) -> None:
    new = amps.get(cfg, 0.0) + coeff
    if abs(new) <= PRUNE:
        amps.pop(cfg, None)
    else:
        amps[cfg] = new


def _first_descent(cfg: Config) -> int | None:
    return next((i for i in range(len(cfg) - 1) if cfg[i][0] > cfg[i + 1][0]), None)


def _config(pairs, m: int) -> Config:
    """A raw (position, label) list as a Config: distinct positions, labels 1..m."""
    cfg = tuple((int(p), int(l)) for p, l in pairs)
    if len({p for p, _ in cfg}) != len(cfg):
        raise FockError("position occupied twice: exclusion statistics not modeled")
    if not all(1 <= l <= m for _, l in cfg):
        raise FockError(f"labels must lie in 1..{m}, got {[l for _, l in cfg]}")
    return cfg


def _exchange(amps: dict, t: np.ndarray, slot) -> dict:
    """Swap entries k, k+1 of every configuration, k = slot(cfg), merging equal
    results after each pass, until slot returns None for every configuration.
    t is indexed like RMatrix.entries: (x, u), (y, v) -> t[i-1, j-1, u-1, v-1] (y, i), (x, j).
    """
    while True:
        out: dict[Config, complex] = {}
        moved = False
        for cfg, c in amps.items():
            k = slot(cfg)
            if k is None:
                _accumulate(out, cfg, c)
                continue
            moved = True
            (x, u), (y, v) = cfg[k], cfg[k + 1]
            col = t[:, :, u - 1, v - 1]
            for i, j in zip(*np.nonzero(col)):
                swapped = cfg[:k] + ((y, int(i) + 1), (x, int(j) + 1)) + cfg[k + 2:]
                _accumulate(out, swapped, c * complex(col[i, j]))
        if not moved:
            return out
        amps = out


def normal_form(raw, r: RMatrix, coeff: complex = 1.0) -> StateVector:
    """Sort a raw (position, label) list into normal form, paying R factors."""
    amps = {_config(raw, r.m): complex(coeff)}
    return StateVector(r, _exchange(amps, r.entries, _first_descent))


def create(state: StateVector, pos: int, label: int, end: str) -> StateVector:
    """Insert a particle at the front or back of the list, then normal-form."""
    if end not in ("front", "back"):
        raise FockError(f"end must be front or back, got {end!r}")
    raw = {}
    for cfg, c in state.amps.items():
        new = ((pos, label),) + cfg if end == "front" else cfg + ((pos, label),)
        raw[_config(new, state.r.m)] = c
    return StateVector(state.r, _exchange(raw, state.r.entries, _first_descent))


def annihilate(state: StateVector, pos: int, label: int, end: str) -> StateVector:
    """Inverse of create: pull the particle at pos to the chosen end (paying
    inverse R factors), then remove it with a Kronecker delta on the label."""
    if end not in ("front", "back"):
        raise FockError(f"end must be front or back, got {end!r}")
    for cfg in state.amps:
        if all(p != pos for p, _ in cfg):
            raise FockError(f"no particle at position {pos}")
    m, front = state.r.m, end == "front"
    minv = np.linalg.inv(as_map(state.r).astype(np.complex128)).reshape(m, m, m, m)

    def slot(cfg):
        k, last = [p for p, _ in cfg].index(pos), 0 if front else len(cfg) - 1
        return None if k == last else k - (k > last)

    amps: dict[Config, complex] = {}
    for cfg, c in _exchange(state.amps, minv, slot).items():
        if cfg[0 if front else -1][1] == label:
            _accumulate(amps, cfg[1:] if front else cfg[:-1], c)
    return StateVector(state.r, amps)


def move(state: StateVector, src: int, dst: int) -> StateVector:
    """Relocate the particle at src to dst, keeping its label; re-normal-form."""
    raw = {}
    for cfg, c in state.amps.items():
        if all(p != src for p, _ in cfg):
            raise FockError(f"no particle at position {src}")
        raw[_config(((dst, l) if p == src else (p, l) for p, l in cfg), state.r.m)] = c
    return StateVector(state.r, _exchange(raw, state.r.entries, _first_descent))


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
        cfg = _config(zip(term["positions"], term["labels"]), r.m)
        if _first_descent(cfg) is not None:
            raise FockError("state dump not in normal form")
        amps[cfg] = complex(term["re"], term["im"])
    return StateVector(r, amps)
