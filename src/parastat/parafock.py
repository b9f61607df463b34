"""Abstract paraparticle Fock space on a chain of sites.

An n-particle basis state is an ordered list of (position, label) pairs in
normal form (positions strictly increasing); labels run 1..m.  Reordering a
list costs R-matrix factors: swapping adjacent out-of-order entries
(p, a), (q, b) with p > q produces sum_{a',b'} R^{b'a'}_{ab} (q, b'), (p, a').
Only such descents are swapped, so the braid relation alone makes the normal
form independent of the swap sequence; involutivity is what makes moving a
particle past another and back the identity.

A swap moves positions and labels together, but which slots get swapped is
decided by the positions alone, never by the labels.  So every configuration
that shares a position tuple follows the same swaps: they are computed once
per position tuple (an insertion sort, O(n + swaps)), then applied to all of
its label tuples at once.  A swap whose R column has one nonzero entry (every
swap under the paper's R) rewrites two labels of a tuple in place, O(1) per
label tuple; only after a swap where some column branches are tuple keys
formed and equal label tuples merged.  A move that passes no particle keeps
every list in order and only relabels the position.

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


_OCCUPIED = "position occupied twice: exclusion statistics not modeled"


def _config(pairs, m: int) -> Config:
    """A raw (position, label) list as a Config: distinct positions, labels 1..m."""
    cfg = tuple((int(p), int(l)) for p, l in pairs)
    if len({p for p, _ in cfg}) != len(cfg):
        raise FockError(_OCCUPIED)
    if not all(1 <= l <= m for _, l in cfg):
        raise FockError(f"labels must lie in 1..{m}, got {[l for _, l in cfg]}")
    return cfg


def _groups(amps: dict) -> dict:
    """{config: amplitude} as {position tuple: {label tuple: amplitude}}."""
    out: dict[tuple, dict[tuple, complex]] = {}
    for cfg, c in amps.items():
        positions, labels = zip(*cfg) if cfg else ((), ())
        out.setdefault(positions, {})[labels] = c
    return out


def _sort_schedule(positions: tuple) -> tuple[list, tuple]:
    """The slots of the adjacent swaps that insertion-sort positions, and the
    sorted tuple.  The entries before the one being inserted are sorted, so
    each of these swaps is at the first descent: this is the repeated
    first-descent swap sequence, found in O(n + swaps), not O(n) per swap."""
    ps, slots = list(positions), []
    for j in range(1, len(ps)):
        p, k = ps[j], j
        while k and ps[k - 1] > p:
            ps[k] = ps[k - 1]
            k -= 1
            slots.append(k)
        ps[k] = p
    return slots, tuple(ps)


def _exchange(groups: dict, t: np.ndarray, schedule) -> dict:
    """Reorder {position tuple: {label tuple: amplitude}} into {config: amplitude}.

    schedule(positions) -> (slots, final positions): swap entries k, k+1 for
    each k in slots, in turn, paying
    (x, u), (y, v) -> t[i-1, j-1, u-1, v-1] (y, i), (x, j)
    (t is indexed like RMatrix.entries).  Which slot is swapped depends on
    the positions alone, never on the labels, so one schedule serves every
    label tuple of a position tuple.  Where every row's t column has one
    nonzero entry, a swap rewrites two labels and scales the amplitude in
    place, O(1) per row (a row's labels become a list on its first such
    swap); only after a swap where some column branches (two or more
    entries, or none) are tuple keys formed and equal rows merged.  A
    single-branch swap adds no row, so the rows never outnumber the support
    of the last merge.  Each t column's nonzero entries are read once per
    call.
    """
    m = t.shape[0]
    cols: list[list] = [[None] * (m + 1) for _ in range(m + 1)]  # [u][v] -> [(i, j, t)]

    def column(u, v):
        col = cols[u][v]
        if col is None:
            block = t[:, :, u - 1, v - 1]
            col = cols[u][v] = [(int(i) + 1, int(j) + 1, complex(block[i, j]))
                                for i, j in zip(*np.nonzero(block))]
        return col

    out: dict[Config, complex] = {}
    for positions, amps in groups.items():
        slots, final = schedule(positions)
        rows = list(amps.items())  # (labels, amplitude) rows
        for k in slots:
            dead = False
            for n, row in enumerate(rows):
                labels = row[0]
                col = cols[labels[k]][labels[k + 1]] or column(labels[k], labels[k + 1])
                if len(col) != 1:
                    break
                if row.__class__ is tuple:
                    rows[n] = row = [list(labels), row[1]]
                    labels = row[0]
                (labels[k], labels[k + 1], f), = col
                c = row[1] = row[1] * f
                dead = dead or abs(c) <= PRUNE
            else:  # no column branched: equal rows, if any, merge later
                if dead:
                    rows = [row for row in rows if abs(row[1]) > PRUNE]
                continue
            nxt: dict[tuple, complex] = {}  # rows before n are swapped, the rest are not
            for labels, c in rows[:n]:
                _accumulate(nxt, tuple(labels), c)
            for labels, c in rows[n:]:
                head, tail = tuple(labels[:k]), tuple(labels[k + 2:])
                for i, j, f in column(labels[k], labels[k + 1]):
                    _accumulate(nxt, head + (i, j) + tail, c * f)
            rows = list(nxt.items())
        for labels, c in rows:
            _accumulate(out, tuple(zip(final, labels)), c)
    return out


def normal_form(raw, r: RMatrix, coeff: complex = 1.0) -> StateVector:
    """Sort a raw (position, label) list into normal form, paying R factors."""
    groups = _groups({_config(raw, r.m): complex(coeff)})
    return StateVector(r, _exchange(groups, r.entries, _sort_schedule))


def create(state: StateVector, pos: int, label: int, end: str) -> StateVector:
    """Insert a particle at the front or back of the list, then normal-form."""
    if end not in ("front", "back"):
        raise FockError(f"end must be front or back, got {end!r}")
    pos, label, front = int(pos), int(label), end == "front"
    if not 1 <= label <= state.r.m:
        raise FockError(f"labels must lie in 1..{state.r.m}, got {label}")
    raw = {}
    for positions, amps in _groups(state.amps).items():
        if pos in positions:
            raise FockError(_OCCUPIED)
        new = (pos,) + positions if front else positions + (pos,)
        raw[new] = {((label,) + ls if front else ls + (label,)): c for ls, c in amps.items()}
    return StateVector(state.r, _exchange(raw, state.r.entries, _sort_schedule))


def annihilate(state: StateVector, pos: int, label: int, end: str) -> StateVector:
    """Inverse of create: pull the particle at pos to the chosen end (paying
    inverse R factors), then remove it with a Kronecker delta on the label."""
    if end not in ("front", "back"):
        raise FockError(f"end must be front or back, got {end!r}")
    groups = _groups(state.amps)
    if any(pos not in positions for positions in groups):
        raise FockError(f"no particle at position {pos}")
    m, front = state.r.m, end == "front"
    minv = np.linalg.inv(as_map(state.r)).reshape(m, m, m, m)

    def schedule(positions):  # the run of slots that carries pos to the chosen end
        k = positions.index(pos)
        rest = positions[:k] + positions[k + 1:]
        if front:
            return range(k - 1, -1, -1), (pos,) + rest
        return range(k, len(rest)), rest + (pos,)

    amps: dict[Config, complex] = {}
    for cfg, c in _exchange(groups, minv, schedule).items():
        if cfg[0 if front else -1][1] == label:
            _accumulate(amps, cfg[1:] if front else cfg[:-1], c)
    return StateVector(state.r, amps)


def move(state: StateVector, src: int, dst: int) -> StateVector:
    """Relocate the particle at src to dst, keeping its label; re-normal-form.
    A move that passes no particle in any configuration only relabels."""
    src, dst = int(src), int(dst)
    moved: dict[Config, complex] = {}
    for cfg, c in state.amps.items():
        positions = [p for p, _ in cfg]
        if src not in positions:
            raise FockError(f"no particle at position {src}")
        if dst != src and dst in positions:
            raise FockError(_OCCUPIED)
        k = positions.index(src)
        if (k and positions[k - 1] > dst) or (k + 1 < len(cfg) and positions[k + 1] < dst):
            break  # a neighbour lies between src and dst: this move crosses it
        if abs(c) > PRUNE:
            moved[cfg[:k] + ((dst, cfg[k][1]),) + cfg[k + 1:]] = c
    else:
        return StateVector(state.r, moved)
    raw = {}
    for positions, amps in _groups(state.amps).items():
        if src not in positions:
            raise FockError(f"no particle at position {src}")
        if dst != src and dst in positions:
            raise FockError(_OCCUPIED)
        raw[tuple(dst if p == src else p for p in positions)] = amps
    return StateVector(state.r, _exchange(raw, state.r.entries, _sort_schedule))


def measure_corner(state: StateVector, end: str, pos: int | None = None):
    """Projective label measurement of the front or back particle.

    Returns (distribution over labels, {label: collapsed normalized state}).
    Amplitudes of modulus <= PRUNE are skipped, so no collapsed state has norm 0.
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
        if abs(c) > PRUNE:
            dist[lab] = dist.get(lab, 0.0) + abs(c) ** 2
            branches.setdefault(lab, {})[cfg] = c
    if not dist:
        raise FockError("nothing to measure: the state is empty or has norm zero")
    total = sum(dist.values())
    dist = {lab: w / total for lab, w in dist.items()}
    collapsed = {}
    for lab, amps in branches.items():
        nrm = np.sqrt(sum(abs(v) ** 2 for v in amps.values()))
        collapsed[lab] = StateVector(state.r, {k: v / nrm for k, v in amps.items()})
    return dist, collapsed


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
