"""Quantum-double lattice gauge models on tiny open patches.

A group element lives on every oriented edge.  Vertex operators average the
local gauge action (tail edges h -> h g^-1, head edges h -> g h); plaquette
operators project onto flat holonomy.  All of them commute, the ground state
is the uniform superposition over flat configurations, and open Wilson lines
in an irrep psi create a pair of point excitations at their endpoints whose
internal indices respond to trapping potentials with a delta structure in
(irrep, index).

Everything is dimension-agnostic: a patch is just vertices, oriented edges,
and signed plaquette cycles, so 2D patches exercise the same algebra the 3D
construction uses.  A state is a sorted int64 array of configuration codes,
code = sum_e digit_e |G|^(E-1-e) (so code order is tuple order), beside a
complex128 array of amplitudes, with a support cap that limits groups to
desk scale.  Operators act on all configurations at once and touch only the
digits of the edges they read or change.

Costs.  At a vertex with a non-loop edge the gauge action is free, so each
configuration's orbit has a key (the member whose element on that edge is
the identity) found with one table lookup per edge at the vertex: the
vertex projector and <A_v> sort N keys for N configurations and write or
read |G| members per orbit.  Only a vertex whose edges are all self-loops
sums |G| shifted copies of the state.  The ground state solves each
plaquette's closing edge from its other edges and so builds |G|^(E-P)
configurations for E edges and P plaquettes.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .group_engine import FiniteGroup, Irrep

PRUNE = 1e-14  # amplitudes at or below this are dropped after a merge


class GaugeError(RuntimeError):
    pass


@dataclass(frozen=True)
class GaugeLattice:
    """Oriented graph with plaquettes as signed edge cycles."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]  # (tail, head)
    plaquettes: tuple[tuple[tuple[int, int], ...], ...]  # ((edge, sign), ...)

    def __post_init__(self):
        for e, ends in enumerate(self.edges):
            if not all(0 <= x < self.n_vertices for x in ends):
                raise GaugeError(f"edge {e} {ends} has an endpoint outside "
                                 f"0..{self.n_vertices - 1}")
        for p in self.plaquettes:
            for e, sign in p:
                if not 0 <= e < len(self.edges):
                    raise GaugeError(f"plaquette references missing edge {e}")
                if sign not in (+1, -1):
                    raise GaugeError("plaquette orientation signs must be +1/-1")

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def patch_2x2() -> GaugeLattice:
    """Four vertices, four edges, one square plaquette.

        2 --e1--> 3
        ^         ^
        e2        e3
        |         |
        0 --e0--> 1
    """
    edges = ((0, 1), (2, 3), (0, 2), (1, 3))
    plaq = (((0, +1), (3, +1), (1, -1), (2, -1)),)
    return GaugeLattice(4, edges, plaq)


def ladder_2x3() -> GaugeLattice:
    """Six vertices, seven edges, two plaquettes side by side.

        3 --e2--> 4 --e3--> 5
        ^         ^         ^
        e4        e5        e6
        |         |         |
        0 --e0--> 1 --e1--> 2
    """
    edges = ((0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5))
    plaq = (
        ((0, +1), (5, +1), (2, -1), (4, -1)),
        ((1, +1), (6, +1), (3, -1), (5, -1)),
    )
    return GaugeLattice(6, edges, plaq)


# name -> (lattice, Wilson path, homotopic path, (start, end) vertices of both)
PATCHES = {
    "2x2": (patch_2x2(), ((0, +1), (3, +1)), ((2, +1), (1, +1)), (0, 3)),  # v0 -> v1 -> v3
    # bottom v0 -> v1 -> v2 against the route over the top v0 -> v3 -> v4 -> v5 -> v2
    "ladder": (ladder_2x3(), ((0, +1), (1, +1)), ((4, +1), (2, +1), (3, +1), (6, -1)), (0, 2)),
}


def _place_values(G: FiniteGroup, lat: GaugeLattice) -> np.ndarray:
    """|G|^(E-1-e) for each edge e; every code must fit int64."""
    E = lat.n_edges
    if G.order ** E - 1 > np.iinfo(np.int64).max:
        raise GaugeError(f"{G.order}^{E} configurations do not fit int64 codes")
    return np.array([G.order ** (E - 1 - e) for e in range(E)], dtype=np.int64)


class GaugeState:
    """Sparse wavefunction over per-edge group-element assignments.

    Built from a {config tuple: amplitude} map; stored as sorted unique
    `codes` and their `coeffs`.
    """

    def __init__(self, group: FiniteGroup, lattice: GaugeLattice, amps=(),
                 support_cap: int = 10 ** 6):
        amps = dict(amps)
        self.group, self.lattice, self.support_cap = group, lattice, support_cap
        self._place = _place_values(group, lattice)
        codes = self._encode(list(amps))
        order = np.argsort(codes)
        self.codes = codes[order]
        self.coeffs = np.array(list(amps.values()), dtype=np.complex128)[order]

    def _encode(self, configs: list) -> np.ndarray:
        """The code of each config tuple."""
        E, n = self.lattice.n_edges, self.group.order
        if any(len(config) != E for config in configs):
            raise GaugeError(f"configurations must have {E} edge labels")
        digits = np.array(configs, dtype=np.int64).reshape(len(configs), E)
        if digits.size and not (0 <= digits.min() and digits.max() < n):
            raise GaugeError(f"edge labels must lie in 0..{n - 1}")
        return digits @ self._place

    def _like(self, codes: np.ndarray, coeffs: np.ndarray) -> "GaugeState":
        """A state on the same group and lattice from sorted unique codes."""
        out = object.__new__(GaugeState)
        out.__dict__.update(self.__dict__, codes=codes, coeffs=coeffs)
        return out

    def _pruned(self, codes: np.ndarray, coeffs: np.ndarray) -> "GaugeState":
        """Drop amplitudes at or below PRUNE and enforce the support cap.

        The cap holds per sample: a batch (see commutator_residuals) keeps
        sample k in the k-th block of |G|^E codes.
        """
        keep = np.abs(coeffs) > PRUNE
        return self._capped(codes[keep], coeffs[keep])

    def _capped(self, codes: np.ndarray, coeffs: np.ndarray) -> "GaugeState":
        """Enforce the support cap, per sample, on codes that are already pruned."""
        if len(codes) > self.support_cap:
            largest = int(np.bincount(self._sample(codes)).max())
            if largest > self.support_cap:
                raise GaugeError(f"support cap exceeded: {largest} configurations")
        return self._like(codes, coeffs)

    def _sample(self, codes: np.ndarray) -> np.ndarray:
        """The sample of each code in a batch: code // |G|^E."""
        if not self.lattice.n_edges:  # one configuration, code 0, per sample
            return codes
        return codes // self._place[0] // self.group.order

    def _union(self, other: "GaugeState") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted union of both supports and each state's amplitudes on it."""
        if np.array_equal(self.codes, other.codes):  # one support: nothing to merge
            return self.codes, self.coeffs, other.coeffs
        keys = np.concatenate((self.codes, other.codes))
        keys.sort(kind="stable")  # two sorted runs: one merge
        keys = keys[_firsts(keys)]
        mine, theirs = np.zeros((2, len(keys)), dtype=np.complex128)
        mine[np.searchsorted(keys, self.codes)] = self.coeffs
        theirs[np.searchsorted(keys, other.codes)] = other.coeffs
        return keys, mine, theirs

    def _digits(self) -> "_Digits":
        return _Digits(self.codes, self._place, self.group.order)

    @property
    def amps(self) -> "_Amplitudes":
        """Read-only {config tuple: amplitude} view."""
        return _Amplitudes(self)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def normalized(self) -> "GaugeState":
        nrm = self.norm()
        if nrm == 0:
            raise GaugeError("zero state")
        return self._like(self.codes, self.coeffs / nrm)

    def axpy(self, other: "GaugeState", scale: complex = 1.0) -> "GaugeState":
        keys, mine, theirs = self._union(other)
        return self._pruned(keys, mine + scale * theirs)

    def dot(self, other: "GaugeState") -> complex:
        _, mine, theirs = self._union(other)
        return complex(np.vdot(mine, theirs))

    def distance(self, other: "GaugeState") -> float:
        _, mine, theirs = self._union(other)
        return float(np.linalg.norm(mine - theirs))


class _Digits:
    """digits[e]: the element on edge e of every code, decoded on access."""

    def __init__(self, codes: np.ndarray, place: np.ndarray, n: int):
        self.codes, self.place, self.n = codes, place, n

    def __getitem__(self, e: int) -> np.ndarray:
        return self.codes // self.place[e] % self.n


class _Amplitudes(Mapping):
    """{config tuple: amplitude} over a state's arrays."""

    def __init__(self, state: GaugeState):
        self._state = state

    def __len__(self) -> int:
        return len(self._state.codes)

    def __iter__(self):
        s = self._state
        return map(tuple, (s.codes[:, None] // s._place % s.group.order).tolist())

    def __getitem__(self, config) -> complex:
        s = self._state
        try:
            code = s._encode([config])[0]
        except (GaugeError, TypeError, ValueError):
            raise KeyError(config) from None
        i = np.searchsorted(s.codes, code)
        if i == len(s.codes) or s.codes[i] != code:
            raise KeyError(config)
        return complex(s.coeffs[i])


def _firsts(ordered: np.ndarray) -> np.ndarray:
    """Where each run of equal values in a sorted array starts."""
    first = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return np.flatnonzero(first)


def _accumulate(codes: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique codes and the summed amplitudes of each."""
    order = np.argsort(codes)
    codes = codes[order]
    starts = _firsts(codes)
    return codes[starts], np.add.reduceat(coeffs[order], starts)


def _holonomy(G: FiniteGroup, config, plaq):
    """Plaquette loop product in the gauge-covariant order.

    With tail edges transforming h -> h g^-1 and head edges h -> g h, the
    product that conjugates covariantly under gauge transformations stacks
    later traversal steps on the LEFT: K = h~_n ... h~_2 h~_1, where h~ is
    the edge element along orientation and its inverse against.  config[e]
    is one element index, or an array of them (one per configuration).

    The same product along an open path is the covariant parallel transport
    from its start to its end vertex, K -> g_end K g_start^-1, so on flat
    configurations it depends only on the homotopy class of the path.
    """
    h = 0  # identity element index
    for e, sign in plaq:
        he = config[e] if sign > 0 else G.inv[config[e]]
        h = G.mult[he, h]
    return h


def _path_product(state: GaugeState, path) -> np.ndarray:
    """_holonomy along path for every configuration of state."""
    return np.broadcast_to(_holonomy(state.group, state._digits(), path), state.codes.shape)


def gauge_shift(G: FiniteGroup, lat: GaugeLattice, config: tuple, v: int, g: int) -> tuple:
    """One local gauge transformation of a single configuration."""
    out = list(config)
    for e, (tail, head) in enumerate(lat.edges):
        if tail == v:
            out[e] = int(G.mult[out[e], G.inv[g]])
        if head == v:
            out[e] = int(G.mult[g, out[e]])
    return tuple(out)


def _code_shifts(state: GaugeState, v: int, g: np.ndarray):
    """(e, shift) for each edge e at v: shift[i, h] is the change L_v^(g[i])
    makes to a code whose edge e holds h.  On a self-loop at v the tail and
    head rules compose to conjugation."""
    G, h = state.group, np.arange(state.group.order)
    for e, (tail, head) in enumerate(state.lattice.edges):
        if v not in (tail, head):
            continue
        new = G.mult[h, G.inv[g][:, None]] if tail == v else h
        new = G.mult[g[:, None], new] if head == v else new
        yield e, (new - h) * state._place[e]


def _shifted_codes(state: GaugeState, codes: np.ndarray, v: int, g: np.ndarray) -> np.ndarray:
    """out[i, j]: the code of L_v^(g[i]) applied to configuration codes[j].
    Only the digits of edges at v change."""
    out = np.repeat(codes[None, :], len(g), axis=0)
    digits = _Digits(codes, state._place, state.group.order)
    for e, shift in _code_shifts(state, v, g):
        out += np.take(shift, digits[e], axis=1)
    return out


def _gauge_sum(state: GaugeState, v: int, weights: np.ndarray) -> GaugeState:
    """sum_g weights[g] L_v^g |state>, over the g with a nonzero weight."""
    g = np.flatnonzero(weights)
    codes = _shifted_codes(state, state.codes, v, g)
    return state._pruned(*_accumulate(codes.ravel(), (weights[g, None] * state.coeffs).ravel()))


def _orbit_keys(state: GaugeState, v: int) -> np.ndarray | None:
    """The code of each configuration's orbit representative under L_v, or
    None when every edge at v is a self-loop (or none meets it).

    L_v^g takes the element h on a non-loop edge e* at v to h g^-1 (tail)
    or g h (head), so distinct g give distinct images: the action is free,
    and each orbit has exactly one member whose e* element is the identity,
    L_v^g* c with g* = c[e*] (tail) or c[e*]^-1 (head).  That costs one
    table lookup per edge at v.
    """
    G, lat = state.group, state.lattice
    free = next((e for e, ends in enumerate(lat.edges) if ends.count(v) == 1), None)
    if free is None:
        return None
    shifts = dict(_code_shifts(state, v, np.arange(G.order)))
    digits = state._digits()
    old = {e: digits[e] for e in shifts}  # each edge's elements, decoded once
    g = old[free] if lat.edges[free][0] == v else G.inv[old[free]]
    keys = state.codes.copy()
    for e, shift in shifts.items():  # shift[g*, old], read from the flat table
        keys += shift.ravel().take(g * G.order + old[e])
    return keys


def vertex_projector(state: GaugeState, v: int) -> GaugeState:
    """Group average of the gauge action at v (a projector).

    Where the action is free (see _orbit_keys), every member of an orbit O
    gets S_O / |G|, with S_O the sum of the state over O; otherwise the
    |G| shifted copies of the state are summed.
    """
    n = state.group.order
    keys = _orbit_keys(state, v)
    if keys is None:
        return _gauge_sum(state, v, np.full(n, 1.0 / n))
    keys, sums = _accumulate(keys, state.coeffs)
    amps = sums / n
    keep = np.abs(amps) > PRUNE
    keys, amps = keys[keep], amps[keep]
    members = _shifted_codes(state, keys, v, np.arange(n)).ravel()  # g-major
    order = np.argsort(members)
    return state._capped(members[order], amps[order % len(keys)])


def plaquette_projector(state: GaugeState, p: int) -> GaugeState:
    """Flat-holonomy projector: keeps configurations with trivial loop product."""
    flat = _path_product(state, state.lattice.plaquettes[p]) == 0
    return state._like(state.codes[flat], state.coeffs[flat])


def ground_state(G: FiniteGroup, lat: GaugeLattice, support_cap: int = 10 ** 6) -> GaugeState:
    """Uniform superposition over flat configurations.

    Configurations grow one edge at a time (codes stay sorted).  A
    plaquette's last edge, its closing edge, is solved from its other edges
    when the plaquette traverses it once and no earlier plaquette closes on
    it; the rows built are then |G|^(E-P) for P solved plaquettes, which the
    support cap bounds.  Any other plaquette is filtered as soon as its last
    edge is placed.  Gauge transformations permute flat configurations, so
    this state already sits in the image of every vertex projector; the
    projector conditions are re-verified in the test suite rather than
    assumed.
    """
    closing = {}
    for plaq in filter(None, lat.plaquettes):
        closing.setdefault(max(e for e, _ in plaq), []).append(plaq)
    solved = {e: next((p for p in plaqs if [f for f, _ in p].count(e) == 1), None)
              for e, plaqs in closing.items()}
    rows = G.order ** (lat.n_edges - sum(p is not None for p in solved.values()))
    if rows > support_cap:
        raise GaugeError(
            f"ground state would enumerate {rows} configurations (cap {support_cap})"
        )
    state = GaugeState(G, lat, {}, support_cap)
    codes = np.zeros(1, dtype=np.int64)
    for e in range(lat.n_edges):
        plaq = solved.get(e)
        if plaq is None:
            codes = (codes[:, None] * G.order + np.arange(G.order)).ravel()
        else:  # K = after h~_e before = 1 gives h~_e = (before after)^-1
            digits = _Digits(codes, G.order ** np.arange(e - 1, -1, -1), G.order)
            j = [f for f, _ in plaq].index(e)
            step = G.mult[_holonomy(G, digits, plaq[:j]), _holonomy(G, digits, plaq[j + 1:])]
            codes = codes * G.order + (G.inv[step] if plaq[j][1] > 0 else step)
        for other in closing.get(e, ()):
            if other is not plaq:
                digits = _Digits(codes, G.order ** np.arange(e, -1, -1), G.order)
                codes = codes[_holonomy(G, digits, other) == 0]
    return state._like(codes, np.ones(len(codes), dtype=np.complex128)).normalized()


@dataclass(frozen=True)
class WilsonLine:
    """Irrep-labeled string operator along a contiguous signed edge path."""

    psi: Irrep
    path: tuple[tuple[int, int], ...]  # ((edge, sign), ...)


def apply_wilson_line(state: GaugeState, w: WilsonLine, a: int, b: int) -> GaugeState:
    """Open-index string operator: amplitude factor [psi(K)]_{ab} per config.

    K is the covariant transport along the path (0-based matrix indices);
    the row index a lives at the path's END vertex, the column index b at
    its START.  Trapping potentials couple to (psi, a) at the end and to
    (conjugate psi, b) at the start.
    """
    factors = w.psi.matrices[_path_product(state, w.path), a, b]
    return state._pruned(state.codes, state.coeffs * factors)


def verify_deformation(g0: GaugeState, w1: WilsonLine, w2: WilsonLine,
                       a: int, b: int) -> float:
    """Norm difference of two homotopic Wilson lines applied to a flat state."""
    return apply_wilson_line(g0, w1, a, b).distance(apply_wilson_line(g0, w2, a, b))


def conjugate_irrep(psi: Irrep) -> Irrep:
    """Entrywise complex conjugate representation."""
    return Irrep(psi.group, psi.index, psi.dim, psi.matrices.conj(),
                 psi.character.conj())


def trapping_check(state: GaugeState, v: int, phi: Irrep, c_index: int,
                   tol: float = 1e-8) -> complex:
    """Eigenvalue of the trapping operator sum_g [phi(g)]_{cc} L_v^g.

    On a two-excitation Wilson state with open indices (a, b), the result is
    |G|/d_phi at the path's end vertex when (phi, c) = (psi, a), at the
    start vertex when (phi, c) = (conjugate psi, b), and 0 otherwise.
    """
    weights = phi.matrices[:, c_index, c_index]
    out = _gauge_sum(state, v, np.where(np.abs(weights) > 1e-15, weights, 0))
    nrm2 = state.dot(state)
    lam = state.dot(out) / nrm2
    residual = out.axpy(state, -lam).norm()
    if residual > tol * max(1.0, abs(lam)) * np.sqrt(abs(nrm2)) + tol:
        raise GaugeError("not a two-excitation Wilson state")
    return lam


def _mass(coeffs: np.ndarray) -> float:
    """sum |c|^2, summed pairwise."""
    return float(np.sum(coeffs.real ** 2 + coeffs.imag ** 2))


def _norm2(state: GaugeState) -> float:
    nrm2 = _mass(state.coeffs)
    if nrm2 == 0:
        raise GaugeError("zero state")
    return nrm2


def vertex_expectations(state: GaugeState) -> list[float]:
    """<A_v> per vertex (1 on unexcited vertices, < 1 at string endpoints).

    Where L_v acts freely, <psi|A_v|psi> = sum_O |S_O|^2 / |G| with S_O the
    sum of psi over the orbit O, read off the orbit keys of _orbit_keys: a
    few table lookups per configuration and one sort of the keys, with no
    projected state.  A vertex whose only edges are self-loops takes
    <psi|A_v psi> from its projector, which sums |G| shifted copies.
    """
    nrm2 = _norm2(state)
    out = []
    for v in range(state.lattice.n_vertices):
        keys = _orbit_keys(state, v)
        if keys is None:
            mass = state.dot(vertex_projector(state, v)).real
        else:
            mass = _mass(_accumulate(keys, state.coeffs)[1]) / state.group.order
        out.append(float(mass / nrm2))
    return out


def plaquette_expectations(state: GaugeState) -> list[float]:
    """<B_p> per plaquette: the weight of the flat configurations."""
    nrm2 = _norm2(state)
    return [_mass(state.coeffs[_path_product(state, plaq) == 0]) / nrm2
            for plaq in state.lattice.plaquettes]


def commutator_residuals(G: FiniteGroup, lat: GaugeLattice, seed: int = 0,
                         samples: int = 5) -> dict:
    """Max residuals of projector identities on random test states.

    Checks idempotence of every vertex/plaquette projector and commutation
    of every (vertex, vertex), (vertex, plaquette) pair by applying both
    orderings to random sparse states (operator matrices for |G|^E
    dimensions are never materialized).  All samples travel in one batch
    state, sample k's codes offset by k |G|^E, so each projector runs once;
    the support cap and every residual are per sample.
    """
    if samples < 1:
        raise GaugeError(f"samples must be at least 1, got {samples}")
    block = G.order ** lat.n_edges
    if samples * block - 1 > np.iinfo(np.int64).max:
        raise GaugeError(f"{samples} samples of {G.order}^{lat.n_edges} configurations "
                         "do not fit int64 codes")
    rng = np.random.default_rng(seed)
    codes, coeffs = [], []
    for k in range(samples):
        amps = {}
        for _ in range(40):
            config = tuple(rng.integers(0, G.order, lat.n_edges).tolist())
            amps[config] = complex(rng.standard_normal(), rng.standard_normal())
        s = GaugeState(G, lat, amps).normalized()
        codes.append(s.codes + k * block)
        coeffs.append(s.coeffs)
    batch = s._like(np.concatenate(codes), np.concatenate(coeffs))

    def worst(a: GaugeState, b: GaugeState) -> float:
        """The largest per-sample distance between a and b."""
        keys, mine, theirs = a._union(b)
        diff = mine - theirs
        sq = np.bincount(batch._sample(keys), diff.real ** 2 + diff.imag ** 2)
        return float(np.sqrt(sq.max(initial=0.0)))

    ops = [(v, vertex_projector) for v in range(lat.n_vertices)]
    ops += [(p, plaquette_projector) for p in range(len(lat.plaquettes))]
    applied = [op(batch, i) for i, op in ops]
    idem = comm = 0.0
    for (i, op), once in zip(ops, applied):
        idem = max(idem, worst(op(once, i), once))
    for x in range(len(ops)):
        for y in range(x + 1, len(ops)):
            (i1, op1), (i2, op2) = ops[x], ops[y]
            comm = max(comm, worst(op1(applied[y], i1), op2(applied[x], i2)))
    return {"idempotence": idem, "commutation": comm}
