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
complex128 array of amplitudes, with a support cap (SUPPORT_CAP) that
limits groups to desk scale.  Operators act on all configurations at once
and touch only the digits of the edges they read or change.

Costs.  The gauge action at a vertex v is one [g, h] table per edge at v,
the change L_v^g makes to a code whose edge holds h, built once per call.
Every vertex meets an edge to another vertex (GaugeLattice checks this), so
the action is free and each configuration's orbit has a key (the member
whose element on that edge is the identity) found with one table lookup per
edge at the vertex: the vertex projector, <A_v> and the trapping check sort
N keys for N configurations and write or read |G| members per orbit.  The
ground state solves each plaquette's closing edge from its other edges and
so builds |G|^(E-P) configurations for E edges and P plaquettes.

gauge_check is the whole validation of one group on one of PATCHES, shared
by the gauge-check subcommand and the acceptance suite: projector
residuals, ground-state expectations, the excitations of a Wilson line in
wilson_irrep(G), its deformation and trapping at both of its endpoints.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .group_engine import FiniteGroup, Irrep, _normals, _seeded, irreps

PRUNE = 1e-14  # amplitudes at or below this are dropped after a merge
SUPPORT_CAP = 10 ** 6  # most configurations a state, or one sample of a batch, may hold
RESIDUAL_SAMPLES = 5  # random test states per commutator_residuals call


class GaugeError(RuntimeError):
    pass


@dataclass(frozen=True)
class GaugeLattice:
    """Oriented graph with plaquettes as signed edge cycles.

    Every vertex must meet an edge to another vertex, so that the gauge
    action is free at every vertex (see _orbit_keys); self-loops are allowed
    beside such an edge.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...]  # (tail, head)
    plaquettes: tuple[tuple[tuple[int, int], ...], ...]  # ((edge, sign), ...)

    def __post_init__(self):
        for e, ends in enumerate(self.edges):
            if not all(0 <= x < self.n_vertices for x in ends):
                raise GaugeError(f"edge {e} {ends} has an endpoint outside "
                                 f"0..{self.n_vertices - 1}")
        linked = {x for tail, head in self.edges if tail != head for x in (tail, head)}
        for v in range(self.n_vertices):
            if v not in linked:
                raise GaugeError(f"vertex {v} meets no edge to another vertex")
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

    def __init__(self, group: FiniteGroup, lattice: GaugeLattice, amps=()):
        amps = dict(amps)
        self.group, self.lattice = group, lattice
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
        """Enforce SUPPORT_CAP, per sample, on codes that are already pruned."""
        if len(codes) > SUPPORT_CAP:
            largest = int(np.bincount(self._sample(codes)).max())
            if largest > SUPPORT_CAP:
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


def _gauge_action(state: GaugeState, v: int) -> dict[int, np.ndarray]:
    """{e: shift} for each edge e at v: shift[g, h] is the change L_v^g
    makes to a code whose edge e holds h.  On a self-loop at v the tail and
    head rules compose to conjugation."""
    G, h = state.group, np.arange(state.group.order)
    action = {}
    for e, (tail, head) in enumerate(state.lattice.edges):
        if v in (tail, head):
            new = G.mult[h, G.inv[:, None]] if tail == v else h
            new = G.mult[h[:, None], new] if head == v else new
            action[e] = (new - h) * state._place[e]
    return action


def _orbit_keys(state: GaugeState, v: int, action: dict) -> tuple[np.ndarray, np.ndarray]:
    """The code of each configuration's orbit representative under L_v, and
    the g* with L_v^g* c = key for each configuration c; action is
    _gauge_action(state, v).

    L_v^g takes the element h on a non-loop edge e* at v (GaugeLattice
    guarantees one) to h g^-1 (tail) or g h (head), so distinct g give
    distinct images: the action is free, and each orbit has exactly one
    member whose e* element is the identity, L_v^g* c with g* = c[e*]
    (tail) or c[e*]^-1 (head).  That costs one table lookup per edge at v.
    """
    G, lat = state.group, state.lattice
    free = next(e for e, ends in enumerate(lat.edges) if ends.count(v) == 1)
    digits = state._digits()
    old = {e: digits[e] for e in action}  # each edge's elements, decoded once
    g = old[free] if lat.edges[free][0] == v else G.inv[old[free]]
    keys = state.codes.copy()
    for e, shift in action.items():  # shift[g*, old], read from the flat table
        keys += shift.ravel().take(g * G.order + old[e])
    return keys, g


def vertex_projector(state: GaugeState, v: int) -> GaugeState:
    """Group average of the gauge action at v (a projector).

    Every member of an orbit O (see _orbit_keys) gets S_O / |G|, with S_O
    the sum of the state over O.
    """
    n = state.group.order
    action = _gauge_action(state, v)
    keys, sums = _accumulate(_orbit_keys(state, v, action)[0], state.coeffs)
    amps = sums / n
    keep = np.abs(amps) > PRUNE
    keys, amps = keys[keep], amps[keep]
    members = np.repeat(keys[None, :], n, axis=0)  # members[g, o] = L_v^g keys[o]
    digits = _Digits(keys, state._place, n)
    for e, shift in action.items():  # only the digits of edges at v change
        members += np.take(shift, digits[e], axis=1)
    members = members.ravel()  # g-major
    order = np.argsort(members)
    return state._capped(members[order], amps[order % len(keys)])


def plaquette_projector(state: GaugeState, p: int) -> GaugeState:
    """Flat-holonomy projector: keeps configurations with trivial loop product."""
    flat = _path_product(state, state.lattice.plaquettes[p]) == 0
    return state._like(state.codes[flat], state.coeffs[flat])


def ground_state(G: FiniteGroup, lat: GaugeLattice) -> GaugeState:
    """Uniform superposition over flat configurations.

    Configurations grow one edge at a time (codes stay sorted).  A
    plaquette's last edge, its closing edge, is solved from its other edges
    when the plaquette traverses it once and no earlier plaquette closes on
    it; the rows built are then |G|^(E-P) for P solved plaquettes, which
    SUPPORT_CAP bounds.  Any other plaquette is filtered as soon as its last
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
    if rows > SUPPORT_CAP:
        raise GaugeError(
            f"ground state would enumerate {rows} configurations (cap {SUPPORT_CAP})"
        )
    state = GaugeState(G, lat, {})
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


def trapping_check(state: GaugeState, v: int, phi: Irrep, c_index: int) -> complex:
    """Eigenvalue of the trapping operator T = sum_g [phi(g)]_{cc} L_v^g.

    On a two-excitation Wilson state with open indices (a, b), the result is
    |G|/d_phi at the path's end vertex when (phi, c) = (psi, a), at the
    start vertex when (phi, c) = (conjugate psi, b), and 0 otherwise.

    Configuration c = L_v^h key, with h = g*^-1 from _orbit_keys, sits at
    A[o, h] for its orbit o.  T maps it to sum_k w(k h^-1) L_v^k key with
    w(g) = [phi(g)]_{cc}, so T acts as A @ W with W[h, k] = w(k h^-1): one
    (orbits x |G|) @ (|G| x |G|) product, and no state is built.
    """
    G, n = state.group, state.group.order
    nrm2 = _norm2(state)
    keys, g = _orbit_keys(state, v, _gauge_action(state, v))
    reps = np.sort(keys)
    reps = reps[_firsts(reps)]
    if len(reps) * n > SUPPORT_CAP:
        raise GaugeError(f"support cap exceeded: {len(reps) * n} configurations")
    A = np.zeros((len(reps), n), dtype=np.complex128)
    A[np.searchsorted(reps, keys), G.inv[g]] = state.coeffs
    weights = phi.matrices[:, c_index, c_index]
    weights = np.where(np.abs(weights) > 1e-15, weights, 0)
    out = A @ weights[G.mult[np.arange(n), G.inv[:, None]]]
    lam = complex(np.vdot(A, out)) / nrm2
    residual = np.linalg.norm(out - lam * A)
    if not residual <= 1e-8 * max(1.0, abs(lam)) * np.sqrt(nrm2) + 1e-8:
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

    <psi|A_v|psi> = sum_O |S_O|^2 / |G| with S_O the sum of psi over the
    orbit O, read off the orbit keys of _orbit_keys: a few table lookups per
    configuration and one sort of the keys, with no projected state.
    """
    nrm2, n = _norm2(state), state.group.order
    return [float(_mass(_accumulate(_orbit_keys(state, v, _gauge_action(state, v))[0],
                                    state.coeffs)[1]) / n / nrm2)
            for v in range(state.lattice.n_vertices)]


def plaquette_expectations(state: GaugeState) -> list[float]:
    """<B_p> per plaquette: the weight of the flat configurations."""
    nrm2 = _norm2(state)
    return [_mass(state.coeffs[_path_product(state, plaq) == 0]) / nrm2
            for plaq in state.lattice.plaquettes]


def commutator_residuals(G: FiniteGroup, lat: GaugeLattice, seed: int = 0) -> dict:
    """Max residuals of projector identities on RESIDUAL_SAMPLES random test states.

    Checks idempotence of each of the V + P vertex and plaquette projectors
    and commutation of every pair of them, plaquette pairs included, by
    applying both orderings to random sparse states (operator matrices for
    |G|^E dimensions are never materialized).  All samples travel in one batch
    state, sample k's codes offset by k |G|^E, so each projector runs once;
    the support cap and every residual are per sample.  GaugeError when the
    batch's codes, up to RESIDUAL_SAMPLES |G|^E - 1, do not fit int64.

    Each sample draws, from the stream of seed (see group_engine._seeded),
    a 40 x E array of edge elements, then 40 amplitudes from _normals; a
    configuration drawn twice keeps its last amplitude.  A seed that is
    negative or no integer raises GaugeError.
    """
    block = G.order ** lat.n_edges
    if RESIDUAL_SAMPLES * block - 1 > np.iinfo(np.int64).max:
        raise GaugeError(f"{RESIDUAL_SAMPLES} samples of {G.order}^{lat.n_edges} "
                         "configurations do not fit int64 codes")
    rng = _seeded(seed, error=GaugeError)
    codes, coeffs = [], []
    for k in range(RESIDUAL_SAMPLES):
        configs = rng.integers(G.order, (40, lat.n_edges)).tolist()
        z = _normals(rng, 2, 40)
        s = GaugeState(G, lat, zip(map(tuple, configs), z[0] + 1j * z[1])).normalized()
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


def wilson_irrep(G: FiniteGroup) -> Irrep:
    """The most structured irrep: the largest dimension, then the character
    farthest from the trivial one."""
    return max(irreps(G), key=lambda rep: (rep.dim, float(np.sum(np.abs(rep.character - 1)))))


def gauge_check(G: FiniteGroup, patch: str = "2x2", seed: int = 0) -> dict:
    """Validate the quantum-double model of G on PATCHES[patch].

    The report holds the projector residuals (commutator_residuals with
    seed), <A_v> and <B_p> on the ground state, <A_v> after the Wilson line
    in psi = wilson_irrep(G) with open indices (0, 0), the largest deviation
    between the line and its homotopic path over every (a, b), and the
    largest |lambda - expected| of trapping_check at the end vertex for every
    (phi, c) and at the start vertex for (conjugate psi, 0).  passed needs
    residuals and deformation at most 1e-10, ground-state and unexcited
    values within 1e-10 of 1, both endpoints below 1 - 1e-6 and trapping
    within 1e-8.  A group whose ground state exceeds SUPPORT_CAP raises
    GaugeError before any projector check runs.
    """
    lat, path, homotopic, (start, end) = PATCHES[patch]
    # the ground state refuses oversized groups at once; the projector checks
    # would first spend seconds on them.  Neither call draws the other's numbers.
    g0 = ground_state(G, lat)
    residuals = commutator_residuals(G, lat, seed=seed)
    va, pa = vertex_expectations(g0), plaquette_expectations(g0)
    psi = wilson_irrep(G)
    line, moved = WilsonLine(psi, path), WilsonLine(psi, homotopic)
    excited = apply_wilson_line(g0, line, 0, 0)
    vexc = vertex_expectations(excited)
    deform = float(np.max([verify_deformation(g0, line, moved, a, b)
                           for a in range(psi.dim) for b in range(psi.dim)]))
    # |G|/d_psi where (phi, c) is (psi, 0) at the end or (conjugate psi, 0) at
    # the start, 0 for every other component at the end
    want = G.order / psi.dim
    trapped = [abs(trapping_check(excited, end, phi, c)
                   - (want if (phi.index, c) == (psi.index, 0) else 0.0))
               for phi in irreps(G) for c in range(phi.dim)]
    trapped.append(abs(trapping_check(excited, start, conjugate_irrep(psi), 0) - want))
    trapping = float(np.max(trapped))
    passed = (
        all(r <= 1e-10 for r in residuals.values())
        and all(abs(x - 1.0) <= 1e-10 for x in va + pa)
        and all(x < 1 - 1e-6 if v in (start, end) else abs(x - 1.0) <= 1e-10
                for v, x in enumerate(vexc))
        and deform <= 1e-10
        and trapping <= 1e-8
    )
    return {
        "projector_residuals": residuals,
        "ground_state_expectations": {"vertices": va, "plaquettes": pa},
        "wilson_endpoint_expectations": vexc,
        "deformation_deviation": deform,
        "trapping_deviation": trapping,
        "passed": bool(passed),
    }
