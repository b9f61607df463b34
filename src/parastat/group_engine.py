"""Finite groups from presentations, and the exchange statistics they induce.

Pipeline: a finite presentation is enumerated into a full multiplication
table (Todd-Coxeter coset enumeration over the trivial subgroup);
the character table is computed by simultaneous diagonalization of the class
algebra (Burnside's method); irreps are realized as explicit unitary matrices
by projecting the regular representation onto an isotypic block and splitting
off one copy with a random commutant symmetrizer.  A pair of irreps (sigma,
psi) with the fusion rule sigma (x) psi = d_psi * sigma yields an intertwiner
V, and composing V twice produces an R-matrix on the d_psi^2-dimensional
multiplicity space.

The distinguished order-128 group whose derived R-matrix is the built-in m=4
one ships as a bundled presentation (see gamma_presentation).  Its published
relations close to a group of order 256; the supplementary central relation
z1 z2 z3 z4 = 1 was determined empirically (order 128, an 8-dimensional
irrep, and the right fusion rule) and the bundled file flags it as derived.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .rmatrix import RMatrix, from_map, as_map

_MAX_RETRIES = 12
# Most conjugacy classes character_table accepts: its class-algebra tensors
# hold 2 * 8 * k^3 bytes, 256 MiB here (an abelian group has k = |G|).
MAX_CLASSES = 256


class GroupError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# presentations


@dataclass(frozen=True)
class GroupPresentation:
    """Generator names plus relator words; inverse tokens spelled "g^-1"."""

    generators: tuple[str, ...]
    relations: tuple[tuple[str, ...], ...]
    derived_supplementary: bool = False

    def __post_init__(self):
        names = set(self.generators)
        for rel in self.relations:
            for tok in rel:
                base = tok[:-3] if tok.endswith("^-1") else tok
                if base not in names:
                    raise GroupError(f"relation references undeclared generator {tok!r}")


def presentation_from_dict(data: dict) -> GroupPresentation:
    try:
        gens = tuple(data["generators"])
        rels = tuple(tuple(rel) for rel in data["relations"])
        supplementary = bool(data.get("derived_supplementary", False))
    except (KeyError, TypeError, AttributeError) as exc:
        raise GroupError(f"malformed presentation: {exc!r}") from exc
    if not all(isinstance(tok, str) for word in (gens,) + rels for tok in word):
        raise GroupError("generator names and relator tokens must be strings")
    return GroupPresentation(gens, rels, supplementary)


def load_presentation(source) -> GroupPresentation:
    if hasattr(source, "read"):
        data = json.load(source)
    else:
        with open(source) as fh:
            data = json.load(fh)
    return presentation_from_dict(data)


def z2_presentation() -> GroupPresentation:
    return GroupPresentation(("g",), (("g", "g"),))


def s3_presentation() -> GroupPresentation:
    return GroupPresentation(
        ("a", "b"), (("a", "a", "a"), ("b", "b"), ("a", "b", "a", "b"))
    )


def d4_presentation() -> GroupPresentation:
    return GroupPresentation(
        ("r", "s"), (("r", "r", "r", "r"), ("s", "s"), ("s", "r", "s^-1", "r"))
    )


def gamma_presentation() -> GroupPresentation:
    """The bundled order-128 presentation with the derived extra relation."""
    ref = resources.files("parastat").joinpath("data/gamma128.json")
    return presentation_from_dict(json.loads(ref.read_text()))


NAMED_PRESENTATIONS = {
    "Z2": z2_presentation,
    "S3": s3_presentation,
    "D4": d4_presentation,
    "gamma128": gamma_presentation,
}


# ---------------------------------------------------------------------------
# group enumeration


@dataclass
class FiniteGroup:
    """Fully tabulated finite group; identity at element index 0."""

    presentation: GroupPresentation
    order: int
    words: list[tuple[int, ...]]  # signed generator indices (1-based, <0 = inverse)
    mult: np.ndarray  # mult[x, y] = index of x*y
    inv: np.ndarray
    classes: list[np.ndarray]  # conjugacy classes, order of first appearance
    class_of: np.ndarray
    gen_elems: list[int]  # element index of each generator
    _chartable: np.ndarray | None = field(default=None, repr=False)
    _irreps: list | None = field(default=None, repr=False)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def conjugate(self, g: int, x: int) -> int:
        return self.mult[self.mult[g, x], self.inv[g]]


def _coset_table(pres: GroupPresentation, max_cosets: int):
    """HLT Todd-Coxeter enumeration of the cosets of the trivial subgroup.

    Holt, Eick & O'Brien, Handbook of Computational Group Theory (2005),
    sec. 5.1.  The table is one flat int64 array with 2k columns per coset:
    column 2i is generator i and column 2i+1 its inverse, -1 while undefined.
    p[c] == c marks a live coset; a coset merged away by a coincidence points
    at a smaller one.  Raises GroupError once max_cosets cosets (live or dead)
    have been defined.
    """
    w = 2 * len(pres.generators)
    col = {name: 2 * i for i, name in enumerate(pres.generators)}
    rels = [
        [col[t[:-3]] + 1 if t.endswith("^-1") else col[t] for t in rel]
        for rel in pres.relations
    ]
    blank = array("q", [-1] * w)
    table = array("q", blank)
    p = [0]

    def define(c, x):
        d = len(p)
        if d >= max_cosets:
            raise GroupError("group too large or infinite under bound")
        p.append(d)
        table.extend(blank)
        table[c * w + x] = d
        table[d * w + (x ^ 1)] = c

    def rep(c):
        root = c
        while p[root] != root:
            root = p[root]
        while p[c] != root:  # path compression
            p[c], c = root, p[c]
        return root

    def merge(a, b, queue):
        a, b = rep(a), rep(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            p[b] = a
            queue.append(b)

    def coincidence(a, b):
        queue = []
        merge(a, b, queue)
        for dead in queue:  # merge() appends while this loop runs
            for x in range(w):
                d = table[dead * w + x]
                if d < 0:
                    continue
                table[d * w + (x ^ 1)] = -1
                mu, nu = rep(dead), rep(d)
                if table[mu * w + x] >= 0:
                    merge(nu, table[mu * w + x], queue)
                elif table[nu * w + (x ^ 1)] >= 0:
                    merge(mu, table[nu * w + (x ^ 1)], queue)
                else:
                    table[mu * w + x] = nu
                    table[nu * w + (x ^ 1)] = mu

    def scan_and_fill(c, rel):
        f, b, i, j = c, c, 0, len(rel) - 1
        while True:
            while i <= j and table[f * w + rel[i]] >= 0:
                f = table[f * w + rel[i]]
                i += 1
            if i > j:
                if f != c:
                    coincidence(f, c)
                return
            while j >= i and table[b * w + (rel[j] ^ 1)] >= 0:
                b = table[b * w + (rel[j] ^ 1)]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if i == j:  # deduction closes the relator
                table[f * w + rel[i]] = b
                table[b * w + (rel[i] ^ 1)] = f
                return
            define(f, rel[i])

    c = 0
    while c < len(p):
        for rel in rels:
            if p[c] != c:
                break
            scan_and_fill(c, rel)
        if p[c] == c:
            for x in range(w):
                if table[c * w + x] < 0:
                    define(c, x)
        c += 1
    return table, p


def enumerate_group(pres: GroupPresentation, order_bound: int = 100000) -> FiniteGroup:
    """Tabulate the group defined by pres via coset enumeration.

    The enumeration may define at most 4 * order_bound cosets, so a group
    that is infinite or far above the bound fails fast.  Raises
    GroupError("group too large or infinite under bound") when that
    allowance runs out or the final order exceeds order_bound.

    Elements get the standardized coset-table numbering: scanning elements
    in order and, for each, the columns g0, g0^-1, g1, g1^-1, ..., every
    element gets the next index when first reached.  That scan is a
    breadth-first search from the identity, and the step that first reaches
    an element gives its canonical shortlex word.
    """
    k = len(pres.generators)
    w = 2 * k
    table, p = _coset_table(pres, 4 * order_bound)
    index = {0: 0}  # live coset -> standardized element index
    order = [0]
    words: list[tuple[int, ...]] = [()]
    parent, step = [0], [0]  # element = parent * generator column step
    for y, c in enumerate(order):  # order grows while this loop runs
        for x in range(w):
            d = table[c * w + x]
            if d not in index:
                index[d] = len(order)
                order.append(d)
                words.append(words[y] + ((x // 2 + 1) * (1 - 2 * (x % 2)),))
                parent.append(y)
                step.append(x)
    n = len(order)
    if n != sum(p[c] == c for c in range(len(p))):  # also catches an undefined entry
        raise GroupError("coset table not transitive (enumeration incomplete)")
    if n > order_bound:
        raise GroupError("group too large or infinite under bound")

    act = np.array(  # act[x, y] = element y times column x
        [[index[table[c * w + x]] for c in order] for x in range(w)], dtype=np.int64
    )
    mult = np.empty((n, n), dtype=np.int64)
    mult[:, 0] = np.arange(n)
    for y in range(1, n):
        mult[:, y] = act[step[y], mult[:, parent[y]]]
    inv = np.argmin(mult, axis=1)  # position of the identity (index 0) in each row

    # Classes from a boolean mask, not np.unique: plain np.unique imports numpy.ma.
    class_of = np.full(n, -1, dtype=np.int64)
    classes = []
    for x in range(n):
        if class_of[x] >= 0:
            continue
        member = np.zeros(n, dtype=bool)
        member[mult[mult[:, x], inv]] = True
        orbit = np.flatnonzero(member)
        class_of[orbit] = len(classes)
        classes.append(orbit)

    gen_elems = [int(act[2 * gi, 0]) for gi in range(k)]
    return FiniteGroup(pres, n, words, mult, inv, classes, class_of, gen_elems)


# ---------------------------------------------------------------------------
# characters


def character_table(G: FiniteGroup) -> np.ndarray:
    """Irreducible characters as rows, columns indexed by conjugacy class.

    Burnside's method: the class-sum multiplication matrices commute, so a
    random real combination has the (scaled) character vectors as its
    eigenvectors.  Rows are sorted by dimension, then lexicographically.
    """
    if G._chartable is not None:
        return G._chartable
    n = G.order
    k = G.n_classes
    if k > MAX_CLASSES:
        raise GroupError(f"{k} conjugacy classes: character tables stop at {MAX_CLASSES}")
    sizes = np.array([len(c) for c in G.classes], dtype=np.float64)
    counts = np.zeros((k, k, k))
    cls = G.class_of
    for x in range(n):
        np.add.at(counts[cls[x]], (cls, cls[G.mult[x]]), 1.0)
    struct = counts / sizes[None, None, :]  # struct[i,j,k'] class-algebra constants

    id_cls = int(cls[0])
    rng = np.random.default_rng(0)  # fixed: the table is cached on G
    for _ in range(_MAX_RETRIES):
        combo = np.tensordot(rng.standard_normal(k), struct, axes=1)
        _, vecs = np.linalg.eig(combo)
        # right eigenvectors of left-multiplication: v_j ~ |C_j| chi_j / d
        chis = []
        ok = True
        for col in vecs.T:
            if abs(col[id_cls]) < 1e-12:
                ok = False
                break
            w = col / col[id_cls]
            d2 = n / np.sum(np.abs(w) ** 2 / sizes)
            if d2 <= 0:
                ok = False
                break
            d = np.sqrt(d2)
            chis.append(d * w / sizes)
        if not ok:
            continue
        tbl = np.array(chis)
        gram = (tbl * sizes[None, :]) @ tbl.conj().T / n
        if np.max(np.abs(gram - np.eye(k))) < 1e-8:
            dims = tbl[:, id_cls].real
            key = [
                (round(dims[i]), tuple(np.round(tbl[i], 6).view(np.float64)))
                for i in range(k)
            ]
            order = sorted(range(k), key=lambda i: key[i])
            G._chartable = tbl[order]
            return G._chartable
    raise GroupError("character table did not converge (degenerate symmetrizers)")


# ---------------------------------------------------------------------------
# irreps as explicit matrices


@dataclass
class Irrep:
    """Unitary matrix realization of one irreducible representation."""

    group: FiniteGroup
    index: int  # row in character_table(group)
    dim: int
    matrices: np.ndarray  # shape (order, dim, dim)
    character: np.ndarray  # class traces

    def __call__(self, g: int) -> np.ndarray:
        return self.matrices[g]


def _isotypic_basis(G: FiniteGroup, chi: np.ndarray, d: int) -> np.ndarray:
    """Orthonormal columns spanning the chi-isotypic block of the left regular rep."""
    n = G.order
    proj = (d / n) * np.conj(chi[G.class_of[G.mult[np.arange(n)[:, None], G.inv[None, :]]]])
    evals, evecs = np.linalg.eigh(proj)
    basis = evecs[:, evals > 0.5]
    if basis.shape[1] != d * d:
        raise GroupError(f"isotypic block has rank {basis.shape[1]}, expected {d * d}")
    return basis


def _commutant_average(G: FiniteGroup, basis: np.ndarray, h: np.ndarray) -> np.ndarray:
    """sum_g R_g h R_g^dag / |G| for the regular rep restricted to the block.

    R_g = B^dag L_g B with (L_g v)(x) = v(g^-1 x), and keys[x, y] = x^-1 y.
    The average is B^dag F B / |G| with F[x, y] = f(x^-1 y) and
    f(z) = sum_u K[u, u z] for K = B h B^dag: one bincount over the keys.
    """
    n = G.order
    keys = G.mult[G.inv]
    k = (basis @ h @ basis.conj().T).ravel()
    f = np.bincount(keys.ravel(), k.real, n) + 1j * np.bincount(keys.ravel(), k.imag, n)
    return basis.conj().T @ f[keys] @ basis / n


def _realize_irrep(G: FiniteGroup, chi: np.ndarray, index: int, rng) -> Irrep:
    n = G.order
    d = int(round(chi[G.class_of[0]].real))
    if d == 1:
        mats = chi[G.class_of].astype(np.complex128).reshape(n, 1, 1)
        return Irrep(G, index, 1, mats, chi.copy())

    # the regular rep restricted to the isotypic block holds d copies of the irrep
    basis = _isotypic_basis(G, chi, d)
    for _ in range(_MAX_RETRIES):
        h = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
        h = h + h.conj().T
        tvals, tvecs = np.linalg.eigh(_commutant_average(G, basis, h))
        # eigenvalues of the commutant operator cluster in groups of exactly d
        splits = [0] + [
            i for i in range(1, d * d) if tvals[i] - tvals[i - 1] > 1e-6
        ] + [d * d]
        blocks = [(splits[i], splits[i + 1]) for i in range(len(splits) - 1)]
        chosen = next(((lo, hi) for lo, hi in blocks if hi - lo == d), None)
        if chosen is None:
            continue
        span = basis @ tvecs[:, chosen[0]:chosen[1]]  # one copy, as columns C
        mats = span.conj().T @ span[G.mult[G.inv]]  # C^dag L_g C for every g
        traces = np.trace(mats[[c[0] for c in G.classes]], axis1=1, axis2=2)
        if np.max(np.abs(traces - chi)) < 1e-8:
            return Irrep(G, index, d, mats, chi.copy())
    raise GroupError("irrep realization failed after bounded retries")


def irreps(G: FiniteGroup) -> list[Irrep]:
    """One explicit unitary Irrep per character-table row."""
    if G._irreps is not None:
        return G._irreps
    tbl = character_table(G)
    rng = np.random.default_rng(0)  # fixed: the irreps are cached on G
    G._irreps = [_realize_irrep(G, tbl[i], i, rng) for i in range(len(tbl))]
    return G._irreps


# ---------------------------------------------------------------------------
# fusion


def _fusion_table(G: FiniteGroup, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Irrep multiplicities in every product of characters left[i] (x) right[j].

    left and right hold characters as rows; the result has shape
    (len(left), len(right), number of irreps).
    """
    tbl = character_table(G)
    sizes = np.array([len(c) for c in G.classes], dtype=np.float64)
    prod = left[:, None, :] * right[None, :, :]
    raw = prod @ (tbl.conj() * sizes[None, :]).T / G.order
    mults = np.round(raw.real).astype(int)
    if np.max(np.abs(raw - mults), initial=0.0) > 1e-6:
        raise GroupError("non-integral multiplicity")
    id_cls = G.class_of[0]
    dims = tbl[:, id_cls].real.round().astype(int)
    expected = np.outer(left[:, id_cls].real, right[:, id_cls].real).round()
    if np.any(mults @ dims != expected):
        raise GroupError("fusion dimensions do not sum")
    return mults


def fusion_decompose(G: FiniteGroup, pi1: Irrep, pi2: Irrep) -> list[tuple[int, int]]:
    """Multiplicities of each irrep in pi1 (x) pi2, as (irrep index, count)."""
    mults = _fusion_table(G, pi1.character[None, :], pi2.character[None, :])[0, 0]
    return [(i, int(m)) for i, m in enumerate(mults) if m]


def find_para_pair(G: FiniteGroup) -> tuple[Irrep, Irrep]:
    """Irrep pair with sigma (x) psi = d_psi * sigma, d_psi >= 2, and
    genuinely parastatistical exchange.

    A fusion pair can still induce product-form (ordinary) statistics - for
    instance when psi is blind to the center that makes sigma projective -
    so each candidate's derived R is checked for non-triviality before the
    pair is accepted.  Preference among the surviving pairs: smallest d_psi,
    then smallest d_sigma, then irrep indices.
    """
    from .rmatrix import is_trivial_product

    reps = irreps(G)
    tbl = character_table(G)
    psis = [psi for psi in reps if psi.dim >= 2]
    mults = _fusion_table(G, tbl, tbl[[psi.index for psi in psis]])  # [sigma, psi, irrep]
    k = len(reps)
    own = mults[np.arange(k), :, np.arange(k)]  # multiplicity of sigma in sigma (x) psi
    hits = (own == [psi.dim for psi in psis]) & (np.count_nonzero(mults, axis=2) == 1)
    candidates = [(psis[j].dim, reps[s].dim, s, psis[j].index) for s, j in np.argwhere(hits)]
    for _, _, si, pi in sorted(candidates):
        sigma, psi = reps[si], reps[pi]
        derived = derive_r(sigma, psi, solve_intertwiner(sigma, psi))
        if is_trivial_product(derived, 1e-8) is None:
            return sigma, psi
    raise GroupError("no parastatistical fusion rule in Rep(G)")


# ---------------------------------------------------------------------------
# intertwiner and the derived R-matrix


@dataclass
class Intertwiner:
    """Unitary V with [sigma(g) (x) psi(g)] V = V [1_m (x) sigma(g)] for all g."""

    sigma: Irrep
    psi: Irrep
    V: np.ndarray

    @property
    def m(self) -> int:
        return self.psi.dim


def solve_intertwiner(sigma: Irrep, psi: Irrep, seed: int = 0) -> Intertwiner:
    """Group-average a random matrix and polar-decompose the result."""
    G = sigma.group
    n = G.order
    ds, m = sigma.dim, psi.dim
    dim = ds * m
    rng = np.random.default_rng(seed)
    left = np.einsum("gij,gkl->gikjl", sigma.matrices, psi.matrices).reshape(n, dim, dim)
    right = np.einsum("ij,gkl->gikjl", np.eye(m), sigma.matrices).reshape(n, dim, dim)
    for _ in range(_MAX_RETRIES):
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        t = (left @ x @ right.conj().transpose(0, 2, 1)).sum(axis=0) / n
        u, s, vh = np.linalg.svd(t)
        if s[-1] < 1e-8 * s[0]:
            continue  # rank-deficient average; try a fresh X
        v = u @ vh
        residual = max(
            np.max(np.abs(left[G.gen_elems[i]] @ v - v @ right[G.gen_elems[i]]))
            for i in range(len(G.gen_elems))
        )
        if residual <= 1e-8:
            return Intertwiner(sigma, psi, v)
    raise GroupError("intertwiner averaging stayed rank-deficient")


def derive_r(sigma: Irrep, psi: Irrep, inter: Intertwiner) -> RMatrix:
    """Extract the exchange R-matrix from the doubled intertwiner.

    W = (V (x) 1_psi)(1_m (x) V) maps m (x) m (x) sigma to sigma (x) psi (x)
    psi.  Swapping the two psi legs of W acts, by Schur's lemma, as a unique
    operator on the m x m multiplicity factor; that operator is R.
    """
    ds, m = sigma.dim, psi.dim
    v = inter.V
    w = np.kron(v, np.eye(m)) @ np.kron(np.eye(m), v)
    wt = w.reshape(ds, m, m, m, m, ds)
    swapped = wt.transpose(0, 2, 1, 3, 4, 5).reshape(ds * m * m, m * m * ds)
    overlap = w.conj().T @ swapped
    pi = np.einsum("abscds->abcd", overlap.reshape(m, m, ds, m, m, ds)) / ds
    mat = pi.reshape(m * m, m * m)
    if np.max(np.abs(mat.conj().T @ mat - np.eye(m * m))) > 1e-8:
        raise GroupError("inconsistent intertwiner basis")
    # snap exact-integer tensors back to integers so downstream checks are exact
    if np.max(np.abs(mat.imag)) < 1e-10 and np.max(np.abs(mat.real - np.round(mat.real))) < 1e-10:
        mat = np.round(mat.real).astype(np.int64)
    return from_map(mat, m)


# Phase tuples gauge_match compares at once: its block arrays then hold at most
# 2^16 entries (1 MiB as complex128) at any m.
_GAUGE_BLOCK_ENTRIES = 1 << 16


def gauge_match(r1: RMatrix, r2: RMatrix, tol: float = 1e-8):
    """Monomial gauge Q with (Q x Q) map(r1) (Q x Q)^dag = map(r2), or None.

    Search space: permutations of the m internal states times diagonal phases
    from {1, -1, i, -i}, first phase fixed to 1 (a global phase cancels in
    Q x Q): m! * 4^(m-1) candidates, 1536 at m = 4 and about 6.6e8 at
    rmatrix.MAX_M = 8.  The first match is returned, in the order of
    permutations in itertools order, then phase tuples in product order.
    cli.cmd_derive_r calls this only when m equals the built-in paper3d's
    m = 4, where a full search takes a few ms; at m = 8 a miss costs about
    1 s per permutation, half a day in all.  Working memory stays
    bounded at every m: phase tuples are compared in blocks of at most
    _GAUGE_BLOCK_ENTRIES entries.  Absence of a monomial match does not
    disprove equivalence under a general unitary gauge.

    A monomial Q e_i = ph_i e_perm(i) only permutes and rephases entries:
    (Q x Q) M1 (Q x Q)^dag has ph_a ph_b conj(ph_c ph_d) M1[ab, cd] at
    [perm(a) perm(b), perm(c) perm(d)].  Phases are i^e, so each candidate
    reads M1 times one of four powers of i; that product, and so the
    comparison, is exact.
    """
    from itertools import permutations

    if r1.m != r2.m:
        raise ValueError("gauge_match requires equal m")
    m = r1.m
    m1 = as_map(r1).astype(np.complex128)
    m2 = as_map(r2).astype(np.complex128).reshape(m, m, m, m)
    turn = np.array([1, 1j, -1, -1j])  # turn[e] = i^e
    power = np.array([0, 2, 1, 3])  # the phases 1, -1, i, -i in search order, as e
    turned = turn[:, None, None] * m1
    cols = np.arange(m * m)
    n_tuples = 4 ** (m - 1)
    block = max(1, min(n_tuples, _GAUGE_BLOCK_ENTRIES // m**4))
    places = 4 ** np.arange(m - 2, -1, -1)  # product order: last phase varies fastest

    def phase_block(start):
        """Exponents e of phase tuples start.. and the i^(e_a+e_b-e_c-e_d) M1 of each."""
        digits = np.arange(start, min(start + block, n_tuples))[:, None] // places % 4
        e = np.zeros((len(digits), m), dtype=np.int64)
        e[:, 1:] = power[digits]
        pair = (e[:, :, None] + e[:, None, :]).reshape(-1, m * m)  # e_a + e_b
        expo = (pair[:, :, None] - pair[:, None, :]) & 3
        return e, turned[expo, cols[:, None], cols]

    first = phase_block(0)  # every permutation starts here; at m <= 4 it is all
    for perm in permutations(range(m)):
        target = m2[np.ix_(perm, perm, perm, perm)].reshape(m * m, m * m)
        for start in range(0, n_tuples, block):
            e, cand = first if start == 0 else phase_block(start)
            gap = np.abs(cand - target).reshape(len(e), -1).max(axis=1)
            hit = np.flatnonzero(gap <= tol)
            if hit.size:
                q = np.zeros((m, m), dtype=np.complex128)
                q[list(perm), np.arange(m)] = turn[e[hit[0]]]
                return q
    return None
