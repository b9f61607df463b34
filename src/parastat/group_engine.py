"""Finite groups from presentations, and the exchange statistics they induce.

Pipeline: a finite presentation is enumerated into a full multiplication
table (Todd-Coxeter coset enumeration over the trivial subgroup); every
irrep is realized as explicit unitary matrices, its character included, from
one eigendecomposition of a random Hermitian right convolution on the regular
representation, whose eigenspaces are irreducible copies.  A pair of irreps
(sigma, psi) with the fusion rule sigma (x) psi = d_psi * sigma yields a
unitary intertwiner V, built from Schur's matrix units of sigma inside
sigma (x) psi (one contraction of the two irreps' matrix tables), and
composing V twice produces an R-matrix on the d_psi^2-dimensional
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
# Most conjugacy classes irreps and character_table accept: reading the
# characters takes one n x n gather of the eigenvectors per class, k of them
# in all (an abelian group has k = n = |G|, so 256 gathers of 1 MiB here).
MAX_CLASSES = 256
# Entries irreps and gauge_match hold in one block of a batched gather or
# comparison: 2^16 (1 MiB as complex128), or one item when an item is larger.
_BLOCK_ENTRIES = 1 << 16


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
        if len(names := set(self.generators)) != len(self.generators):
            raise GroupError(f"duplicate generator names in {list(self.generators)}")
        for rel in self.relations:
            for tok in rel:
                base = tok[:-3] if tok.endswith("^-1") else tok
                if base not in names:
                    raise GroupError(f"relation references undeclared generator {tok!r}")


def presentation_from_dict(data: dict) -> GroupPresentation:
    try:
        gens, rels = data["generators"], data["relations"]
        supplementary = bool(data.get("derived_supplementary", False))
        if not all(isinstance(w, list) for w in [gens, rels, *rels]):
            raise TypeError("generators, relations and each relator must be JSON arrays")
    except (KeyError, TypeError, AttributeError) as exc:
        raise GroupError(f"malformed presentation: {exc!r}") from exc
    if not all(isinstance(tok, str) for word in [gens, *rels] for tok in word):
        raise GroupError("generator names and relator tokens must be strings")
    return GroupPresentation(tuple(gens), tuple(map(tuple, rels)), supplementary)


def load_presentation(path) -> GroupPresentation:
    with open(path) as fh:
        return presentation_from_dict(json.load(fh))


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
    _irreps: list | None = field(default=None, repr=False)

    @property
    def n_classes(self) -> int:
        return len(self.classes)


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
# irreps and characters


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


def irreps(G: FiniteGroup) -> list[Irrep]:
    """One explicit unitary Irrep per irreducible character, sorted by
    dimension, then lexicographically by the rounded character.

    A random Hermitian right convolution H[x, y] = f(x^-1 y), with
    f(g^-1) = conj f(g), commutes with the left regular representation
    (L_g v)(x) = v(g^-1 x), so it acts on the multiplicity space of each
    irrep in the regular representation.  For a generic f every eigenspace of
    H is therefore one irreducible copy (Serre, Linear Representations of
    Finite Groups, secs. 2.4 and 6), and one eigh yields every irrep: with an
    eigenspace's orthonormal columns C, C^dag L_g C is a unitary irrep and
    its traces are the character.  One eigenspace per distinct character is
    kept.  A draw whose eigenspaces are not all irreducible, or whose
    characters are not an orthonormal basis of class functions, is redrawn.
    """
    if G._irreps is not None:
        return G._irreps
    n, k = G.order, G.n_classes
    if k > MAX_CLASSES:
        raise GroupError(f"{k} conjugacy classes: character tables stop at {MAX_CLASSES}")
    keys = G.mult[G.inv]  # keys[x, y] = x^-1 y, so C[keys[g]] = L_g C
    sizes = np.array([len(c) for c in G.classes], dtype=np.float64)
    rng = np.random.default_rng(0)  # fixed: the irreps are cached on G
    for _ in range(_MAX_RETRIES):
        z = rng.standard_normal((2, n))
        a = z[0] + 1j * z[1]
        vals, vecs = np.linalg.eigh((a + a[G.inv].conj())[keys])
        starts = np.flatnonzero(np.diff(vals, prepend=-np.inf) > 1e-6)
        # per class, the trace of L_x on each eigenvector, summed per eigenspace
        diag = np.array([(vecs.conj() * vecs[keys[c[0]]]).sum(axis=0) for c in G.classes])
        chars = np.add.reduceat(diag, starts, axis=1).T
        gram = (chars * sizes) @ chars.conj().T / n
        # gram is 1 between copies of one irrep and 0 otherwise: keep each first copy
        kept = np.flatnonzero(np.argmax(gram.real > 0.5, axis=0) == np.arange(len(starts)))
        if (
            np.max(np.abs(np.diagonal(gram) - 1)) < 1e-8
            and len(kept) == k
            and np.max(np.abs(gram[np.ix_(kept, kept)] - np.eye(k))) < 1e-8
        ):
            break
    else:
        raise GroupError("irreps did not converge (degenerate right convolutions)")
    ends = np.append(starts[1:], n)
    dims = ends - starts
    order = sorted(kept, key=lambda j: (dims[j], tuple(np.round(chars[j], 6).view(np.float64))))
    G._irreps = []
    for index, j in enumerate(order):
        span = vecs[:, starts[j]:ends[j]]
        mats = np.empty((n, dims[j], dims[j]), dtype=np.complex128)
        block = max(1, _BLOCK_ENTRIES // span.size)
        for g in range(0, n, block):  # C^dag L_g C, one gemm per g
            mats[g:g + block] = span.conj().T @ span[keys[g:g + block]]
        G._irreps.append(Irrep(G, index, int(dims[j]), mats, chars[j].copy()))
    return G._irreps


def character_table(G: FiniteGroup) -> np.ndarray:
    """Irreducible characters as rows, in irreps(G) order; columns indexed by
    conjugacy class."""
    return np.array([rep.character for rep in irreps(G)])


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


def find_para_pair(G: FiniteGroup, seed: int = 0) -> tuple[Intertwiner, RMatrix]:
    """Intertwiner of an irrep pair with sigma (x) psi = d_psi * sigma,
    d_psi >= 2, and genuinely parastatistical exchange, with its derived R.

    A fusion pair can still induce product-form (ordinary) statistics - for
    instance when psi is blind to the center that makes sigma projective -
    so each candidate's derived R is checked for non-triviality before the
    pair is accepted.  Preference among the surviving pairs: smallest d_psi,
    then smallest d_sigma, then irrep indices.  seed goes to
    solve_intertwiner.  It cannot change which pair wins: the check is
    whether R is a rank-1 product, which the Q (x) Q gauge that separates two
    seeds' intertwiners preserves.
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
        inter = solve_intertwiner(sigma, psi, seed)
        derived = derive_r(sigma, psi, inter)
        if is_trivial_product(derived, 1e-8) is None:
            return inter, derived
    raise GroupError("no parastatistical fusion rule in Rep(G)")


# ---------------------------------------------------------------------------
# intertwiner and the derived R-matrix


@dataclass
class Intertwiner:
    """Unitary V with [sigma(g) (x) psi(g)] V = V [1_m (x) sigma(g)] for all g."""

    sigma: Irrep
    psi: Irrep
    V: np.ndarray


def solve_intertwiner(sigma: Irrep, psi: Irrep, seed: int = 0) -> Intertwiner:
    """Unitary intertwiner C^m (x) sigma -> sigma (x) psi from Schur's matrix units.

    With rho = sigma (x) psi, the operators
    p_b1 = (d_sigma / |G|) sum_g conj(sigma(g)_b1) rho(g) satisfy
    rho(h) p_b1 = sum_c sigma(h)_cb p_c1 (Serre, Linear Representations of
    Finite Groups, sec. 2.7, prop. 8): p_11 is the orthogonal projector onto
    the first basis vectors of the sigma copies in rho, and p_b1 maps them
    isometrically to the b-th.  The polar factor of p_11 Z, for a random
    complex dim x m matrix Z, is an orthonormal basis q_1..q_m of range(p_11),
    and column (a, b) of V is p_b1 q_a.  Every p_b1 is one contraction of
    sigma's (|G|, d_sigma^2) table with psi's (|G|, m^2) table.

    A draw is redrawn when p_11 Z is rank-deficient (s_min <= 1e-8 s_max) or
    V misses the intertwining relation by more than 1e-8 on a generator;
    after _MAX_RETRIES draws GroupError is raised.  That is also the outcome
    when sigma (x) psi is not m copies of sigma.
    """
    G = sigma.group
    n = G.order
    ds, m = sigma.dim, psi.dim
    dim = ds * m
    sig = sigma.matrices.reshape(n, ds * ds)
    weighted = sigma.matrices[:, :, 0].conj()[:, :, None] * psi.matrices.reshape(n, 1, m * m)
    p = (sig.T @ weighted.reshape(n, ds * m * m)) * (ds / n)  # [(i, j), (b, k, l)]
    p = p.reshape(ds, ds, ds, m, m).transpose(2, 0, 3, 1, 4).reshape(ds, dim, dim)
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_RETRIES):
        z = rng.standard_normal((2, dim, m))
        u, s, vh = np.linalg.svd(p[0] @ (z[0] + 1j * z[1]), full_matrices=False)
        if s[-1] <= 1e-8 * s[0]:
            continue  # rank-deficient draw; try a fresh Z
        v = (p @ (u @ vh)).transpose(1, 2, 0).reshape(dim, dim)  # column a * ds + b
        residual = max(
            np.max(np.abs(np.kron(sigma(g), psi(g)) @ v - v @ np.kron(np.eye(m), sigma(g))))
            for g in G.gen_elems
        )
        if residual <= 1e-8:
            return Intertwiner(sigma, psi, v)
    raise GroupError(
        f"no unitary intertwiner after {_MAX_RETRIES} draws: p_11 Z stayed "
        "rank-deficient or V failed the intertwining check"
    )


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
    # snap a near-integer tensor to integers, kept as complex entries, because
    # game._decode_tables reads the nonzero pattern; + 0.0 turns -0.0 into 0.0
    if np.max(np.abs(mat.imag)) < 1e-10 and np.max(np.abs(mat.real - np.round(mat.real))) < 1e-10:
        mat = np.round(mat.real) + 0.0
    return from_map(mat, m)


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
    _BLOCK_ENTRIES entries.  Absence of a monomial match does not
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
    m1 = as_map(r1)
    m2 = as_map(r2).reshape(m, m, m, m)
    turn = np.array([1, 1j, -1, -1j])  # turn[e] = i^e
    power = np.array([0, 2, 1, 3])  # the phases 1, -1, i, -i in search order, as e
    turned = turn[:, None, None] * m1
    cols = np.arange(m * m)
    n_tuples = 4 ** (m - 1)
    block = max(1, min(n_tuples, _BLOCK_ENTRIES // m**4))
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
