import hashlib
import json
import math
import time
import tracemalloc
import warnings
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest

import parastat.group_engine as ge
import parastat.rmatrix as rm


class TestEnumeration:
    def test_z2(self, small_groups):
        G = small_groups["Z2"]
        assert G.order == 2 and G.n_classes == 2

    def test_d4(self, small_groups):
        G = small_groups["D4"]
        assert G.order == 8 and G.n_classes == 5

    def test_s3(self, small_groups):
        assert small_groups["S3"].order == 6

    def test_gamma_order(self, gamma):
        assert gamma.order == 128

    def test_latin_square_and_inverses(self, small_groups, gamma):
        for G in list(small_groups.values()) + [gamma]:
            n = G.order
            each_row = np.tile(np.arange(n), (n, 1))
            assert np.array_equal(np.sort(G.mult, axis=1), each_row)
            assert np.array_equal(np.sort(G.mult, axis=0), each_row.T)
            assert np.all(G.mult[np.arange(n), G.inv] == 0)
            assert np.all(G.mult[G.inv, np.arange(n)] == 0)

    def test_associativity_random_triples(self, gamma):
        rng = np.random.default_rng(3)
        n = gamma.order
        for _ in range(200):
            x, y, z = rng.integers(0, n, 3)
            assert gamma.mult[gamma.mult[x, y], z] == gamma.mult[x, gamma.mult[y, z]]

    def test_classes_partition(self, gamma):
        counted = np.zeros(gamma.order, dtype=int)
        for c in gamma.classes:
            counted[c] += 1
        assert np.all(counted == 1)

    def test_order_bound_enforced(self):
        with pytest.raises(ge.GroupError, match="too large"):
            ge.enumerate_group(ge.gamma_presentation(), order_bound=64)

    def test_table_budget_refused_before_enumeration(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("_coset_table ran past the table budget")

        monkeypatch.setattr(ge, "_coset_table", never)
        with pytest.raises(ge.GroupError, match=f"exceeds {ge.ORDER_BOUND_MAX}"):
            ge.enumerate_group(ge.z2_presentation(), order_bound=ge.ORDER_BOUND_MAX + 1)
        # 4 * 4096 cosets x 2 * 513 int64 columns is just over 8 * 4096^2 bytes
        free = ge.GroupPresentation(tuple(f"g{i}" for i in range(513)), ())
        with pytest.raises(ge.GroupError, match="^513 generators: the coset table at"):
            ge.enumerate_group(free, order_bound=ge.ORDER_BOUND_MAX)

    def test_infinite_group_fails_fast(self):
        infinite = ge.GroupPresentation(("a", "b"), (("a", "a"),))
        start = time.perf_counter()
        with pytest.raises(ge.GroupError, match="too large"):
            ge.enumerate_group(infinite, order_bound=1000)
        assert time.perf_counter() - start < 1.0

    def test_undeclared_generator_rejected(self):
        with pytest.raises(ge.GroupError):
            ge.GroupPresentation(("a",), (("a", "b"),))

    def test_bundled_presentation_flags_derived_relation(self):
        pres = ge.gamma_presentation()
        assert pres.derived_supplementary

    def test_presentation_file_roundtrip(self, tmp_path):
        pres = ge.d4_presentation()
        path = tmp_path / "d4.json"
        path.write_text(json.dumps({
            "generators": list(pres.generators),
            "relations": [list(rel) for rel in pres.relations],
        }))
        with open(path) as fh:
            assert ge.presentation_from_dict(json.load(fh)) == pres

    @pytest.mark.parametrize("data", ({"relations": []}, {"generators": 3, "relations": []},
                                      {"generators": ["a"], "relations": [["a", 2]]},
                                      [], None))
    def test_malformed_presentation_rejected(self, data):
        with pytest.raises(ge.GroupError):
            ge.presentation_from_dict(data)


def _loose_gamma():
    """The bundled presentation without its supplementary relation (order 256)."""
    pres = ge.gamma_presentation()
    rels = tuple(r for r in pres.relations if r != ("z1", "z2", "z3", "z4"))
    return ge.GroupPresentation(pres.generators, rels)


def _sha256(arr):
    return hashlib.sha256(np.ascontiguousarray(arr, dtype="<i8").tobytes()).hexdigest()


FIXTURE_GROUPS = {
    "Z2": (ge.z2_presentation, ge.ORDER_BOUND_MAX),
    "S3": (ge.s3_presentation, ge.ORDER_BOUND_MAX),
    "D4": (ge.d4_presentation, ge.ORDER_BOUND_MAX),
    "gamma128": (ge.gamma_presentation, ge.ORDER_BOUND_MAX),
    "gamma256": (_loose_gamma, 1024),
}


@pytest.mark.parametrize("name", sorted(FIXTURE_GROUPS))
def test_enumeration_matches_recorded_tables(name):
    """Fingerprints recorded from the earlier sympy-based enumeration
    (coset_enumeration_r, then compress and standardize)."""
    fixtures = json.loads((Path(__file__).parent / "enumeration_fixtures.json").read_text())
    pres, bound = FIXTURE_GROUPS[name]
    G = ge.enumerate_group(pres(), order_bound=bound)
    words = json.dumps([list(w) for w in G.words]).encode()
    assert {
        "order": G.order,
        "mult_sha256": _sha256(G.mult),
        "inv_sha256": _sha256(G.inv),
        "words_sha256": hashlib.sha256(words).hexdigest(),
        "gen_elems": G.gen_elems,
        "class_first": [int(c[0]) for c in G.classes],
        "class_sizes": [len(c) for c in G.classes],
    } == fixtures[name]


def reference_character_table(G):
    """Burnside's method: the class-sum multiplication matrices commute, so a
    random real combination has the (scaled) character vectors as its
    eigenvectors.  Rows sorted as irreps sorts them."""
    n, k = G.order, G.n_classes
    sizes = np.array([len(c) for c in G.classes], dtype=np.float64)
    counts = np.zeros((k, k, k))
    cls = G.class_of
    for x in range(n):
        np.add.at(counts[cls[x]], (cls, cls[G.mult[x]]), 1.0)
    struct = counts / sizes[None, None, :]  # struct[i,j,k'] class-algebra constants
    combo = np.tensordot(np.random.default_rng(0).standard_normal(k), struct, axes=1)
    _, vecs = np.linalg.eig(combo)
    # right eigenvectors of left-multiplication: v_j ~ |C_j| chi_j / d
    w = vecs / vecs[cls[0]]
    tbl = np.sqrt(n / np.sum(np.abs(w) ** 2 / sizes[:, None], axis=0))[:, None] * (w.T / sizes)
    key = [(round(row[cls[0]].real), tuple(np.round(row, 6).view(np.float64))) for row in tbl]
    return tbl[sorted(range(k), key=lambda i: key[i])]


def _alternative_gamma():
    """The bundled presentation with z1 z2 z3 z4 = c in place of = 1 (order 128)."""
    pres = ge.gamma_presentation()
    rels = [r for r in pres.relations if r != ("z1", "z2", "z3", "z4")]
    rels.append(("z1", "z2", "z3", "z4", "c^-1"))
    return ge.GroupPresentation(pres.generators, tuple(rels))


REFERENCE_GROUPS = {**FIXTURE_GROUPS, "alternative": (_alternative_gamma, 512)}


@pytest.mark.parametrize("name", REFERENCE_GROUPS)
def test_character_table_matches_burnside(name):
    pres, bound = REFERENCE_GROUPS[name]
    G = ge.enumerate_group(pres(), order_bound=bound)
    ref = reference_character_table(G)
    tbl = ge.character_table(G)
    assert tbl.shape == ref.shape
    assert np.max(np.abs(tbl - ref)) < 1e-10
    assert [rep.index for rep in ge.irreps(G)] == list(range(len(ref)))


def _patch_zero_draws(monkeypatch, zeros):
    """The first `zeros` calls of ge._normals return zeros and leave the stream
    where it was, so the next call makes the seed's first real draw."""
    real, left = ge._normals, [zeros]

    def normals(rng, *shape):
        if left[0]:
            left[0] -= 1
            return np.zeros(shape)
        return real(rng, *shape)

    monkeypatch.setattr(ge, "_normals", normals)


class TestStream:
    def test_stream_is_pinned(self):
        # the first draws of seed 0, computed from the definition with Python
        # ints and math.log1p / math.cos
        assert ge._seeded(0).random(4).tolist() == [
            0.797333289454775, 0.8610747444404275, 0.5850084024151584, 0.15622854380275053]
        z = ge._normals(ge._seeded(0), 4)
        assert z.shape == (4,)
        pinned = [1.1481716820512045, 0.7369851897430915, -0.06463410605664124,
                  -0.48112993268442933]
        assert np.max(np.abs(z - pinned)) <= 1e-15
        assert np.array_equal(ge._normals(ge._seeded(0), 2, 2), z.reshape(2, 2))

    def test_draws_continue_the_counter(self):
        rng = ge._seeded(7, 1)
        parts = [rng.random(3), rng.random((2, 2)).ravel(), rng.random(0), rng.random(1)]
        assert np.array_equal(np.concatenate(parts), ge._seeded(7, 1).random(8))

    def test_keys_differing_in_value_order_or_length_differ(self):
        keys = [(0,), (1,), (5, 3), (3, 5), (5, 3, 0), (5, 0, 3), (5,), (2 ** 64 + 5,),
                (2 ** 64, 5), (0, 1 + 5 * 2 ** 64), (0, 1, 5), (2 ** 128,)]
        streams = {tuple(ge._seeded(*key).random(4).tolist()) for key in keys}
        assert len(streams) == len(keys)
        assert np.array_equal(ge._seeded(5, 3).random(4), ge._seeded(5, 3).random(4))

    def test_no_overflow_warning(self):
        # pytest already turns warnings into errors; numpy scalar (not array)
        # uint64 products would warn on the wraps every draw makes
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            rng = ge._seeded(2 ** 64 + 1, 3, 2 ** 70)
            for n in (1, 0, 1000):
                rng.random(n), rng.integers(128, n), ge._normals(rng, n)
            assert ge._fmix64(np.array([2 ** 64 - 1], dtype=np.uint64)).dtype == np.uint64

    @pytest.mark.parametrize("m", (1, 3, 16, 128))
    def test_integers_are_uniform(self, m):
        # chi-square with m - 1 degrees of freedom: mean m - 1, sigma
        # sqrt(2 (m - 1)); bound at 5 sigma
        n = 200_000
        x = ge._seeded(2024, m).integers(m, n)
        assert x.dtype == np.int64 and 0 <= x.min() and x.max() < m
        counts = np.bincount(x, minlength=m)
        chi2 = float(np.sum((counts - n / m) ** 2 / (n / m)))
        assert chi2 <= (m - 1) + 5 * math.sqrt(2 * (m - 1))

    @pytest.mark.parametrize("block", (5, 64))
    def test_chunks_change_no_draw(self, monkeypatch, block):
        # random and _normals work _BLOCK_ENTRIES counters at a time; the
        # sizes and shapes cross chunk boundaries at either block size
        def draws():
            rng = ge._seeded(11, 4)
            out = [rng.random(n) for n in (0, 1, 4, 5, 6, 63, 64, 65, 200)]
            out += [rng.random((3, 7)), rng.integers(7, 131), rng.integers(3, (5, 13))]
            out += [ge._normals(rng, *shape) for shape in ((1,), (3,), (13,), (0, 5),
                                                           (2, 7, 3), (2, 33, 5))]
            return out, rng.count

        ref, ref_count = draws()
        monkeypatch.setattr(ge, "_BLOCK_ENTRIES", block)
        got, count = draws()
        assert count == ref_count
        for x, y in zip(got, ref, strict=True):
            assert x.shape == y.shape and x.dtype == y.dtype and np.array_equal(x, y)

    def test_normals_have_mean_0_and_variance_1(self):
        # standard errors: 1 / sqrt(n) for the mean, sqrt(2 / n) for the
        # variance; bounds at 5 sigma
        n = 200_000
        z = ge._normals(ge._seeded(2025), n)
        assert abs(z.mean()) <= 5 / math.sqrt(n)
        assert abs(z.var() - 1) <= 5 * math.sqrt(2 / n)


class TestCharacters:
    def test_too_many_classes_rejected_before_allocating(self):
        cyclic = ge.enumerate_group(ge.GroupPresentation(("a",), (("a",) * 300,)))
        assert cyclic.n_classes == 300 > ge.MAX_CLASSES
        with pytest.raises(ge.GroupError, match="conjugacy classes"):
            ge.character_table(cyclic)

    def test_z2_table(self, small_groups):
        tbl = ge.character_table(small_groups["Z2"])
        assert sorted(tuple(np.round(row.real).astype(int)) for row in tbl) == [
            (1, -1), (1, 1)]

    def test_d4_dimensions(self, small_groups):
        tbl = ge.character_table(small_groups["D4"])
        dims = sorted(int(round(row[small_groups["D4"].class_of[0]].real)) for row in tbl)
        assert dims == [1, 1, 1, 1, 2]

    def test_gamma_dimensions(self, gamma):
        tbl = ge.character_table(gamma)
        dims = sorted(int(round(row[gamma.class_of[0]].real)) for row in tbl)
        assert dims == [1] * 8 + [2] * 6 + [4, 4, 8]
        assert sum(d * d for d in dims) == 128

    def test_orthogonality(self, gamma, small_groups):
        for G in [gamma] + list(small_groups.values()):
            tbl = ge.character_table(G)
            sizes = np.array([len(c) for c in G.classes], dtype=float)
            gram = (tbl * sizes[None, :]) @ tbl.conj().T / G.order
            assert np.max(np.abs(gram - np.eye(len(tbl)))) < 1e-8


class TestIrreps:
    def test_unitarity_and_homomorphism(self, gamma):
        rng = np.random.default_rng(11)
        for rep in ge.irreps(gamma):
            d = rep.dim
            g = int(rng.integers(gamma.order))
            assert np.max(np.abs(rep(g).conj().T @ rep(g) - np.eye(d))) < 1e-9
            for _ in range(50):
                x, y = rng.integers(0, gamma.order, 2)
                assert np.max(np.abs(rep(x) @ rep(y) - rep(gamma.mult[x, y]))) < 1e-9

    def test_characters_match_table(self, gamma):
        tbl = ge.character_table(gamma)
        for rep in ge.irreps(gamma):
            traces = np.array([np.trace(rep(int(c[0]))) for c in gamma.classes])
            assert np.max(np.abs(traces - tbl[rep.index])) < 1e-8

    def test_d4_two_dim_relations(self, small_groups):
        G = small_groups["D4"]
        rep = next(r for r in ge.irreps(G) if r.dim == 2)
        r_el, s_el = G.gen_elems
        assert np.max(np.abs(np.linalg.matrix_power(rep(r_el), 4) - np.eye(2))) < 1e-9
        assert np.max(np.abs(rep(s_el) @ rep(s_el) - np.eye(2))) < 1e-9

    def test_z2_irreps(self, small_groups):
        reps = ge.irreps(small_groups["Z2"])
        vals = sorted(complex(r.matrices[1, 0, 0]).real for r in reps)
        assert np.allclose(vals, [-1.0, 1.0])

    def test_zero_draw_is_redrawn(self, monkeypatch):
        G = ge.enumerate_group(ge.d4_presentation())
        ref = reference_character_table(G)
        _patch_zero_draws(monkeypatch, 1)
        assert np.max(np.abs(ge.character_table(G) - ref)) < 1e-10

    def test_zero_draws_raise(self, monkeypatch):
        G = ge.enumerate_group(ge.d4_presentation())
        _patch_zero_draws(monkeypatch, ge._MAX_RETRIES)
        with pytest.raises(ge.GroupError, match="did not converge"):
            ge.irreps(G)

    def test_gamma_irreps_peak_memory(self):
        G = ge.enumerate_group(ge.gamma_presentation())
        tracemalloc.start()
        try:
            reps = ge.irreps(G)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert max(rep.dim for rep in reps) == 8
        assert peak < 8 * 2**20

    def test_gamma256_irreps_peak_memory(self):
        """The matrices are gathered in bounded blocks of group elements, not
        as one (|G|, |G|, d) array (10.8 MiB here)."""
        G = ge.enumerate_group(_loose_gamma(), order_bound=1024)
        tracemalloc.start()
        try:
            reps = ge.irreps(G)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert G.order == 256 and max(rep.dim for rep in reps) == 8
        assert peak < 6 * 2**20


class TestFusion:
    def test_tensor_with_trivial(self, gamma):
        reps = ge.irreps(gamma)
        triv = next(r for r in reps if r.dim == 1 and np.allclose(r.character, 1))
        for rep in reps[:5]:
            assert ge.fusion_decompose(gamma, rep, triv) == [(rep.index, 1)]

    def test_d4_two_dim_squares_to_all_ones(self, small_groups):
        G = small_groups["D4"]
        reps = ge.irreps(G)
        two = next(r for r in reps if r.dim == 2)
        decomp = ge.fusion_decompose(G, two, two)
        assert sorted(m for _, m in decomp) == [1, 1, 1, 1]
        assert all(reps[i].dim == 1 for i, _ in decomp)

    def test_gamma_para_fusion(self, gamma, gamma_pair):
        sigma, psi = gamma_pair
        assert (sigma.dim, psi.dim) == (8, 4)
        assert ge.fusion_decompose(gamma, sigma, psi) == [(sigma.index, 4)]

    def test_no_pair_in_abelian_or_dihedral(self, small_groups):
        for name in ("Z2", "D4"):
            with pytest.raises(ge.GroupError, match="no parastatistical"):
                ge.find_para_pair(small_groups[name])


def reference_intertwiner(sigma, psi, seed=0):
    """Group average of a random matrix X over (sigma(g) (x) psi(g)) X (1 (x) sigma(g))^dag,
    polar-decomposed; one (|G|, dim, dim) stack per side, no retry."""
    n, ds, m = sigma.group.order, sigma.dim, psi.dim
    dim = ds * m
    rng = np.random.default_rng(seed)
    left = np.einsum("gij,gkl->gikjl", sigma.matrices, psi.matrices).reshape(n, dim, dim)
    right = np.einsum("ij,gkl->gikjl", np.eye(m), sigma.matrices).reshape(n, dim, dim)
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    u, _, vh = np.linalg.svd((left @ x @ right.conj().transpose(0, 2, 1)).sum(axis=0) / n)
    return ge.Intertwiner(sigma, psi, u @ vh)


class TestIntertwiner:
    def test_matches_reference_up_to_gauge(self, gamma_pair, gamma_derived):
        sigma, psi = gamma_pair
        derived = gamma_derived[0]
        ref = ge.derive_r(reference_intertwiner(sigma, psi))
        for r in (derived, ref):
            assert rm.check_yang_baxter(r, 1e-8).passed
            assert rm.check_unitary(r, 1e-8).passed
            assert rm.check_perfect_tensor(r, 1e-8).passed
        assert rm.invariants_close(
            rm.spectral_invariants(derived), rm.spectral_invariants(ref), tol=1e-10
        )

    @pytest.mark.parametrize("name", ("D4", "S3"))
    def test_two_dim_irrep_with_itself_raises(self, small_groups, name):
        """sigma does not occur in sigma (x) sigma, so p_11 = 0.  A relative
        rank test on p_11 Z compared two rounding-noise singular values and
        let D4 through with a V of norm 1e-16."""
        sigma = next(r for r in ge.irreps(small_groups[name]) if r.dim == 2)
        with pytest.raises(ge.GroupError,
                           match="no unitary intertwiner: p_11 is not a rank-2 projector"):
            ge.solve_intertwiner(sigma, sigma)

    def test_gamma_peak_memory(self, gamma_pair):
        sigma, psi = gamma_pair
        tracemalloc.start()
        try:
            ge.solve_intertwiner(sigma, psi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_isometry_and_intertwining(self, gamma, gamma_pair, gamma_derived):
        """Unitary, and intertwining on all 128 elements, not just the generators."""
        sigma, psi = gamma_pair
        _, inter = gamma_derived
        v = inter.V
        assert np.max(np.abs(v.conj().T @ v - np.eye(32))) < 1e-12
        assert gamma.order == 128
        for g in range(gamma.order):
            lhs = np.kron(sigma(g), psi(g)) @ v
            rhs = v @ np.kron(np.eye(4), sigma(g))
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_trivial_psi_gives_identity_r(self, small_groups):
        G = small_groups["S3"]
        reps = ge.irreps(G)
        triv = next(r for r in reps if r.dim == 1 and np.allclose(r.character, 1))
        sigma = next(r for r in reps if r.dim == 2)
        derived = ge.derive_r(ge.solve_intertwiner(sigma, triv))
        assert derived.m == 1
        assert np.allclose(derived.entries, 1.0)

    def test_group_without_generators(self):
        """The trivial group has no generator to check V on, so the projector
        check alone accepts V."""
        G = ge.enumerate_group(ge.GroupPresentation((), ()))
        (rep,) = ge.irreps(G)
        v = ge.solve_intertwiner(rep, rep).V
        assert v.shape == (1, 1)
        assert abs(abs(v[0, 0]) - 1.0) < 1e-12

    def test_derived_entries_are_complex(self, small_groups, gamma_derived):
        # the near-integer m = 1 tensor is snapped to an exact 1, still complex
        G = small_groups["S3"]
        reps = ge.irreps(G)
        triv = next(r for r in reps if r.dim == 1 and np.allclose(r.character, 1))
        sigma = next(r for r in reps if r.dim == 2)
        snapped = ge.derive_r(ge.solve_intertwiner(sigma, triv))
        assert snapped.entries.dtype == np.complex128
        assert np.array_equal(snapped.entries, np.ones((1, 1, 1, 1)))
        assert gamma_derived[0].entries.dtype == np.complex128


class TestDerivedR:
    def test_passes_all_checks(self, gamma_derived):
        derived, _ = gamma_derived
        assert rm.check_yang_baxter(derived, 1e-8).passed
        assert rm.check_unitary(derived, 1e-8).passed
        assert rm.check_perfect_tensor(derived, 1e-8).passed
        assert rm.is_trivial_product(derived, 1e-8) is None

    def test_invariants_match_builtin(self, gamma_derived):
        derived, _ = gamma_derived
        ref = rm.paper_r(+1)
        assert rm.invariants_close(
            rm.spectral_invariants(derived), rm.spectral_invariants(ref), tol=1e-8
        )


class TestGaugeMatch:
    def test_identity(self):
        r = rm.paper_r(+1)
        q = ge.gauge_match(r, r)
        assert q is not None
        assert np.allclose(np.abs(q), np.eye(4))

    def test_recovers_relabeling(self):
        rng = np.random.default_rng(5)
        r = rm.paper_r(+1)
        perm = rng.permutation(4)
        q0 = np.zeros((4, 4))
        for i, j in enumerate(perm):
            q0[j, i] = 1.0
        qq = np.kron(q0, q0)
        relabeled = rm.from_map(qq @ rm.as_map(r) @ qq.T, 4)
        q = ge.gauge_match(r, relabeled)
        assert q is not None
        qq2 = np.kron(q, q)
        assert np.max(np.abs(
            qq2 @ rm.as_map(r).astype(complex) @ qq2.conj().T
            - rm.as_map(relabeled)
        )) < 1e-8

    def test_inequivalent_pair(self):
        assert ge.gauge_match(rm.paper_r(+1), rm.trivial_r(4, +1)) is None

    def test_rejects_unequal_m_and_m_above_4(self):
        with pytest.raises(ValueError, match="equal m"):
            ge.gauge_match(rm.paper_r(+1), rm.braid_fixture())
        r = rm.trivial_r(5, +1)
        with pytest.raises(ValueError, match="m <= 4"):
            ge.gauge_match(r, r)


def reference_gauge_match(r1, r2, tol=1e-8):
    """One Kronecker product and two matmuls per monomial candidate."""
    m = r1.m
    m1 = rm.as_map(r1).astype(np.complex128)
    m2 = rm.as_map(r2).astype(np.complex128)
    phases = (1.0, -1.0, 1j, -1j)
    for perm in permutations(range(m)):
        base = np.zeros((m, m), dtype=np.complex128)
        for i, j in enumerate(perm):
            base[j, i] = 1.0
        for ph in product(phases, repeat=m - 1):
            q = base * np.array((1.0,) + ph)[None, :]
            qq = np.kron(q, q)
            if np.max(np.abs(qq @ m1 @ qq.conj().T - m2)) <= tol:
                return q
    return None


def _gauged(r, q):
    qq = np.kron(q, q)
    return rm.from_map(qq @ rm.as_map(r).astype(np.complex128) @ qq.conj().T, r.m)


def _monomial(m, rng):
    q = np.zeros((m, m), dtype=np.complex128)
    q[rng.permutation(m), np.arange(m)] = np.array([1, -1, 1j, -1j])[rng.integers(4, size=m)]
    return q


def _haar(m, rng):
    q, upper = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    return q * (np.diagonal(upper) / np.abs(np.diagonal(upper)))


class TestGaugeMatchAgainstReference:
    @pytest.mark.parametrize("name", ("paper3d", "braid-fixture", "trivial4"))
    def test_same_result_as_loop(self, name):
        rng = np.random.default_rng(23)
        r = rm.builtin_r(name)
        others = [r, rm.trivial_r(r.m, -1)]
        others += [_gauged(r, _monomial(r.m, rng)) for _ in range(4)]
        others += [_gauged(r, _haar(r.m, rng)) for _ in range(2)]
        found = 0
        for other in others:
            q = ge.gauge_match(r, other)
            ref = reference_gauge_match(r, other)
            if ref is None:
                assert q is None
            else:
                assert q is not None and np.array_equal(q, ref)
                found += 1
        assert found >= 5  # r itself and its four monomial gauges

    def test_derived_r_against_paper3d(self, gamma_derived):
        """The derived R has 256 nonzero entries and paper3d 16, so the moduli
        precheck returns None without the scan; the loop finds no match."""
        derived = gamma_derived[0]
        r = rm.paper_r(+1)
        assert reference_gauge_match(derived, r) is None
        assert ge.gauge_match(derived, r) is None

    @pytest.mark.parametrize("shift, matches", ((0.5e-8, True), (5e-8, False)))
    def test_tolerance_edge(self, shift, matches):
        """A monomial gauge of paper3d with one nonzero entry lengthened by
        shift, so its modulus moves by shift: within 1e-8 it still matches."""
        r = rm.paper_r(+1)
        mat = rm.as_map(_gauged(r, _monomial(4, np.random.default_rng(29)))).copy()
        k = np.flatnonzero(mat)[5]
        mat.flat[k] *= 1 + shift / abs(mat.flat[k])
        other = rm.from_map(mat, 4)
        q, ref = ge.gauge_match(r, other), reference_gauge_match(r, other)
        assert (ref is not None) == matches
        assert (q is None and ref is None) or np.array_equal(q, ref)


class TestSupplementaryRelation:
    def test_alternative_relation_lacks_eight_dim_irrep(self):
        """The competing central identification also closes at order 128 but
        its representation ring has no 8-dimensional irrep, hence no fusion
        pair; this is what singles out the bundled relation."""
        G = ge.enumerate_group(_alternative_gamma(), order_bound=512)
        assert G.order == 128
        tbl = ge.character_table(G)
        dims = sorted(int(round(row[G.class_of[0]].real)) for row in tbl)
        assert 8 not in dims
        with pytest.raises(ge.GroupError, match="no parastatistical"):
            ge.find_para_pair(G)

    def test_no_supplementary_relation_gives_256(self):
        G = ge.enumerate_group(_loose_gamma(), order_bound=1024)
        assert G.order == 256
