import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import parastat.rmatrix as rm


def compose_transpositions(r, n, word):
    """Operator on V^(x)n for a sequence of adjacent transpositions."""
    m = r.m
    mat = rm.as_map(r).astype(np.complex128)
    total = np.eye(m ** n, dtype=np.complex128)
    for k in word:
        op = np.kron(np.kron(np.eye(m ** k), mat), np.eye(m ** (n - k - 2)))
        total = op @ total
    return total


class TestConstructors:
    def test_paper_r_entries(self):
        r = rm.paper_r(+1)
        assert r.m == 4 and r.entries.dtype == np.complex128
        # spot-check three table positions
        assert r.entries[3, 2, 0, 0] == 1  # (a,b)=(1,1) -> (b',a')=(4,3)
        assert r.entries[2, 2, 2, 2] == 1  # (3,3) -> (3,3)
        assert rm.paper_r(-1).entries[0, 2, 1, 3] == -1  # (2,4) -> (1,3)
        # exactly one nonzero entry per (a,b) column
        counts = (r.entries != 0).sum(axis=(0, 1))
        assert np.all(counts == 1)

    def test_trivial_r_delta_structure(self):
        r = rm.trivial_r(4, -1)
        assert r.entries[2, 1, 1, 2] == -1
        assert rm.trivial_r(1, +1).entries[0, 0, 0, 0] == 1

    def test_trivial_r_is_swap_map(self):
        mat = rm.as_map(rm.trivial_r(2, +1))
        swap = np.zeros((4, 4), dtype=int)
        for a in range(2):
            for b in range(2):
                swap[b * 2 + a, a * 2 + b] = 1
        assert np.array_equal(mat, swap)

    @pytest.mark.parametrize("name", ["paper2d", "paper3d", "braid-fixture"]
                             + [f"trivial{m}" for m in range(1, rm.MAX_M + 1)])
    def test_builtin_entries_are_read_only_complex(self, name):
        e = rm.builtin_r(name).entries
        assert e.dtype == np.complex128 and not e.flags.writeable

    def test_every_constructor_stores_complex(self):
        ints = np.eye(4, dtype=np.int64)
        assert rm.from_map(ints, 2).entries.dtype == np.complex128
        assert rm.RMatrix(ints.reshape(2, 2, 2, 2)).entries.dtype == np.complex128
        assert ints.flags.writeable  # the caller's array is copied, not frozen
        loaded = rm.load_rmatrix({"m": 1, "entries": [[1, 1, 1, 1, -1, 0]]})
        assert loaded.entries.dtype == np.complex128 and loaded.entries[0, 0, 0, 0] == -1

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            rm.paper_r(0)
        with pytest.raises(ValueError):
            rm.trivial_r(0, +1)

    def test_map_roundtrip_and_action(self):
        r = rm.paper_r(+1)
        mat = rm.as_map(r)
        # |1>|1> -> |4>|3>, and applying twice returns |1>|1>
        vec = np.zeros(16)
        vec[0] = 1
        out = mat @ vec
        assert out[3 * 4 + 2] == 1 and np.sum(np.abs(out)) == 1
        assert np.array_equal(mat @ out, vec)
        assert rm.from_map(mat, 4) == r


class TestChecks:
    def test_paper_r_all_checks_exact(self):
        for sign in (+1, -1):
            r = rm.paper_r(sign)
            assert rm.check_yang_baxter(r, 0).passed
            assert rm.check_unitary(r, 0).passed
            assert rm.check_perfect_tensor(r, 0).passed

    def test_trivial_r_ybe_and_unitarity(self):
        r = rm.trivial_r(3, -1)
        assert rm.check_yang_baxter(r, 0).passed
        assert rm.check_unitary(r, 0).passed

    def test_trivial_r_fails_perfect_tensor(self):
        rep = rm.check_perfect_tensor(rm.trivial_r(4, +1), 1e-12)
        assert not rep.passed

    def test_damaged_r_fails_unitarity(self):
        e = rm.paper_r(+1).entries.copy()
        e[3, 2, 0, 0] = 0
        assert not rm.check_unitary(rm.RMatrix(e), 1e-12).passed

    def test_braid_fixture_properties(self):
        r = rm.braid_fixture()
        mat = rm.as_map(r)
        eye = np.eye(2)
        r12, r23 = np.kron(mat, eye), np.kron(eye, mat)
        assert np.max(np.abs(r12 @ r23 @ r12 - r23 @ r12 @ r23)) < 1e-12
        assert np.max(np.abs(mat.conj().T @ mat - np.eye(4))) < 1e-12
        assert np.max(np.abs(mat @ mat - np.eye(4))) > 0.5  # not involutive
        rep = rm.check_yang_baxter(r, 1e-10)
        assert not rep.passed  # involutivity part fails

    @pytest.mark.parametrize("name, perfect", (("paper2d", 0.0), ("paper3d", 0.0),
                                               ("trivial4", 4.0)))  # product form
    def test_integer_valued_r_checks_are_exact(self, monkeypatch, name, perfect):
        # float64 sums and products of small integers are exact: every residual
        # entry is an exact integer, so a check that holds leaves exactly 0.0
        residuals = []
        report = rm._report
        monkeypatch.setattr(
            rm, "_report", lambda name, res, tol: residuals.append(res) or report(name, res, tol))
        r = rm.builtin_r(name)
        reports = [rm.check_yang_baxter(r, 0), rm.check_unitary(r, 0),
                   rm.check_perfect_tensor(r, 0)]
        assert [rep.max_residual for rep in reports] == [0.0, 0.0, perfect]
        assert [rep.passed for rep in reports] == [True, True, perfect == 0.0]
        assert len(residuals) == 6  # braid, involutive, unitary, three groupings
        assert all(np.array_equal(res, np.round(res.real)) for res in residuals)

    def test_report_fields(self):
        rep = rm.check_unitary(rm.paper_r(+1), 0)
        d = rep.as_dict()
        assert d["passed"] and d["max_residual"] == 0.0


class TestTriviality:
    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("sign", (+1, -1))
    def test_trivial_factorizes(self, m, sign):
        r = rm.trivial_r(m, sign)
        pair = rm.is_trivial_product(r, 1e-10)
        assert pair is not None
        p, q = pair
        # reconstruct entries[b'][a'][a][b] = p[a',a] q[b',b]
        rebuilt = np.einsum("xa,yb->yxab", p, q)
        assert np.max(np.abs(rebuilt - r.entries)) < 1e-10

    @pytest.mark.parametrize("sign", (+1, -1))
    def test_paper_r_not_product(self, sign):
        assert rm.is_trivial_product(rm.paper_r(sign), 1e-8) is None

    def test_single_entry_tensor_is_product(self):
        e = np.zeros((3, 3, 3, 3), dtype=np.int64)
        e[1, 2, 0, 1] = 1
        assert rm.is_trivial_product(rm.RMatrix(e), 1e-10) is not None


class TestSpectralInvariants:
    def test_paper_r_fingerprint(self):
        inv = rm.spectral_invariants(rm.paper_r(+1))
        assert inv["trace"] == pytest.approx(4.0)
        eigs = np.sort(inv["eigenvalues"].real)
        assert np.allclose(eigs[:6], -1) and np.allclose(eigs[6:], 1)
        assert np.allclose(inv["singular_values"], 1.0)  # perfect tensor

    def test_trivial_trace(self):
        for m in (2, 3, 4):
            assert rm.spectral_invariants(rm.trivial_r(m, +1))["trace"] == pytest.approx(m)

    def test_invariance_under_internal_rotation(self):
        rng = np.random.default_rng(7)
        base = rm.spectral_invariants(rm.paper_r(+1))
        for _ in range(20):
            z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            q, _ = np.linalg.qr(z)
            qq = np.kron(q, q)
            rot = rm.from_map(qq @ rm.as_map(rm.paper_r(+1)) @ qq.conj().T, 4)
            assert rm.invariants_close(base, rm.spectral_invariants(rot), tol=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 5),
    data=st.data(),
)
def test_permutation_word_consistency(n, data):
    """Two adjacent-transposition decompositions of the same permutation act
    identically on the n-particle space (a consequence of the exchange
    relations plus involutivity)."""
    r = rm.paper_r(+1) if n <= 3 else rm.paper_r(-1)
    if n >= 4:
        r = rm.braid_fixture()  # keep 16^n manageable: use m=2 for n=4,5
    word = data.draw(st.lists(st.integers(0, n - 2), min_size=0, max_size=6))
    # rewrite the word by applying braid/far-commutation moves
    rewritten = list(word)
    for _ in range(data.draw(st.integers(0, 4))):
        if len(rewritten) >= 2:
            i = data.draw(st.integers(0, len(rewritten) - 2))
            a, b = rewritten[i], rewritten[i + 1]
            if abs(a - b) >= 2:
                rewritten[i], rewritten[i + 1] = b, a  # far commutation
    op1 = compose_transpositions(r, n, word)
    op2 = compose_transpositions(r, n, rewritten)
    assert np.max(np.abs(op1 - op2)) < 1e-10


def test_involutive_double_word():
    r = rm.paper_r(+1)
    op = compose_transpositions(r, 3, [0, 1, 0, 0, 1, 0])
    assert np.max(np.abs(op - np.eye(64))) == 0


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "r.json"
        for r in (rm.paper_r(+1), rm.trivial_r(3, -1), rm.braid_fixture()):
            rm.save_rmatrix(r, path)
            back = rm.load_rmatrix(path)
            assert back.m == r.m
            assert np.allclose(back.entries, r.entries, atol=1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(rm.RMatrixError):
            rm.load_rmatrix({"m": 2, "entries": [[3, 1, 1, 1, 1.0, 0.0]]})

    def test_rejects_duplicates(self):
        rows = [[1, 1, 1, 1, 1.0, 0.0], [1, 1, 1, 1, 0.5, 0.0]]
        with pytest.raises(rm.RMatrixError):
            rm.load_rmatrix({"m": 2, "entries": rows})

    def test_rejects_malformed(self):
        with pytest.raises(rm.RMatrixError):
            rm.load_rmatrix({"entries": []})
        with pytest.raises(rm.RMatrixError):
            rm.load_rmatrix({"m": 2, "entries": [[1, 1, 1, 1.0]]})
        for entries in (None, [None], [[1, None, 1, 1, 1.0, 0.0]],
                        [[1, 1, 1, float("inf"), 1.0, 0.0]], [[1, 1, 1, 1, [], 0.0]]):
            with pytest.raises(rm.RMatrixError):
                rm.load_rmatrix({"m": 2, "entries": entries})
        # int() would truncate these to m = 2 or index 1
        for m in (2.9, True, "2"):
            with pytest.raises(rm.RMatrixError, match="not an integer"):
                rm.load_rmatrix({"m": m, "entries": []})
        for index in (1.7, True, "1"):
            with pytest.raises(rm.RMatrixError, match="not an integer"):
                rm.load_rmatrix({"m": 2, "entries": [[index, 1, 1, 1, 1.0, 0.0]]})
        # float() would read these as 1.0 and 0.0
        for row in ([1, 1, 1, 1, "1.0", "0"], [1, 1, 1, 1, True, False]):
            with pytest.raises(rm.RMatrixError, match="not a number"):
                rm.load_rmatrix({"m": 2, "entries": [row]})

    @pytest.mark.parametrize("m", (0, -5, rm.MAX_M + 1, 1000))
    def test_rejects_m_outside_cap(self, m):
        with pytest.raises(rm.RMatrixError, match="m must lie in"):
            rm.load_rmatrix({"m": m, "entries": []})

    @pytest.mark.parametrize("value", ("nan", "inf", float("nan"), float("-inf")))
    def test_rejects_non_finite(self, value):
        # a string is no JSON number, so it fails before the finiteness check
        match = "not a number" if isinstance(value, str) else "non-finite"
        with pytest.raises(rm.RMatrixError, match=match):
            rm.load_rmatrix({"m": 2, "entries": [[1, 1, 1, 1, value, 0.0]]})
        with pytest.raises(rm.RMatrixError, match=match):
            rm.load_rmatrix({"m": 2, "entries": [[1, 1, 1, 1, 1.0, value]]})

    @pytest.mark.parametrize("name", ("paper2d", "paper3d", "braid-fixture", "gauged-paper3d"))
    def test_roundtrip_is_identical(self, tmp_path, name):
        if name == "gauged-paper3d":
            z = np.random.default_rng(3).standard_normal((4, 8)).view(np.complex128)
            q, _ = np.linalg.qr(z)
            qq = np.kron(q, q)
            r = rm.from_map(qq @ rm.as_map(rm.paper_r(+1)) @ qq.conj().T, 4)
        else:
            r = rm.builtin_r(name)
        path = tmp_path / "r.json"
        rm.save_rmatrix(r, path)
        back = rm.load_rmatrix(path)
        assert back.entries.dtype == np.complex128
        assert np.array_equal(back.entries, r.entries)

    def test_large_integer_value_not_snapped(self, tmp_path):
        # 1e300 is integer-valued but no int64: it loads and round-trips as is
        r = rm.load_rmatrix({"m": 1, "entries": [[1, 1, 1, 1, 1e300, 0.0]]})
        assert r.entries[0, 0, 0, 0] == 1e300
        path = tmp_path / "r.json"
        rm.save_rmatrix(r, path)
        assert np.array_equal(rm.load_rmatrix(path).entries, r.entries)


def test_builtin_lookup():
    assert rm.builtin_r("paper2d") == rm.paper_r(-1)
    assert rm.builtin_r("trivial3") == rm.trivial_r(3, +1)
    assert rm.builtin_r("braid-fixture").m == 2
    with pytest.raises(KeyError):
        rm.builtin_r("nope")
