import itertools

import numpy as np
import pytest

import parastat.gauge_sim as gs
import parastat.group_engine as ge


@pytest.fixture(scope="module")
def patch():
    return gs.patch_2x2()


@pytest.fixture(scope="module")
def ladder():
    return gs.ladder_2x3()


def nontrivial_irrep(G):
    return gs.wilson_irrep(G)


class TestLattices:
    def test_patch_shape(self, patch):
        assert patch.n_vertices == 4 and patch.n_edges == 4
        assert len(patch.plaquettes) == 1

    def test_ladder_shape(self, ladder):
        assert ladder.n_vertices == 6 and ladder.n_edges == 7
        assert len(ladder.plaquettes) == 2

    def test_bad_plaquette_rejected(self):
        with pytest.raises(gs.GaugeError, match="missing edge"):
            gs.GaugeLattice(2, ((0, 1),), (((5, +1),),))
        with pytest.raises(gs.GaugeError, match="orientation"):
            gs.GaugeLattice(2, ((0, 1),), (((0, 2),),))

    def test_vertex_without_edge_to_another_rejected(self):
        # the gauge action at v2 would not be free: only a self-loop, or no edge
        with pytest.raises(gs.GaugeError, match="vertex 2 meets no edge to another vertex"):
            gs.GaugeLattice(3, ((0, 1), (2, 2), (1, 1)), ())
        with pytest.raises(gs.GaugeError, match="vertex 2 meets no edge to another vertex"):
            gs.GaugeLattice(3, ((0, 1),), ())
        lat = gs.GaugeLattice(3, ((0, 1), (2, 2), (1, 2)), ())  # a self-loop beside a link
        assert lat.n_edges == 3


class TestProjectorAlgebra:
    @pytest.mark.parametrize("name", ("Z2", "S3", "D4"))
    def test_residuals_on_patch(self, small_groups, patch, name):
        res = gs.commutator_residuals(small_groups[name], patch, seed=1)
        assert res["idempotence"] <= 1e-10
        assert res["commutation"] <= 1e-10

    def test_residuals_on_ladder(self, small_groups, ladder):
        res = gs.commutator_residuals(small_groups["Z2"], ladder, seed=2)
        assert res["idempotence"] <= 1e-10
        assert res["commutation"] <= 1e-10


class TestGroundState:
    @pytest.mark.parametrize("name", ("Z2", "S3", "D4"))
    def test_all_projectors_fix_it(self, small_groups, patch, name):
        G = small_groups[name]
        g0 = gs.ground_state(G, patch)
        assert abs(g0.norm() - 1.0) < 1e-12
        assert np.allclose(gs.vertex_expectations(g0), 1.0, atol=1e-10)
        assert np.allclose(gs.plaquette_expectations(g0), 1.0, atol=1e-10)

    def test_flat_count(self, small_groups, patch):
        # flat configurations on a single square: one edge determined by the
        # other three, so |G|^3 of them
        G = small_groups["S3"]
        g0 = gs.ground_state(G, patch)
        assert len(g0.amps) == G.order ** 3

    def test_support_cap_enforced(self, small_groups, ladder, monkeypatch):
        monkeypatch.setattr(gs, "SUPPORT_CAP", 1000)
        with pytest.raises(gs.GaugeError, match="cap"):
            gs.ground_state(small_groups["D4"], ladder)


class TestWilsonLines:
    @pytest.mark.parametrize("name", ("Z2", "S3", "D4"))
    def test_endpoint_excitations_only(self, small_groups, patch, name):
        G = small_groups[name]
        psi = nontrivial_irrep(G)
        g0 = gs.ground_state(G, patch)
        # path 0 -> 1 -> 3 along edges e0, e3
        w = gs.WilsonLine(psi, ((0, +1), (3, +1)))
        exc = gs.apply_wilson_line(g0, w, 0, 0)
        vexc = gs.vertex_expectations(exc)
        assert vexc[0] < 1 - 1e-6 and vexc[3] < 1 - 1e-6
        assert vexc[1] == pytest.approx(1.0, abs=1e-10)
        assert vexc[2] == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(gs.plaquette_expectations(exc), 1.0, atol=1e-10)

    @pytest.mark.parametrize("name", ("Z2", "S3", "D4"))
    def test_homotopic_deformation(self, small_groups, patch, name):
        G = small_groups[name]
        psi = nontrivial_irrep(G)
        g0 = gs.ground_state(G, patch)
        # two routes 0 -> 3 around the single plaquette
        w1 = gs.WilsonLine(psi, ((0, +1), (3, +1)))
        w2 = gs.WilsonLine(psi, ((2, +1), (1, +1)))
        for a in range(psi.dim):
            for b in range(psi.dim):
                assert gs.verify_deformation(g0, w1, w2, a, b) <= 1e-10

    def test_cross_plaquette_deformation(self, small_groups, ladder):
        # routes 0 -> 5 through the middle rung vs around the outside span
        # both plaquettes, so invariance needs flatness of each
        G = small_groups["Z2"]
        psi = nontrivial_irrep(G)
        g0 = gs.ground_state(G, ladder)
        w1 = gs.WilsonLine(psi, ((0, +1), (5, +1), (3, +1)))
        w2 = gs.WilsonLine(psi, ((4, +1), (2, +1), (3, +1)))
        w3 = gs.WilsonLine(psi, ((0, +1), (1, +1), (6, +1)))
        assert gs.verify_deformation(g0, w1, w2, 0, 0) <= 1e-10
        assert gs.verify_deformation(g0, w1, w3, 0, 0) <= 1e-10

    def test_non_homotopic_paths_differ_off_shell(self, small_groups, patch):
        # on a non-flat state the two routes disagree
        G = small_groups["S3"]
        psi = nontrivial_irrep(G)
        rng = np.random.default_rng(3)
        amps = {}
        for _ in range(30):
            cfg = tuple(int(x) for x in rng.integers(0, G.order, 4))
            amps[cfg] = complex(rng.standard_normal(), rng.standard_normal())
        s = gs.GaugeState(G, patch, amps).normalized()
        w1 = gs.WilsonLine(psi, ((0, +1), (3, +1)))
        w2 = gs.WilsonLine(psi, ((2, +1), (1, +1)))
        assert gs.verify_deformation(s, w1, w2, 0, 0) > 1e-3


class TestTrapping:
    @pytest.mark.parametrize("name", ("Z2", "S3", "D4"))
    def test_delta_structure(self, small_groups, patch, name):
        G = small_groups[name]
        psi = nontrivial_irrep(G)
        psi_bar = gs.conjugate_irrep(psi)
        g0 = gs.ground_state(G, patch)
        a, b = 0, psi.dim - 1
        w = gs.WilsonLine(psi, ((0, +1), (3, +1)))  # start 0, end 3
        exc = gs.apply_wilson_line(g0, w, a, b)
        want = G.order / psi.dim
        for phi in ge.irreps(G):
            for c in range(phi.dim):
                lam = gs.trapping_check(exc, 3, phi, c)  # end vertex
                expect = want if (phi.index == psi.index and c == a) else 0.0
                assert abs(lam - expect) < 1e-8
        # start vertex couples to the conjugate irrep at index b
        lam = gs.trapping_check(exc, 0, psi_bar, b)
        assert abs(lam - want) < 1e-8
        if psi.dim > 1:
            assert abs(gs.trapping_check(exc, 0, psi_bar, (b + 1) % psi.dim)) < 1e-8

    def test_bulk_vertex_sees_nothing(self, small_groups, patch):
        G = small_groups["D4"]
        psi = nontrivial_irrep(G)
        g0 = gs.ground_state(G, patch)
        exc = gs.apply_wilson_line(g0, gs.WilsonLine(psi, ((0, +1), (3, +1))), 0, 0)
        for phi in ge.irreps(G):
            for c in range(phi.dim):
                lam = gs.trapping_check(exc, 2, phi, c)
                if phi.dim == 1 and np.allclose(phi.character, 1):
                    expect = G.order  # trivial irrep: operator is sum_g L^g
                else:
                    expect = 0.0
                assert abs(lam - expect) < 1e-8

    def test_non_eigenstate_rejected(self, small_groups, patch):
        G = small_groups["S3"]
        psi = nontrivial_irrep(G)
        rng = np.random.default_rng(9)
        amps = {}
        for _ in range(30):
            cfg = tuple(int(x) for x in rng.integers(0, G.order, 4))
            amps[cfg] = complex(rng.standard_normal(), rng.standard_normal())
        s = gs.GaugeState(G, patch, amps).normalized()
        with pytest.raises(gs.GaugeError, match="Wilson state"):
            gs.trapping_check(s, 0, psi, 0)

    def test_support_cap(self, small_groups, patch, monkeypatch):
        # the ground state's 6^3 configurations fill 36 orbits of 6 at every vertex
        G = small_groups["S3"]
        psi = nontrivial_irrep(G)
        exc = gs.apply_wilson_line(gs.ground_state(G, patch),
                                   gs.WilsonLine(psi, ((0, +1), (3, +1))), 0, 0)
        monkeypatch.setattr(gs, "SUPPORT_CAP", 216)
        assert abs(gs.trapping_check(exc, 3, psi, 0) - G.order / psi.dim) < 1e-8
        monkeypatch.setattr(gs, "SUPPORT_CAP", 215)
        with pytest.raises(gs.GaugeError, match="support cap exceeded: 216"):
            gs.trapping_check(exc, 3, psi, 0)

    def test_nan_residual_rejected(self, small_groups, patch):
        G = small_groups["S3"]
        g0 = gs.ground_state(G, patch)
        s = g0._like(g0.codes, np.where(np.arange(len(g0.codes)) == 0, np.nan, g0.coeffs))
        with pytest.raises(gs.GaugeError, match="Wilson state"):
            gs.trapping_check(s, 0, nontrivial_irrep(G), 0)

    def test_paper_group(self, gamma, patch, monkeypatch):
        # the order-128 group on the patch: 128^3 flat configurations
        monkeypatch.setattr(gs, "SUPPORT_CAP", 2 ** 21)
        # gauge_check's psi: largest dimension, then least trivial
        psi = nontrivial_irrep(gamma)
        g0 = gs.ground_state(gamma, patch)
        exc = gs.apply_wilson_line(g0, gs.WilsonLine(psi, ((0, +1), (3, +1))), 0, 0)
        want = gamma.order / psi.dim
        assert want == 16
        assert abs(gs.trapping_check(exc, 3, psi, 0) - want) < 1e-8
        assert abs(gs.trapping_check(exc, 3, psi, 1)) < 1e-8
        assert abs(gs.trapping_check(exc, 0, gs.conjugate_irrep(psi), 0) - want) < 1e-8


class TestStateOps:
    def test_zero_state_rejected(self, small_groups, patch):
        with pytest.raises(gs.GaugeError, match="zero"):
            gs.GaugeState(small_groups["Z2"], patch, {}).normalized()

    def test_gauge_shift_preserves_flatness(self, small_groups, patch):
        G = small_groups["S3"]
        g0 = gs.ground_state(G, patch)
        rng = np.random.default_rng(4)
        cfg = next(iter(g0.amps))
        for _ in range(10):
            v = int(rng.integers(4))
            g = int(rng.integers(G.order))
            cfg = gs.gauge_shift(G, patch, cfg, v, g)
            assert gs._holonomy(G, cfg, patch.plaquettes[0]) == 0


class TestValidation:
    def test_edge_endpoint_outside_vertices_rejected(self):
        with pytest.raises(gs.GaugeError, match="endpoint"):
            gs.GaugeLattice(2, ((0, 5),), ())
        with pytest.raises(gs.GaugeError, match="endpoint"):
            gs.GaugeLattice(2, ((-1, 1),), ())

    def test_codes_that_overflow_int64_rejected(self, small_groups, monkeypatch):
        # 8^21 - 1 < 2^63 <= 8^22 - 1: one more edge no longer fits
        G = small_groups["D4"]

        def chain(n):
            return gs.GaugeLattice(n + 1, tuple((i, i + 1) for i in range(n)), ())

        state = gs.GaugeState(G, chain(21), {(7,) * 21: 1.0})
        assert next(iter(state.amps)) == (7,) * 21
        with pytest.raises(gs.GaugeError, match="int64"):
            gs.GaugeState(G, chain(22), {})
        monkeypatch.setattr(gs, "SUPPORT_CAP", 10 ** 30)
        with pytest.raises(gs.GaugeError, match="int64"):
            gs.ground_state(G, chain(22))

    def test_bad_configuration_rejected(self, small_groups, patch):
        G = small_groups["S3"]
        with pytest.raises(gs.GaugeError, match="edge labels"):
            gs.GaugeState(G, patch, {(0, 0, 0): 1.0})
        with pytest.raises(gs.GaugeError, match="0..5"):
            gs.GaugeState(G, patch, {(0, 0, 0, 6): 1.0})


# ---------------------------------------------------------------------------
# reference: the former implementation, states as {config tuple: amplitude}


def ref_holonomy(G, config, plaq):
    h = 0
    for e, sign in plaq:
        he = config[e] if sign > 0 else int(G.inv[config[e]])
        h = int(G.mult[he, h])
    return h


def ref_axpy(amps, other, scale=1.0):
    out = dict(amps)
    for k, v in other.items():
        out[k] = out.get(k, 0.0) + scale * v
    return {k: v for k, v in out.items() if abs(v) > 1e-14}


def ref_dot(amps, other):
    return sum(v.conjugate() * other.get(k, 0.0) for k, v in amps.items())


def ref_distance(amps, other):
    keys = set(amps) | set(other)
    return float(np.sqrt(sum(abs(amps.get(k, 0.0) - other.get(k, 0.0)) ** 2 for k in keys)))


def ref_apply_l(G, lat, amps, v, g):
    out = {}
    for config, c in amps.items():
        key = list(config)
        for e, (tail, head) in enumerate(lat.edges):
            if tail == v:
                key[e] = int(G.mult[key[e], G.inv[g]])
            if head == v:
                key[e] = int(G.mult[g, key[e]])
        out[tuple(key)] = out.get(tuple(key), 0.0) + c
    return out


def ref_vertex_projector(G, lat, amps, v):
    out = {}
    for g in range(G.order):
        out = ref_axpy(out, ref_apply_l(G, lat, amps, v, g), 1.0 / G.order)
    return out


def ref_plaquette_projector(G, lat, amps, p):
    return {k: c for k, c in amps.items() if ref_holonomy(G, k, lat.plaquettes[p]) == 0}


def ref_ground_state(G, lat):
    amps = {config: 1.0 + 0.0j
            for config in itertools.product(range(G.order), repeat=lat.n_edges)
            if all(ref_holonomy(G, config, p) == 0 for p in lat.plaquettes)}
    nrm = np.sqrt(sum(abs(c) ** 2 for c in amps.values()))
    return {k: c / nrm for k, c in amps.items()}


def ref_wilson(G, amps, w, a, b):
    out = {}
    for config, c in amps.items():
        factor = w.psi.matrices[ref_holonomy(G, config, w.path)][a, b]
        if abs(factor * c) > 1e-14:
            out[config] = c * factor
    return out


def ref_trapping_check(G, lat, amps, v, phi, c_index, tol=1e-8):
    out = {}
    for g in range(G.order):
        coeff = phi.matrices[g][c_index, c_index]
        if abs(coeff) > 1e-15:
            out = ref_axpy(out, ref_apply_l(G, lat, amps, v, g), coeff)
    nrm2 = ref_dot(amps, amps)
    lam = ref_dot(amps, out) / nrm2
    residual = np.sqrt(sum(abs(c) ** 2 for c in ref_axpy(out, amps, -lam).values()))
    if residual > tol * max(1.0, abs(lam)) * np.sqrt(abs(nrm2)) + tol:
        raise gs.GaugeError("not a two-excitation Wilson state")
    return lam


CASES = [("Z2", "patch"), ("S3", "patch"), ("D4", "patch"), ("Z2", "ladder"), ("S3", "ladder")]
PATHS = {  # (open path from start to end vertex, closed loop)
    "patch": (((0, +1), (3, +1)), ((0, +1), (3, +1), (1, -1), (2, -1))),
    "ladder": (((0, +1), (5, +1), (3, +1)), ((0, +1), (6, +1), (3, -1), (5, -1))),
}


def random_amps(G, lat, seed, n=60):
    rng = np.random.default_rng(seed)
    configs = rng.integers(0, G.order, (n, lat.n_edges))
    # magnitudes from 1e-10 to 1, so dropping small amplitudes would show
    values = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.integers(-10, 1, n)
    return {tuple(int(x) for x in c): complex(v) for c, v in zip(configs, values)}


def gap(state, amps):
    """Norm distance between a state and a reference map."""
    return ref_distance(dict(state.amps), amps)


@pytest.mark.parametrize("name, shape", CASES)
class TestAgainstReference:
    """The array implementation equals the former dict one to 1e-12."""

    def setup(self, small_groups, name, shape):
        G = small_groups[name]
        lat = gs.patch_2x2() if shape == "patch" else gs.ladder_2x3()
        return G, lat

    def test_state_arithmetic(self, small_groups, name, shape):
        G, lat = self.setup(small_groups, name, shape)
        a, b = random_amps(G, lat, 1), random_amps(G, lat, 2)
        b.update(list(a.items())[:20])  # some overlap
        sa, sb = gs.GaugeState(G, lat, a), gs.GaugeState(G, lat, b)
        assert dict(sa.amps) == a
        assert abs(sa.distance(sb) - ref_distance(a, b)) <= 1e-12
        assert abs(sa.norm() - np.sqrt(ref_dot(a, a).real)) <= 1e-12

    def test_projectors(self, small_groups, name, shape):
        G, lat = self.setup(small_groups, name, shape)
        for seed in range(3):
            amps = random_amps(G, lat, 10 + seed)
            state = gs.GaugeState(G, lat, amps)
            for v in range(lat.n_vertices):
                want = ref_vertex_projector(G, lat, amps, v)
                assert gap(gs.vertex_projector(state, v), want) <= 1e-12
            for p in range(len(lat.plaquettes)):
                want = ref_plaquette_projector(G, lat, amps, p)
                assert gap(gs.plaquette_projector(state, p), want) <= 1e-12

    def test_ground_state(self, small_groups, name, shape):
        G, lat = self.setup(small_groups, name, shape)
        g0 = gs.ground_state(G, lat)
        assert len(g0.amps) == G.order ** (lat.n_edges - len(lat.plaquettes))
        assert gap(g0, ref_ground_state(G, lat)) <= 1e-12

    def test_wilson_line_and_loop(self, small_groups, name, shape):
        G, lat = self.setup(small_groups, name, shape)
        psi = nontrivial_irrep(G)
        for amps, path in itertools.product((random_amps(G, lat, 20), random_amps(G, lat, 21)),
                                            PATHS[shape]):  # the open path, then the closed loop
            state, w = gs.GaugeState(G, lat, amps), gs.WilsonLine(psi, path)
            for a in range(psi.dim):
                for b in range(psi.dim):
                    got = gs.apply_wilson_line(state, w, a, b)
                    assert gap(got, ref_wilson(G, amps, w, a, b)) <= 1e-12

    def test_trapping_check(self, small_groups, name, shape):
        G, lat = self.setup(small_groups, name, shape)
        psi = nontrivial_irrep(G)
        line = gs.WilsonLine(psi, PATHS[shape][0])
        exc = gs.apply_wilson_line(gs.ground_state(G, lat), line, 0, psi.dim - 1)
        amps = dict(exc.amps)
        end = lat.edges[line.path[-1][0]][1]
        noisy = gs.GaugeState(G, lat, random_amps(G, lat, 30))
        checked = 0
        for state in (exc, noisy):
            amps = dict(state.amps)
            for v in (0, end, 2):  # start, end and one vertex off the line
                for phi in (psi, gs.conjugate_irrep(psi)):
                    for c in range(phi.dim):
                        got = outcome(gs.trapping_check, state, v, phi, c)
                        want = outcome(ref_trapping_check, G, lat, amps, v, phi, c)
                        assert type(got) is type(want)
                        if isinstance(got, complex):
                            assert abs(got - want) <= 1e-12
                            checked += 1
        assert checked >= 4


def outcome(fn, *args):
    """fn(*args) as a complex, or the GaugeError it raised."""
    try:
        return complex(fn(*args))
    except gs.GaugeError as exc:
        return exc


# ---------------------------------------------------------------------------
# reference: per-sample projector checks and projector-based expectations


def ref_commutator_residuals(G, lat, seed=0, samples=5):
    """One state per sample, each projector applied to each state alone, on
    the states commutator_residuals draws."""
    rng = ge._seeded(seed)
    states = []
    for _ in range(samples):
        configs = rng.integers(G.order, (40, lat.n_edges)).tolist()
        z = ge._normals(rng, 2, 40)
        amps = {tuple(config): complex(re, im) for config, re, im in zip(configs, *z)}
        states.append(gs.GaugeState(G, lat, amps).normalized())
    ops = [(v, gs.vertex_projector) for v in range(lat.n_vertices)]
    ops += [(p, gs.plaquette_projector) for p in range(len(lat.plaquettes))]
    idem = comm = 0.0
    for s in states:
        applied = [op(s, i) for i, op in ops]
        for (i, op), once in zip(ops, applied):
            idem = max(idem, op(once, i).distance(once))
        for x in range(len(ops)):
            for y in range(x + 1, len(ops)):
                (i1, op1), (i2, op2) = ops[x], ops[y]
                comm = max(comm, op1(applied[y], i1).distance(op2(applied[x], i2)))
    return {"idempotence": idem, "commutation": comm}


def dot(a, b):
    """<a|b> of two states."""
    _, mine, theirs = a._union(b)
    return complex(np.vdot(mine, theirs))


def ref_vertex_expectations(state):
    nrm2 = dot(state, state).real
    return [dot(state, gs.vertex_projector(state, v)).real / nrm2
            for v in range(state.lattice.n_vertices)]


def looped():
    """Self-loops, on which L_v^g conjugates, each beside a link to another
    vertex: e1 at v1 beside the digon e0, e3 (flat: e1 trivial), and e2 at
    v2 (any element) beside e4.

        0 --e0--> 1 (e1: 1 -> 1) --e4--> 2 (e2: 2 -> 2)
        0 --e3--> 1
    """
    return gs.GaugeLattice(3, ((0, 1), (1, 1), (2, 2), (0, 1), (1, 2)),
                           (((1, +1),), ((0, +1), (3, -1))))


BATCH_CASES = CASES + [("S3", "looped"), ("D4", "looped")]
LATTICES = {"patch": gs.patch_2x2, "ladder": gs.ladder_2x3, "looped": looped}


@pytest.mark.parametrize("name, shape", BATCH_CASES)
class TestBatchedAgainstReference:
    """One batch for all samples and orbit-sum expectations equal the
    per-sample and projector-based references."""

    def test_residuals(self, small_groups, name, shape):
        G, lat = small_groups[name], LATTICES[shape]()
        for seed in (0, 1, 2):
            got = gs.commutator_residuals(G, lat, seed=seed)
            want = ref_commutator_residuals(G, lat, seed=seed, samples=gs.RESIDUAL_SAMPLES)
            assert got.keys() == want.keys()
            for key in want:
                assert abs(got[key] - want[key]) <= 1e-15
                assert got[key] <= 1e-10

    def test_vertex_expectations(self, small_groups, name, shape):
        G, lat = small_groups[name], LATTICES[shape]()
        g0 = gs.ground_state(G, lat)
        psi = nontrivial_irrep(G)
        path = PATHS[shape][0] if shape in PATHS else ((0, +1),)
        states = [g0, gs.apply_wilson_line(g0, gs.WilsonLine(psi, path), 0, psi.dim - 1)]
        states += [gs.GaugeState(G, lat, random_amps(G, lat, seed)) for seed in (40, 41)]
        for state in states:
            got, want = gs.vertex_expectations(state), ref_vertex_expectations(state)
            assert np.abs(np.subtract(got, want)).max() <= 1e-12
        assert np.allclose(gs.vertex_expectations(g0), 1.0, atol=1e-12)


class TestBatchEdges:
    def test_self_loop_action_is_conjugation(self, small_groups):
        # L_2^g maps the self-loop e2 = h to g h g^-1 and the link e4 = 1 to g;
        # the action table's code changes must land on the same configuration
        G = small_groups["S3"]
        lat = looped()
        for g in range(G.order):
            for h in range(G.order):
                shifted = gs.gauge_shift(G, lat, (0, 0, h, 0, 0), 2, g)
                assert shifted == (0, 0, G.mult[G.mult[g, h], G.inv[g]], 0, g)
                state = gs.GaugeState(G, lat, {(0, 0, h, 0, 0): 1.0})
                action = gs._gauge_action(state, 2)
                assert sorted(action) == [2, 4]
                digits = {2: h, 4: 0}  # the elements L_2^g reads on e2 and e4
                code = state.codes[0] + sum(action[e][g, digits[e]] for e in action)
                assert code == gs.GaugeState(G, lat, {shifted: 1.0}).codes[0]

    @pytest.mark.parametrize("seed", (-3, -1, 1.5, "3", None))
    def test_seed_that_is_negative_or_no_integer_rejected(self, small_groups, patch, seed):
        # -3's two's-complement limb would key the stream of seed 2^64 - 3
        with pytest.raises(gs.GaugeError, match="seed must be an integer >= 0"):
            gs.commutator_residuals(small_groups["Z2"], patch, seed=seed)

    def test_batch_codes_overflowing_int64_rejected(self, small_groups):
        # 5 samples of 6^24 codes overflow int64; 5 of 8^20 (5.8e18) fit
        def chain(edges):
            return gs.GaugeLattice(edges + 1, tuple((i, i + 1) for i in range(edges)), ())

        assert gs.RESIDUAL_SAMPLES == 5
        with pytest.raises(gs.GaugeError, match="int64"):
            gs.commutator_residuals(small_groups["S3"], chain(24))
        res = gs.commutator_residuals(small_groups["D4"], chain(20))
        assert max(res.values()) <= 1e-10

    def test_residuals_are_per_sample(self, small_groups, patch, monkeypatch):
        # an operator that doubles every state leaves |4s - 2s| = 2 on each
        # normalized sample; one distance over the whole batch would read 2 sqrt(5)
        monkeypatch.setattr(gs, "vertex_projector", lambda s, v: s._like(s.codes, 2 * s.coeffs))
        res = gs.commutator_residuals(small_groups["S3"], patch)
        assert res["idempotence"] == pytest.approx(2.0, abs=1e-12)
        assert res["commutation"] <= 1e-12

    def test_support_cap_is_per_sample(self, small_groups, patch, monkeypatch):
        # each sample's projected support is 6 configurations, 12 in the batch
        G = small_groups["S3"]
        block = G.order ** patch.n_edges
        one = gs.GaugeState(G, patch, {(0, 0, 0, 0): 1.0})
        two = gs.GaugeState(G, patch, {(1, 2, 3, 4): 1.0})
        batch = one._like(np.concatenate((one.codes, two.codes + block)),
                          np.concatenate((one.coeffs, two.coeffs)))

        keys, _ = gs._orbit_keys(batch, 0, gs._gauge_action(batch, 0))
        assert len(set(keys.tolist())) == 2  # one orbit per sample
        monkeypatch.setattr(gs, "SUPPORT_CAP", 6)
        assert len(gs.vertex_projector(batch, 0).codes) == 12
        monkeypatch.setattr(gs, "SUPPORT_CAP", 5)
        with pytest.raises(gs.GaugeError, match="support cap exceeded: 6"):
            gs.vertex_projector(batch, 0)

    @pytest.mark.parametrize("fn", (gs.vertex_expectations, gs.plaquette_expectations))
    def test_zero_state_rejected(self, small_groups, patch, fn):
        G = small_groups["S3"]
        for amps in ({}, {(0, 0, 0, 0): 0.0}):
            with pytest.raises(gs.GaugeError, match="zero state"):
                fn(gs.GaugeState(G, patch, amps))


# ---------------------------------------------------------------------------
# orbit-keyed vertex kernels, merge-free compares and solved closing edges


def ref_expectation(G, lat, amps, v):
    return (ref_dot(amps, ref_vertex_projector(G, lat, amps, v)) / ref_dot(amps, amps)).real


class TestOrbitKernels:
    @pytest.mark.parametrize("name", ("S3", "D4"))
    def test_projector_and_expectations_match_reference(self, small_groups, name):
        G, lat = small_groups[name], looped()
        for seed in (50, 51):
            amps = random_amps(G, lat, seed)
            state = gs.GaugeState(G, lat, amps)
            for v in range(lat.n_vertices):
                projected = gs.vertex_projector(state, v)
                assert gap(projected, ref_vertex_projector(G, lat, amps, v)) <= 1e-12
                # projecting twice lands on one support: every orbit is complete
                assert np.array_equal(gs.vertex_projector(projected, v).codes, projected.codes)
            got = gs.vertex_expectations(state)
            want = [ref_expectation(G, lat, amps, v) for v in range(lat.n_vertices)]
            assert np.abs(np.subtract(got, want)).max() <= 1e-12

    @pytest.mark.parametrize("name", ("S3", "D4"))
    def test_trapping_at_self_loops_matches_reference(self, small_groups, name):
        # the line v0 -> v1 -> v2 ends beside the self-loops e1 and e2
        G, lat = small_groups[name], looped()
        psi = nontrivial_irrep(G)
        line = gs.WilsonLine(psi, ((0, +1), (4, +1)))
        exc = gs.apply_wilson_line(gs.ground_state(G, lat), line, 0, psi.dim - 1)
        amps = dict(exc.amps)
        returned = 0
        for v in range(lat.n_vertices):
            for phi in ge.irreps(G) + [gs.conjugate_irrep(psi)]:
                for c in range(phi.dim):
                    got = outcome(gs.trapping_check, exc, v, phi, c)
                    want = outcome(ref_trapping_check, G, lat, amps, v, phi, c)
                    assert type(got) is type(want)
                    if isinstance(got, complex):
                        assert abs(got - want) <= 1e-12
                        returned += 1
        assert returned >= 2 * len(ge.irreps(G))

    @pytest.mark.parametrize("shape", ("patch", "ladder", "looped"))
    def test_orbit_keys_pick_the_identity_member(self, small_groups, shape):
        # the key of every configuration is in its orbit, is the same for all
        # members, and is reached from the configuration by L_v^g*
        G, lat = small_groups["S3"], LATTICES[shape]()
        state = gs.GaugeState(G, lat, random_amps(G, lat, 52, n=20))
        for v in range(lat.n_vertices):
            keys, g_star = gs._orbit_keys(state, v, gs._gauge_action(state, v))
            for config, key, g in zip(state.amps, keys, g_star):
                orbit = {gs.gauge_shift(G, lat, config, v, x) for x in range(G.order)}
                members = gs.GaugeState(G, lat, dict.fromkeys(orbit, 1.0))
                assert key in members.codes
                keys_of_members = gs._orbit_keys(members, v, gs._gauge_action(members, v))[0]
                assert set(keys_of_members.tolist()) == {key}
                shifted = gs.gauge_shift(G, lat, config, v, int(g))
                assert gs.GaugeState(G, lat, {shifted: 1.0}).codes[0] == key

    def test_state_arithmetic_with_equal_and_unequal_supports(self, small_groups):
        G, lat = small_groups["D4"], gs.patch_2x2()
        a = random_amps(G, lat, 53)
        rng = np.random.default_rng(54)
        same = {k: complex(*rng.standard_normal(2)) for k in a}  # a's support, new amplitudes
        other = random_amps(G, lat, 55)
        other.update(list(same.items())[:10])
        sa = gs.GaugeState(G, lat, a)
        for b, merged in ((same, False), (other, True)):
            sb = gs.GaugeState(G, lat, b)
            assert (sa._union(sb)[0] is not sa.codes) == merged
            assert abs(sa.distance(sb) - ref_distance(a, b)) <= 1e-12


def two_on_one_edge():
    """Three parallel edges 0 -> 1; both plaquettes close on e2 (flat:
    e0 = e2 = e1).  The first is solved, the second filtered."""
    return gs.GaugeLattice(2, ((0, 1), (0, 1), (0, 1)),
                           (((0, +1), (2, -1)), ((1, +1), (2, -1))))


def twice_on_closing_edge():
    """Self-loops e0, e1 at v0 and the cycle e1 e0 e1^-1, which traverses its
    closing edge e1 twice (flat: e0 trivial), so it is filtered; the digon
    e2, e3 on 0 -> 1 is solved."""
    return gs.GaugeLattice(2, ((0, 0), (0, 0), (0, 1), (0, 1)),
                           (((1, +1), (0, +1), (1, -1)), ((2, +1), (3, -1))))


class TestSolvedGroundState:
    @pytest.mark.parametrize("name", ("Z2", "S3", "D4"))
    @pytest.mark.parametrize("shape, solved", ((two_on_one_edge, 1), (twice_on_closing_edge, 1)))
    def test_matches_reference(self, small_groups, name, shape, solved, monkeypatch):
        G, lat = small_groups[name], shape()
        want = ref_ground_state(G, lat)
        g0 = gs.ground_state(G, lat)
        assert gap(g0, want) <= 1e-12 and len(g0.codes) == len(want)
        rows = G.order ** (lat.n_edges - solved)
        monkeypatch.setattr(gs, "SUPPORT_CAP", rows)
        gs.ground_state(G, lat)
        monkeypatch.setattr(gs, "SUPPORT_CAP", rows - 1)
        with pytest.raises(gs.GaugeError, match=f"would enumerate {rows} configurations"):
            gs.ground_state(G, lat)

    def test_rows_built_on_the_patches(self, small_groups, monkeypatch):
        # |G|^(E-P): one closing edge solved on the patch, two on the ladder
        G = small_groups["D4"]
        for lat in (gs.patch_2x2(), gs.ladder_2x3()):
            rows = G.order ** (lat.n_edges - len(lat.plaquettes))
            monkeypatch.setattr(gs, "SUPPORT_CAP", rows)
            assert len(gs.ground_state(G, lat).codes) == rows
            monkeypatch.setattr(gs, "SUPPORT_CAP", rows - 1)
            with pytest.raises(gs.GaugeError, match=f"would enumerate {rows} "):
                gs.ground_state(G, lat)
