import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import parastat.parafock as pf
import parastat.rmatrix as rm


def path_normal_form(raw, r, pick, coeff=1.0):
    """Normal-form a raw pair list by expanding every bubble-sort path on its
    own and merging equal configurations only at the end (cost grows with the
    path count); pick(descents) chooses the swap position.

    Picking the first descent is the former parafock sorter, kept as the
    reference; a random pick checks that the result does not depend on the
    swap schedule.
    """
    amps = {}
    work = [(tuple((int(p), int(l)) for p, l in raw), complex(coeff))]
    e = r.entries
    while work:
        pairs, c = work.pop()
        bad = [i for i in range(len(pairs) - 1) if pairs[i][0] > pairs[i + 1][0]]
        if not bad:
            pf._accumulate(amps, pairs, c)
            continue
        k = pick(bad)
        (p, a), (q, b) = pairs[k], pairs[k + 1]
        col = e[:, :, a - 1, b - 1]
        for bp, ap in zip(*np.nonzero(col)):
            swapped = pairs[:k] + ((q, int(bp) + 1), (p, int(ap) + 1)) + pairs[k + 2:]
            work.append((swapped, c * complex(col[bp, ap])))
    return amps


def reference_normal_form(raw, r, coeff=1.0):
    return path_normal_form(raw, r, lambda bad: bad[0], coeff)


def randomized_normal_form(raw, r, rng, coeff=1.0):
    """Normal-form a raw pair list choosing swap positions at random.

    Used to check that the result is independent of the swap schedule.
    """
    amps = path_normal_form(raw, r, lambda bad: bad[rng.integers(len(bad))], coeff)
    return pf.StateVector(r, amps)


def reference_merge(r, raw_terms):
    """Normal-form each (raw list, amplitude) on its own and add the results."""
    amps = {}
    for raw, c in raw_terms:
        for cfg, v in reference_normal_form(raw, r, c).items():
            pf._accumulate(amps, cfg, v)
    return amps


def reference_create(state, pos, label, end):
    new = (((pos, label),) + cfg if end == "front" else cfg + ((pos, label),)
           for cfg in state.amps)
    return reference_merge(state.r, zip(new, state.amps.values()))


def reference_move(state, src, dst):
    new = (tuple((dst, l) if p == src else (p, l) for p, l in cfg) for cfg in state.amps)
    return reference_merge(state.r, zip(new, state.amps.values()))


def reference_annihilate(state, pos, label, end):
    """The former annihilate: one branch list per configuration, with mirrored
    front and back loops over the inverse exchange."""
    m = state.r.m
    minv = np.linalg.inv(rm.as_map(state.r).astype(np.complex128)).reshape(m, m, m, m)
    amps = {}
    for cfg, c in state.amps.items():
        k = next(i for i, (p, _) in enumerate(cfg) if p == pos)
        work = [(cfg, c)]
        steps = range(k, 0, -1) if end == "front" else range(k, len(cfg) - 1)
        for j in steps:
            nxt = []
            for pairs, cc in work:
                if end == "front":
                    (q, bp), (p, ap) = pairs[j - 1], pairs[j]
                    col = minv[:, :, bp - 1, ap - 1]
                    for a, b in zip(*np.nonzero(np.abs(col) > pf.PRUNE)):
                        repl = pairs[:j - 1] + ((p, int(a) + 1), (q, int(b) + 1)) + pairs[j + 1:]
                        nxt.append((repl, cc * complex(col[a, b])))
                else:
                    (p, ap), (q, bp) = pairs[j], pairs[j + 1]
                    col = minv[:, :, ap - 1, bp - 1]
                    for a, b in zip(*np.nonzero(np.abs(col) > pf.PRUNE)):
                        repl = pairs[:j] + ((q, int(a) + 1), (p, int(b) + 1)) + pairs[j + 2:]
                        nxt.append((repl, cc * complex(col[a, b])))
            work = nxt
        for pairs, cc in work:
            idx = 0 if end == "front" else len(pairs) - 1
            if pairs[idx][1] == label:
                pf._accumulate(amps, pairs[:idx] + pairs[idx + 1:], cc)
    return amps


def gauged_paper3d(seed):
    """paper3d rotated by a seeded Haar unitary Q on every label: a dense R
    with all 16 entries of every exchange column nonzero."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, upper = np.linalg.qr(z)
    q = q * (np.diagonal(upper) / np.abs(np.diagonal(upper)))
    qq = np.kron(q, q)
    mat = qq @ rm.as_map(rm.paper_r(+1)).astype(np.complex128) @ qq.conj().T
    return rm.from_map(mat, 4)


def max_diff(a, b):
    return max((abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b)), default=0.0)


class TestAgainstReference:
    """The exchange loop equals the former path-expanding code for n <= 6.

    The reference costs (branches per exchange) ** swaps, so each input gets
    at most SWAPS[name] exchanges: about 4096 reference paths.
    """

    SWAPS = {"paper2d": 15, "paper3d": 15, "braid-fixture": 12, "gauged-paper3d": 3}

    @staticmethod
    def r_matrix(name):
        return gauged_paper3d(29) if name == "gauged-paper3d" else rm.builtin_r(name)

    @staticmethod
    def scrambled(rng, n, m, swaps):
        """A random n-particle list at most `swaps` adjacent swaps from sorted."""
        pairs = sorted(zip(rng.choice(np.arange(1, 21), n, replace=False).tolist(),
                           rng.integers(1, m + 1, n).tolist()))
        for _ in range(swaps if n > 1 else 0):
            k = int(rng.integers(n - 1))
            pairs[k], pairs[k + 1] = pairs[k + 1], pairs[k]
        return pairs

    @pytest.mark.parametrize("name", ("paper2d", "paper3d", "braid-fixture", "gauged-paper3d"))
    def test_normal_form(self, name):
        r, cap = self.r_matrix(name), self.SWAPS[name]
        rng = np.random.default_rng(31)
        for n in range(1, 7):
            for _ in range(6):
                raw = self.scrambled(rng, n, r.m, int(rng.integers(cap + 1)))
                c = complex(rng.standard_normal(), rng.standard_normal())
                assert max_diff(pf.normal_form(raw, r, c).amps,
                                reference_normal_form(raw, r, c)) <= 1e-12

    @pytest.mark.parametrize("name", ("paper2d", "paper3d", "braid-fixture", "gauged-paper3d"))
    def test_create_move_annihilate(self, name):
        r, cap = self.r_matrix(name), self.SWAPS[name]
        rng = np.random.default_rng(37)
        pre = cap // 2  # swaps spent on the input state, the rest on the operation
        left = cap - pre
        for n in range(1, 7):
            for _ in range(4):
                state = pf.normal_form(self.scrambled(rng, n, r.m, pre), r)
                occupied = sorted(state.positions())
                free = [p for p in range(1, 22) if p not in occupied]
                for end in ("front", "back"):
                    # create: the new particle passes the ones before (front) or after it
                    passes = {p: sum(q < p if end == "front" else q > p for q in occupied)
                              for p in free}
                    pos = int(rng.choice([p for p in free if passes[p] <= left]))
                    label = int(rng.integers(1, r.m + 1))
                    assert max_diff(pf.create(state, pos, label, end).amps,
                                    reference_create(state, pos, label, end)) <= 1e-12
                    # annihilate: pull a particle within the budget of the chosen end
                    near = occupied[:left + 1] if end == "front" else occupied[-left - 1:]
                    pos = int(rng.choice(near))
                    for label in range(1, r.m + 1):
                        assert max_diff(pf.annihilate(state, pos, label, end).amps,
                                        reference_annihilate(state, pos, label, end)) <= 1e-12
                # move: the particle passes everyone strictly between src and dst
                src = int(rng.choice(occupied))
                dst = int(rng.choice([p for p in free if sum(
                    min(src, p) < q < max(src, p) for q in occupied) <= left]))
                assert max_diff(pf.move(state, src, dst).amps,
                                reference_move(state, src, dst)) <= 1e-12

    def test_reversed_braid_list_is_fast(self):
        # the former sorter expands 2**45 paths here; the exchange loop merges
        # after every swap and stays at the 2**5 configurations of the result
        raw = [(10 - i, 1 + i % 2) for i in range(10)]
        start = time.perf_counter()
        state = pf.normal_form(raw, rm.braid_fixture())
        assert time.perf_counter() - start < 1.0
        assert abs(state.norm() - 1.0) < 1e-12


class TestMixedPositions:
    """create, move and annihilate on superpositions over several position
    tuples, each of which gets its own swap schedule, equal the references
    applied configuration by configuration.

    The reference costs (branches per exchange) ** swaps per configuration,
    so each operation makes at most SWAPS[name] exchanges.
    """

    SWAPS = {"paper3d": 12, "braid-fixture": 6, "gauged-paper3d": 2}

    @staticmethod
    def mixed(rng, r, n, shared):
        """Three position tuples of n particles, each holding `shared` and
        n - 1 other sites in 1..20, with two label tuples each."""
        amps = {}
        for _ in range(3):
            others = rng.choice([p for p in range(1, 21) if p != shared], n - 1, replace=False)
            positions = sorted([shared] + others.tolist())
            for _ in range(2):
                labels = rng.integers(1, r.m + 1, n).tolist()
                c = complex(rng.standard_normal(), rng.standard_normal())
                pf._accumulate(amps, tuple(zip(positions, labels)), c)
        return pf.StateVector(r, amps)

    @pytest.mark.parametrize("name", ("paper3d", "braid-fixture", "gauged-paper3d"))
    def test_create_move_annihilate(self, name):
        r, cap = TestAgainstReference.r_matrix(name), self.SWAPS[name]
        rng = np.random.default_rng(43)
        for n in range(2, min(cap, 5) + 2):
            for _ in range(3):
                shared = int(rng.integers(1, 21))
                state = self.mixed(rng, r, n, shared)
                tuples = {tuple(p for p, _ in cfg) for cfg in state.amps}
                assert len(tuples) > 1
                free = [p for p in range(1, 22) if all(p not in t for t in tuples)]

                def fits(count):  # positions whose exchange count fits the budget everywhere
                    return [p for p in free if max(count(p, t) for t in tuples) <= cap]

                for end in ("front", "back"):
                    passes = fits(lambda p, t: sum(q < p if end == "front" else q > p for q in t))
                    pos = int(rng.choice(passes))
                    label = int(rng.integers(1, r.m + 1))
                    assert max_diff(pf.create(state, pos, label, end).amps,
                                    reference_create(state, pos, label, end)) <= 1e-12
                    for label in range(1, r.m + 1):
                        assert max_diff(pf.annihilate(state, shared, label, end).amps,
                                        reference_annihilate(state, shared, label, end)) <= 1e-12
                dst = int(rng.choice(fits(lambda p, t: sum(
                    min(shared, p) < q < max(shared, p) for q in t))))
                assert max_diff(pf.move(state, shared, dst).amps,
                                reference_move(state, shared, dst)) <= 1e-12


def collapsing_r(seed, zero_column=False):
    """An m = 3 tensor, neither unitary nor a braid solution, where every
    column but (1, 2) holds one nonzero entry and all of those land on two
    (b', a') targets: distinct label tuples become equal after a swap, so
    their merge is deferred.  Column (1, 2) branches in two.  With
    zero_column, column (2, 1) is zero and rows that reach it die."""
    rng = np.random.default_rng(seed)
    e = np.zeros((3, 3, 3, 3), dtype=complex)
    targets = ((0, 1), (2, 2))
    for u in range(3):
        for v in range(3):
            f = rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform())
            e[targets[(u + v) % 2] + (u, v)] = f
    e[1, 0, 0, 1] = 0.6j  # the branching column (1, 2)
    if zero_column:
        e[:, :, 1, 0] = 0.0
    return rm.RMatrix(e)


class TestExchangeExactness:
    """The in-place exchange against the path-expanding reference."""

    @pytest.mark.parametrize("sign", (+1, -1))
    def test_paper3d_sorts_are_exact(self, sign):
        # one branch per exchange: the same products in the same order
        r = rm.paper_r(sign)
        rng = np.random.default_rng(53)
        for n in (16, 32, 48, 64):
            for _ in range(2):
                raw = list(zip((rng.permutation(n) + 1).tolist(),
                               rng.integers(1, 5, n).tolist()))
                c = complex(rng.standard_normal(), rng.standard_normal())
                assert pf.normal_form(raw, r, c).amps == reference_normal_form(raw, r, c)

    @pytest.mark.parametrize("zero_column", (False, True))
    def test_collapsing_columns(self, zero_column):
        r = collapsing_r(59, zero_column)
        rng = np.random.default_rng(61)
        for n in range(2, 7):
            for _ in range(8):
                raw = TestAgainstReference.scrambled(rng, n, 3, 10)
                assert max_diff(pf.normal_form(raw, r).amps,
                                reference_normal_form(raw, r)) <= 1e-12
            state = TestMixedPositions.mixed(rng, r, n, shared=10)
            for dst in (1, 21):  # past every particle below or above site 10
                assert max_diff(pf.move(state, 10, dst).amps,
                                reference_move(state, 10, dst)) <= 1e-12

    def test_deferred_merge(self):
        # (1,1) and (1,3) -> (1,2) on the first swap, then one more swap each
        r = collapsing_r(59)
        state = pf.StateVector(r, {((1, 1), (2, 1), (5, 2)): 0.6, ((1, 1), (2, 3), (5, 2)): 0.8j})
        moved = pf.move(state, 1, 7)
        assert max_diff(moved.amps, reference_move(state, 1, 7)) <= 1e-12
        assert len(moved.amps) <= 1

    def test_dead_rows_leave_an_empty_state(self):
        r = collapsing_r(59, zero_column=True)
        assert pf.normal_form(((4, 2), (1, 1)), r).amps == {}


def first_descent_slots(positions):
    """The former sorter's swap sequence: swap at the first descent until sorted."""
    ps, slots = list(positions), []
    while True:
        k = next((i for i in range(len(ps) - 1) if ps[i] > ps[i + 1]), None)
        if k is None:
            return slots, tuple(ps)
        ps[k], ps[k + 1] = ps[k + 1], ps[k]
        slots.append(k)


@settings(max_examples=200, deadline=None)
@given(positions=st.lists(st.integers(-30, 30), unique=True, max_size=14))
def test_sort_schedule_is_first_descent_sequence(positions):
    slots, final = pf._sort_schedule(tuple(positions))
    assert (slots, final) == first_descent_slots(positions)
    assert final == tuple(sorted(positions))


class TestNormalForm:
    # the paper's R by sign, and braid-fixture: braid relation only, R^2 != 1
    @pytest.mark.parametrize("sign", (+1, -1, "braid-fixture"))
    def test_schedule_independence(self, sign):
        r = rm.braid_fixture() if sign == "braid-fixture" else rm.paper_r(sign)
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            positions = rng.choice(20, size=n, replace=False)
            labels = rng.integers(1, r.m + 1, size=n)
            raw = tuple((int(p), int(l)) for p, l in zip(positions, labels))
            ref = pf.normal_form(raw, r)
            alt = randomized_normal_form(raw, r, rng)
            assert ref.allclose(alt)

    @pytest.mark.parametrize("sign", (+1, -1))
    def test_single_exchange_matches_table(self, sign):
        r = rm.paper_r(sign)
        e = r.entries
        for a in range(1, 5):
            for b in range(1, 5):
                sv = pf.normal_form(((7, a), (3, b)), r)
                assert len(sv.amps) == 1
                (cfg, c), = sv.amps.items()
                (q, bp), (p, ap) = cfg
                assert (q, p) == (3, 7)
                assert c == e[bp - 1, ap - 1, a - 1, b - 1]
        # one spot value from the exchange table: (a,b)=(1,1) -> (b',a')=(4,3)
        sv = pf.normal_form(((7, 1), (3, 1)), r)
        assert sv.amps == {((3, 4), (7, 3)): complex(sign)}

    def test_sorted_input_untouched(self):
        r = rm.paper_r(+1)
        raw = ((1, 2), (4, 3), (9, 1))
        sv = pf.normal_form(raw, r)
        assert sv.amps == {raw: 1.0 + 0.0j}

    def test_exclusion_rejected(self):
        with pytest.raises(pf.FockError, match="exclusion"):
            pf.normal_form(((2, 1), (2, 3)), rm.paper_r(+1))

    @pytest.mark.parametrize("label", (0, 5, -1))
    def test_label_out_of_range_rejected(self, label):
        r = rm.paper_r(+1)
        with pytest.raises(pf.FockError, match="1..4"):
            pf.normal_form(((5, label), (2, 1)), r)
        with pytest.raises(pf.FockError, match="1..4"):
            pf.create(pf.vacuum(r), 3, label, "back")

    def test_double_swap_is_identity(self):
        # involutivity: moving a particle past another and back changes nothing
        r = rm.paper_r(-1)
        base = pf.normal_form(((2, 3), (5, 1)), r)
        out = pf.move(pf.move(base, 2, 8), 8, 2)
        assert out.allclose(base)


class TestCreateAnnihilate:
    @pytest.mark.parametrize("end", ("front", "back"))
    @pytest.mark.parametrize("sign", (+1, -1))
    def test_roundtrip(self, end, sign):
        r = rm.paper_r(sign)
        rng = np.random.default_rng(23)
        state = pf.vacuum(r)
        placed = []
        for _ in range(4):
            pos = int(rng.choice([p for p in range(1, 15) if p not in placed]))
            lab = int(rng.integers(1, 5))
            placed.append(pos)
            before = state
            state = pf.create(state, pos, lab, end)
            assert abs(state.norm() - 1.0) < 1e-12
            back = pf.annihilate(state, pos, lab, end)
            assert back.allclose(before, tol=1e-10)

    def test_annihilate_wrong_label_drops_amplitude(self):
        r = rm.paper_r(+1)
        state = pf.create(pf.vacuum(r), 3, 2, "back")
        gone = pf.annihilate(state, 3, 1, "back")
        assert gone.amps == {}

    def test_create_occupied_rejected(self):
        r = rm.paper_r(+1)
        state = pf.create(pf.vacuum(r), 3, 2, "back")
        with pytest.raises(pf.FockError, match="occupied"):
            pf.create(state, 3, 1, "back")

    def test_annihilate_missing_rejected(self):
        r = rm.paper_r(+1)
        state = pf.create(pf.vacuum(r), 3, 2, "back")
        with pytest.raises(pf.FockError, match="no particle"):
            pf.annihilate(state, 5, 2, "back")

    def test_bad_end_rejected(self):
        with pytest.raises(pf.FockError, match="front or back"):
            pf.create(pf.vacuum(rm.paper_r(+1)), 1, 1, "middle")

    def test_front_back_orders_differ(self):
        # creating at the two ends of the list gives R-related, not equal, states
        r = rm.paper_r(+1)
        base = pf.create(pf.vacuum(r), 5, 1, "back")
        fr = pf.create(base, 2, 1, "front")
        bk = pf.create(base, 2, 1, "back")
        assert not fr.allclose(bk)
        assert abs(fr.norm() - 1.0) < 1e-12 and abs(bk.norm() - 1.0) < 1e-12


class TestMove:
    def test_involution_and_norm(self):
        r = rm.paper_r(-1)
        rng = np.random.default_rng(5)
        state = pf.vacuum(r)
        for pos, lab in ((2, 1), (6, 4), (9, 2)):
            state = pf.create(state, pos, lab, "back")
        moved = pf.move(state, 6, 4)
        assert abs(moved.norm() - 1.0) < 1e-12
        assert pf.move(moved, 4, 6).allclose(state)
        del rng

    def test_move_through_neighbor_changes_state(self):
        r = rm.paper_r(+1)
        state = pf.vacuum(r)
        state = pf.create(state, 2, 1, "back")
        state = pf.create(state, 5, 1, "back")
        crossed = pf.move(state, 5, 1)
        assert crossed.positions() == {1, 2}
        assert not crossed.allclose(state)

    def test_move_errors(self):
        r = rm.paper_r(+1)
        state = pf.create(pf.vacuum(r), 2, 1, "back")
        with pytest.raises(pf.FockError, match="no particle"):
            pf.move(state, 7, 8)
        state2 = pf.create(state, 4, 2, "back")
        with pytest.raises(pf.FockError, match="occupied"):
            pf.move(state2, 2, 4)


class TestMoveWithoutCrossing:
    """Moves that pass no particle in any configuration relabel directly."""

    @pytest.mark.parametrize("name", ("paper3d", "braid-fixture", "gauged-paper3d"))
    def test_matches_reference(self, name):
        r = TestAgainstReference.r_matrix(name)
        rng = np.random.default_rng(67)
        for n in range(2, 6):
            for _ in range(3):
                shared = int(rng.integers(1, 21))
                state = TestMixedPositions.mixed(rng, r, n, shared)
                tuples = {tuple(p for p, _ in cfg) for cfg in state.amps}
                clear = [p for p in range(0, 22) if all(
                    p not in t and not any(min(shared, p) < q < max(shared, p) for q in t)
                    for t in tuples)]
                for dst in clear:
                    assert pf.move(state, shared, dst).amps == reference_move(state, shared, dst)

    def test_prunes_like_the_exchange_path(self):
        r = rm.paper_r(+1)
        state = pf.StateVector(r, {((2, 1), (6, 2)): 1.0, ((2, 3), (6, 4)): 1e-15})
        assert pf.move(state, 2, 3).amps == {((3, 1), (6, 2)): 1.0}
        assert pf.move(state, 2, 3).amps == reference_move(state, 2, 3)

    def test_errors(self):
        r = rm.paper_r(+1)
        state = pf.StateVector(r, {((2, 1), (6, 2)): 0.6, ((2, 3), (4, 1)): 0.8})
        with pytest.raises(pf.FockError, match="no particle at position 3"):
            pf.move(state, 3, 1)
        with pytest.raises(pf.FockError, match="no particle at position 4"):
            pf.move(state, 4, 5)  # present in one tuple only
        with pytest.raises(pf.FockError, match="occupied"):
            pf.move(state, 2, 4)  # dst occupied in the second tuple only
        state = pf.StateVector(r, {((2, 1), (4, 2)): 0.6, ((2, 3), (7, 1)): 0.8})
        with pytest.raises(pf.FockError, match="occupied"):
            pf.move(state, 2, 4)  # dst occupied in the first tuple only


class TestMeasurement:
    def test_corner_distribution_and_collapse(self):
        r = rm.paper_r(+1)
        # (1,1)(4,1) exchanged once: back particle label distribution is a
        # delta since the exchange table is monomial
        state = pf.normal_form(((4, 1), (1, 1)), r)
        dist, collapsed = pf.measure_corner(state, "back")
        assert sum(dist.values()) == pytest.approx(1.0)
        for lab, branch in collapsed.items():
            assert abs(branch.norm() - 1.0) < 1e-12
            for cfg in branch.amps:
                assert cfg[-1][1] == lab

    def test_superposition_splits(self):
        r = rm.paper_r(+1)
        s1 = pf.create(pf.vacuum(r), 3, 1, "back")
        s2 = pf.create(pf.vacuum(r), 3, 2, "back")
        mixed = pf.StateVector(r, {})
        for sv, w in ((s1, np.sqrt(0.25)), (s2, np.sqrt(0.75))):
            for cfg, c in sv.amps.items():
                pf._accumulate(mixed.amps, cfg, w * c)
        dist, _ = pf.measure_corner(mixed, "front")
        assert dist[1] == pytest.approx(0.25)
        assert dist[2] == pytest.approx(0.75)

    @pytest.mark.parametrize("amps", ({}, {((3, 1),): 0j}, {((3, 1),): 1e-200}))
    def test_zero_norm_rejected(self, amps):
        with pytest.raises(pf.FockError, match="norm zero"):
            pf.measure_corner(pf.StateVector(rm.paper_r(+1), amps), "front")

    @pytest.mark.parametrize("tiny", (0j, 1e-200))
    def test_negligible_branch_skipped(self, tiny):
        r = rm.paper_r(+1)
        kept = ((1, 1), (5, 2))
        state = pf.StateVector(r, {kept: 1.0, ((1, 1), (5, 3)): tiny})
        dist, collapsed = pf.measure_corner(state, "back")
        assert dist == {2: 1.0}
        assert collapsed.keys() == {2}
        assert collapsed[2].amps == {kept: 1.0}

    def test_position_mismatch_rejected(self):
        r = rm.paper_r(+1)
        state = pf.create(pf.vacuum(r), 3, 1, "back")
        with pytest.raises(pf.FockError, match="corner"):
            pf.measure_corner(state, "back", pos=5)
        with pytest.raises(pf.FockError, match="corner"):
            pf.measure_corner(pf.vacuum(r), "front")


class TestObservables:
    def test_window_distribution_is_label_blind(self):
        r = rm.paper_r(+1)
        # two states differing only in labels look identical through a window
        s1 = pf.create(pf.create(pf.vacuum(r), 2, 1, "back"), 5, 3, "back")
        s2 = pf.create(pf.create(pf.vacuum(r), 2, 4, "back"), 5, 2, "back")
        w = [1, 2, 3]
        d1 = pf.window_occupation_distribution(s1, w)
        d2 = pf.window_occupation_distribution(s2, w)
        assert d1 == d2 == {(2,): pytest.approx(1.0)}


class TestSpectrum:
    @pytest.mark.parametrize("L", (3, 6, 8))
    def test_m_fold_degeneracy(self, L):
        r = rm.paper_r(+1)
        vals = pf.single_particle_spectrum(L, 1.0, 0.5, r)
        assert len(vals) == 4 * L
        # each one-body level appears exactly m=4 times
        one_body = np.linalg.eigvalsh(
            np.diag([-0.5] * L) + np.diag([-1.0] * (L - 1), 1)
            + np.diag([-1.0] * (L - 1), -1))
        assert np.allclose(vals, np.sort(np.repeat(one_body, 4)))

    def test_open_chain_band(self):
        # uniform chain: levels are -mu - 2J cos(k pi / (L+1))
        L, J, mu = 6, 0.7, 0.3
        vals = pf.single_particle_spectrum(L, J, mu, rm.paper_r(+1))
        ks = np.arange(1, L + 1)
        expect = np.sort(np.repeat(-mu - 2 * J * np.cos(ks * np.pi / (L + 1)), 4))
        assert np.allclose(vals, expect)

    def test_site_dependent_potential(self):
        vals = pf.single_particle_spectrum(3, 0.0, [1.0, 2.0, 3.0], rm.paper_r(+1))
        assert np.allclose(vals, np.repeat([-3.0, -2.0, -1.0], 4))


@settings(max_examples=40, deadline=None)
@given(
    seq=st.lists(
        st.tuples(st.integers(1, 12), st.integers(1, 4),
                  st.sampled_from(["front", "back"])),
        min_size=1, max_size=5,
        unique_by=lambda t: t[0],
    ),
    sign=st.sampled_from([+1, -1]),
)
def test_creation_sequences_preserve_norm(seq, sign):
    state = pf.vacuum(rm.paper_r(sign))
    for pos, lab, end in seq:
        state = pf.create(state, pos, lab, end)
    assert abs(state.norm() - 1.0) < 1e-10
