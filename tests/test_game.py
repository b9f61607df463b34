import math
from dataclasses import replace

import numpy as np
import pytest

import parastat.cli as cli
import parastat.game as gm
import parastat.group_engine as ge
import parastat.rmatrix as rm


@pytest.fixture(scope="module")
def base_cfg():
    return gm.GameConfig(L=18, r=rm.paper_r(+1), a=2, b=4, seed=7)


class TestConfig:
    def test_short_chain_rejected(self):
        with pytest.raises(gm.GameError, match="too short"):
            gm.GameConfig(L=10, r=rm.paper_r(+1), a=1, b=1)

    def test_label_range_enforced(self):
        with pytest.raises(gm.GameError, match="1..4"):
            gm.GameConfig(L=18, r=rm.paper_r(+1), a=0, b=1)
        with pytest.raises(gm.GameError, match="1..4"):
            gm.GameConfig(L=18, r=rm.paper_r(+1), a=1, b=5)

    def test_single_site_chain_rejected(self):
        # r0 = 0 asks for no circle room, but the corners still need two sites
        with pytest.raises(gm.GameError, match="too short"):
            gm.GameConfig(L=1, r=rm.paper_r(+1), a=1, b=1, r0=0)
        gm.GameConfig(L=2, r=rm.paper_r(+1), a=1, b=1, r0=0)

    def test_negative_window_radius_rejected(self):
        # r0 = -1 would leave every referee window empty
        with pytest.raises(gm.GameError, match="r0"):
            gm.GameConfig(L=18, r=rm.paper_r(+1), a=1, b=1, r0=-1)

    def test_noise_rate_validated(self):
        for p in (1.5, -0.1, math.nan):
            with pytest.raises(gm.GameError, match="probability"):
                gm.noise_experiment(rm.paper_r(+1), trials=10, seed=0, p=p)

    @pytest.mark.parametrize("sweep", ("guessing", "twist", "noise"))
    def test_trials_below_one_rejected(self, sweep):
        r = rm.paper_r(+1)
        run = {"guessing": lambda t: gm.guessing_trials(r, t, seed=0),
               "twist": lambda t: gm.twist_experiment(r, 1, t, seed=0),
               "noise": lambda t: gm.noise_experiment(r, t, seed=0)}[sweep]
        for trials in (0, -1):
            with pytest.raises(gm.GameError, match="trials must be >= 1"):
                run(trials)

    @pytest.mark.parametrize("sweep", ("guessing", "twist", "noise", "config"))
    def test_seed_that_is_negative_or_no_integer_rejected(self, sweep):
        # numpy's seeding raised a bare ValueError for -1 and TypeError for 2.5
        r = rm.paper_r(+1)
        run = {"guessing": lambda s: gm.guessing_trials(r, 10, seed=s),
               "twist": lambda s: gm.twist_experiment(r, 1, 10, seed=s),
               "noise": lambda s: gm.noise_experiment(r, 10, seed=s),
               "config": lambda s: gm.GameConfig(L=18, r=r, a=1, b=1, seed=s)}[sweep]
        for seed in (-1, 2.5, "3", None):
            with pytest.raises(gm.GameError, match="seed must be an integer >= 0"):
                run(seed)

    def test_seed_beyond_64_bits_plays(self):
        r, seed = rm.paper_r(+1), 2 ** 64 + 1
        assert gm.guessing_trials(r, 100, seed=seed) == 1.0
        assert gm.twist_experiment(r, 1, 100, seed=seed)["success_rate"] == 1.0
        assert gm.noise_experiment(r, 100, seed=seed)[-1]["success_rate"] == 1.0
        assert gm.run_protocol(gm.GameConfig(L=18, r=r, a=2, b=3, seed=seed))[1].success


class TestDecode:
    def test_worked_example(self):
        # secrets (a,b) = (2,4): the exchange sends |2>|4> -> |1>|3>, so
        # Alice reads a'=3 at the far corner, Bob b'=1 at the near one
        r = rm.paper_r(+1)
        probs = np.abs(r.entries[:, :, 1, 3]) ** 2  # [b', a'] at (a, b) = (2, 4)
        assert probs[0, 2] == pytest.approx(1.0) and np.count_nonzero(probs) == 1
        assert gm.decode(r, "Alice", 2, 3) == (4, 1)
        assert gm.decode(r, "Bob", 4, 1) == (2, 3)

    def test_decode_inverts_every_pair(self):
        r = rm.paper_r(-1)
        for a in range(1, 5):
            for b in range(1, 5):
                ((bp, ap),) = np.argwhere(r.entries[:, :, a - 1, b - 1]) + 1
                assert gm.decode(r, "Alice", a, ap) == (b, bp)
                assert gm.decode(r, "Bob", b, bp) == (a, ap)

    def test_trivial_r_is_undecodable(self):
        r = rm.trivial_r(4, +1)
        with pytest.raises(gm.GameError, match="not perfect"):
            gm.decode(r, "Alice", 1, 1)

    def test_bad_player_rejected(self):
        with pytest.raises(gm.GameError, match="Alice or Bob"):
            gm.decode(rm.paper_r(+1), "Eve", 1, 1)

    @pytest.mark.parametrize("value", (0, -1, 5, 1.5))
    @pytest.mark.parametrize("who", ("Alice", "Bob"))
    def test_out_of_range_input_rejected(self, who, value):
        # 0 and -1 used to wrap around to the last row, 5 to leak IndexError
        r = rm.paper_r(+1)
        with pytest.raises(gm.GameError, match=r"own must be an integer in 1\.\.4"):
            gm.decode(r, who, value, 1)
        with pytest.raises(gm.GameError, match=r"observed must be an integer in 1\.\.4"):
            gm.decode(r, who, 1, value)

    def test_braid_fixture_needs_distribution(self):
        r = rm.braid_fixture()
        with pytest.raises(gm.GameError, match="not deterministic"):
            gm.decode(r, "Alice", 1, 1)
        probs = gm._outcome_probs(r)[0]  # (a, b) = (1, 1)
        assert probs.sum() == pytest.approx(1.0)
        assert np.count_nonzero(probs) == 2  # superposed outcome


def reference_decode(r, who, own, observed):
    """The decode rule as a direct scan of the exchange tensor."""
    e = np.asarray(r.entries)
    m = r.m
    if np.any((e != 0).reshape(m * m, m * m).sum(axis=0) != 1):
        raise gm.GameError("R not deterministic: an exchange has more than one outcome")
    hits = []
    for x in range(1, m + 1):
        for xp in range(1, m + 1):
            if who == "Alice":
                entry = e[xp - 1, observed - 1, own - 1, x - 1]
            else:
                entry = e[observed - 1, xp - 1, x - 1, own - 1]
            if entry != 0:
                hits.append((x, xp))
    if len(hits) != 1:
        raise gm.GameError("R not perfect")
    return hits[0]


@pytest.mark.parametrize("name", ["paper2d", "paper3d", "trivial4", "braid-fixture"])
def test_decode_matches_reference_scan(name):
    def outcome(fn, *args):
        try:
            return fn(*args)
        except gm.GameError as exc:
            return f"GameError: {exc}"

    r = rm.builtin_r(name)
    for who in ("Alice", "Bob"):
        for own in range(1, r.m + 1):
            for observed in range(1, r.m + 1):
                args = (r, who, own, observed)
                assert outcome(gm.decode, *args) == outcome(reference_decode, *args), args


def reference_mutual_information(r):
    """The earlier dict-of-tuples implementation, kept as the reference."""
    m = r.m
    p = {}
    for (bp, ap, a, b), v in np.ndenumerate(r.entries):
        if v != 0:
            p[(a + 1, b + 1, ap + 1, bp + 1)] = abs(v) ** 2 / (m * m)

    def mi(target, view):
        joint, marg_t, marg_v = {}, {}, {}
        for key, w in p.items():
            t, v = key[target], tuple(key[i] for i in view)
            joint[(t, v)] = joint.get((t, v), 0.0) + w
            marg_t[t] = marg_t.get(t, 0.0) + w
            marg_v[v] = marg_v.get(v, 0.0) + w
        total = 0.0
        for (t, v), w in joint.items():
            total += w * math.log2(w / (marg_t[t] * marg_v[v]))
        return max(total, 0.0)

    return {"alice_bits": mi(1, (0, 2)), "bob_bits": mi(0, (1, 3))}


def _haar_gauged_paper3d():
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    qq = np.kron(q, q)
    return rm.from_map(qq @ rm.as_map(rm.paper_r(+1)) @ qq.conj().T, 4)


class TestMutualInformation:
    @pytest.mark.parametrize("name", ("paper2d", "paper3d", "trivial4", "braid-fixture", "gauged"))
    def test_matches_reference_loop(self, name):
        r = _haar_gauged_paper3d() if name == "gauged" else rm.builtin_r(name)
        mi, ref = gm.mutual_information(r), reference_mutual_information(r)
        assert mi.keys() == ref.keys()
        for key in ref:
            assert abs(mi[key] - ref[key]) <= 1e-12, (key, mi[key], ref[key])

    def test_perfect_tensor_gives_full_information(self):
        mi = gm.mutual_information(rm.paper_r(+1))
        assert mi["alice_bits"] == pytest.approx(2.0, abs=1e-12)
        assert mi["bob_bits"] == pytest.approx(2.0, abs=1e-12)

    def test_product_form_gives_none(self):
        mi = gm.mutual_information(rm.trivial_r(4, -1))
        assert mi["alice_bits"] == pytest.approx(0.0, abs=1e-12)
        assert mi["bob_bits"] == pytest.approx(0.0, abs=1e-12)


class TestProtocol:
    def test_single_run_wins(self, base_cfg):
        tr, rep = gm.run_protocol(base_cfg)
        assert tr.verdict == "win" and rep.success
        assert (rep.a_prime, rep.b_prime) == (3, 1)
        assert tr.alice_guess == 4 and tr.bob_guess == 2
        kinds = [e["event"] for e in tr.events]
        assert kinds.count("create") == 2
        assert kinds.count("measure") == 2
        assert "referee-check" in kinds
        assert tr.events[-1]["vacuum"] is True

    def test_all_pairs_win(self, base_cfg):
        games = list(gm.run_all_pairs(base_cfg))
        table = {k: v for _, rep in games for k, v in rep.success_table.items()}
        assert len(table) == 16 and all(table.values())
        assert all(t.verdict == "win" for t, _ in games)

    def test_deterministic_transcripts(self, base_cfg):
        t1, r1 = gm.run_protocol(base_cfg)
        t2, r2 = gm.run_protocol(base_cfg)
        assert t1.as_dict() == t2.as_dict()
        assert r1.as_dict() == r2.as_dict()

    def test_referee_catches_stray(self, base_cfg, monkeypatch):
        # a stray excitation appears well outside both windows partway through
        real_move, moves = gm.pf.move, []

        def move(state, src, dst):
            moves.append((src, dst))
            state = real_move(state, src, dst)
            if len(moves) == base_cfg.L // 2:
                stray = base_cfg.L + base_cfg.r0 + 2
                state = gm.pf.create(state, gm._pos(stray), 1, "back")
            return state

        monkeypatch.setattr(gm.pf, "move", move)
        tr, rep = gm.run_protocol(base_cfg)
        assert tr.verdict == "challenge failed"
        assert not rep.success
        fails = [e for e in tr.events
                 if e["event"] == "referee-check" and not e["passed"]]
        assert fails and fails[0]["stray_site"] is not None

    @pytest.mark.parametrize("L", range(2, 8))
    def test_zero_radius_windows_follow_the_particles(self, L):
        # with r0 = 0 a particle must sit on its commanded site at every check
        base = gm.GameConfig(L=L, r=rm.paper_r(+1), a=1, b=1, r0=0)
        games = list(gm.run_all_pairs(base))
        assert len(games) == 16
        assert all(t.verdict == "win" and rep.success for t, rep in games)

    def test_referee_checks_run_on_cadence(self, base_cfg):
        tr, _ = gm.run_protocol(base_cfg)
        moves = checks = 0
        for e in tr.events:
            if e["event"] == "move":
                moves += 1
            elif e["event"] == "referee-check":
                checks += 1
        assert checks >= moves // gm.CHECK_CADENCE

    @pytest.mark.parametrize("name", ("paper3d", "trivial4", "braid-fixture"))
    def test_all_pairs_match_single_games(self, base_cfg, name):
        base = replace(base_cfg, r=rm.builtin_r(name), a=1, b=1)
        games = list(gm.run_all_pairs(base))
        pairs = [(a, b) for a in range(1, base.r.m + 1) for b in range(1, base.r.m + 1)]
        assert len(games) == len(pairs)
        for (a, b), (tr, rep) in zip(pairs, games):
            ref_tr, ref_rep = gm.run_protocol(replace(base, a=a, b=b))
            assert tr.as_dict() == ref_tr.as_dict(), (a, b)
            assert rep.as_dict() == ref_rep.as_dict(), (a, b)
        games[0][1].mutual_information_bits["alice_bits"] = -1.0
        info = gm.mutual_information(base.r)
        assert all(rep.mutual_information_bits == info for _, rep in games[1:])

    def test_all_pairs_rejects_non_unitary_before_playing(self, base_cfg, monkeypatch):
        monkeypatch.setattr(gm, "_play", lambda *args: pytest.fail("a game was played"))
        doubled = rm.RMatrix(2 * rm.paper_r(+1).entries)
        with pytest.raises(gm.GameError, match="not unitary"):
            next(gm.run_all_pairs(replace(base_cfg, r=doubled)))

    def test_report_serializes(self, base_cfg):
        _, rep = gm.run_protocol(base_cfg)
        d = rep.as_dict()
        assert d["success"] is True
        assert d["success_table"]["2,4"] == 1
        assert d["mutual_information_bits"]["alice_bits"] == pytest.approx(2.0)


def reference_draw(probs, rng, rows):
    """_draw as it was: gather the trials x columns matrix, then cumulate it."""
    cdf = np.cumsum(probs[rows], axis=1)
    cdf /= cdf[:, -1:]
    return np.count_nonzero(cdf <= rng.random(len(cdf))[:, None], axis=1)


class TestDraw:
    @pytest.mark.parametrize("seed", range(5))
    def test_rows_match_gathered_reference(self, seed):
        table_rng = np.random.default_rng(seed)
        probs = table_rng.random((6, 7)) * (table_rng.random((6, 7)) < 0.6)
        probs[:, 0] += 1e-3  # no row all zero
        rows = table_rng.integers(6, size=500)
        cases = ((probs, rows), (probs[2:3], np.zeros(300, dtype=np.intp)),
                 (probs, np.arange(len(probs))))
        for table, idx in cases:
            new, ref = gm._rng(seed, 9), gm._rng(seed, 9)
            assert np.array_equal(gm._draw(table, new, idx), reference_draw(table, ref, idx))
            assert new.count == ref.count == len(idx)


# Values the sweeps returned before they drew from shared row tables: the
# seeded outputs are pinned, not only their statistics.
def test_seeded_sweeps_are_pinned():
    assert gm.guessing_trials(rm.trivial_r(4, +1), 4000, seed=2) == 0.0615
    twist = gm.twist_experiment(rm.braid_fixture(), 7, 10000, 11)
    assert twist["success_rate"] == 0.497
    curve = gm.noise_experiment(rm.paper_r(+1), 2000, 11, 0.2)
    assert [row["success_rate"] for row in curve] == [0.4535, 0.459, 0.4735, 1.0, 1.0]
    curve = gm.noise_experiment(rm.braid_fixture(), 2000, 11, 0.2)
    assert [row["success_rate"] for row in curve] == [0.2365, 0.2355, 0.2435, 0.2425, 0.2535]
    curve = gm.noise_experiment(rm.trivial_r(8, +1), 20000, 5, 0.01)
    assert [row["success_rate"] for row in curve] == [0.01715, 0.016, 0.01615, 0.01685, 0.01435]


class TestTrials:
    def test_exchange_sweep_always_wins(self):
        assert gm.guessing_trials(rm.paper_r(-1), 500, seed=1) == 1.0

    def test_product_form_reduces_to_chance(self):
        rate = gm.guessing_trials(rm.trivial_r(4, +1), 4000, seed=2)
        p = 1.0 / 16.0
        se = np.sqrt(p * (1 - p) / 4000)
        assert abs(rate - p) < 4 * se

    def test_seed_reproducibility(self):
        r = rm.trivial_r(4, +1)
        assert gm.guessing_trials(r, 300, seed=9) == gm.guessing_trials(r, 300, seed=9)


class TestTwist:
    def test_involutive_r_ignores_twists(self):
        out = gm.twist_experiment(rm.paper_r(+1), 2, trials=400, seed=3)
        assert out["success_rate"] == 1.0
        assert out["rho_b_n_deviation"] < 1e-12

    def test_braiding_r_scrambles(self):
        out = gm.twist_experiment(rm.braid_fixture(), 3, trials=2000, seed=4)
        assert out["success_rate"] < 0.9
        # the marginal Bob sees is maximally mixed for every (a, b, n), so no
        # local inference can beat chance (m = 2 here)
        assert abs(out["success_rate"] - 0.5) < 0.05
        eye = np.eye(2) / 2
        assert np.max(np.abs(out["rho_b_avg"] - eye)) < 1e-12

    def test_ties_go_to_the_lowest_a(self):
        # braid-fixture's posterior over a is tied for every (b, k), so Bob
        # names a = 0 and wins exactly the trials with a = 0, whatever n_max
        a = gm._rng(0, 2).integers(2, size=200)
        for n_max in range(41):
            out = gm.twist_experiment(rm.braid_fixture(), n_max, 200, 0)
            assert out["success_rate"] == np.count_nonzero(a == 0) / 200, n_max

    def test_same_seed_reproduces_every_sweep(self):
        sweeps = {
            "guessing": lambda seed: gm.guessing_trials(
                rm.trivial_r(4, +1), 300, seed=seed),
            "twist": lambda seed: gm.twist_experiment(
                rm.braid_fixture(), 2, trials=300, seed=seed)["success_rate"],
            "noise": lambda seed: gm.noise_experiment(
                rm.paper_r(+1), trials=100, seed=seed, p=0.5),
        }
        for name, sweep in sweeps.items():
            assert sweep(5) == sweep(5), name

    # twist_dist holds the twist arguments; n is drawn from 0..n_max
    @pytest.mark.parametrize("twist_dist, match", (
        ({"n_max": -1}, "n >= 0"),  # would read powers[-1], the largest power
        ({"n_max": -7}, "n >= 0"),
        ({"n_max": -1}, "nonempty"),  # 0..-1 is empty: no twist count to draw
        ({"n_max": -7}, "nonempty"),
        ({"n_max": True}, "integers"),  # a bool is no count
        ({"n_max": None}, "integers"),
        ({"n_max": 1.5}, "integers"),
        ({"n_max": "3"}, "integers"),
        ({"n_max": 1.0}, "integers"),  # integer-valued floats are refused too
    ))
    def test_bad_twist_distribution_rejected(self, twist_dist, match):
        with pytest.raises(gm.GameError, match="n_max must be an integer >= 0"):
            gm.twist_experiment(rm.paper_r(+1), trials=10, seed=0, **twist_dist)
        with pytest.raises(gm.GameError, match=match):
            gm.twist_experiment(rm.paper_r(+1), trials=10, seed=0, **twist_dist)


def reference_noise_experiment(r, trials, seed, p=0.0, noise_d=1, noise_l=2):
    """The per-event loop noise_experiment replaced: every noise event draws
    its offset, and each one on the particle's own site while exposed applies
    a Haar unitary (one QR) to that label."""
    m = r.m
    mat = rm.as_map(r).astype(np.complex128)
    alice, bob = gm._decode_tables(r)
    results = []
    for dist in range(noise_l + 3):
        rng = np.random.default_rng((seed, 3, dist))
        a = rng.integers(m, size=trials)
        b = rng.integers(m, size=trials)
        hit = rng.random((gm.NOISE_EXPOSURE, 2, trials)) < p
        offset = rng.integers(-noise_d, noise_d + 1,
                              size=(gm.NOISE_EXPOSURE, 2, trials))
        applied = hit & (offset == 0) & (dist <= noise_l)
        labels = np.zeros((2, trials, m), dtype=np.complex128)
        labels[0, np.arange(trials), a] = 1.0
        labels[1, np.arange(trials), b] = 1.0
        for step in applied:
            for slot, sel in enumerate(step):
                u = _haar(m, np.count_nonzero(sel), rng)
                labels[slot, sel] = np.einsum("tij,tj->ti", u, labels[slot, sel])
        psi = np.einsum("ti,tj->tij", labels[0], labels[1]).reshape(trials, m * m)
        bp, ap = np.divmod(gm._draw(np.abs(psi @ mat.T) ** 2, rng, np.arange(trials)), m)
        ga, gb = gm._guesses(np.stack([alice[a, ap], bob[b, bp]]), m, rng)
        wins = int(np.count_nonzero((ga == b + 1) & (gb == a + 1)))
        results.append({"distance": dist, "success_rate": wins / trials})
    return results


def _haar(m, count, rng):
    """count independent Haar-random m x m unitaries."""
    z = rng.standard_normal((count, m, m)) + 1j * rng.standard_normal((count, m, m))
    q, rr = np.linalg.qr(z)
    d = np.diagonal(rr, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


class TestNoise:
    def test_protection_beyond_shielding_distance(self):
        results = gm.noise_experiment(rm.paper_r(+1), trials=300, seed=11,
                                      p=0.8, noise_l=2)
        by_dist = {row["distance"]: row["success_rate"] for row in results}
        assert set(by_dist) == {0, 1, 2, 3, 4}
        for d in (3, 4):
            assert by_dist[d] == 1.0  # label shielded in the bulk
        for d in (0, 1, 2):
            assert by_dist[d] < 0.5  # corrupted while exposed near a corner

    def test_one_failed_decode_keeps_the_other(self):
        # (a, b) -> (b', a') = (b, a + b mod 4): Alice always decodes b, Bob's
        # decode never succeeds, so only Bob guesses and the rate is 1/4
        e = np.zeros((4, 4, 4, 4), dtype=np.int64)
        for a in range(4):
            for b in range(4):
                e[b, (a + b) % 4, a, b] = 1
        results = gm.noise_experiment(rm.RMatrix(e), trials=2000, seed=13, p=0.0)
        se = np.sqrt(0.25 * 0.75 / 2000)
        for row in results:
            assert abs(row["success_rate"] - 0.25) < 4 * se

    def test_zero_rate_noise_is_harmless(self):
        results = gm.noise_experiment(rm.paper_r(+1), trials=50, seed=12, p=0.0)
        assert all(row["success_rate"] == 1.0 for row in results)

    # (p, d) = (0.2, 1) scrambles an exposed label with probability 0.42, the
    # other two with probability 1 - 0.2^8 and 1; the cheap case gets more trials
    @pytest.mark.parametrize("name", ("paper3d", "trivial4"))
    @pytest.mark.parametrize("p, d, trials", ((0.2, 1, 500), (0.8, 0, 100), (1.0, 0, 100)))
    def test_rates_match_reference_loop(self, name, p, d, trials):
        r = rm.builtin_r(name)
        seeds = range(20)
        n = trials * len(seeds)

        def pooled(sweep):
            return np.mean([[row["success_rate"] for row in sweep(r, trials, seed, p=p, noise_d=d)]
                            for seed in seeds], axis=0)

        new, ref = pooled(gm.noise_experiment), pooled(reference_noise_experiment)
        sigma = np.sqrt((new * (1 - new) + ref * (1 - ref)) / n)
        assert np.all(np.abs(new - ref) <= 4 * sigma), (new, ref)

    def test_scrambled_trials_alone_get_rows(self):
        # at p = 0.01 about 5% of the trials have a scrambled label, and only
        # those hold a label state and an m^2 outcome row: all 20000 rows of
        # complex128 products take over 40 MiB
        import tracemalloc

        tracemalloc.start()
        try:
            gm.noise_experiment(rm.trivial_r(8, +1), 20000, 5, p=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20

    def test_every_label_scrambled_in_bounded_memory(self):
        # with every label scrambled, the rows and CDFs are built a block of
        # trials at a time: what remains is the normals (5 MiB here) and the
        # per-trial integers, where all 20000 rows at once took about 40 MiB
        import tracemalloc

        tracemalloc.start()
        try:
            gm.noise_experiment(rm.trivial_r(8, +1), 20000, 5, p=1.0, noise_d=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20

    def test_widest_offset_range_never_hits(self):
        # p / (2d + 1) is about 5e-20 at the largest --noise-d, so q rounds
        # to 0 and no label is scrambled
        results = gm.noise_experiment(rm.paper_r(+1), trials=200, seed=3, p=1.0,
                                      noise_d=cli.NOISE_D_MAX)
        assert [row["success_rate"] for row in results] == [1.0] * 5

    @pytest.mark.parametrize("kwargs", ({"noise_d": -1}, {"noise_l": -3}))
    def test_negative_range_or_shield_rejected(self, kwargs):
        # noise_d = -1 would make q negative and read 1.0 at every distance;
        # noise_l = -3 would return an empty curve
        with pytest.raises(gm.GameError, match=">= 0"):
            gm.noise_experiment(rm.paper_r(+1), trials=10, seed=0, p=0.9, **kwargs)


def traced(monkeypatch, sweep):
    """sweep()'s result, the indices the inverse-CDF sampler returned during
    it, in call order, and the final count of every stream it keyed."""
    streams, picks = [], []
    keyed, sampler = gm._rng, gm._inverse_cdf

    def rng(*key):
        streams.append(keyed(*key))
        return streams[-1]

    def inverse_cdf(*args):
        picks.append(sampler(*args))
        return picks[-1]

    with monkeypatch.context() as patch:
        patch.setattr(gm, "_rng", rng)
        patch.setattr(gm, "_inverse_cdf", inverse_cdf)
        result = sweep()
    return result, np.concatenate(picks).tolist(), [s.count for s in streams]


class TestBlocks:
    """The stream draws and the sweeps sample _BLOCK_ENTRIES entries at a
    time; any block size gives the same draws, outcomes and stream counters.
    The trial counts are no multiple of any block here."""

    @pytest.mark.parametrize("block", (5, 64))
    @pytest.mark.parametrize("name", ("paper3d", "trivial4", "trivial8", "braid-fixture"))
    def test_noise_curves_ignore_the_block(self, monkeypatch, block, name):
        r = rm.builtin_r(name)

        def sweep():
            return [gm.noise_experiment(r, 203, 5, p, d)
                    for p in (0.0, 0.01, 0.5, 1.0) for d in (0, 1)]

        ref = traced(monkeypatch, sweep)
        monkeypatch.setattr(ge, "_BLOCK_ENTRIES", block)
        assert traced(monkeypatch, sweep) == ref

    @pytest.mark.parametrize("block", (5, 64))
    def test_twist_and_guessing_ignore_the_block(self, monkeypatch, block):
        def sweep():
            return ([gm.twist_experiment(rm.builtin_r(name), 7, 301, 3)["success_rate"]
                     for name in ("paper3d", "braid-fixture", "trivial8")]
                    + [gm.guessing_trials(rm.builtin_r(name), 301, 2)
                       for name in ("paper3d", "trivial4", "trivial8")])

        ref = traced(monkeypatch, sweep)
        monkeypatch.setattr(ge, "_BLOCK_ENTRIES", block)
        assert traced(monkeypatch, sweep) == ref


class TestEavesdrop:
    def test_windows_learn_nothing(self):
        windows = [[2, 3, 4], [9, 10, 11], [15, 16]]
        dev = gm.eavesdrop_check(rm.paper_r(+1), windows, L=20)
        assert dev <= 1e-12

    def test_windows_learn_nothing_2d(self):
        dev = gm.eavesdrop_check(rm.paper_r(-1), [[8, 9, 10, 11]], L=20)
        assert dev <= 1e-12

    def test_non_unitary_r_reads_the_norm_spread(self):
        # column (a, b) = (1, 2) doubled: its exchanged state has squared norm
        # 4 against 1 for every other pair, on every window pattern it shows
        entries = np.array(rm.builtin_r("trivial4").entries)
        entries[:, :, 0, 1] *= 2
        for windows in ([[9, 10, 11]], [[0]]):
            assert gm.eavesdrop_check(rm.RMatrix(entries), windows, L=20) == 1.5

    def test_single_site_chain_rejected(self):
        with pytest.raises(gm.GameError, match="two sites"):
            gm.eavesdrop_check(rm.paper_r(+1), [[1]], L=1)
