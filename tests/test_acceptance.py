"""Acceptance gate: one test per top-level criterion.

Each test prints exactly one ``criterion N (...): PASS/FAIL`` line (routed
past pytest's capture so it always appears) and then asserts the same
condition, so the gate reads as a seven-line scoreboard.  Criterion 5 reads
R through the Fock layer: ring spectra built from ``parafock.move`` must
split into the R = +1 and R = -1 sectors that ``as_map(R)``'s eigenvalues
predict.
"""

from itertools import combinations, product

import numpy as np
import pytest

import parastat.game as gm
import parastat.gauge_sim as gs
import parastat.group_engine as ge
import parastat.parafock as pf
import parastat.rmatrix as rm

from test_parafock import gauged_paper3d, randomized_normal_form


@pytest.fixture
def report(capfd):
    def emit(num: int, name: str, ok: bool) -> None:
        with capfd.disabled():
            print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}",
                  flush=True)
    return emit


def test_criterion_1_rmatrix_validity(report):
    ok = True
    for sign in (+1, -1):
        r = rm.paper_r(sign)
        ok &= rm.check_yang_baxter(r, 0).passed  # braid relation and R^2 = 1
        ok &= rm.check_unitary(r, 0).passed
        ok &= rm.check_perfect_tensor(r, 0).passed
        triv = rm.trivial_r(4, sign)
        ok &= not rm.check_perfect_tensor(triv, 1e-12).passed
        ok &= rm.is_trivial_product(triv, 1e-10) is not None
    report(1, "R-matrix validity, exact arithmetic", ok)
    assert ok


def test_criterion_2_winning_strategy(report):
    cfg = gm.GameConfig(L=18, r=rm.paper_r(+1), a=1, b=1, seed=0)
    games = list(gm.run_all_pairs(cfg))
    transcripts = [t for t, _ in games]
    wins = sum(rep.success for _, rep in games)
    referee_ok = all(
        e["passed"]
        for t in transcripts for e in t.events if e["event"] == "referee-check"
    )
    vacuum_ok = all(
        e["vacuum"]
        for t in transcripts for e in t.events if e["event"] == "final-check"
    )
    decode_ok = gm.decode(rm.paper_r(+1), "Alice", 2, 3) == (4, 1)
    ok = wins == 16 and referee_ok and vacuum_ok and decode_ok
    report(2, "winning strategy 16/16 with clean referee log", ok)
    assert wins == 16
    assert referee_ok and vacuum_ok and decode_ok


def test_criterion_3_baseline_impossibility(report):
    r = rm.trivial_r(4, +1)
    mi = gm.mutual_information(r)
    mi_ok = mi["alice_bits"] == 0.0 and mi["bob_bits"] == 0.0
    trials = 10_000
    rate = gm.guessing_trials(r, trials, seed=0)
    p = 1.0 / 16.0
    se = np.sqrt(p * (1 - p) / trials)
    rate_ok = abs(rate - p) <= 3 * se
    ok = mi_ok and rate_ok
    report(3, "product-form baseline at chance", ok)
    assert mi_ok
    assert rate_ok, f"rate {rate} vs {p} +- {3 * se}"


def test_criterion_4_group_derivation(report, gamma, gamma_pair, gamma_derived):
    sigma, psi = gamma_pair
    derived, inter = gamma_derived
    order_ok = gamma.order == 128
    dims_ok = (sigma.dim, psi.dim) == (8, 4)
    fusion_ok = ge.fusion_decompose(gamma, sigma, psi) == [(sigma.index, 4)]
    checks_ok = (
        rm.check_yang_baxter(derived, 1e-8).passed
        and rm.check_unitary(derived, 1e-8).passed
        and rm.check_perfect_tensor(derived, 1e-8).passed
        and rm.is_trivial_product(derived, 1e-8) is None
    )
    inv_ok = rm.invariants_close(
        rm.spectral_invariants(derived),
        rm.spectral_invariants(rm.paper_r(+1)), tol=1e-8,
    )
    v = inter.V
    residual = max(
        float(np.max(np.abs(
            np.kron(sigma(g), psi(g)) @ v - v @ np.kron(np.eye(4), sigma(g))
        )))
        for g in gamma.gen_elems
    )
    residual_ok = residual <= 1e-8
    ok = order_ok and dims_ok and fusion_ok and checks_ok and inv_ok and residual_ok
    report(4, "order-128 group derivation reproduces the exchange tensor", ok)
    assert order_ok and dims_ok and fusion_ok
    assert checks_ok and inv_ok
    assert residual_ok, residual


def ring_hopping(r, L, n):
    """Hopping matrix (J = 1) of n particles on a ring of L sites, built from
    pf.move on every normal-form basis state.  The wrap hop L-1 <-> 0 moves a
    particle past every other one, so it pays R; this assumes involutive R,
    where paying R in both directions keeps the matrix Hermitian."""
    labels = range(1, r.m + 1)
    basis = [tuple(zip(ps, ls)) for ps in combinations(range(L), n)
             for ls in product(labels, repeat=n)]
    index = {cfg: i for i, cfg in enumerate(basis)}
    h = np.zeros((len(basis), len(basis)), dtype=np.complex128)
    for cfg in basis:
        state = pf.normal_form(cfg, r)
        occupied = [p for p, _ in cfg]
        for p in occupied:
            for dst in {(p + 1) % L, (p - 1) % L} - set(occupied):
                for out, c in pf.move(state, p, dst).amps.items():
                    h[index[out], index[cfg]] -= c
    return h


def ring_levels(L, shift):
    """One-particle ring levels -2 cos(2 pi (k + shift) / L), k = 0..L-1."""
    return -2 * np.cos(2 * np.pi * (np.arange(L) + shift) / L)


def pair_levels(L, shift):
    """Two free fermions on the ring: e_k + e_k' over momenta k < k'."""
    return [e + f for e, f in combinations(ring_levels(L, shift), 2)]


def test_criterion_5_exchange_consistency(report):
    """Normal forms are independent of the swap order and a single exchange
    reads R's table; on rings of L = 4, 5, 6 sites, for paper3d, paper2d and
    a Haar-gauged paper3d (involutive R only), one particle has 4 copies of
    the ring band and two particles split into R's +1 and -1 sectors."""
    r = rm.paper_r(+1)
    rng = np.random.default_rng(2024)
    nf_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 6))
        positions = rng.choice(16, size=n, replace=False)
        labels = rng.integers(1, 5, size=n)
        raw = tuple((int(p), int(l)) for p, l in zip(positions, labels))
        nf_ok &= pf.normal_form(raw, r).allclose(
            randomized_normal_form(raw, r, rng), tol=0.0)
    table_ok = True
    for a in range(1, 5):
        for b in range(1, 5):
            sv = pf.normal_form(((9, a), (4, b)), r)
            ((cfg, c),) = sv.amps.items()
            (_, bp), (_, ap) = cfg
            table_ok &= c == r.entries[bp - 1, ap - 1, a - 1, b - 1] != 0
    # In each eigenvector of R the wrap hop pays its eigenvalue, so a +1
    # sector is two hard-core bosons (free fermions with antiperiodic
    # momenta) and a -1 sector two fermions (periodic momenta).
    ring_ok = True
    for r, plus in ((rm.paper_r(+1), 10), (rm.paper_r(-1), 6), (gauged_paper3d(5), 10)):
        signs = np.linalg.eigvalsh(rm.as_map(r))
        ring_ok &= bool(np.allclose(signs, np.repeat([-1.0, 1.0], [16 - plus, plus])))
        for L in (4, 5, 6):
            one, two = ring_hopping(r, L, 1), ring_hopping(r, L, 2)
            ring_ok &= bool(np.allclose(one, one.conj().T, atol=1e-12)
                            and np.allclose(two, two.conj().T, atol=1e-12))
            ring_ok &= bool(np.allclose(np.linalg.eigvalsh(one),
                                        np.sort(np.repeat(ring_levels(L, 0.0), 4))))
            want = np.concatenate([np.repeat(pair_levels(L, 0.5), plus),
                                   np.repeat(pair_levels(L, 0.0), 16 - plus)])
            ring_ok &= bool(np.allclose(np.linalg.eigvalsh(two), np.sort(want)))
    ok = nf_ok and table_ok and ring_ok
    report(5, "exchange consistency, 4-fold ring band and R-sector ring spectra", ok)
    assert nf_ok and table_ok and ring_ok


def test_criterion_6_robustness(report):
    r = rm.paper_r(+1)
    windows = [[3, 4, 5], [8, 9, 10, 11], [14, 15, 16]]
    eav_ok = gm.eavesdrop_check(r, windows, L=20) <= 1e-12
    involutive = gm.twist_experiment(r, 7, trials=2000, seed=0)
    inv_ok = (involutive["success_rate"] == 1.0
              and involutive["rho_b_n_deviation"] <= 1e-14)
    braided = gm.twist_experiment(rm.braid_fixture(), 7, trials=10_000, seed=0)
    braid_ok = braided["success_rate"] < 0.9
    ok = eav_ok and inv_ok and braid_ok
    report(6, "label-blind window occupations and twist robustness", ok)
    assert eav_ok
    assert inv_ok
    assert braid_ok, braided["success_rate"]


def test_criterion_7_gauge_construction(report, small_groups):
    # projectors, ground state, Wilson endpoints, every (a, b) deformation and
    # trapping at both endpoints for every irrep component: gs.gauge_check
    failed = [name for name in ("Z2", "S3", "D4")
              if not gs.gauge_check(small_groups[name], "2x2", seed=0)["passed"]]
    report(7, "commuting-projector gauge model at desk scale", not failed)
    assert not failed, failed
