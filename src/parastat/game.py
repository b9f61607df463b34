"""The secret-communication challenge game and its robustness experiments.

Two players each receive a secret number in 1..m, encode it in a
paraparticle's internal label at opposite ends of a chain, transport the
particles past each other under referee surveillance (no excitation may ever
appear outside a small window around each particle), measure at the swapped
corners, and decode each other's number from the exchange outcome.  Decoding
is a bijection for a nontrivial perfect-tensor R with one nonzero entry per
column, as the paper's R has in its own basis; a basis change that spreads
the columns, or product-form statistics, leave the players guessing.

The chain is lane-encoded: site i occupies Fock position 2i, with an
auxiliary passing slot at 2i+1.  The passing maneuver (step aside, partner
crosses, step back) performs exactly one exchange, so the final state is the
R-matrix image of the initial label pair regardless of where the crossing
happens.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import group_engine, parafock as pf
from .group_engine import _normals, _seeded
from .rmatrix import RMatrix, as_map, check_unitary


# The referee checks both windows after every CHECK_CADENCE-th move.
CHECK_CADENCE = 2
# Steps noise_experiment holds the particles exposed at each distance.
NOISE_EXPOSURE = 8


class GameError(ValueError):
    pass


@dataclass(frozen=True)
class GameConfig:
    L: int
    r: RMatrix
    a: int
    b: int
    seed: int = 0
    r0: int = 3

    def __post_init__(self):
        _rng(self.seed)  # GameError unless the seed is an integer >= 0
        if self.r0 < 0:
            raise GameError("window radius r0 must be >= 0")
        if self.L < max(2, 6 * self.r0):
            raise GameError("chain too short: it needs two sites and 6 * r0 for the circles")
        m = self.r.m
        if not (1 <= self.a <= m and 1 <= self.b <= m):
            raise GameError(f"secret numbers must lie in 1..{m}")


@dataclass
class Transcript:
    events: list = field(default_factory=list)
    verdict: str = "incomplete"
    alice_guess: int | None = None
    bob_guess: int | None = None

    def log(self, kind: str, **info):
        self.events.append({"event": kind, **info})

    def as_dict(self) -> dict:
        return dict(vars(self))  # shallow: asdict would deep-copy every event


@dataclass
class OutcomeReport:
    success: bool
    a_prime: int | None
    b_prime: int | None
    success_table: dict
    mutual_information_bits: dict

    def as_dict(self) -> dict:
        table = {f"{a},{b}": v for (a, b), v in self.success_table.items()}
        return {**vars(self), "success_table": table}


def _rng(seed: int, *key: int):
    """The counter-based stream keyed by (seed, key...), group_engine._seeded:
    GameError unless seed is an integer >= 0."""
    return _seeded(seed, *key, error=GameError)


# ---------------------------------------------------------------------------
# decode and information measures


def _unitary_map(r: RMatrix) -> np.ndarray:
    """as_map(r), read as a Born rule by every sweep: GameError unless unitary within 1e-12."""
    if not check_unitary(r, 1e-12).passed:  # an overflow reads as inf or nan and fails
        raise GameError("R-matrix not unitary")
    return as_map(r)


def _outcome_probs(r: RMatrix) -> np.ndarray:
    """Born-rule probabilities of one exchange, p[a*m + b, b'*m + a'] (0-based)."""
    return np.abs(_unitary_map(r)).T ** 2


def _decode_tables(r: RMatrix) -> np.ndarray:
    """Alice's and Bob's decode maps, tables[0][a, a'] and tables[1][b, b'] (0-based).

    An entry is the flat index partner * m + partner_observation of the
    unique nonzero exchange entry at (b', a', a, b), or -1 where there is no
    unique one.  Both maps are -2 throughout when R is not deterministic
    (some column (a, b) has more than one outcome).
    """
    m = r.m
    nz = np.asarray(r.entries) != 0  # [b', a', a, b]
    if np.any(nz.reshape(m * m, m * m).sum(axis=0) != 1):
        return np.full((2, m, m), -2)
    # Alice's view [a, a', b, b'], Bob's [b, b', a, a']
    views = np.stack([nz.transpose(2, 1, 3, 0), nz.transpose(3, 0, 2, 1)])
    views = views.reshape(2, m, m, m * m)
    return np.where(views.sum(axis=3) == 1, views.argmax(axis=3), -1)


def decode(r: RMatrix, who: str, own: int, observed: int) -> tuple[int, int]:
    """Recover the partner's (number, observation) from one's own pair.

    Alice holds (a, a') and looks up the unique (b, b') with a nonzero entry
    at (b', a', a, b); Bob symmetrically.  GameError unless own and observed
    are integers in 1..m, or if R is not deterministic.
    """
    players = ("Alice", "Bob")
    if who not in players:
        raise GameError("who must be Alice or Bob")
    for name, value in (("own", own), ("observed", observed)):
        if not isinstance(value, numbers.Integral) or not 1 <= value <= r.m:
            raise GameError(f"{name} must be an integer in 1..{r.m}, got {value!r}")
    hit = int(_decode_tables(r)[players.index(who), own - 1, observed - 1])
    if hit == -2:
        raise GameError("R not deterministic: an exchange has more than one outcome")
    if hit < 0:
        raise GameError("R not perfect")
    return hit // r.m + 1, hit % r.m + 1


def _guesses(hits: np.ndarray, m: int, rng) -> np.ndarray:
    """Partner numbers (1-based) from decode-table hits.  Each player whose
    decode failed (negative hit) guesses uniformly instead."""
    guesses = hits // m + 1
    failed = hits < 0
    guesses[failed] = 1 + rng.integers(m, size=np.count_nonzero(failed))
    return guesses


def _cdf(probs: np.ndarray) -> np.ndarray:
    """The cumulative sums of each row of probs, scaled to end at 1."""
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    return cdf


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray, rows=slice(None)) -> np.ndarray:
    """One inverse-CDF column index per trial t: the number of entries <= u[t]
    in row rows[t] of cdf (by default row t).  The entries are counted a
    column at a time, so trials that share a small table of distinct rows
    build no trials x columns array."""
    k = np.zeros(len(u), dtype=np.intp)
    for col in cdf.T:
        k += col[rows] <= u
    return k


def _draw(probs: np.ndarray, rng, rows) -> np.ndarray:
    """One inverse-CDF column index per trial from one uniform each: trial t
    samples row rows[t] of probs, and only probs' rows are cumulated."""
    return _inverse_cdf(_cdf(probs), rng.random(len(rows)), rows)


def mutual_information(r: RMatrix) -> dict:
    """Shannon information each player gains about the partner's number,
    with both numbers drawn uniformly."""
    m = r.m
    joint = _outcome_probs(r).reshape(m, m, m, m) / (m * m)  # [a, b, b', a']

    def entropy(p):
        p = p[p > 0]
        return -float(np.sum(p * np.log2(p)))

    def bits(seen, target):
        """I(target; the other two axes) under the joint distribution seen."""
        others = tuple(ax for ax in range(3) if ax != target)
        return max(entropy(seen.sum(axis=others)) + entropy(seen.sum(axis=target))
                   - entropy(seen), 0.0)

    # Alice sees (a, a') and wants b, blind to b'; Bob sees (b, b') and wants a.
    return {"alice_bits": bits(joint.sum(axis=2), 1), "bob_bits": bits(joint.sum(axis=3), 0)}


# ---------------------------------------------------------------------------
# full protocol on the lattice


def _pos(site: int, lane: bool = False) -> int:
    return 2 * site + (1 if lane else 0)


def _check_windows(state: pf.StateVector, sites, r0: int):
    """All occupied sites must lie within radius r0 of a commanded site."""
    for cfg in state.amps:
        for p, _ in cfg:
            site = p // 2
            if not any(abs(site - c) <= r0 for c in sites):
                return False, site
    return True, None


def run_protocol(cfg: GameConfig):
    """One full game: create, transport with referee checks, measure, decode.

    A commanded site moves before the step that takes its particle there, so
    every referee check reads the windows the particles were sent to.
    GameError unless R is unitary, as in every sweep.
    """
    return _play(cfg, _decode_tables(cfg.r), mutual_information(cfg.r))


def _play(cfg: GameConfig, tables: np.ndarray, info: dict):
    """The game of run_protocol, given R's decode tables and the
    mutual_information dict to report."""
    r = cfg.r
    o, s = 1, cfg.L  # the corner sites
    tr = Transcript()
    rng = _rng(cfg.seed, 0x6A6D)
    state = pf.vacuum(r)

    state = pf.create(state, _pos(o), cfg.a, "front")
    tr.log("create", site=o, end="front")
    state = pf.create(state, _pos(s), cfg.b, "back")
    tr.log("create", site=s, end="back")

    site_a, site_b = o, s  # commanded sites
    moves = 0
    checks_ok = True

    def referee_check():
        nonlocal checks_ok
        ok, bad = _check_windows(state, (site_a, site_b), cfg.r0)
        tr.log("referee-check", windows=[site_a, site_b], passed=ok,
               stray_site=bad)
        checks_ok = checks_ok and ok

    def step(src, dst):
        nonlocal state, moves
        state = pf.move(state, src, dst)
        moves += 1
        tr.log("move", src=src, dst=dst)
        if moves % CHECK_CADENCE == 0:
            referee_check()

    while site_a < s or site_b > o:
        if site_b == site_a + 1:
            # passing maneuver: Alice sidesteps, Bob crosses, Alice resumes
            step(_pos(site_a), _pos(site_a, lane=True))
            site_b = site_a
            step(_pos(site_a + 1), _pos(site_a))
            site_a += 1
            step(_pos(site_b, lane=True), _pos(site_a))
        else:
            if site_a < s and site_a + 1 != site_b:
                site_a += 1
                step(_pos(site_a - 1), _pos(site_a))
            if site_b > o and site_b - 1 != site_a:
                site_b -= 1
                step(_pos(site_b + 1), _pos(site_b))
    referee_check()

    if not checks_ok:
        tr.verdict = "challenge failed"
        report = OutcomeReport(False, None, None, {(cfg.a, cfg.b): 0}, info)
        return tr, report

    # Alice measures at the far corner (back), Bob at the near one (front)
    dist_back, collapsed_back = pf.measure_corner(state, "back", pos=_pos(s))
    a_prime = _sample(dist_back, rng)
    state = collapsed_back[a_prime]
    dist_front, collapsed_front = pf.measure_corner(state, "front", pos=_pos(o))
    b_prime = _sample(dist_front, rng)
    state = collapsed_front[b_prime]
    tr.log("measure", corner="s", outcome=a_prime)
    tr.log("measure", corner="o", outcome=b_prime)

    alice, bob = tables
    hits = np.array([alice[cfg.a - 1, a_prime - 1], bob[cfg.b - 1, b_prime - 1]])
    alice_guess, bob_guess = _guesses(hits, r.m, rng).tolist()
    tr.alice_guess, tr.bob_guess = alice_guess, bob_guess

    state = pf.annihilate(state, _pos(s), a_prime, "back")
    state = pf.annihilate(state, _pos(o), b_prime, "front")
    tr.log("annihilate", corner="s")
    tr.log("annihilate", corner="o")
    vacuum_ok = set(state.amps) == {()} and abs(abs(state.amps[()]) - 1.0) < 1e-10
    tr.log("final-check", vacuum=vacuum_ok)

    win = vacuum_ok and alice_guess == cfg.b and bob_guess == cfg.a
    tr.verdict = "win" if win else "lose"
    report = OutcomeReport(win, a_prime, b_prime, {(cfg.a, cfg.b): int(win)}, info)
    return tr, report


def _sample(dist: dict, rng) -> int:
    keys = sorted(dist)
    return keys[int(_draw(np.array([[dist[k] for k in keys]]), rng, [0])[0])]


def run_all_pairs(base: GameConfig):
    """The m^2-pair sweep: yields (transcript, report) for each (a, b) in turn.

    Games are played one at a time as the caller asks for them, so a caller
    that keeps only report.success_table holds one transcript at a time.
    The games share what depends on R alone: it is checked for unitarity
    (GameError before the first game) and its decode tables and mutual
    information are built once.  Each report gets its own copy of the
    mutual_information_bits dict.
    """
    r = base.r
    info = mutual_information(r)  # GameError unless R is unitary
    tables = _decode_tables(r)
    for a in range(1, r.m + 1):
        for b in range(1, r.m + 1):
            yield _play(replace(base, a=a, b=b), tables, dict(info))


# ---------------------------------------------------------------------------
# fast trial sweeps (exchange outcome only; transport validated separately)


def _wins(mat: np.ndarray, tables: np.ndarray, trials: int, rng, q=None) -> int:
    """Trials won out of trials, given R's map _unitary_map and decode tables
    _decode_tables.  Trial t draws secrets a[t], b[t] (0-based), then its
    outcome b' * m + a' from row a[t] * m + b[t] of the Born table |mat|^2
    transposed (_outcome_probs); it is won when both players name the
    partner's secret.

    With a scramble probability q each label is first replaced, with
    probability q, by a uniform unit vector of C^m.  A trial with a scrambled
    label samples its own row |mat psi|^2 for its product state psi instead
    (an unscrambled trial's row would equal its Born row).
    Those rows and their CDFs are built for a block of about
    group_engine._BLOCK_ENTRIES / m^2 such trials at a time, read at call
    time, and each block is sampled with those trials' uniforms.  So memory
    grows with per-trial integers and uniforms plus two float64 normals per
    component of a scrambled label, not with trials x m^2 rows.  The draws
    come in one order whatever the block: a, b, the scramble mask, the
    normals, one uniform per trial, the guesses.
    """
    m = tables.shape[1]
    a = rng.integers(m, size=trials)
    b = rng.integers(m, size=trials)
    hit = np.zeros(trials, dtype=bool)  # the trials with a scrambled label
    if q is not None:
        scrambled = rng.random((2, trials)) < q
        z = _normals(rng, 2, np.count_nonzero(scrambled), m)
        hit = scrambled.any(axis=0)
    u = rng.random(trials)
    stay, hit = np.flatnonzero(~hit), np.flatnonzero(hit)
    k = np.empty(trials, dtype=np.intp)
    k[stay] = _inverse_cdf(_cdf(np.abs(mat).T ** 2), u[stay], (a * m + b)[stay])
    if q is not None:
        # z[:, label[s, i]] scrambles slot s of trial hit[i] (slot 0 is
        # Alice's, slot 1 Bob's): z numbers Alice's scrambled labels in trial
        # order, then Bob's
        label = np.cumsum(scrambled[:, hit]).reshape(2, len(hit)) - 1
        step = max(1, group_engine._BLOCK_ENTRIES // (m * m))
        for lo in range(0, len(hit), step):
            t, j = hit[lo:lo + step], label[:, lo:lo + step]
            mask = scrambled[:, t]
            labels = np.zeros((2, len(t), m), dtype=np.complex128)
            labels[0, np.arange(len(t)), a[t]] = 1.0
            labels[1, np.arange(len(t)), b[t]] = 1.0
            zj = z[0, j[mask]] + 1j * z[1, j[mask]]
            labels[mask] = zj / np.linalg.norm(zj, axis=1, keepdims=True)
            psi = np.einsum("ti,tj->tij", labels[0], labels[1]).reshape(len(t), m * m)
            del labels  # each block array is released once the next one is built
            psi = psi @ mat.T
            probs = np.abs(psi)
            del psi
            probs **= 2
            k[t] = _inverse_cdf(_cdf(probs), u[t])
    bp, ap = np.divmod(k, m)
    alice, bob = tables
    ga, gb = _guesses(np.stack([alice[a, ap], bob[b, bp]]), m, rng)
    return int(np.count_nonzero((ga == b + 1) & (gb == a + 1)))


def guessing_trials(r: RMatrix, trials: int, seed: int) -> float:
    """Empirical success rate of the full decode task over random (a, b).

    Uses the exchange outcome distribution directly instead of lattice
    transport, which run_protocol has already validated to be equivalent.
    """
    if trials < 1:
        raise GameError("trials must be >= 1")
    rng = _rng(seed, 1)
    return _wins(_unitary_map(r), _decode_tables(r), trials, rng) / trials


# ---------------------------------------------------------------------------
# anti-anyon twist


def twist_experiment(r: RMatrix, n_max: int, trials: int, seed: int) -> dict:
    """Exchange repeated 2n+1 times, n drawn uniformly from 0..n_max.

    Bob measures his slot and infers Alice's number by maximum likelihood
    over the uniform prior on (a, n), without knowing n; among posteriors
    within 1e-9 of the best he names the lowest a.  For involutive R the
    twists are invisible; for genuinely braiding R they scramble.  The
    trials share one table: Bob's outcome is drawn from the m^2 (n_max + 1)
    rows of his likelihoods p(k | a, b, n).
    """
    if trials < 1:
        raise GameError("trials must be >= 1")
    if isinstance(n_max, bool) or not isinstance(n_max, numbers.Integral):
        raise GameError(f"n_max must be an integer >= 0, got {n_max!r}: "
                        "the twist counts are integers")
    if n_max < 0:
        raise GameError(f"n_max must be an integer >= 0, got {n_max!r}: "
                        "the twist counts 0..n_max, each n >= 0, must be nonempty")
    mat = _unitary_map(r)
    m = r.m

    # state for each (a, b, n): M^(2n+1) |a> x |b>, reshaped (b' slot, a' slot)
    powers = [mat]
    for _ in range(n_max):
        powers.append(powers[-1] @ mat @ mat)
    # column a*m + b of M^(2n+1) is its image of |a> x |b>
    states = np.stack(powers).reshape(n_max + 1, m, m, m, m)
    states = states.transpose(3, 4, 0, 1, 2)

    # Bob's outcome likelihoods: p(k | a, b, n) marginalizing Alice's slot
    bob_like = (np.abs(states) ** 2).sum(axis=4)  # [a, b, n, outcome]

    # rho_B for fixed (a, b): average over n of the Bob-slot reduced state
    rho_by_n = np.einsum("abnki,abnli->abnkl", states, states.conj())
    rho_dev = float(np.max(np.abs(rho_by_n - rho_by_n[:, :, :1])))

    posterior = bob_like.mean(axis=2)  # [a, b, k], the uniform prior over n
    guess = np.argmax(posterior >= posterior.max(axis=0) - 1e-9, axis=0)  # [b, k]

    rng = _rng(seed, 2)
    a = rng.integers(m, size=trials)
    b = rng.integers(m, size=trials)
    n_idx = rng.integers(n_max + 1, size=trials)
    k = _draw(bob_like.reshape(-1, m), rng, (a * m + b) * (n_max + 1) + n_idx)
    return {
        "success_rate": int(np.count_nonzero(guess[b, k] == a)) / trials,
        "rho_b_n_deviation": rho_dev,
        "rho_b_avg": rho_by_n.mean(axis=2),
        "n_support": list(range(n_max + 1)),
    }


# ---------------------------------------------------------------------------
# noise


def noise_experiment(r: RMatrix, trials: int, seed: int, p: float = 0.0,
                     noise_d: int = 1, noise_l: int = 2) -> list:
    """Decode success vs the particle-corner distance held during exposure.

    Distances run 0..noise_l + 2.  Each trial parks the particles at a
    distance from their corners for NOISE_EXPOSURE steps with the noise
    channel active, then completes the protocol noise-free.  A noise event
    (rate p per particle and step) picks a site uniformly within
    noise_d of a particle.  It applies a Haar unitary to the internal label
    only when it lands on the particle's own site while that particle sits
    within noise_l of a corner (elsewhere the label is topologically shielded
    from local operations).  So an exposed label is scrambled with probability
    q = 1 - (1 - p / (2 noise_d + 1))^NOISE_EXPOSURE.  A product of Haar
    unitaries is Haar and takes a fixed state to a uniform unit vector of C^m,
    so a scrambled label is drawn as one normalized complex Gaussian vector:
    exact in distribution.  Every distance passes R's map to _wins, which
    draws from its Born table at row a * m + b; within noise_l a trial with a
    scrambled label, a share 1 - (1 - q)^2 of them, samples a row of its own,
    built a block of trials at a time.  So memory grows with per-trial
    integers and uniforms plus two float64 normals per component of a
    scrambled label, not with trials x m^2 complex rows.
    """
    if not 0.0 <= p <= 1.0:
        raise GameError("noise rate must be a probability")
    if noise_d < 0 or noise_l < 0:
        raise GameError("noise range and shielding distance must be >= 0")
    if trials < 1:
        raise GameError("trials must be >= 1")
    mat, tables = _unitary_map(r), _decode_tables(r)
    # 2 * noise_d + 1 is a Python int, so it cannot overflow
    q = 1.0 - (1.0 - p / (2 * noise_d + 1)) ** NOISE_EXPOSURE
    return [{"distance": dist,
             "success_rate": _wins(mat, tables, trials, _rng(seed, 3, dist),
                                   q if dist <= noise_l else None) / trials}
            for dist in range(noise_l + 3)]


# ---------------------------------------------------------------------------
# eavesdropping


def eavesdrop_check(r: RMatrix, windows, L: int = 20) -> float:
    """Largest trace distance between window occupation patterns across secrets.

    For every (a, b) pair, prepares the mid-game state (both particles in
    the bulk, exchange completed) and computes the label-blind occupation
    distribution on each window; returns the largest trace distance between
    any two (a, b) choices.  Positions never depend on labels, so this is 0
    for every unitary R (trivial ones included; a non-unitary R reads the
    spread of the exchanged states' squared norms): it checks that the Fock
    layer's window observables are label-blind, not a property of the paper's R.
    """
    if L < 2:
        raise GameError("need at least two sites")
    mid_lo, mid_hi = 2 * (L // 2 - 1), 2 * (L // 2 + 1)
    states = [pf.create(pf.create(pf.vacuum(r), mid_hi, a, "front"), mid_lo, b, "back")
              for a in range(1, r.m + 1) for b in range(1, r.m + 1)]  # one exchange each
    worst = 0.0
    for w in windows:
        dists = [pf.window_occupation_distribution(state, [2 * s for s in w])
                 for state in states]
        patterns = sorted(set().union(*dists))
        p = np.array([[d.get(k, 0.0) for k in patterns] for d in dists])  # [(a, b), pattern]
        worst = max(worst, float(0.5 * np.abs(p[:, None] - p).sum(axis=2).max()))
    return worst
