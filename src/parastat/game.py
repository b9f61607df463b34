"""The secret-communication challenge game and its robustness experiments.

Two players each receive a secret number in 1..m, encode it in a
paraparticle's internal label at opposite ends of a chain, transport the
particles past each other under referee surveillance (no excitation may ever
appear outside a small window around each particle), measure at the swapped
corners, and decode each other's number from the exchange outcome.  A
nontrivial R-matrix whose exchange tensor is a perfect tensor makes the
decode map a bijection; product-form statistics carry no information.

The chain is lane-encoded: site i occupies Fock position 2i, with an
auxiliary passing slot at 2i+1.  The passing maneuver (step aside, partner
crosses, step back) performs exactly one exchange, so the final state is the
R-matrix image of the initial label pair regardless of where the crossing
happens.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import parafock as pf
from .rmatrix import RMatrix, _whole, as_map


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
        return {
            "events": self.events,
            "verdict": self.verdict,
            "alice_guess": self.alice_guess,
            "bob_guess": self.bob_guess,
        }


@dataclass
class OutcomeReport:
    success: bool
    a_prime: int | None
    b_prime: int | None
    success_table: dict
    mutual_information_bits: dict

    def as_dict(self) -> dict:
        return {
            "success": bool(self.success),
            "a_prime": self.a_prime,
            "b_prime": self.b_prime,
            "success_table": {f"{a},{b}": v for (a, b), v in self.success_table.items()},
            "mutual_information_bits": self.mutual_information_bits,
        }


def _rng(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator: Philox keyed by (seed, key...)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed,) + key)))


# ---------------------------------------------------------------------------
# decode and information measures


def _outcome_probs(r: RMatrix) -> np.ndarray:
    """Born-rule probabilities of one exchange, p[a*m + b, b'*m + a'] (0-based)."""
    p = np.abs(as_map(r)).T ** 2
    if np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-12):
        raise GameError("R-matrix columns not normalized (is it unitary?)")
    return p


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
    at (b', a', a, b); Bob symmetrically.  GameError if R is not deterministic.
    """
    players = ("Alice", "Bob")
    if who not in players:
        raise GameError("who must be Alice or Bob")
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
    guesses[failed] = rng.integers(1, m + 1, size=np.count_nonzero(failed))
    return guesses


def _draw(probs: np.ndarray, rng) -> np.ndarray:
    """One inverse-CDF sample of a column index per row of a probability matrix."""
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    return np.count_nonzero(cdf <= rng.random(len(cdf))[:, None], axis=1)


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


def run_protocol(cfg: GameConfig, inject_stray: bool = False):
    """One full game: create, transport with referee checks, measure, decode.

    inject_stray plants an excitation outside both circles mid-game to
    demonstrate referee soundness.
    """
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

    injected = False
    while site_a < s or site_b > o:
        if inject_stray and not injected and site_b - site_a <= cfg.L // 2:
            # a stray excitation well outside both circles
            stray_site = s + cfg.r0 + 2
            state = pf.create(state, _pos(stray_site), 1, "back")
            tr.log("inject-stray", site=stray_site)
            injected = True
        if site_b == site_a + 1:
            # passing maneuver: Alice sidesteps, Bob crosses, Alice resumes
            step(_pos(site_a), _pos(site_a, lane=True))
            step(_pos(site_b), _pos(site_a))
            site_b = site_a
            step(_pos(site_a, lane=True), _pos(site_a + 1))
            site_a = site_a + 1
        else:
            if site_a < s and site_a + 1 != site_b:
                step(_pos(site_a), _pos(site_a + 1))
                site_a += 1
            if site_b > o and site_b - 1 != site_a:
                step(_pos(site_b), _pos(site_b - 1))
                site_b -= 1
    referee_check()

    if not checks_ok:
        tr.verdict = "challenge failed"
        report = OutcomeReport(False, None, None, {(cfg.a, cfg.b): 0},
                               mutual_information(r))
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

    alice, bob = _decode_tables(r)
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
    report = OutcomeReport(win, a_prime, b_prime, {(cfg.a, cfg.b): int(win)},
                           mutual_information(r))
    return tr, report


def _sample(dist: dict, rng) -> int:
    keys = sorted(dist)
    return keys[int(_draw(np.array([[dist[k] for k in keys]]), rng)[0])]


def run_all_pairs(base: GameConfig):
    """The m^2-pair sweep: yields (transcript, report) for each (a, b) in turn.

    Games are played one at a time as the caller asks for them, so a caller
    that keeps only report.success_table holds one transcript at a time.
    """
    m = base.r.m
    for a in range(1, m + 1):
        for b in range(1, m + 1):
            yield run_protocol(replace(base, a=a, b=b))


# ---------------------------------------------------------------------------
# fast trial sweeps (exchange outcome only; transport validated separately)


def _wins(r: RMatrix, a: np.ndarray, b: np.ndarray, probs: np.ndarray, rng) -> int:
    """Trials won.  Trial t has secrets a[t], b[t] (0-based) and draws its
    outcome b' * m + a' from row t of probs; it is won when both players
    name the partner's secret."""
    m = r.m
    bp, ap = np.divmod(_draw(probs, rng), m)
    alice, bob = _decode_tables(r)
    ga, gb = _guesses(np.stack([alice[a, ap], bob[b, bp]]), m, rng)
    return int(np.count_nonzero((ga == b + 1) & (gb == a + 1)))


def guessing_trials(r: RMatrix, trials: int, seed: int) -> float:
    """Empirical success rate of the full decode task over random (a, b).

    Uses the exchange outcome distribution directly instead of lattice
    transport, which run_protocol has already validated to be equivalent.
    """
    if trials < 1:
        raise GameError("trials must be >= 1")
    m = r.m
    rng = _rng(seed, 1)
    a = rng.integers(m, size=trials)
    b = rng.integers(m, size=trials)
    return _wins(r, a, b, _outcome_probs(r)[a * m + b], rng) / trials


# ---------------------------------------------------------------------------
# anti-anyon twist


def twist_experiment(r: RMatrix, twist_dist, trials: int, seed: int) -> dict:
    """Exchange repeated 2n+1 times, n drawn from twist_dist: a dict {n: weight}
    or an iterable of n, drawn uniformly.  Each n is an integer >= 0.

    Bob measures his slot and infers Alice's number by maximum likelihood
    over the uniform prior on (a, n), without knowing n.  For involutive R
    the twists are invisible; for genuinely braiding R they scramble.
    """
    if trials < 1:
        raise GameError("trials must be >= 1")
    mat = as_map(r)
    m = r.m
    ns, probs = _twist_support(twist_dist)

    # state for each (a, b, n): M^(2n+1) |a> x |b>, reshaped (b' slot, a' slot);
    # only the powers of n in the support are kept
    powers, power, wanted = [], mat, set(ns)
    for n in range(max(ns) + 1):
        if n:
            power = power @ mat @ mat
        if n in wanted:
            powers.append(power)
    # column a*m + b of M^(2n+1) is its image of |a> x |b>
    states = np.stack(powers).reshape(len(ns), m, m, m, m)
    states = states.transpose(3, 4, 0, 1, 2)

    # Bob's outcome likelihoods: p(k | a, b, n) marginalizing Alice's slot
    like = np.abs(states) ** 2  # [a, b, n, bob outcome, alice slot]
    bob_like = like.sum(axis=4)  # [a, b, n, outcome]

    # rho_B for fixed (a, b): average over n of the Bob-slot reduced state
    rho_by_n = np.einsum("abnki,abnli->abnkl", states, states.conj())
    rho_avg = np.einsum("n,abnkl->abkl", probs, rho_by_n)
    rho_dev = float(np.max(np.abs(rho_by_n - rho_by_n[:, :, :1])))

    posterior = np.einsum("abnk,n->abk", bob_like, probs)  # sum over n prior
    guess = np.argmax(posterior, axis=0)  # [b, k]

    rng = _rng(seed, 2)
    a = rng.integers(m, size=trials)
    b = rng.integers(m, size=trials)
    n_idx = _draw(np.broadcast_to(probs, (trials, len(ns))), rng)
    k = _draw(bob_like[a, b, n_idx], rng)
    return {
        "success_rate": int(np.count_nonzero(guess[b, k] == a)) / trials,
        "rho_b_n_deviation": rho_dev,
        "rho_b_avg": rho_avg,
        "n_support": ns,
    }


def _twist_support(twist_dist):
    try:  # a dict iterates over its keys, and twist_dist[2] finds a key 2.0
        ns = sorted(set(_whole(n) for n in twist_dist))
    except TypeError as exc:
        raise GameError(f"twist support must hold integers n: {exc}") from exc
    if isinstance(twist_dist, dict):
        probs = np.array([twist_dist[n] for n in ns], dtype=float)
    else:
        probs = np.full(len(ns), 1.0 / max(len(ns), 1))  # an empty support is rejected below
    if not ns or ns[0] < 0:
        raise GameError("twist support must be a nonempty set of n >= 0")
    total = probs.sum()
    if not (np.all(probs >= 0) and 0 < total < np.inf):
        raise GameError("twist weights must be finite, nonnegative and not all zero")
    return ns, probs / total


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
    exact in distribution.
    """
    if not 0.0 <= p <= 1.0:
        raise GameError("noise rate must be a probability")
    if noise_d < 0 or noise_l < 0:
        raise GameError("noise range and shielding distance must be >= 0")
    if trials < 1:
        raise GameError("trials must be >= 1")
    m = r.m
    mat = as_map(r)
    # 2 * noise_d + 1 is a Python int, so it cannot overflow
    q = 1.0 - (1.0 - p / (2 * noise_d + 1)) ** NOISE_EXPOSURE
    results = []
    for dist in range(noise_l + 3):
        rng = _rng(seed, 3, dist)
        a = rng.integers(m, size=trials)
        b = rng.integers(m, size=trials)
        # the two labels stay a product state: slot 0 is Alice's, slot 1 Bob's
        labels = np.zeros((2, trials, m), dtype=np.complex128)
        labels[0, np.arange(trials), a] = 1.0
        labels[1, np.arange(trials), b] = 1.0
        if dist <= noise_l:
            scrambled = rng.random((2, trials)) < q
            z = rng.standard_normal((2, np.count_nonzero(scrambled), m))
            z = z[0] + 1j * z[1]
            labels[scrambled] = z / np.linalg.norm(z, axis=1, keepdims=True)
        psi = np.einsum("ti,tj->tij", labels[0], labels[1]).reshape(trials, m * m)
        wins = _wins(r, a, b, np.abs(psi @ mat.T) ** 2, rng)
        results.append({"distance": dist, "success_rate": wins / trials})
    return results


# ---------------------------------------------------------------------------
# eavesdropping


def eavesdrop_check(r: RMatrix, windows, L: int = 20) -> float:
    """Largest trace distance between window occupation patterns across secrets.

    For every (a, b) pair, prepares the mid-game state (both particles in
    the bulk, exchange completed) and computes the label-blind occupation
    distribution on each window; returns the largest trace distance between
    any two (a, b) choices.  Positions never depend on labels, so this is 0
    for every R (trivial ones included): it checks that the Fock layer's
    window observables are label-blind, not a property of the paper's R.
    """
    if L < 2:
        raise GameError("need at least two sites")
    m = r.m
    mid_lo, mid_hi = 2 * (L // 2 - 1), 2 * (L // 2 + 1)
    per_pair = {}
    for a in range(1, m + 1):
        for b in range(1, m + 1):
            state = pf.vacuum(r)
            state = pf.create(state, mid_hi, a, "front")
            state = pf.create(state, mid_lo, b, "back")  # forces one exchange
            per_pair[(a, b)] = [
                pf.window_occupation_distribution(state, [2 * s for s in w])
                for w in windows
            ]
    worst = 0.0
    pairs = sorted(per_pair)
    for wi in range(len(windows)):
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                d1, d2 = per_pair[pairs[i]][wi], per_pair[pairs[j]][wi]
                keys = set(d1) | set(d2)
                td = 0.5 * sum(abs(d1.get(k, 0.0) - d2.get(k, 0.0)) for k in keys)
                worst = max(worst, td)
    return worst
