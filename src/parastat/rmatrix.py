"""R-matrices and the algebraic checks they must pass.

An R-matrix is a rank-4 tensor R^{b'a'}_{ab} with all four legs of equal
dimension m.  It encodes the exchange statistics of a paraparticle species:
exchanging two particles with internal labels (a, b) produces the
superposition sum_{a',b'} R^{b'a'}_{ab} |b'> x |a'>.  The map convention used
everywhere in this package is

    |a> x |b|  ->  sum_{a',b'} R^{b'a'}_{ab} |b'> x |a'>,

with the matrix of that map indexed row-major: row (b', a'), column (a, b).
Under this convention the exchange matrix of a valid R squares to the
identity and satisfies the braid relation R12 R23 R12 = R23 R12 R23.

Every R-matrix stores its entries as one read-only complex128 array.  Checks
on integer-valued tensors, like the paper's {0, +1, -1} ones, stay exact:
float64 sums and products of integers below 2^53 are exact.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

DEFAULT_TOL = 1e-10

# Largest m that rmatrix_from_dict and builtin_r accept.  The braid check works on
# m^3 x m^3 matrices, O(m^6) memory and O(m^9) time: 512 x 512 at m = 8.
MAX_M = 8

# Nonzero positions of the paper's m=4 R-matrix: PAPER_TABLE[(a, b)] = (b', a'),
# all 1-based.  Exactly one nonzero entry per (a, b) column.
PAPER_TABLE = {
    (1, 1): (4, 3), (1, 2): (1, 2), (1, 3): (2, 4), (1, 4): (3, 1),
    (2, 1): (2, 1), (2, 2): (3, 4), (2, 3): (4, 2), (2, 4): (1, 3),
    (3, 1): (1, 4), (3, 2): (4, 1), (3, 3): (3, 3), (3, 4): (2, 2),
    (4, 1): (3, 2), (4, 2): (2, 3), (4, 3): (1, 1), (4, 4): (4, 4),
}


class RMatrixError(ValueError):
    """Malformed R-matrix data (bad indices, wrong shape, duplicates)."""


@dataclass(frozen=True)
class RMatrix:
    """Rank-4 exchange tensor, entries indexed entries[b'][a'][a][b], 0-based."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.array(self.entries, dtype=np.complex128)
        if e.ndim != 4 or len(set(e.shape)) != 1:
            raise RMatrixError(f"entries must be shape (m,m,m,m), got {e.shape}")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, RMatrix) and np.array_equal(self.entries, other.entries)


@dataclass(frozen=True)
class CheckReport:
    """Result of one algebraic property check."""

    name: str
    passed: bool
    max_residual: float
    tol: float
    witness: Optional[tuple] = None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "max_residual": float(self.max_residual),
            "tol": float(self.tol),
            "witness": list(self.witness) if self.witness is not None else None,
        }


def paper_r(sign: int) -> RMatrix:
    """The explicit m=4 R-matrix; sign -1 is the 2D model's, +1 the 3D model's."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    entries = np.zeros((4, 4, 4, 4))
    for (a, b), (bp, ap) in PAPER_TABLE.items():
        entries[bp - 1, ap - 1, a - 1, b - 1] = sign
    return RMatrix(entries)


def trivial_r(m: int, sign: int) -> RMatrix:
    """Product-form statistics of ordinary particles: R^{b'a'}_{ab} = sign * [a'=a][b'=b]."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    entries = np.zeros((m, m, m, m))
    for a in range(m):
        for b in range(m):
            entries[b, a, a, b] = sign
    return RMatrix(entries)


def braid_fixture() -> RMatrix:
    """A unitary braid-relation solution with R^2 != 1 (m=2, Bell-basis change).

    Stand-in for non-Abelian anyon statistics in the twist experiments.  Its
    braid relation and non-involutivity are verified in the test suite by
    direct multiplication.
    """
    b = np.array(
        [
            [1, 0, 0, 1],
            [0, 1, -1, 0],
            [0, 1, 1, 0],
            [-1, 0, 0, 1],
        ],
        dtype=np.complex128,
    ) / np.sqrt(2.0)
    return from_map(b, 2)


def as_map(r: RMatrix) -> np.ndarray:
    """Matrix of the exchange map on V x V: row (b',a'), column (a,b), row-major."""
    m = r.m
    return r.entries.reshape(m * m, m * m)


def from_map(mat: np.ndarray, m: int) -> RMatrix:
    """Inverse of as_map."""
    mat = np.asarray(mat)
    if mat.shape != (m * m, m * m):
        raise RMatrixError(f"expected shape {(m*m, m*m)}, got {mat.shape}")
    return RMatrix(mat.reshape(m, m, m, m))


def _report(name: str, residuals: np.ndarray, tol: float) -> CheckReport:
    flat = np.abs(np.asarray(residuals))
    idx = np.unravel_index(int(np.argmax(flat)), flat.shape)
    worst = float(flat[idx])
    return CheckReport(name, worst <= tol, worst, tol, witness=tuple(int(i) for i in idx))


def _quiet():
    """Residuals of entries that overflow in the products come out inf or nan
    and fail their check; numpy's warnings about them add nothing."""
    return np.errstate(over="ignore", invalid="ignore")


def check_yang_baxter(r: RMatrix, tol: float = DEFAULT_TOL) -> CheckReport:
    """Braid relation on V^3 plus involutivity R^2 = 1."""
    m = r.m
    mat = as_map(r)
    eye = np.eye(m)
    r12 = np.kron(mat, eye)
    r23 = np.kron(eye, mat)
    with _quiet():
        braid = r12 @ r23 @ r12 - r23 @ r12 @ r23
        invol = mat @ mat - np.eye(m * m)
    rep_b = _report("yang_baxter.braid", braid, tol)
    rep_i = _report("yang_baxter.involutive", invol, tol)
    worse = rep_b if rep_b.max_residual >= rep_i.max_residual else rep_i
    return CheckReport(
        "yang_baxter", rep_b.passed and rep_i.passed, worse.max_residual, tol, worse.witness
    )


def check_unitary(r: RMatrix, tol: float = DEFAULT_TOL) -> CheckReport:
    mat = as_map(r)
    with _quiet():
        return _report("unitary", mat.conj().T @ mat - np.eye(r.m * r.m), tol)


def _groupings(r: RMatrix):
    """The three inequivalent 2-vs-2 index groupings, each as an m^2 x m^2 matrix."""
    e = r.entries  # [b', a', a, b]
    m = r.m
    yield "(a,b)->(b',a')", e.reshape(m * m, m * m)
    yield "(a,a')->(b,b')", e.transpose(0, 3, 2, 1).reshape(m * m, m * m)
    yield "(a,b')->(b,a')", e.transpose(3, 1, 2, 0).reshape(m * m, m * m)


def check_perfect_tensor(r: RMatrix, tol: float = DEFAULT_TOL) -> CheckReport:
    """Unitarity of every 2-vs-2 grouping of the four legs."""
    with _quiet():
        reps = [_report(f"perfect_tensor{name}", mat.conj().T @ mat - np.eye(len(mat)), tol)
                for name, mat in _groupings(r)]
    worst = max(reps, key=lambda rep: rep.max_residual)  # the first, on a tie
    ok = all(rep.passed for rep in reps)
    return CheckReport("perfect_tensor", ok, worst.max_residual, tol, worst.witness)


def is_trivial_product(
    r: RMatrix, tol: float = DEFAULT_TOL
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Factor pair (p, q) with R^{b'a'}_{ab} = p_{a'a} q_{b'b}, or None.

    Product form is equivalent to the matrix N[(a',a)][(b',b)] having rank 1;
    tested via singular values with the relative threshold tol * sigma_1.
    """
    m = r.m
    n = r.entries.transpose(1, 2, 0, 3).reshape(m * m, m * m)
    u, s, vh = np.linalg.svd(n)
    if s[0] == 0.0:
        return None
    if len(s) > 1 and s[1] > max(tol, 1e-15) * s[0]:
        return None
    p = (u[:, 0] * s[0]).reshape(m, m)
    q = vh[0].conj().reshape(m, m)
    return p, q


def spectral_invariants(r: RMatrix) -> dict:
    """Gauge-invariant fingerprint: trace, eigenvalues, mid-grouping singular values.

    Unchanged under R -> (Q x Q) as_map(R) (Q x Q)^dagger for any unitary Q,
    up to rounding.  The eigenvalues are listed by real, then imaginary part,
    each rounded to 9 decimals, so rounding noise does not pick their order.
    """
    mat = as_map(r)
    eigs = np.linalg.eigvals(mat)
    with _quiet():  # an eigenvalue beyond about 1e299 rounds to inf, still in order
        order = np.lexsort((eigs.imag.round(9), eigs.real.round(9)))
    mid = r.entries.transpose(0, 3, 2, 1).reshape(r.m**2, r.m**2)
    return {
        "trace": complex(np.trace(mat)),
        "eigenvalues": eigs[order],
        "singular_values": np.linalg.svd(mid, compute_uv=False),
    }


def invariants_close(inv1: dict, inv2: dict, tol: float = 1e-8) -> bool:
    """Traces within tol, singular values np.allclose at atol=tol, and each
    eigenvalue of inv1 within tol of its nearest unused one in inv2."""
    free = list(inv2["eigenvalues"])
    for e in inv1["eigenvalues"]:
        near = min(free, key=lambda x: abs(x - e), default=np.inf)
        if not abs(near - e) <= tol:
            return False
        free.remove(near)
    return (
        not free
        and abs(inv1["trace"] - inv2["trace"]) <= tol
        and np.allclose(inv1["singular_values"], inv2["singular_values"], atol=tol)
    )


def save_rmatrix(r: RMatrix, path) -> None:
    """Write the sparse JSON form: 1-based [b', a', a, b, re, im] rows."""
    rows = []
    for (bp, ap, a, b), v in np.ndenumerate(r.entries):
        if v != 0:
            rows.append([bp + 1, ap + 1, a + 1, b + 1, v.real, v.imag])
    with open(path, "w") as fh:
        json.dump({"m": r.m, "entries": rows}, fh, indent=1)


def _whole(x) -> int:
    """A JSON integer, or a float with an integer value; no bool or string."""
    if isinstance(x, float) and x.is_integer():
        return int(x)
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise TypeError(f"not an integer: {x!r}")
    return int(x)


def rmatrix_from_dict(data) -> RMatrix:
    """The R-matrix in a parsed sparse JSON form.  Rejects, naming the field, a
    top level that is no object, an m that is no integer or lies outside
    1..MAX_M before the dense tensor is allocated, then an entries that is no
    array, rows that are not arrays of six numbers, indices that are no
    integers or out of range, duplicates and non-finite values."""
    if not isinstance(data, dict):
        raise RMatrixError("malformed R-matrix file: top level must be a JSON object")
    try:
        m, rows = _whole(data["m"]), data["entries"]
    except KeyError as exc:
        raise RMatrixError(f"malformed R-matrix file: missing key {exc}") from exc
    except TypeError as exc:
        raise RMatrixError(f"malformed R-matrix file: m is {exc}") from exc
    if not isinstance(rows, list):
        kind = {dict: "an object", str: "a string", bool: "a boolean", int: "a number",
                float: "a number", type(None): "null"}.get(type(rows), type(rows).__name__)
        raise RMatrixError(f"malformed R-matrix file: entries must be a JSON array, got {kind}")
    if not 1 <= m <= MAX_M:
        raise RMatrixError(f"m must lie in 1..{MAX_M}, got {m}")
    entries = np.zeros((m, m, m, m), dtype=np.complex128)
    seen = set()  # 1-based index tuples
    for row in rows:
        if not (isinstance(row, list) and len(row) == 6):
            raise RMatrixError(f"malformed entry row {row!r}: not a JSON array of six numbers")
        try:
            key = tuple(_whole(i) for i in row[:4])
            if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in row[4:]):
                raise TypeError(f"not a number: {row[4]!r} or {row[5]!r}")
            value = complex(*row[4:])
        except (TypeError, OverflowError) as exc:
            raise RMatrixError(f"malformed entry row {row!r}: {exc}") from exc
        if not all(1 <= i <= m for i in key):
            raise RMatrixError(f"index out of range 1..{m}: {row}")
        if key in seen:
            raise RMatrixError(f"duplicate index tuple: {key}")
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise RMatrixError(f"non-finite value: {row}")
        seen.add(key)
        entries[tuple(i - 1 for i in key)] = value
    return RMatrix(entries)


def load_rmatrix(path) -> RMatrix:
    """Read the file save_rmatrix wrote (see rmatrix_from_dict)."""
    with open(path) as fh:
        return rmatrix_from_dict(json.load(fh))


_BUILTINS = {
    "paper2d": lambda: paper_r(-1),
    "paper3d": lambda: paper_r(+1),
    "braid-fixture": braid_fixture,
}


def builtin_r(name: str) -> RMatrix:
    """Look up a named builtin: paper2d, paper3d, trivial{m}, braid-fixture."""
    if name in _BUILTINS:
        return _BUILTINS[name]()
    size = name[len("trivial"):]
    if name.startswith("trivial") and size.isdecimal():
        if not 1 <= int(size) <= MAX_M:
            raise KeyError(f"builtin {name!r}: m must lie in 1..{MAX_M}")
        return trivial_r(int(size), +1)
    raise KeyError(f"unknown builtin R-matrix: {name!r}")
