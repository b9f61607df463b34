"""Run the same CLI and API calls on two source trees and compare the outputs.

    python scripts/compare_trees.py OLD_TREE NEW_TREE

Each tree is a checkout of this repository.  Every run happens in a fresh
directory per tree, with PYTHONPATH pointing at that tree's src/ (and
perfbench/ for the API runs), so relative input paths, and the input
digests that name them, agree.  The reports, the files a run writes (--out
and --out-r) and the exit codes must agree byte for byte once each report's
"timestamp" line is dropped.  Prints one line per run and exits 1 if any
run differs.  A run that differs but whose two outputs parse as JSON of the
same structure (the same keys, lengths and exit code, numbers where the
other has numbers) also gets the largest absolute difference between its
numbers and where it occurs.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = range(10)
# --seed has no upper bound: a tree that cannot key a seed beyond 64 bits
# shows a differing exit code on the runs that use this one
BIG_SEED = str(2 ** 64 + 1)
BUILTINS = ("paper2d", "paper3d", "braid-fixture", "trivial4", "trivial8")
# acceptance criterion 7's trapping eigenvalues as [re, im]: every (phi, c)
# at the Wilson line's end vertex, then the conjugate irrep at its start
TRAPPING = """
import json
import numpy as np
from parastat import gauge_sim as gs, group_engine as ge
out = {}
for name in ("Z2", "S3", "D4"):
    G = ge.enumerate_group(ge.NAMED_PRESENTATIONS[name]())
    psi = max(ge.irreps(G), key=lambda rep: (rep.dim, float(np.abs(rep.character - 1).sum())))
    g0 = gs.ground_state(G, gs.patch_2x2())
    exc = gs.apply_wilson_line(g0, gs.WilsonLine(psi, ((0, +1), (3, +1))), 0, 0)
    lams = [gs.trapping_check(exc, 3, phi, c) for phi in ge.irreps(G) for c in range(phi.dim)]
    lams.append(gs.trapping_check(exc, 0, gs.conjugate_irrep(psi), 0))
    out[name] = [[lam.real, lam.imag] for lam in lams]
print(json.dumps(out))
"""
# criterion 6's windows on every builtin, then on trivial4 with its column
# (a, b) = (1, 2) doubled, a non-unitary R that reads 1.5
EAVESDROP = f"""
import json
import numpy as np
from parastat import game, rmatrix
rs = [rmatrix.builtin_r(name) for name in {BUILTINS!r}]
entries = np.array(rmatrix.builtin_r("trivial4").entries)
entries[:, :, 0, 1] *= 2
rs.append(rmatrix.RMatrix(entries))
print(json.dumps([game.eavesdrop_check(r, [[3, 4, 5], [8, 9, 10, 11], [14, 15, 16]], L=20)
                  for r in rs]))
"""
API = {
    "fock_suite.run(1..3)": "import json, fock_suite; "
                            "print(json.dumps([fock_suite.run(s) for s in (1, 2, 3)]))",
    "gauge_ladder.run(4)": "import json, gauge_ladder; print(json.dumps(gauge_ladder.run(4)))",
    "trapping(Z2, S3, D4)": TRAPPING,
    "guessing_trials(builtins)": "import json; from parastat import game, rmatrix; print(json.dumps("
                                 "[game.guessing_trials(rmatrix.builtin_r(name), 4000, 2) "
                                 f"for name in {BUILTINS!r}]))",
    "eavesdrop_check(builtins, scaled trivial4)": EAVESDROP,
}
# malformed inputs, written into each run directory before the runs: each
# must give one `error:` line, exit 2 when it is no readable JSON, else exit 1
MALFORMED = {
    "deep.json": b"[" * 1000 + b"]" * 1000,  # past json's recursion limit
    "entries_null.json": b'{"m": 2, "entries": null}',
    "entries_string.json": b'{"m": 2, "entries": "abcdef"}',
    "row_object.json": b'{"m": 2, "entries": [{"a": 1, "b": 2}]}',
    "top_array.json": b"[]",
    "latin1.json": '{"m": 2, "entries": [], "note": "\u00e9"}'.encode("latin-1"),
}
TIMESTAMP = re.compile(rb'^ *"timestamp": "[^"]*",?\n', re.MULTILINE)


def runs():
    """(label, argv after 'python', files written) for every compared run."""
    for s in SEEDS:
        yield (f"derive-r --seed {s}",
               ["-m", "parastat.cli", "--seed", str(s), "derive-r", "--out-r", f"r{s}.json"],
               [f"r{s}.json"])
    yield (f"derive-r --seed {BIG_SEED}",
           ["-m", "parastat.cli", "--seed", BIG_SEED, "derive-r", "--out-r", "r_big.json"],
           ["r_big.json"])
    tols = ((), ("--tol", "0"))
    for s in SEEDS:
        for tol in tols:
            yield (f"verify-r {' '.join(tol)} --input r{s}.json",
                   ["-m", "parastat.cli", *tol, "verify-r", "--input", f"r{s}.json"], [])
    for name in BUILTINS:
        for tol in tols:
            yield (f"verify-r {' '.join(tol)} --builtin {name}",
                   ["-m", "parastat.cli", *tol, "verify-r", "--builtin", name], [])
    for extra in (("paper3d", "--all-pairs"), ("paper2d", "--a", "2", "--b", "3"),
                  ("trivial4", "--all-pairs"), ("braid-fixture", "--all-pairs"),
                  ("paper3d", "--L", "7", "--r0", "0", "--all-pairs"),
                  ("paper3d", "--L", "3", "--r0", "0")):
        yield (f"simulate --builtin {' '.join(extra)}",
               ["-m", "parastat.cli", "simulate", "--builtin", *extra], [])
    for name in ("paper3d", "braid-fixture"):
        yield f"twist --builtin {name}", ["-m", "parastat.cli", "twist", "--builtin", name], []
    for extra in (("--builtin", "trivial8", "--n-max", "100", "--trials", "20000"),
                  ("--builtin", "braid-fixture", "--n-max", "0"),
                  # every posterior of braid-fixture is tied: Bob names the lowest a
                  ("--builtin", "braid-fixture", "--n-max", "2", "--trials", "200")):
        yield f"twist {' '.join(extra)}", ["-m", "parastat.cli", "twist", *extra], []
    yield (f"twist --seed {BIG_SEED} --builtin braid-fixture",
           ["-m", "parastat.cli", "--seed", BIG_SEED, "twist", "--builtin", "braid-fixture"], [])
    for extra in (("paper3d",), ("braid-fixture", "--p", "0.7"), ("paper3d", "--noise-l", "0"),
                  ("trivial8", "--trials", "20000", "--p", "0.01"),
                  ("trivial4", "--p", "1.0", "--noise-d", "0"),
                  ("trivial8", "--trials", "20000", "--p", "1", "--noise-d", "0"),
                  # both cross many blocks of scrambled trials and chunks of draws
                  ("trivial8", "--trials", "40000", "--p", "1", "--noise-d", "0"),
                  ("paper3d", "--trials", "70001", "--p", "0.3")):
        yield (f"noise-sweep --builtin {' '.join(extra)}",
               ["-m", "parastat.cli", "noise-sweep", "--builtin", *extra], [])
    yield (f"noise-sweep --seed {BIG_SEED} --builtin paper3d",
           ["-m", "parastat.cli", "--seed", BIG_SEED, "noise-sweep", "--builtin", "paper3d"], [])
    for group in ("Z2", "S3", "D4"):
        yield (f"gauge-check --group {group}",
               ["-m", "parastat.cli", "gauge-check", "--group", group], [])
    for group in ("Z2", "S3", "D4"):
        yield (f"gauge-check --group {group} --patch ladder",
               ["-m", "parastat.cli", "gauge-check", "--group", group, "--patch", "ladder"], [])
    for label, code in API.items():
        yield label, ["-c", code], []
    for name in MALFORMED:
        yield (f"verify-r --input {name}",
               ["-m", "parastat.cli", "verify-r", "--input", name], [])
    for name in ("deep.json", "top_array.json", "latin1.json"):
        yield (f"derive-r --presentation {name}",
               ["-m", "parastat.cli", "derive-r", "--presentation", name], [])
    # the report writer: CSV to stdout, then a JSON and a CSV --out file
    yield ("--format csv noise-sweep --builtin paper3d",
           ["-m", "parastat.cli", "--format", "csv", "noise-sweep", "--builtin", "paper3d"], [])
    yield ("--out report.json verify-r --builtin paper3d",
           ["-m", "parastat.cli", "--out", "report.json", "verify-r", "--builtin", "paper3d"],
           ["report.json"])
    yield ("--format csv --out curve.csv noise-sweep --builtin paper3d --trials 100",
           ["-m", "parastat.cli", "--format", "csv", "--out", "curve.csv", "noise-sweep",
            "--builtin", "paper3d", "--trials", "100"], ["curve.csv"])


def outputs(tree: Path, work: Path):
    """{label: bytes} of every run on one tree, in order."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tree / "src"), str(tree / "perfbench")]))
    for name, blob in MALFORMED.items():
        (work / name).write_bytes(blob)
    result = {}
    for label, argv, files in runs():
        proc = subprocess.run([sys.executable, *argv], cwd=work, env=env,
                              capture_output=True, check=False)
        blob = b"exit %d\n" % proc.returncode + TIMESTAMP.sub(b"", proc.stdout) + proc.stderr
        for name in files:  # a failed run may not have written its file
            if (work / name).exists():
                blob += TIMESTAMP.sub(b"", (work / name).read_bytes())
        result[label] = blob
    return result


def documents(text: bytes):
    """The JSON values, one after another, that make up text, or None."""
    decoder, docs, text, at = json.JSONDecoder(), [], text.decode(), 0
    try:
        while text[at:].strip():
            at += len(text[at:]) - len(text[at:].lstrip())
            doc, at = decoder.raw_decode(text, at)
            docs.append(doc)
    except ValueError:  # not JSON (UnicodeDecodeError is a ValueError too)
        return None
    return docs


def numeric_gap(a, b, where=""):
    """(largest |a - b| over the numbers of a and b, its path), or None when
    the two differ in structure."""
    number = (int, float)
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        parts = [numeric_gap(a[k], b[k], f"{where}.{k}") for k in a]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        parts = [numeric_gap(x, y, f"{where}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
    elif (isinstance(a, number) and isinstance(b, number)
          and not isinstance(a, bool) and not isinstance(b, bool)):
        return abs(a - b), where
    else:
        return (0.0, where) if a == b and type(a) is type(b) else None
    if None in parts:
        return None
    return max(parts, key=lambda part: part[0], default=(0.0, where))


def describe(old: bytes, new: bytes) -> str:
    """'  (max |diff| ... at ...)' for a run whose outputs differ only in numbers."""
    (exit_a, _, old), (exit_b, _, new) = old.partition(b"\n"), new.partition(b"\n")
    a, b = documents(old), documents(new)
    if exit_a != exit_b or a is None or b is None:
        return ""
    if len(a) == len(b) == 1:
        a, b = a[0], b[0]
    gap = numeric_gap(a, b)
    return "" if gap is None else f"  (max |diff| {gap[0]:.3g} at {gap[1].lstrip('.') or 'top'})"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python scripts/compare_trees.py OLD_TREE NEW_TREE", file=sys.stderr)
        return 2
    old_tree, new_tree = (Path(p).resolve() for p in argv)
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        old, new = outputs(old_tree, Path(a)), outputs(new_tree, Path(b))
    differ = [label for label in old if old[label] != new[label]]
    for label in old:
        if label in differ:
            print(f"DIFF  {label}{describe(old[label], new[label])}")
        else:
            print(f"same  {label}")
    print(f"{len(old) - len(differ)} of {len(old)} runs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
