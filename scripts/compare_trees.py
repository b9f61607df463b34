"""Run the same CLI and API calls on two source trees and compare the outputs.

    python scripts/compare_trees.py OLD_TREE NEW_TREE

Each tree is a checkout of this repository.  Every run happens in a fresh
directory per tree, with PYTHONPATH pointing at that tree's src/ (and
perfbench/ for the API runs), so relative input paths, and the input
digests that name them, agree.  The reports, the --out-r files and the exit
codes must agree byte for byte once each report's "timestamp" line is
dropped.  Prints one line per run and exits 1 if any run differs.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = range(10)
BUILTINS = ("paper2d", "paper3d", "braid-fixture", "trivial4", "trivial8")
API = {
    "fock_suite.run(1..3)": "import fock_suite; print([fock_suite.run(s) for s in (1, 2, 3)])",
    "gauge_ladder.run(4)": "import gauge_ladder; print(gauge_ladder.run(4))",
}
TIMESTAMP = re.compile(rb'^ *"timestamp": "[^"]*",?\n', re.MULTILINE)


def runs():
    """(label, argv after 'python', files written) for every compared run."""
    for s in SEEDS:
        yield (f"derive-r --seed {s}",
               ["-m", "parastat.cli", "--seed", str(s), "derive-r", "--out-r", f"r{s}.json"],
               [f"r{s}.json"])
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
                  ("trivial4", "--all-pairs")):
        yield (f"simulate --builtin {' '.join(extra)}",
               ["-m", "parastat.cli", "simulate", "--builtin", *extra], [])
    for name in ("paper3d", "braid-fixture"):
        yield f"twist --builtin {name}", ["-m", "parastat.cli", "twist", "--builtin", name], []
    for extra in (("paper3d",), ("braid-fixture", "--p", "0.7")):
        yield (f"noise-sweep --builtin {' '.join(extra)}",
               ["-m", "parastat.cli", "noise-sweep", "--builtin", *extra], [])
    for group in ("Z2", "S3", "D4"):
        yield (f"gauge-check --group {group}",
               ["-m", "parastat.cli", "gauge-check", "--group", group], [])
    for label, code in API.items():
        yield label, ["-c", code], []


def outputs(tree: Path, work: Path):
    """{label: bytes} of every run on one tree, in order."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tree / "src"), str(tree / "perfbench")]))
    result = {}
    for label, argv, files in runs():
        proc = subprocess.run([sys.executable, *argv], cwd=work, env=env,
                              capture_output=True, check=False)
        blob = b"exit %d\n" % proc.returncode + TIMESTAMP.sub(b"", proc.stdout) + proc.stderr
        for name in files:
            blob += (work / name).read_bytes()
        result[label] = blob
    return result


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
        print(f"{'DIFF' if label in differ else 'same'}  {label}")
    print(f"{len(old) - len(differ)} of {len(old)} runs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
