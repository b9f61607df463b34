import csv
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import parastat.cli as cli
import parastat.rmatrix as rm


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def as_real(value):
    """Scalars may serialize as {re, im} objects when complex-typed."""
    if isinstance(value, dict):
        assert abs(value["im"]) < 1e-10
        return value["re"]
    return value


class TestVerifyR:
    def test_builtin_pass(self, capsys):
        code, payload, _ = run_json(capsys, "verify-r", "--builtin", "paper3d")
        assert code == 0
        assert payload["m"] == 4
        assert all(c["passed"] for c in payload["checks"])
        assert payload["nontrivial"] is True
        assert as_real(payload["spectral_invariants"]["trace"]) == pytest.approx(4.0)

    def test_trivial_fails_with_code_1(self, capsys):
        code, payload, _ = run_json(capsys, "verify-r", "--builtin", "trivial4")
        assert code == 1
        assert payload["nontrivial"] is False

    def test_tol_zero_residuals_are_exact(self, capsys):
        code, payload, _ = run_json(capsys, "--tol", "0", "verify-r", "--builtin", "paper3d")
        assert code == 0
        assert [c["max_residual"] for c in payload["checks"]] == [0.0, 0.0, 0.0]

    def test_largest_trivial_is_product_form(self, capsys):
        code, payload, _ = run_json(capsys, "verify-r", "--builtin", f"trivial{rm.MAX_M}")
        assert code == 1 and payload["m"] == rm.MAX_M
        assert payload["nontrivial"] is False

    def test_file_input_and_digest(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        rm.save_rmatrix(rm.paper_r(-1), path)
        code, payload, _ = run_json(capsys, "verify-r", "--input", str(path))
        assert code == 0
        digests = payload["manifest"]["input_digests"]
        assert list(digests) == [str(path)]
        assert len(digests[str(path)]) == 64

    def test_malformed_input_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "verify-r", "--input", str(path))
        assert code == 2 and "cannot read R-matrix" in err

    @pytest.mark.parametrize("data", (
        {"m": 1000, "entries": []},
        {"m": 2, "entries": [[1, 1, 1, 1, "nan", 0.0]]},
        {"m": float("inf"), "entries": []},
        {"m": 2.9, "entries": []},
        {"m": 2, "entries": [[1.7, 1, 1, 1, 1.0, 0.0]]},
        {"m": 2, "entries": [[True, 1, 1, 1, 1.0, 0.0]]},
    ))
    def test_invalid_r_matrix_is_domain_failure(self, capsys, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify-r", "--input", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_missing_source_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify-r")
        assert code == 2 and "provide --builtin or --input" in err

    def test_unknown_builtin(self, capsys):
        code, _, err = run(capsys, "verify-r", "--builtin", "nope")
        assert code == 2

    @pytest.mark.parametrize("name", ("trivial0", "trivial9", "trivial64", "trivial100000"))
    def test_builtin_size_out_of_range(self, capsys, name):
        code, out, err = run(capsys, "verify-r", "--builtin", name)
        assert code == 2 and out == ""
        assert "1..8" in err and "Traceback" not in err


class TestManifest:
    def test_fields_and_determinism(self, capsys):
        code1, p1, _ = run_json(capsys, "--seed", "5", "verify-r",
                                "--builtin", "paper3d")
        code2, p2, _ = run_json(capsys, "--seed", "5", "verify-r",
                                "--builtin", "paper3d")
        assert code1 == code2 == 0
        man = p1["manifest"]
        assert man["command"] == "verify-r"
        assert man["seed"] == 5
        assert man["config"]["builtin"] == "paper3d"
        assert man["version"]
        for p in (p1, p2):
            p["manifest"].pop("timestamp")
        assert p1 == p2

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, stdout, _ = run(capsys, "--out", str(out), "verify-r",
                              "--builtin", "paper2d")
        assert code == 0 and stdout == ""
        payload = json.loads(out.read_text())
        assert payload["nontrivial"] is True


@pytest.mark.parametrize("argv", (
    ("--out", "{dir}", "verify-r", "--builtin", "paper3d"),
    ("--out", "{dir}/missing/x.json", "verify-r", "--builtin", "paper3d"),
    ("--format", "csv", "--out", "{dir}/missing/x.csv",
     "noise-sweep", "--builtin", "paper3d", "--trials", "10"),
    ("derive-r", "--out-r", "{dir}/missing/r.json"),
))
def test_unwritable_output_is_usage_error(capsys, tmp_path, argv):
    code, out, err = run(capsys, *(arg.format(dir=tmp_path) for arg in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write") and "Traceback" not in err


class TestDeriveR:
    def test_bundled_run(self, capsys, tmp_path):
        out_r = tmp_path / "derived.json"
        code, payload, _ = run_json(capsys, "derive-r", "--out-r", str(out_r))
        assert code == 0
        assert payload["group_order"] == 128
        assert (payload["d_sigma"], payload["d_psi"]) == (8, 4)
        assert payload["derived_supplementary"] is True
        assert all(c["passed"] for c in payload["checks"])
        assert payload["invariants_match_builtin"] is True
        assert as_real(payload["invariants"]["trace"]) == pytest.approx(4.0, abs=1e-8)
        derived = rm.load_rmatrix(out_r)
        assert derived.m == 4
        assert rm.check_yang_baxter(derived, 1e-8).passed

    def test_group_without_pair_fails(self, capsys, tmp_path):
        pres = tmp_path / "d4.json"
        pres.write_text(json.dumps({
            "generators": ["r", "s"],
            "relations": [["r"] * 4, ["s", "s"], ["s", "r", "s", "r"]],
        }))
        code, payload, _ = run_json(capsys, "derive-r",
                                    "--presentation", str(pres))
        assert code == 1
        assert "no parastatistical" in payload["error"]

    @pytest.mark.parametrize("tol", ("1e-9", "0"))
    def test_exit_code_follows_every_check(self, capsys, tol):
        # at --tol 0 the derived R's float residuals (about 1e-14) fail
        code, payload, _ = run_json(capsys, "--tol", tol, "derive-r")
        ok = all(c["passed"] for c in payload["checks"]) and payload["invariants_match_builtin"]
        assert code == (0 if ok else 1)
        assert ok == (tol != "0")


class TestSimulate:
    def test_single_game(self, capsys):
        code, payload, _ = run_json(capsys, "simulate", "--builtin", "paper3d",
                                    "--a", "2", "--b", "4", "--L", "18")
        assert code == 0
        assert payload["transcript"]["verdict"] == "win"
        assert payload["report"]["a_prime"] == 3
        assert payload["report"]["b_prime"] == 1

    def test_all_pairs(self, capsys):
        code, payload, _ = run_json(capsys, "simulate", "--builtin", "paper2d",
                                    "--all-pairs", "--L", "18")
        assert code == 0
        assert payload["wins"] == 16 and payload["pairs"] == 16

    @pytest.mark.parametrize("argv", (
        ("--r0", "-1"),  # every referee window would be empty
        ("--r0", "-1", "--all-pairs"),
        ("--r0", "5"),  # the default L = 20 is below 6 * r0
        ("--a", "9"),
        ("--b", "0"),
    ))
    def test_bad_game_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "simulate", "--builtin", "paper3d", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_trivial_r_loses(self, capsys):
        code, payload, _ = run_json(capsys, "simulate", "--builtin", "trivial4",
                                    "--L", "18")
        assert code == 1
        assert payload["transcript"]["verdict"] == "lose"


class TestTwist:
    def test_involutive_perfect(self, capsys):
        code, payload, _ = run_json(capsys, "twist", "--builtin", "paper3d",
                                    "--n-max", "3", "--trials", "200")
        assert code == 0
        assert payload["success_rate"] == 1.0
        assert payload["rho_b_n_deviation"] < 1e-12
        assert payload["n_support"] == [0, 1, 2, 3]

    def test_braiding_degrades(self, capsys):
        code, payload, _ = run_json(capsys, "twist", "--builtin", "braid-fixture",
                                    "--n-max", "3", "--trials", "600")
        assert code == 0
        assert payload["success_rate"] < 0.9


class TestNoiseSweep:
    def test_json_curve(self, capsys):
        code, payload, _ = run_json(
            capsys, "noise-sweep", "--builtin", "paper3d",
            "--p", "0.8", "--trials", "100")
        assert code == 0
        curve = {pt["distance"]: pt["success_rate"] for pt in payload["curve"]}
        assert curve[4] == 1.0 and curve[0] < 0.9

    def test_csv_format(self, capsys, tmp_path):
        out = tmp_path / "curve.csv"
        code, _, _ = run(
            capsys, "--format", "csv", "--out", str(out),
            "noise-sweep", "--builtin", "paper3d", "--trials", "50")
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["distance"] for r in rows] == ["0", "1", "2", "3", "4"]
        assert all(0.0 <= float(r["success_rate"]) <= 1.0 for r in rows)

    @pytest.mark.parametrize("argv", (
        ("verify-r", "--builtin", "paper3d"),
        ("derive-r",),
        ("simulate", "--builtin", "paper3d"),
        ("twist", "--builtin", "paper3d"),
        ("gauge-check",),
    ))
    def test_csv_without_a_table_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "--format", "csv", *argv)
        assert code == 2 and out == ""
        assert "noise-sweep" in err.splitlines()[-1]


@pytest.mark.parametrize("argv", [
    ("twist", "--builtin", "paper3d", "--n-max", "-1"),
    ("twist", "--builtin", "paper3d", "--trials", "0"),
    ("noise-sweep", "--builtin", "paper3d", "--trials", "0"),
    ("noise-sweep", "--builtin", "paper3d", "--p", "1.5"),
    ("noise-sweep", "--builtin", "paper3d", "--noise-d", "-1"),
    ("noise-sweep", "--builtin", "paper3d", "--noise-l", "-1"),
    ("derive-r", "--order-bound", "0"),
    ("derive-r", "--order-bound", "-5"),
    ("twist", "--builtin", "paper3d", "--n-max", str(cli.TWIST_N_MAX + 1)),
    ("twist", "--builtin", "paper3d", "--trials", str(cli.TWIST_TRIALS_MAX + 1)),
    ("noise-sweep", "--builtin", "paper3d", "--trials", str(cli.NOISE_TRIALS_MAX + 1)),
    ("derive-r", "--order-bound", str(cli.ORDER_BOUND_MAX + 1)),
    ("noise-sweep", "--builtin", "paper3d", "--noise-d", str(2 ** 63)),
    ("simulate", "--builtin", "paper3d", "--L", str(cli.CHAIN_L_MAX + 1)),
    ("noise-sweep", "--builtin", "paper3d", "--L", "20"),  # the sweep has no chain
    ("noise-sweep", "--builtin", "paper3d", "--noise-l", str(cli.NOISE_L_MAX + 1)),
    # --tol is checked as it is parsed, before the missing subcommand
    ("--tol", "nan"),
    ("--tol", "inf"),
    ("--tol", "-1"),
])
def test_out_of_range_number_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    # the error line itself names the flag, not just the usage line above it
    assert argv[-2] in err.splitlines()[-1] and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("twist", "--builtin", "paper3d", "--trials", "10"),
    ("derive-r",),
    ("gauge-check",),
])
def test_negative_seed_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "--seed", "-1", *argv)
    assert code == 2 and out == ""
    assert "--seed" in err and "Traceback" not in err


# odd JSON values: out of range, huge, non-finite, non-integer, wrong type
ODD = st.one_of(
    st.integers(-2, 10), st.integers(), st.floats(), st.text(max_size=3),
    st.none(), st.booleans(), st.lists(st.integers(0, 3), max_size=2),
)
INDEX = st.one_of(st.integers(0, 9), ODD)
VALUE = st.one_of(st.sampled_from((0.0, 1.0, -1.0, 0.5)), ODD)
ROW = st.one_of(st.tuples(INDEX, INDEX, INDEX, INDEX, VALUE, VALUE).map(list),
                st.lists(ODD, max_size=7), ODD)
R_JSON = st.one_of(
    st.fixed_dictionaries({"m": st.one_of(st.integers(1, 4), ODD),
                           "entries": st.one_of(st.lists(ROW, max_size=12), ODD)}),
    ODD,
)


@settings(max_examples=60, deadline=None)
@given(data=R_JSON)
def test_verify_r_survives_any_json(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "r.json"
    path.write_text(json.dumps(data))
    err = StringIO()
    with redirect_stdout(StringIO()), redirect_stderr(err):
        code = cli.main(["verify-r", "--input", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


class TestGaugeCheck:
    @pytest.mark.parametrize("group", ("Z2", "S3"))
    def test_passes(self, capsys, group):
        code, payload, _ = run_json(capsys, "gauge-check", "--group", group)
        assert code == 0
        assert payload["passed"] is True
        assert payload["projector_residuals"]["idempotence"] <= 1e-10
        vexc = payload["wilson_endpoint_expectations"]
        assert vexc[0] < 1 and vexc[3] < 1
        assert payload["deformation_deviation"] <= 1e-10

    def test_unknown_group(self, capsys):
        code, _, err = run(capsys, "gauge-check", "--group", "A5")
        assert code == 2 and "unknown group" in err

    def test_unknown_patch(self, capsys):
        code, _, err = run(capsys, "gauge-check", "--patch", "3x3")
        assert code == 2

    def test_ladder_passes(self, capsys):
        code, payload, _ = run_json(capsys, "gauge-check", "--patch", "ladder")
        assert code == 0 and payload["passed"] is True
        assert payload["manifest"]["config"]["patch"] == "ladder"
        assert len(payload["ground_state_expectations"]["plaquettes"]) == 2
        vexc = payload["wilson_endpoint_expectations"]
        # the line runs v0 -> v1 -> v2: only its endpoints are excited
        assert vexc[0] < 1 - 1e-6 and vexc[2] < 1 - 1e-6
        assert all(abs(vexc[v] - 1) <= 1e-10 for v in (1, 3, 4, 5))

    def test_ladder_cap(self, capsys, monkeypatch):
        # solving both closing edges builds 8^5 ground-state rows for D4 on
        # the ladder, under the 10^6 cap; gamma128 would build 128^5
        supports = []

        def ground_state(*args, **kwargs):
            g0 = solve(*args, **kwargs)
            supports.append(len(g0.codes))
            return g0

        solve = cli.gauge_sim.ground_state
        monkeypatch.setattr(cli.gauge_sim, "ground_state", ground_state)
        code, payload, _ = run_json(capsys, "gauge-check", "--group", "D4", "--patch", "ladder")
        assert code == 0 and payload["passed"] is True
        assert supports == [8 ** 5]
        code, out, err = run(capsys, "gauge-check", "--group", "gamma128", "--patch", "ladder")
        assert code == 1 and out == ""
        assert "would enumerate 34359738368 configurations (cap 1000000)" in err

    def test_oversized_group_fails_before_projector_checks(self, capsys, monkeypatch):
        # gamma128 on the 2x2 patch would build 128^3 ground-state rows (one
        # closing edge solved): the cap refuses it before any projector check runs
        def never(*args, **kwargs):
            raise AssertionError("commutator_residuals ran before the ground-state cap")

        monkeypatch.setattr(cli.gauge_sim, "commutator_residuals", never)
        code, out, err = run(capsys, "gauge-check", "--group", "gamma128")
        assert code == 1 and out == ""
        assert "would enumerate 2097152 configurations (cap 1000000)" in err


def test_usage_error_exit_code(capsys):
    assert cli.main(["no-such-command"]) == 2
    assert cli.main([]) == 2


def test_cli_import_leaves_sympy_out():
    import parastat

    src = Path(parastat.__file__).resolve().parents[1]
    probe = "import sys, parastat.cli; print('sympy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_gauge_path_leaves_numpy_ma_out():
    # plain np.unique imports numpy.ma; the gauge path and the group tables avoid it
    import parastat

    src = Path(parastat.__file__).resolve().parents[1]
    probes = (
        "import contextlib, io, sys, parastat.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['gauge-check', '--group', 'D4'])\n"
        "print(code, 'numpy.ma' in sys.modules)",
        "import sys, parastat.group_engine as ge\n"
        "ge.enumerate_group(ge.gamma_presentation())\n"
        "print(0, 'numpy.ma' in sys.modules)",
    )
    for probe in probes:
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "0 False"


def test_closed_stdout_exits_without_traceback():
    import parastat

    src = Path(parastat.__file__).resolve().parents[1]
    read, write = os.pipe()
    os.close(read)  # the reader is gone before anything is written
    try:
        done = subprocess.run([sys.executable, "-m", "parastat.cli", "verify-r",
                               "--builtin", "paper3d"], stdout=write, stderr=subprocess.PIPE,
                              text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    finally:
        os.close(write)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr and "BrokenPipeError" not in done.stderr


@pytest.mark.parametrize("name", ("missing.json", ".", "enumeration_fixtures.json"))
def test_unusable_presentation_exits_cleanly(capsys, name):
    path = Path(__file__).parent / name
    code, out, err = run(capsys, "derive-r", "--presentation", str(path))
    assert code in (1, 2) and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("data, error", (
    ({"generators": "ab", "relations": ["aaa", "bb", "abab"]}, "JSON arrays"),
    ({"generators": ["a", "b"], "relations": "aabb"}, "JSON arrays"),
    ({"generators": ["a", "b"], "relations": ["aaa", "bb", "abab"]}, "JSON arrays"),
    ({"generators": ["a", "a"], "relations": [["a", "a"]]}, "duplicate generator"),
))
def test_malformed_presentation_exits_1(capsys, tmp_path, data, error):
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "derive-r", "--presentation", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and error in err and "Traceback" not in err


# argv fuzzing: every subcommand with odd, huge, out-of-range or missing values
TESTS_DIR = Path(__file__).parent
SMALL = st.integers(-3, 40).map(str)
ODD_TEXT = st.sampled_from(("", "x", "1.5", "-", "nan", "inf", "0x1f", "1e3", "--", "٣"))
HUGE = st.sampled_from([str(n) for n in (10 ** 20, 2 ** 63, cli.TWIST_TRIALS_MAX + 1,
                                          cli.NOISE_TRIALS_MAX + 1, cli.ORDER_BOUND_MAX + 1,
                                          cli.CHAIN_L_MAX + 1, cli.NOISE_L_MAX + 1)])
NUMBER = st.one_of(SMALL, ODD_TEXT, HUGE)
SHORT = st.one_of(SMALL, ODD_TEXT)  # flags whose cost grows with the value
BOUNDED = st.one_of(SHORT, HUGE)  # costly flags with an upper bound: small or past it
PROBABILITY = st.sampled_from(("0", "0.5", "1", "-0.1", "1.5", "nan", "x"))
PATH = st.sampled_from([str(TESTS_DIR / n) for n in
                        ("missing.json", ".", "enumeration_fixtures.json", "conftest.py")])
R_SOURCE = [("--builtin", st.sampled_from(("paper2d", "paper3d", "trivial2", "trivial9",
                                           "braid-fixture", "nope", ""))),
            ("--input", PATH)]
GLOBAL_FLAGS = [("--seed", NUMBER),
                ("--tol", st.sampled_from(("1e-9", "0", "-1", "nan", "inf", "x"))),
                ("--format", st.sampled_from(("json", "csv", "xml")))]
SUBCOMMAND_FLAGS = {
    "verify-r": R_SOURCE,
    "derive-r": [("--presentation", PATH), ("--order-bound", NUMBER)],
    "simulate": R_SOURCE + [("--a", SHORT), ("--b", SHORT), ("--L", BOUNDED),
                            ("--r0", SHORT), ("--all-pairs", None)],
    "twist": R_SOURCE + [("--n-max", NUMBER), ("--trials", BOUNDED)],
    "noise-sweep": R_SOURCE + [("--p", PROBABILITY), ("--trials", BOUNDED),
                               ("--noise-d", NUMBER), ("--noise-l", BOUNDED)],
    "gauge-check": [("--group", st.sampled_from(("Z2", "S3", "D4", "A5", "z2", ""))),
                    ("--patch", st.sampled_from(("2x2", "ladder", "3x3", "")))],
}


@st.composite
def argvs(draw):
    def flags(options):
        out = []
        for flag, value in options:
            if draw(st.booleans()):
                out += [flag] if value is None else [flag, draw(value)]
        return out

    command = draw(st.sampled_from(sorted(SUBCOMMAND_FLAGS)))
    return flags(GLOBAL_FLAGS) + [command] + flags(SUBCOMMAND_FLAGS[command])


@settings(max_examples=60, deadline=None)
@given(argv=argvs())
def test_cli_survives_any_argv(argv):
    err = StringIO()
    with redirect_stdout(StringIO()), redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
