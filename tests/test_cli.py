"""Tests for the command-line interface: exit codes, formats, determinism."""

import json
import subprocess
import sys

import pytest

from skewplanes.cli import main
from skewplanes.reporting import strip_timing
from skewplanes.verify import CHECKS, Check


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# families dump


def test_dump_x(capsys):
    code, out, _ = run_cli(
        ["families", "dump", "--family", "X", "--n", "1", "--d", "1"], capsys
    )
    assert code == 0
    assert "x0^3" in out


def test_dump_x_char2(capsys):
    code, out, _ = run_cli(
        ["families", "dump", "--family", "X", "--n", "1", "--d", "1",
         "--char", "2"], capsys
    )
    assert code == 0
    assert "x0^3" in out


def test_dump_char2_maps(capsys):
    code, out, _ = run_cli(
        ["families", "dump", "--family", "char2", "--n", "1", "--d", "1",
         "--char", "2"], capsys
    )
    assert code == 0
    assert "P = " in out and "g[0]" in out


def test_dump_ideal(capsys):
    code, out, _ = run_cli(
        ["families", "dump", "--family", "Hpm", "--n", "1", "--d", "1"], capsys
    )
    assert code == 0
    assert "x0^2" in out


def test_dump_xdelta_requires_delta(capsys):
    code, _, err = run_cli(
        ["families", "dump", "--family", "Xdelta", "--n", "1", "--d", "3"],
        capsys,
    )
    assert code == 5
    assert "--delta" in err


def test_dump_xdelta(capsys):
    code, out, _ = run_cli(
        ["families", "dump", "--family", "Xdelta", "--n", "1", "--d", "3",
         "--delta", "1"], capsys
    )
    assert code == 0
    assert "x0^3" in out


def test_dump_pencil(capsys):
    code, out, _ = run_cli(
        ["families", "dump", "--family", "pencil", "--n", "1", "--d", "1"],
        capsys,
    )
    assert code == 0
    assert "L[0]" in out and "F = " in out


def test_dump_unknown_family(capsys):
    code, _, err = run_cli(
        ["families", "dump", "--family", "nope"], capsys
    )
    assert code == 5
    assert "unknown" in err


def test_dump_maps_refuse_positive_char(capsys):
    code, _, err = run_cli(
        ["families", "dump", "--family", "theta", "--char", "7"], capsys
    )
    assert code == 5


# ---------------------------------------------------------------------------
# verify


def test_verify_all_passes(capsys):
    code, out, _ = run_cli(
        ["verify", "--check", "all", "--n", "1", "--d", "1"], capsys
    )
    assert code == 0
    assert "[PASS]" in out
    assert "[FAIL]" not in out


@pytest.mark.parametrize("name", list(CHECKS))
def test_verify_single_check(capsys, name):
    n = "2" if name == "singular_locus" else "1"  # the locus is empty at n = 1
    code, out, _ = run_cli(
        ["verify", "--check", name, "--n", n, "--d", "1", "--format", "json"],
        capsys,
    )
    assert code == 0
    records = json.loads(out)["records"]
    assert len(records) == 1 and records[0]["pass"]


def test_verify_unknown_check(capsys):
    code, _, err = run_cli(["verify", "--check", "bogus"], capsys)
    assert code == 5


def test_verify_singular_locus_rejects_n1(capsys):
    code, _, err = run_cli(
        ["verify", "--check", "singular_locus", "--n", "1"], capsys
    )
    assert code == 5


def test_verify_budget_exceeded_is_exit_4(capsys):
    code, _, err = run_cli(
        ["verify", "--check", "line_factorization", "--n", "4", "--d", "1"],
        capsys,
    )
    assert code == 4


def test_verify_failure_exit_code(capsys, monkeypatch):
    from skewplanes.reporting import VerificationResult

    def fake(n, d, seed):
        return VerificationResult(check="stub", params={}, passed=False,
                                  witness={"reason": "forced"},
                                  elapsed_ms=0.0, mode="symbolic")

    monkeypatch.setitem(CHECKS, "stub", Check(fake, lambda n, d: False))
    code, out, _ = run_cli(["verify", "--check", "stub"], capsys)
    assert code == 2
    assert "[FAIL]" in out


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(
        ["verify", "--check", "cox_grading", "--n", "1", "--d", "1",
         "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["version"] == 1
    assert "config" in doc and "records" in doc
    assert doc["config"]["check"] == "cox_grading"
    assert all(r["pass"] for r in doc["records"])


def test_verify_deterministic_json(capsys):
    argv = ["verify", "--check", "galois", "--n", "1", "--d", "1",
            "--format", "json", "--seed", "7"]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv, capsys)
    doc1 = strip_timing(json.loads(out1))
    doc2 = strip_timing(json.loads(out2))
    assert doc1 == doc2


# ---------------------------------------------------------------------------
# count


def test_count_x_match(capsys):
    code, out, _ = run_cli(
        ["count", "--family", "X", "--n", "1", "--d", "1", "--q", "5"], capsys
    )
    assert code == 0
    assert "31" in out


def test_count_y_no_formula_exit_3(capsys):
    code, out, _ = run_cli(
        ["count", "--family", "Y", "--n", "2", "--d", "1", "--q", "13"], capsys
    )
    assert code == 3
    assert "364" in out


def test_count_y0(capsys):
    code, out, _ = run_cli(
        ["count", "--family", "Y0", "--d", "1", "--q", "7"], capsys
    )
    assert code == 0


def test_count_rejects_bad_q(capsys):
    code, _, err = run_cli(
        ["count", "--family", "X", "--n", "1", "--d", "1", "--q", "6"], capsys
    )
    assert code == 5


def test_count_budget_exceeded(capsys):
    code, _, err = run_cli(
        ["count", "--family", "X", "--n", "1", "--d", "1", "--q", "1009",
         "--budget", "1000"], capsys
    )
    assert code == 4


def test_count_custom_requires_poly_file(capsys):
    code, _, err = run_cli(
        ["count", "--family", "custom", "--q", "5"], capsys
    )
    assert code == 5


def test_count_custom_poly_file(tmp_path, capsys):
    spec = {
        "vars": ["x", "y", "z"],
        "polys": [[[1, [3, 0, 0]], [1, [0, 3, 0]], [1, [0, 0, 3]]]],
    }
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(
        ["count", "--family", "custom", "--q", "7",
         "--poly-file", str(path)], capsys
    )
    assert code == 3  # no closed formula for custom systems
    # Fermat cubic curve over F_7: 3 rational points (7 = 1 mod 3)
    assert "9" in out or "3" in out


def test_count_json_format(capsys):
    code, out, _ = run_cli(
        ["count", "--family", "X", "--n", "1", "--d", "2", "--q", "7",
         "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    rec = doc["records"][0]
    assert rec["brute"] == 85
    assert rec["match"] is True


def test_count_csv_format(capsys):
    code, out, _ = run_cli(
        ["count", "--family", "X", "--n", "1", "--d", "1", "--q", "5",
         "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) >= 2 and "," in lines[0]


def test_count_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["count", "--family", "X", "--n", "1", "--d", "1", "--q", "5",
         "--format", "json", "--out", str(target)], capsys
    )
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["records"][0]["brute"] == 31


def test_count_shards_agree(capsys):
    argv = ["count", "--family", "X", "--n", "1", "--d", "1", "--q", "11",
            "--format", "json"]
    _, out1, _ = run_cli(argv, capsys)
    _, out8, _ = run_cli(argv + ["--shards", "8"], capsys)
    doc1, doc8 = json.loads(out1), json.loads(out8)
    assert doc1["records"][0]["brute"] == doc8["records"][0]["brute"] == 133


BAD_CUSTOM_SYSTEMS = {
    "no_polys": {"vars": ["x", "y"]},
    "exponents_too_short": {"vars": ["x", "y", "z"], "polys": [[[1, [3, 0]]]]},
    "exponent_past_int64": {"vars": ["x", "y"],
                            "polys": [[[1, [2 ** 70, 0]], [1, [0, 2 ** 70]]]]},
}


@pytest.mark.parametrize("argv", [
    ["count", "--family", "custom", "--q", "5", "--poly-file", "no_polys"],
    ["count", "--family", "custom", "--q", "5", "--poly-file", "exponents_too_short"],
    ["count", "--family", "custom", "--q", "5", "--poly-file", "exponent_past_int64"],
    ["count", "--family", "X", "--q", "5", "--n", "-1"],
    ["count", "--family", "X", "--q", "5", "--n", "0"],
    ["count", "--family", "X", "--q", "5", "--d", "0"],
    ["count", "--family", "X", "--q", "5", "--shards", "0"],
    ["count", "--family", "X", "--q", "5", "--shards", "-3"],
    ["count", "--family", "X", "--q", "5", "--budget", "0"],
    ["verify", "--n", "0"],
    ["heights", "--bound", "0"],
    ["families", "dump", "--family", "X", "--char", "6"],
    ["families", "dump", "--family", "Xdelta", "--d", "2", "--delta", "1"],
])
def test_bad_input_exits_5(tmp_path, capsys, argv):
    argv = list(argv)
    path = None
    if "--poly-file" in argv:
        i = argv.index("--poly-file") + 1
        path = tmp_path / f"{argv[i]}.json"
        path.write_text(json.dumps(BAD_CUSTOM_SYSTEMS[argv[i]]))
        argv[i] = str(path)
    code, out, err = run_cli(argv, capsys)
    assert code == 5
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""
    if path is not None:
        # a schema error names the file it found in
        assert str(path) in err


# ---------------------------------------------------------------------------
# heights


def test_heights_basic(capsys):
    code, out, _ = run_cli(
        ["heights", "--n", "1", "--d", "1", "--bound", "5"], capsys
    )
    assert code == 0
    assert "117" in out  # direct count at B = 5


def test_heights_rejects_n2(capsys):
    code, _, err = run_cli(
        ["heights", "--n", "2", "--d", "1", "--bound", "5"], capsys
    )
    assert code == 5


def test_heights_csv(capsys):
    code, out, _ = run_cli(
        ["heights", "--n", "1", "--d", "1", "--bound", "4",
         "--mode", "direct", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5  # header + 4 bounds


def test_heights_json_deterministic(capsys):
    argv = ["heights", "--n", "1", "--d", "1", "--bound", "3",
            "--format", "json"]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv, capsys)
    assert strip_timing(json.loads(out1)) == strip_timing(json.loads(out2))


def test_heights_budget(capsys):
    code, _, err = run_cli(
        ["heights", "--n", "1", "--d", "1", "--bound", "1000"], capsys
    )
    assert code == 4


def test_heights_honours_budget_flag(capsys):
    code, out, err = run_cli(
        ["heights", "--n", "1", "--d", "1", "--bound", "3", "--budget", "1"], capsys
    )
    assert code == 4
    assert "budget" in err and out == ""
    # the direct scan at B = 2 visits 2*125 + 2*25 + 2*5 + 2 = 312 tuples
    argv = ["heights", "--n", "1", "--d", "1", "--bound", "2", "--mode", "direct"]
    assert run_cli(argv + ["--budget", "312"], capsys)[0] == 0
    assert run_cli(argv + ["--budget", "311"], capsys)[0] == 4


# ---------------------------------------------------------------------------
# process-level entry point


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "skewplanes.cli", "families", "dump",
         "--family", "X", "--n", "1", "--d", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "x0^3" in proc.stdout


def test_version_flag():
    proc = subprocess.run(
        [sys.executable, "-m", "skewplanes.cli", "--version"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
