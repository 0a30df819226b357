"""Tests for the command-line interface: exit codes, formats, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewplanes import domains
from skewplanes.cli import IDEAL_LABELS, _table_parse, build_parser, main
from skewplanes.count import formula_x2d, projective_size
from skewplanes.families import FAMILY_BUILDERS, build_char_two_maps
from skewplanes.reporting import BudgetExceeded, strip_timing
from skewplanes.verify import CHECKS, Check
from test_golden_outputs import RUNS
from test_readme import readme_cli_examples


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


@pytest.mark.parametrize("family", ["char2", "g"])
@pytest.mark.parametrize("char", [4, 8, 16])
def test_dump_char2_maps_over_extension_fields(capsys, family, char):
    # GF(2^m) has characteristic 2: its maps dump like GF(2)'s
    for n, d in [(1, 1), (2, 2)]:
        code, out, err = run_cli(["families", "dump", "--family", family, "--n", str(n),
                                  "--d", str(d), "--char", str(char)], capsys)
        data = build_char_two_maps(n, d, domains.field_create(*domains.prime_power(char)))
        assert (code, err) == (0, "")
        assert out == (f"P = {data['P'].to_text()}\nQ = {data['Q'].to_text()}\n"
                       f"{data['g'].to_text()}\n")


def test_dump_char2_maps_refuse_odd_char(capsys):
    code, out, err = run_cli(["families", "dump", "--family", "char2", "--char", "9"], capsys)
    assert (code, out) == (5, "")
    assert err == ("error: only the hypersurface itself dumps over char 9; "
                   "maps are characteristic-0 constructions\n")


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


def test_verify_membership_honours_budget(capsys):
    # phibar(1, 1) into X(1, 1): a residual of degree 3 * 4 in 3 variables,
    # C(14, 2) = 91 dense monomials.  The suite is refused at its first
    # check, line_factorization, charged 9472
    code, out, err = run_cli(["verify", "--n", "1", "--d", "1", "--budget", "1"], capsys)
    assert code == 4 and out == "" and "line_factorization: pencil" in err
    argv = ["verify", "--check", "membership", "--n", "1", "--d", "1"]
    code, out, err = run_cli(argv + ["--budget", "1"], capsys)
    assert code == 4 and out == "" and "membership" in err and "91 monomials" in err
    assert run_cli(argv + ["--budget", "91"], capsys)[0] == 0
    assert run_cli(argv + ["--budget", "90"], capsys)[0] == 4
    # at (6, 6), C(194, 12) monomials: refused before substituting
    t0 = time.perf_counter()
    code, out, err = run_cli(["verify", "--check", "membership", "--n", "6", "--d", "6"], capsys)
    assert code == 4 and out == "" and "4193002458968329488 monomials" in err
    assert time.perf_counter() - t0 < 10


def test_verify_singular_locus_honours_budget(capsys):
    # at (2, 1): 316 coefficient products on the 2 planes, and the
    # generic-point sampler over F_13 with 338 block points, 169 histogram
    # cells and 169 + 50 * 338 unranking cells
    argv = ["verify", "--check", "singular_locus", "--n", "2", "--d", "1"]
    code, out, err = run_cli(argv + ["--budget", "17891"], capsys)
    assert code == 4 and out == ""
    assert "316 coefficient products on the planes and 17576 sampler cells over GF(13) " \
           "cost 17892" in err
    assert run_cli(argv + ["--budget", "17892"], capsys)[0] == 0


def test_verify_singular_locus_refuses_n20_d2(capsys):
    # 2^20 planes of about 4 * 10^4 coefficient products each: refused at
    # once, where the plane minors alone fit the default budget
    t0 = time.perf_counter()
    code, out, err = run_cli(["verify", "--check", "singular_locus", "--n", "20", "--d", "2"],
                             capsys)
    assert code == 4 and out == "" and "singular_locus" in err
    assert time.perf_counter() - t0 < 10


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3)])
def test_verify_singular_locus_fits_default_budget(capsys, n, d):
    code, _, _ = run_cli(["verify", "--check", "singular_locus", "--n", str(n), "--d", str(d)],
                         capsys)
    assert code == 0


def test_verify_singular_locus_at_n4(capsys):
    # P^8(F_13) has 8.8 * 10^8 points; the generic points are unranked
    t0 = time.perf_counter()
    code, out, _ = run_cli(["verify", "--check", "singular_locus", "--n", "4", "--d", "1",
                            "--format", "json"], capsys)
    assert code == 0 and time.perf_counter() - t0 < 10
    (record,) = json.loads(out)["records"]
    assert record["pass"] and record["params"]["generic_pool"] == 5079360


@pytest.mark.parametrize("n,d", [(2, 1), (1, 3)])
def test_verify_suites_pass_under_default_budget(capsys, n, d):
    code, out, _ = run_cli(["verify", "--n", str(n), "--d", str(d)], capsys)
    assert code == 0 and "[FAIL]" not in out


def test_verify_unknown_check(capsys):
    code, _, err = run_cli(["verify", "--check", "bogus"], capsys)
    assert code == 5


def test_verify_singular_locus_rejects_n1(capsys):
    code, _, err = run_cli(
        ["verify", "--check", "singular_locus", "--n", "1"], capsys
    )
    assert code == 5


def test_verify_budget_exceeded_is_exit_4(capsys):
    # line_factorization at (4, 1) is charged 34480
    code, _, err = run_cli(
        ["verify", "--check", "line_factorization", "--n", "4", "--d", "1", "--budget", "34479"],
        capsys,
    )
    assert code == 4 and "line_factorization: pencil" in err


@pytest.mark.parametrize("n, d", [(4, 1), (1, 4)])
def test_verify_line_factorization_past_n_d_3(capsys, n, d):
    # a cap of n, d <= 3 refused these with exit 4; they take a few ms
    code, out, _ = run_cli(["verify", "--check", "line_factorization", "--n", str(n),
                            "--d", str(d)], capsys)
    assert code == 0 and out.startswith("[PASS] line_factorization")


def test_verify_line_factorization_refused_before_building(capsys, monkeypatch):
    from skewplanes import verify as verify_module

    def refuse(n, d):
        raise AssertionError("built the line pencil")
    monkeypatch.setattr(verify_module, "build_line_pencil", refuse)
    t0 = time.perf_counter()
    code, out, err = run_cli(["verify", "--check", "line_factorization", "--n", "1000",
                              "--d", "1000"], capsys)
    assert code == 4 and out == "" and "line_factorization: pencil of 1001 blocks" in err
    assert time.perf_counter() - t0 < 1


def test_verify_failure_exit_code(capsys, monkeypatch):
    from skewplanes.reporting import VerificationResult

    def fake(n, d, seed, budget):
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


@pytest.mark.parametrize("q, d", [(13, 2), (7, 2), (13, 50)])
def test_count_y0_where_the_simple_points_do_not_split(capsys, q, d):
    # only the F_q-roots of x^(2d+1) = -1 are points, here fewer than 2d + 1
    code, out, _ = run_cli(["count", "--family", "Y0", "--q", str(q), "--d", str(d),
                            "--format", "json"], capsys)
    record = json.loads(out)["records"][0]
    roots = sum(1 for a in range(q) if pow(a, 2 * d + 1, q) == q - 1)
    assert code == 0 and record["match"] is True and record["split"] is False
    assert record["simple_points"] == record["expected_simple"] == roots < 2 * d + 1


def test_count_y0_refuses_shared_tangent(capsys, monkeypatch):
    # a shared tangent means the product of orders may overcount
    from skewplanes import count as count_module

    real = count_module.local_multiplicity
    monkeypatch.setattr(count_module, "local_multiplicity",
                        lambda gens: {**real(gens), "shared_tangent": True})
    code, out, _ = run_cli(["count", "--family", "Y0", "--d", "1", "--q", "7",
                            "--format", "json"], capsys)
    assert code == 2 and json.loads(out)["records"][0]["match"] is False


def test_count_y0_honours_budget(capsys):
    # Y0 is counted as Y(1, 1): over F_7 its pair and u0 blocks and the
    # field's table are charged 141
    argv = ["count", "--family", "Y0", "--d", "1", "--q", "7"]
    code, out, err = run_cli(argv + ["--budget", "140"], capsys)
    assert code == 4 and out == "" and "'blocks' on 1 pair blocks" in err and "141" in err
    assert run_cli(argv + ["--budget", "141"], capsys)[0] == 0


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


def test_count_refuses_wide_q_before_factoring(capsys):
    # 2^61 - 1 is prime; trial division up to its square root would not end
    code, out, err = run_cli(
        ["count", "--family", "X", "--q", str(2 ** 61 - 1)], capsys
    )
    assert code == 5 and out == "" and "exceeds the supported width" in err


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


@pytest.mark.parametrize("terms,brute", [
    # x0 - x0 is the zero form: every point of P^2(F_5)
    ([[1, [1, 0, 0]], [-1, [1, 0, 0]]], 31),
    # 5 x0 vanishes over F_5, leaving the smooth conic x0^2 + x2^2
    ([[1, [2, 0, 0]], [1, [0, 0, 2]], [5, [1, 0, 0]]], 11),
])
def test_count_custom_adds_terms_and_drops_zero_coefficients(tmp_path, capsys, terms, brute):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"vars": ["x0", "x1", "x2"], "polys": [terms]}))
    code, out, _ = run_cli(["count", "--family", "custom", "--q", "5",
                            "--poly-file", str(path), "--format", "json"], capsys)
    assert code == 3 and json.loads(out)["records"][0]["brute"] == brute


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


def test_count_x_n3_large_prime_by_line_orbits(capsys):
    # X(3, 1) over F_10007: 10007 = 5 mod 6 and gcd(3, 10006) = 1, so the
    # count is |P^6|; each block is evaluated on 10008 lines, not 10007^2 points
    code, out, _ = run_cli(["count", "--family", "X", "--n", "3", "--d", "1",
                            "--q", "10007", "--format", "json"], capsys)
    rec = json.loads(out)["records"][0]
    assert code == 0 and rec["engine"] == "blocks"
    assert rec["brute"] == rec["formula"] == (10007 ** 7 - 1) // 10006


def test_count_y_pencil_at_large_prime(capsys):
    # Y(2, 1) over F_233 is counted from the 234 members of its pencil;
    # P^4(F_233) has 2.9 * 10^9 points, over the default budget
    code, out, _ = run_cli(["count", "--family", "Y", "--n", "2", "--d", "1",
                            "--q", "233", "--format", "json"], capsys)
    rec = json.loads(out)["records"][0]
    assert code == 0 and rec["engine"] == "blocks"
    assert rec["brute"] == rec["formula"] == 54523


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("q", [2048, 2187, 2401, 3125, 4096])
def test_count_x_over_extension_fields_past_1024(capsys, q, d):
    code, out, _ = run_cli(["count", "--family", "X", "--n", "1", "--d", str(d),
                            "--q", str(q), "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["records"][0]["brute"] == formula_x2d(q, d)
    if (q, d) == (2048, 1):
        assert formula_x2d(q, d) == 4196353


def test_count_custom_charges_the_table_before_building_it(tmp_path, capsys):
    # one variable: P^0 has one point, but the exp/log table of GF(2^30)
    # has 5 * 2^30 - 3 cells
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"vars": ["x"], "polys": [[[1, [1]]]]}))
    code, out, err = run_cli(["count", "--family", "custom", "--q", str(2 ** 30),
                              "--poly-file", str(path)], capsys)
    assert code == 4 and out == "" and f"costs {5 * 2 ** 30 - 2}" in err
    assert (2, 30) not in domains._LOG_TABLES


def test_count_custom_refuses_a_table_past_its_memory_guard(tmp_path, capsys, monkeypatch):
    # GF(2^27)'s table, 5 * 2^27 - 3 cells or 5 GiB, fits the default budget
    # but not the memory guard: refused before any work on it
    def no_build(F):
        raise AssertionError(f"table of {F.name} built")

    monkeypatch.setattr(domains, "_primitive_element", no_build)
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"vars": ["x"], "polys": [[[1, [1]]]]}))
    code, out, err = run_cli(["count", "--family", "custom", "--q", str(2 ** 27),
                              "--poly-file", str(path)], capsys)
    assert code == 4 and out == ""
    assert f"GF(2^27) has {5 * 2 ** 27 - 3} cells, over its memory guard" in err
    assert (2, 27) not in domains._LOG_TABLES


def test_parser_reused_across_calls(capsys):
    # canonical command lines are read from the flag table and build no
    # parser; the argparse parser that help and errors need is built once
    # per process, and no option leaks from one call into the next
    argv = ["count", "--family", "X", "--q", "7", "--format", "json"]
    code, out, _ = run_cli(argv + ["--budget", "5000"], capsys)
    assert code == 0 and json.loads(out)["config"]["budget"] == 5000
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and json.loads(out)["config"]["budget"] == 10 ** 9
    with pytest.raises(SystemExit) as exc:
        main(["count", "--help"])
    assert exc.value.code == 0 and "usage:" in capsys.readouterr().out
    code, out, err = run_cli(["count", "--family", "X", "--q"], capsys)
    assert code == 5 and out == "" and "--q" in err


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
    ["count", "--family", "X", "--q", "5", "--d", "1001"],
    ["heights", "--bound", "3", "--d", "10" * 15],
    ["families", "dump", "--family", "Xdelta", "--d", "3", "--delta", "1001"],
    ["count", "--family", "X", "--q", "7", "--n", "abc"],
    ["count", "--family", "X", "--n", "1"],
    ["bogus"],
    ["heights", "--bound", "2", "--out", "."],
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
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert out == ""
    if path is not None:
        # a schema error names the file it found in
        assert str(path) in err


# the flags each subcommand reads; `--shards` is accepted and ignored
FLAGS = {
    "families dump": ("--family", "--delta", "--char", "--n", "--d", "--out"),
    "verify": ("--check", "--n", "--d", "--seed", "--budget", "--out", "--format"),
    "count": ("--family", "--q", "--delta", "--poly-file", "--n", "--d", "--shards",
              "--budget", "--out", "--format"),
    "heights": ("--bound", "--mode", "--n", "--d", "--shards", "--budget", "--out",
                "--format"),
}
# a run of each subcommand that takes a few milliseconds
QUICK = {
    "families dump": ["families", "dump", "--family", "X"],
    "verify": ["verify", "--check", "cox_grading"],
    "count": ["count", "--family", "X", "--q", "5"],
    "heights": ["heights", "--bound", "2", "--mode", "direct"],
}


@pytest.mark.parametrize("command,flag,value", [
    ("families dump", "--seed", "1"), ("families dump", "--shards", "1"),
    ("families dump", "--budget", "1"), ("families dump", "--format", "text"),
    ("verify", "--shards", "1"), ("count", "--seed", "1"), ("heights", "--seed", "1"),
])
def test_unread_flags_are_rejected(capsys, command, flag, value):
    code, out, err = run_cli(QUICK[command] + [flag, value], capsys)
    assert code == 5 and out == "" and flag in err


@pytest.mark.parametrize("command", ["verify", "count", "heights"])
def test_json_config_holds_own_flags(capsys, command):
    code, out, _ = run_cli(QUICK[command] + ["--format", "json"], capsys)
    assert code in (0, 3)
    keys = {flag[2:].replace("-", "_") for flag in FLAGS[command]}
    assert set(json.loads(out)["config"]) == keys | {"command", "version"}


def test_help_exits_0(capsys):
    for argv in (["--help"], ["count", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


def _json_report(argv, capsys):
    code, out, err = run_cli(argv + ["--format", "json"], capsys)
    return code, strip_timing(json.loads(out)), err


def test_canonical_runs_build_no_parser(capsys):
    build_parser.cache_clear()
    for argv in QUICK.values():
        assert run_cli(argv, capsys)[0] in (0, 3), argv
    assert build_parser.cache_info().misses == 0


@pytest.mark.parametrize("argv", [
    ["count", "--fam", "X", "--q", "7"],
    ["count", "--family", "X", "--q=7"],
])
def test_other_forms_fall_back_to_argparse(capsys, argv):
    build_parser.cache_clear()
    assert _json_report(argv, capsys) == _json_report(
        ["count", "--family", "X", "--q", "7"], capsys)
    assert build_parser.cache_info().misses == 1


def test_negative_value_and_help_fall_back_to_argparse(capsys):
    build_parser.cache_clear()
    code, out, err = run_cli(["count", "--family", "X", "--q", "5", "--n", "-1"], capsys)
    assert (code, out, err) == (5, "", "error: --n must be at least 1, got -1\n")
    assert build_parser.cache_info().misses == 1
    build_parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        main(["count", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: skewplanes count [-h] --family")
    assert build_parser.cache_info().misses == 1


# argv grammar for the fuzz test: every subcommand with flags it reads, with
# small valid and invalid integers and garbage strings; budgets stay small so calls are fast
_GARBAGE = st.sampled_from(["", "abc", "1.5", "0x3", "-", "--", "é", "9" * 30])
_SMALL = st.one_of(st.integers(-2, 3).map(str), _GARBAGE)
_POSITIVE = st.one_of(st.sampled_from(["1", "2"]), _SMALL)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2 ** 70) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=12)


@st.composite
def _custom_doc(draw):
    """A custom-system document: mostly schema-shaped, sometimes any JSON."""
    if draw(st.booleans()):
        return draw(_JSON)
    nvars = draw(st.integers(0, 4))
    width = draw(st.sampled_from([nvars, nvars, nvars + 1]))
    term = st.tuples(st.integers(-5, 5), st.lists(st.integers(-1, 4), min_size=width,
                                                  max_size=width))
    doc = {"vars": [f"x{i}" for i in range(nvars)],
           "polys": draw(st.lists(st.lists(term.map(list), max_size=4), max_size=3))}
    if draw(st.booleans()):
        del doc[draw(st.sampled_from(["vars", "polys"]))]
    return doc


def _options(draw, required, optional):
    argv = []
    for flag, values in required:
        argv += [flag, draw(values)]
    for flag, values in optional:
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


@st.composite
def _argv(draw):
    fmt = ("--format", st.sampled_from(["json", "csv", "text", "xml"]))
    budget = ("--budget", st.one_of(st.sampled_from(["1", "60", "5000"]), _SMALL))
    command = draw(st.sampled_from(["families", "verify", "count", "heights", "junk"]))
    if command == "families":
        family = st.sampled_from(sorted(FAMILY_BUILDERS) + list(IDEAL_LABELS)
                                 + ["Xdelta", "pencil", "char2", "g", "nope"])
        return ["families", "dump"] + _options(draw, [("--family", family)], [
            ("--n", st.sampled_from(["-1", "0", "1", "2", "x"])),
            ("--d", _POSITIVE), ("--delta", _SMALL),
            ("--char", st.sampled_from(["0", "2", "3", "4", "6", "7", "z"]))])
    if command == "verify":
        return ["verify"] + _options(draw, [], [
            ("--check", st.sampled_from(["all", "nope"] + sorted(CHECKS))),
            ("--n", st.sampled_from(["-1", "0", "1", "x"])),
            ("--d", st.sampled_from(["-1", "0", "1", "2", "x"])), ("--seed", _SMALL),
            budget, fmt])
    if command == "count":
        return ["count"] + _options(draw, [
            ("--family", st.sampled_from(["X", "Y", "Xdelta", "Y0", "custom", "Z"])),
            ("--q", st.one_of(st.sampled_from(["1", "2", "4", "6", "7", "9", "13"]), _SMALL)),
        ], [
            ("--n", _POSITIVE), ("--d", _POSITIVE), ("--delta", _SMALL), ("--shards", _POSITIVE),
            ("--poly-file", st.just("CUSTOM")), budget, fmt])
    if command == "heights":
        return ["heights"] + _options(draw, [("--bound", _POSITIVE)], [
            ("--n", _POSITIVE), ("--d", _POSITIVE), ("--shards", _POSITIVE),
            ("--mode", st.sampled_from(["direct", "param", "both", "all"])), budget, fmt])
    return draw(st.lists(_GARBAGE, max_size=3))


@settings(max_examples=150, deadline=None)
@given(argv=_argv(), doc=_custom_doc())
def test_main_fuzz_exits_with_documented_code(argv, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "system.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        argv = [path if a == "CUSTOM" else a for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 2, 3, 4, 5), argv


def _assert_table_parse_agrees(argv):
    """Where the table parse accepts argv, argparse (the reference) accepts
    it too, into the same attributes."""
    args = _table_parse(argv)
    if args is not None:
        assert vars(args) == vars(build_parser().parse_args(argv)), argv
    return args


# canonical lines of every subcommand: the recorded runs, README's examples,
# and repeated flags, of which the last wins
CANONICAL = RUNS + readme_cli_examples() + [
    ["count", "--family", "Y", "--q", "5", "--family", "X", "--n", "2", "--n", "3"],
    ["families", "dump", "--family", "", "--out", "a b", "--out", "x=y"],
    ["heights", "--bound", "3", "--mode", "param", "--format", "csv", "--budget", "0"],
]


@pytest.mark.parametrize("argv", CANONICAL, ids=" ".join)
def test_table_parse_reads_canonical_lines_as_argparse_does(argv):
    assert _assert_table_parse_agrees(argv) is not None


@settings(max_examples=300, deadline=None)
@given(argv=_argv())
def test_table_parse_agrees_with_argparse(argv):
    _assert_table_parse_agrees(argv)


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
    # the direct table at B = 2 walks the (2*2 + 1)^2 = 25 pairs of [-2, 2]^2
    argv = ["heights", "--n", "1", "--d", "1", "--bound", "2", "--mode", "direct"]
    assert run_cli(argv + ["--budget", "25"], capsys)[0] == 0
    assert run_cli(argv + ["--budget", "24"], capsys)[0] == 4


def test_heights_huge_bound_prints_one_short_line(capsys):
    code, out, err = run_cli(["heights", "--mode", "param", "--bound", "9" * 30], capsys)
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and len(err) < 200


def test_heights_direct_cap(capsys):
    argv = ["heights", "--n", "1", "--d", "1", "--mode", "direct", "--format", "csv"]
    code, out, _ = run_cli(argv + ["--bound", "400"], capsys)
    assert code == 0 and out.splitlines()[-1].startswith("400,594021,")
    code, out, err = run_cli(argv + ["--bound", "401"], capsys)
    assert code == 4 and out == "" and "B <= 400" in err


def test_heights_direct_guard_weighs_d(capsys):
    # 641,601 pairs whose values reach about 19,000 bits at d = 1000
    t0 = time.perf_counter()
    code, out, err = run_cli(["heights", "--n", "1", "--d", "1000", "--mode", "direct",
                              "--bound", "400"], capsys)
    assert code == 4 and out == "" and "d = 1000" in err
    assert time.perf_counter() - t0 < 10


# ---------------------------------------------------------------------------
# process-level entry point


def _run_module(*argv):
    """`python -m skewplanes.cli argv` in a child process that imports the
    package these tests import, installed or not."""
    src = os.path.dirname(os.path.dirname(domains.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "skewplanes.cli", *argv],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))


def test_console_entry_point_runs():
    proc = _run_module("families", "dump", "--family", "X", "--n", "1", "--d", "1")
    assert proc.returncode == 0
    assert "x0^3" in proc.stdout


def test_version_flag():
    proc = _run_module("--version")
    assert proc.returncode == 0


# ---------------------------------------------------------------------------
# the builders' memory guard


@pytest.fixture
def no_family_forms(monkeypatch):
    # a refused build must not start: the variables every builder makes
    # first, and the forms they expand, raise
    from skewplanes import families

    def refuse(*args, **kwargs):
        raise AssertionError("started the build")
    for name in ("_v", "_vars", "x_form", "ab_form", "phibar_blocks"):
        monkeypatch.setattr(families, name, refuse)


@pytest.mark.parametrize("argv, wording", [
    # (n + 1)(2d + 2)(2n + 2) exponent cells for X and Xdelta's
    # (n + 1)(delta(d - 1) + 2)(2n + 2); 2(1 + n(2d + 2))(2n + 1) for (A, B),
    # and (n + 1)(2d + 5)^2 (2n + 1) for the line pencil
    (["families", "dump", "--family", "X", "--n", "1000", "--d", "1000"],
     "X(1000, 1000) has up to 4012012004 exponent cells"),
    (["families", "dump", "--family", "Xdelta", "--n", "100", "--d", "997", "--delta", "10"],
     "Xdelta(100, 997, 10) has up to 203244724 exponent cells"),
    (["families", "dump", "--family", "AB", "--n", "1000", "--d", "1000"],
     "(A, B) of Y(1000, 1000) has up to 8012008002 exponent cells"),
    (["families", "dump", "--family", "pencil", "--n", "1000", "--d", "1000"],
     "the line pencil of X(1000, 1000) has up to 8052114095025 exponent cells"),
    (["families", "dump", "--family", "pencil", "--n", "300", "--d", "50"],
     "the line pencil of X(300, 50) has up to 1994433525 exponent cells"),
    (["families", "dump", "--family", "AB", "--n", "300", "--d", "1000"],
     "(A, B) of Y(300, 1000) has up"),
    (["families", "dump", "--family", "X", "--char", "2", "--n", "400", "--d", "300"],
     "X(400, 300) has up"),
    # (2n + 2) 2(1 + n(2d + 2))(2n + 1) for phibar, 3 n(2d + 3)^2 (2n + 1) for
    # (D, N, M), (2n + 2) 6n(2d + 3)^2 (2n + 1) for phitilde and
    # (2n + 4) 3(1 + n(2d + 2))(2n + 1) for the char-2 maps
    (["families", "dump", "--family", "phibar", "--n", "1000", "--d", "1"],
     "phibar(1000, 1) has up to 32056028004 exponent cells"),
    (["families", "dump", "--family", "phibar", "--n", "100", "--d", "100"],
     "phibar(100, 100) has up to 1640402004 exponent cells"),
    (["families", "dump", "--family", "dnm", "--n", "1000", "--d", "1"],
     "(D, N, M) of (1000, 1) has up to 150075000 exponent cells"),
    (["families", "dump", "--family", "dnm", "--n", "100", "--d", "100"],
     "(D, N, M) of (100, 100) has up to 2484902700 exponent cells"),
    (["families", "dump", "--family", "phitilde", "--n", "1000", "--d", "1"],
     "phitilde(1000, 1) has up to 600900300000 exponent cells"),
    (["families", "dump", "--family", "phitilde", "--n", "100", "--d", "100"],
     "phitilde(100, 100) has up"),
    (["families", "dump", "--family", "char2", "--char", "2", "--n", "1000", "--d", "1"],
     "the char-2 (P, Q, g) of (1000, 1) has up to 48132078012 exponent cells"),
    (["families", "dump", "--family", "g", "--char", "4", "--n", "100", "--d", "100"],
     "the char-2 (P, Q, g) of (100, 100) has up"),
    # (n + 1)^2 3 (2n + 2), (n^2 + 1) 2 (2n + 1), (n^2 + n + 3) 3 (2n + 1)
    # and (n^2 - n + 4) 2 (2n + 1) for the ideals Hpm, Zpm, T and U
    (["families", "dump", "--family", "Hpm", "--n", "1000"],
     "the ideal Hpm at n = 1000 has up to 6018018006 exponent cells"),
    (["families", "dump", "--family", "Zpm", "--n", "1000", "--char", "7"],
     "the ideal Zpm at n = 1000 has up to 4002004002 exponent cells"),
    (["families", "dump", "--family", "T", "--n", "1000"],
     "the ideal T at n = 1000 has up to 6009021009 exponent cells"),
    (["families", "dump", "--family", "U", "--n", "1000"],
     "the ideal U at n = 1000 has up to 3998014008 exponent cells"),
])
def test_builds_past_the_memory_guard_exit_4(no_family_forms, capsys, argv, wording):
    t0 = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - t0 < 1
    assert code == 4 and out == ""
    assert f"budget exceeded: {wording}" in err and "memory guard of 134217728" in err


@pytest.mark.parametrize("argv, formula, seconds", [
    # past the memory guard as systems, counted from their pair forms in
    # about 17 ms, 0.1 s and 13 ms on a 2-core host; Y(2, 1) over F_1031,
    # past q = 1024, in about 0.1 s on the block engine alone
    (["--family", "X", "--q", "101", "--n", "1000", "--d", "1000"], projective_size(101, 2000),
     1),
    (["--family", "Y", "--q", "101", "--n", "200", "--d", "200"], projective_size(101, 398), 2),
    (["--family", "Xdelta", "--q", "101", "--n", "100", "--d", "997", "--delta", "10"],
     projective_size(101, 200), 1),
    (["--family", "Y", "--q", "1031", "--n", "2", "--d", "1"], 1063993, 2),
])
def test_large_family_counts_answer_without_building(no_family_forms, monkeypatch, capsys,
                                                     argv, formula, seconds):
    from skewplanes import count as count_module

    def refuse(*args, **kwargs):
        raise AssertionError("scanned the family")
    monkeypatch.setattr(count_module, "_scan", refuse)
    monkeypatch.setattr(count_module, "count_system_chart", refuse)
    t0 = time.perf_counter()
    code, out, _ = run_cli(["count", *argv, "--format", "json"], capsys)
    assert time.perf_counter() - t0 < seconds
    rec = json.loads(out)["records"][0]
    assert code == 0 and rec["engine"] == "blocks"
    assert rec["brute"] == rec["formula"] == formula and rec["match"] is True


def test_memory_guard_admits_x_300_300(monkeypatch):
    # X(300, 300), 1.09 * 10^8 cells, ran in 10.5 s over F_4: admitted
    from skewplanes import families

    monkeypatch.setattr(families, "x_form", lambda x, d, k=3: "built")
    assert families.build_x(300, 300) == "built"
    families._guard_cells("X", 1, families.CELLS_MAX, 1)
    with pytest.raises(BudgetExceeded, match="134217729 exponent cells"):
        families._guard_cells("X", 1, families.CELLS_MAX + 1, 1)
