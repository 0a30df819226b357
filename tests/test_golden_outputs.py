"""Byte-level determinism against recorded outputs.

Each CLI run of a fixed grid is reduced to one sha256: its exit code, its
stdout (a JSON report after `reporting.strip_timing`, re-serialized as
`to_json` does) and its stderr.  `golden_outputs.json` holds the hashes; a
change that means to alter an output re-records them with

    PYTHONPATH=src python tests/test_golden_outputs.py

and says which runs changed and why.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from skewplanes.cli import main
from skewplanes.reporting import strip_timing

GOLDEN = Path(__file__).with_name("golden_outputs.json")

DUMP_NAMES = ("X", "Xdelta", "AB", "phibar", "theta", "h", "cremona", "dnm", "alphabeta",
              "phitilde", "SD", "cox", "pencil", "char2", "g",
              "Hpm", "Z", "Zpm", "Y", "T", "U")


def _grid():
    runs = [["families", "dump", "--family", name, "--n", str(n), "--d", str(d),
             "--char", str(char)]
            for name in DUMP_NAMES for n in (1, 2) for d in (1, 2) for char in (0, 2, 7, 9)]
    runs += [["verify", "--n", str(n), "--d", str(d)] for n, d in ((1, 1), (2, 1), (1, 3))]
    runs.append(["verify", "--check", "composition_on_x", "--n", "1", "--d", "2"])
    # the benchmark's count jobs, each Y0 field it draws from among them
    for family, q, n, d, *extra in (("X", 101, 1, 2), ("X", 211, 1, 1, "--shards", "4"),
                                    ("X", 17, 2, 1), ("X", 64, 1, 1), ("X", 121, 1, 1),
                                    ("X", 125, 1, 1), ("Y", 17, 2, 2), ("Y", 11, 3, 1)):
        runs.append(["count", "--family", family, "--q", str(q), "--n", str(n), "--d", str(d),
                     *extra])
    runs +=[["count", "--family", "Y0", "--q", str(q), "--d", "1"] for q in (31, 37, 43)]
    runs.append(["heights", "--bound", "16", "--d", "2"])
    return [run if run[0] == "families" else run + ["--format", "json"] for run in runs]


def _digest(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    text = out.getvalue()
    if "json" in argv and text:
        text = json.dumps(strip_timing(json.loads(text)), sort_keys=True, indent=2)
    return hashlib.sha256(f"{rc}\n{text}\n{err.getvalue()}".encode()).hexdigest()


RUNS = _grid()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_grid_is_recorded(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in RUNS)


@pytest.mark.parametrize("argv", RUNS, ids=" ".join)
def test_output_matches_record(golden, argv):
    assert _digest(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({" ".join(argv): _digest(argv) for argv in RUNS},
                                 indent=1, sort_keys=True) + "\n")
    sys.exit(0)
