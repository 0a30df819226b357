"""The benchmark's workloads: the jobs one round runs, made from the seed,
and the check that compares each job's output with the oracles.

A job is either one in-process `skewplanes.cli.main(argv)` call (`"cli"`)
or one public library call (`"call"`) where the CLI cannot express it: a
single height row, one parametrized count, or a negative control.
The seed changes only things that leave the work per round the same: job
order, shard counts, sampling seeds, the Y0 field, and the bound of the
parametrized count inside one input-height band.
"""

from __future__ import annotations

import json
import random
from collections import Counter

import oracles

WORKLOADS = ("count", "heights", "verify")

# Jobs that fail every round because of a fault in the program; they are
# counted in `failed` without making the run incorrect.
KNOWN_FAULTS = {
    # kernels._height_scan_* evaluates f in int64, which wraps once
    # 2B * (3B^2)^9 >= 2^63: rows B = 16..20 of this table come out wrong.
    "heights_table_d9",
}


# Share of each workload's time spent in numpy array code (the count and
# height kernels); the rest is interpreter-bound.  run.speed_factor weights
# the two reference loops by it.  The traced runs show the split, and a trial
# that timed both loops around every job chose these values (see README).
NUMPY_SHARE = {"count": 1.0, "heights": 0.5, "verify": 0.0}


class Job:
    def __init__(self, job_id, spec, check):
        self.id = job_id
        self.spec = dict(spec, id=job_id)
        self.check = check   # output -> None when correct, else a reason


def make_jobs(workload, seed):
    rng = random.Random(seed)
    jobs = {"count": _count_jobs, "heights": _heights_jobs,
            "verify": _verify_jobs}[workload](rng, seed)
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# helpers for checks


def _cli_doc(out):
    if "error" in out:
        return None, f"raised {out['error']}"
    if out["rc"] != 0:
        return None, f"exit code {out['rc']}: {out.get('stderr', '').strip()[:200]}"
    try:
        return json.loads(out["stdout"]), None
    except ValueError:
        return None, "report is not JSON"


def _call_value(out):
    if "error" in out:
        return None, f"raised {out['error']}"
    return out["value"], None


def _cli(*argv):
    return {"cli": [str(a) for a in argv] + ["--format", "json"]}


# ---------------------------------------------------------------------------
# count


def _check_brute(expected):
    def check(out):
        doc, err = _cli_doc(out)
        if err:
            return err
        brute = doc["records"][0]["brute"]
        return None if brute == expected else f"brute {brute} != oracle {expected}"
    return check


def _check_y0(q, d):
    closed = oracles.y0_closed(q, d)
    scanned_simple = oracles.y0_solutions(q, d) - 2
    if scanned_simple != closed["simple"]:
        raise AssertionError(f"Y0 oracles disagree at q={q}, d={d}")

    def check(out):
        doc, err = _cli_doc(out)
        if err:
            return err
        rec = doc["records"][0]
        mults = [p["multiplicity"] for p in rec["multiple_points"]]
        got = {"multiplicity": mults, "simple": rec["simple_points"],
               "split": rec["split"], "weighted_total": rec["weighted_total"]}
        want = dict(closed, multiplicity=[closed["multiplicity"]] * 2)
        return None if got == want and rec["match"] else f"Y0 {got} != {want}"
    return check


def _count_jobs(rng, seed):
    jobs = []
    for q, n, d, extra in ((101, 1, 2, ()),
                           (211, 1, 1, ("--shards", rng.randint(4, 12))),
                           (17, 2, 1, ())):
        jobs.append(Job(f"count_X_q{q}_n{n}_d{d}",
                        _cli("count", "--family", "X", "--q", q, "--n", n, "--d", d, *extra),
                        _check_brute(oracles.x_count_prime(q, n, d))))
    for q in (64, 121, 125):
        jobs.append(Job(f"count_X_q{q}_n1_d1",
                        _cli("count", "--family", "X", "--q", q, "--n", 1, "--d", 1),
                        _check_brute(oracles.x_count_n1_closed(q, 1))))
    for q, n, d in ((17, 2, 2), (11, 3, 1)):
        expected = oracles.y_count_closed(q, n, d)
        if expected != oracles.y_count_prime(q, n, d):
            raise AssertionError(f"Y oracles disagree at q={q}, n={n}, d={d}")
        jobs.append(Job(f"count_Y_q{q}_n{n}_d{d}",
                        _cli("count", "--family", "Y", "--q", q, "--n", n, "--d", d),
                        _check_brute(expected)))
    q = rng.choice((31, 37, 43))
    jobs.append(Job("count_Y0", _cli("count", "--family", "Y0", "--q", q, "--d", 1),
                    _check_y0(q, 1)))
    return jobs


# ---------------------------------------------------------------------------
# heights


def _check_table(d, bound):
    direct = oracles.direct_height_counts(d, bound)

    def check(out):
        doc, err = _cli_doc(out)
        if err:
            return err
        rows = doc["records"]
        if [r["bound"] for r in rows] != list(range(1, bound + 1)):
            return "rows do not cover B = 1..bound"
        bad = []
        for r in rows:
            B = r["bound"]
            param, skips = oracles.parametrized_count(d, B)
            if r["direct"] != direct[B]:
                bad.append(f"B={B}: direct {r['direct']} != {direct[B]}")
            if (r["parametrized"], r["skips"]) != (param, skips):
                bad.append(f"B={B}: parametrized {r['parametrized']} != {param}")
            if r["parametrized"] > r["direct"]:
                bad.append(f"B={B}: parametrized exceeds direct")
        for prev, cur in zip(rows, rows[1:]):
            for key in ("direct", "parametrized"):
                if cur[key] < prev[key]:
                    bad.append(f"B={cur['bound']}: {key} decreases")
        return "; ".join(bad) or None
    return check


def _check_direct(d, B):
    expected = oracles.direct_height_counts(d, B)[B]

    def check(out):
        value, err = _call_value(out)
        if err:
            return err
        return None if value["direct"] == expected else f"direct {value['direct']} != {expected}"
    return check


def _check_param(d, B):
    expected = list(oracles.parametrized_count(d, B))

    def check(out):
        value, err = _call_value(out)
        if err:
            return err
        return None if value == expected else f"(count, skips) {value} != {expected}"
    return check


def _heights_jobs(rng, seed):
    # every B in [7^4, 8^4) draws the same inputs (height <= 7), so the
    # seed moves the output but not the work
    param_bound = rng.randrange(7 ** 4, 8 ** 4)
    shards = rng.randint(1, 4)
    return [
        Job("heights_table_d2", _cli("heights", "--bound", 16, "--d", 2, "--shards", shards),
            _check_table(2, 16)),
        Job("heights_table_d9", _cli("heights", "--bound", 20, "--d", 9),
            _check_table(9, 20)),
        Job("heights_direct_d1",
            {"call": "height_report", "kwargs": {"d": 1, "B": 24, "mode": "direct",
                                                 "shards": shards}},
            _check_direct(1, 24)),
        Job("heights_param_d1",
            {"call": "parametrized_height_count", "kwargs": {"d": 1, "B": param_bound}},
            _check_param(1, param_bound)),
    ]


# ---------------------------------------------------------------------------
# verify


def _suite_checks(n, d):
    names = ["membership", "composition", "composition", "composition_numeric",
             "composition_numeric", "linear_system_dim", "galois_symmetry",
             "galois_symmetry", "cox_grading"]
    if n <= 2 and d <= 2:
        names.append("line_factorization")
    if n >= 2:
        names.append("singular_locus")
    return Counter(names)


def _check_record(rec, n, d):
    name = rec["check"]
    if not rec["pass"]:
        return f"{name} failed: {rec.get('witness')}"
    params = rec["params"]
    if name == "linear_system_dim" and params["dimension"] != 2 * n + 2:
        return f"linear system dimension {params['dimension']} != {2 * n + 2}"
    if name == "composition_numeric" and not params.get("checked"):
        return "numeric composition checked no sample"
    if name == "singular_locus":
        pool = oracles.y_generic_pool(params["generic_field"], n, d)
        if params["generic_pool"] != pool:
            return f"singular-locus pool {params['generic_pool']} != {pool}"
    return None


def _check_suite(n, d):
    expected = _suite_checks(n, d)

    def check(out):
        doc, err = _cli_doc(out)
        if err:
            return err
        records = doc["records"]
        got = Counter(r["check"] for r in records)
        if got != expected:
            return f"checks run {dict(got)} != {dict(expected)}"
        return "; ".join(filter(None, (_check_record(r, n, d) for r in records))) or None
    return check


def _check_single(n, d):
    def check(out):
        doc, err = _cli_doc(out)
        if err:
            return err
        records = doc["records"]
        if len(records) != 1:
            return f"{len(records)} records"
        return _check_record(records[0], n, d)
    return check


def _check_negative(out):
    value, err = _call_value(out)
    if err:
        return err
    return "negative control passed" if value["pass"] else None


def _verify_jobs(rng, seed):
    # the suite at (2, 1) runs every check; (1, 3) adds a higher degree
    jobs = [Job(f"verify_suite_n{n}_d{d}", _cli("verify", "--n", n, "--d", d, "--seed", seed),
                _check_suite(n, d))
            for n, d in ((2, 1), (1, 3))]
    jobs.append(Job("verify_composition_on_x",
                    _cli("verify", "--check", "composition_on_x", "--n", 1, "--d", 2,
                         "--seed", seed),
                    _check_single(1, 2)))
    # phibar(2, 2) does not land on the degree-3 hypersurface X(2, 1)
    jobs.append(Job("verify_negative_control",
                    {"call": "membership", "kwargs": {"map": [2, 2], "hypersurface": [2, 1]}},
                    _check_negative))
    return jobs
