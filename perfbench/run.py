"""Benchmark for skewplanes: point counts, height counts and identity checks.

    python3 perfbench/run.py --workload count|heights|verify --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  A run repeats whole rounds of the
workload's jobs until the next round would end after S seconds (at least
two rounds, or one untraced/traced pair with --trace 1).  Each round is one
fresh single-threaded worker process (perfbench/worker.py) that imports
skewplanes from `src/`, so every round pays the same set-up and starts with
empty caches.  This process computes the oracles and checks every output;
it never imports skewplanes.

The speed of a shared host drifts by up to 1.6x for minutes at a time, so
the worker times two fixed reference loops between jobs, and the reported
`wall_s` and `setup_s` are the measured times divided by how much slower
than REF_LOOP_S those loops ran in that round (see `speed_factor`).

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics (medians over the rounds)
with --trace 0, the per-layer metrics of the traced rounds with --trace 1.
A fuller record of the run goes to `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".perfbench"
DEADLINE_S = 170          # a run must end within 180 s
MIN_ROUNDS = 2
SETUP_SPAWNS = 6          # workers per run that only set up, for setup_s

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Times (s) of worker._python_loop and worker._numpy_loop at the reference
# speed: the fast speed of the machine the README's figures come from.
REF_LOOP_S = {"python": 0.020, "numpy": 0.0035}
# Set-up runs Python (imports) and C start-up code (numpy's own import and
# kernels.warmup); its speed factor weights the two loops equally.
SETUP_NUMPY_SHARE = 0.5


def speed_factor(loops, numpy_share):
    """How many times slower than the reference speed a round ran: the mean
    over the round's samples of the reference loops' times over REF_LOOP_S,
    the numpy loop weighted by the workload's share of array-bound work.
    A mean, not a median, since job time adds up the slowness of every
    moment of the round."""
    return statistics.fmean(
        numpy_share * n / REF_LOOP_S["numpy"] + (1 - numpy_share) * p / REF_LOOP_S["python"]
        for p, n in zip(loops["python"], loops["numpy"]))


def run_round(jobs, numpy_share, trace, deadline):
    specs = json.dumps([job.spec for job in jobs])
    # fixed string hashing, so every round takes the same code paths
    env = dict(os.environ, PYTHONHASHSEED="0")
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), str(ROOT), specs, "1" if trace else "0"],
        capture_output=True, text=True, env=env, timeout=max(1.0, deadline - t_spawn))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    res = json.loads(lines[-1])
    res["speed"] = speed_factor(res["loops"], numpy_share)
    res["raw_setup_s"] = res["ready"] - t_spawn
    res["setup_s"] = res["raw_setup_s"] / speed_factor(res["loops"], SETUP_NUMPY_SHARE)
    res["raw_wall_s"] = sum(res["times"])
    res["wall_s"] = res["raw_wall_s"] / res["speed"]
    res["round_s"] = time.monotonic() - t_spawn
    res["failures"] = {}
    for job, out in zip(jobs, res["outputs"]):
        reason = job.check(out)
        if reason is not None:
            res["failures"][job.id] = reason
    del res["outputs"]
    return res


def measure(jobs, numpy_share, seconds, trace, deadline):
    """SETUP_SPAWNS workers that run no job, then batches of rounds (one
    untraced round, or an untraced/traced pair) until the next batch would
    end after `seconds`.  Returns the rounds and the set-up-only workers."""
    kinds = (False, True) if trace else (False,)
    start = time.monotonic()
    setups = [run_round([], numpy_share, False, deadline) for _ in range(SETUP_SPAWNS)]
    batches, rounds = [], []
    while True:
        t0 = time.monotonic()
        rounds += [run_round(jobs, numpy_share, kind, deadline) | {"traced": kind} for kind in kinds]
        batches.append(time.monotonic() - t0)
        enough = len(batches) >= (1 if trace else MIN_ROUNDS)
        if enough and time.monotonic() - start + statistics.median(batches) > seconds:
            return rounds, setups


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "skewplanes" / "__init__.py").is_file():
        print(f"error: no skewplanes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    jobs = workloads.make_jobs(args.workload, args.seed)
    deadline = time.monotonic() + DEADLINE_S
    rounds, setups = measure(jobs, workloads.NUMPY_SHARE[args.workload], args.seconds,
                             bool(args.trace), deadline)
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]

    attempted = len(jobs) * len(rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    unexpected = sorted({j for r in rounds for j in r["failures"]} - workloads.KNOWN_FAULTS)
    correct = not unexpected

    if args.trace:
        units = dict(tracing.PER_LAYER)
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in units}
        values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(r["wall_s"] for r in plain))
        units["trace.overhead_s"] = "s"
    else:
        units = dict(END_TO_END)
        values = {"wall_s": statistics.median(r["wall_s"] for r in plain),
                  "setup_s": statistics.median(r["setup_s"] for r in plain + setups),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    env = rounds[0]["env"]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "jobs": [j.spec for j in jobs],
              "rounds": rounds, "setups": setups, "correct": correct,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"# {args.workload} seed={args.seed} rounds={len(rounds)} env={json.dumps(env)}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(f"# unscaled: wall {statistics.median(r['raw_wall_s'] for r in plain):.4g} s, "
          f"setup {statistics.median(r['raw_setup_s'] for r in plain + setups):.4g} s, "
          f"speed factor {statistics.median(r['speed'] for r in plain):.3f}")
    for job_id in sorted({j for r in rounds for j in r["failures"]}):
        reason = next(r["failures"][job_id] for r in rounds if job_id in r["failures"])
        known = " (known fault)" if job_id in workloads.KNOWN_FAULTS else ""
        print(f"# failed{known}: {job_id}: {reason[:300]}")
    print(f"# attempted={attempted} failed={failed} correct={correct} record={out_file}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
