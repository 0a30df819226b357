"""One benchmark round in a fresh interpreter.

Imports skewplanes from the checkout's `src/`, runs the given jobs one after
another in this single thread, and prints one JSON line: the monotonic time
at which the first job could begin, each job's output and time, the peak
resident memory, the times of the two reference loops measured before the
first job and after each job, and (when traced) the per-layer metrics and
span edges.

    python3 perfbench/worker.py ROOT JOBS_JSON TRACE
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction


def _python_loop():
    """Interpreter-bound reference work: small-int arithmetic and Fraction
    sums, the kind of code mpoly, verify and phibar evaluation run."""
    t0 = time.perf_counter()
    s = 0
    for i in range(150_000):
        s += i * i % 7
    f = Fraction(0)
    for i in range(1, 4_500):
        f += Fraction(i % 17 + 1, i % 13 + 2)
    return time.perf_counter() - t0


def _numpy_loop(numpy):
    """Array-bound reference work: int64 multiply-mod over one block of the
    size the count and height kernels use."""
    t0 = time.perf_counter()
    x = numpy.arange(1 << 15, dtype=numpy.int64)
    acc = numpy.zeros_like(x)
    for _ in range(12):
        x = (x * x + 3) % 10007
        acc = (acc + x) % 10007
    return time.perf_counter() - t0


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main():
    root, jobs, trace = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3] == "1"
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import numpy
    import skewplanes
    import skewplanes.cli
    from skewplanes import families, heights, kernels, verify

    if not os.path.abspath(skewplanes.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"skewplanes imported from {skewplanes.__file__}, not {src}")
    tracer = None
    if trace:
        import tracing
        tracer = tracing.install()
    kernels.warmup()
    ready = time.monotonic()

    calls = {
        "height_report": lambda kw: heights.height_report(**kw),
        "parametrized_height_count": lambda kw: heights.parametrized_height_count(**kw),
        "membership": lambda kw: verify.verify_membership(
            families.build_phibar(*kw["map"]), families.build_x(*kw["hypersurface"])),
    }
    outputs, times = [], []
    loops = {"python": [], "numpy": []}

    def sample_speed():
        loops["python"].append(_python_loop())
        loops["numpy"].append(_numpy_loop(numpy))

    # several samples before the first job: the first numpy call after the
    # import runs slow, and a worker that only sets up has no other samples
    for _ in range(3):
        sample_speed()
    for job in jobs:
        t0 = time.perf_counter()
        try:
            if "cli" in job:
                out = _run_cli(skewplanes.cli, job["cli"])
            else:
                out = {"value": calls[job["call"]](job["kwargs"])}
        except Exception as exc:  # a failing job is reported, the round goes on
            out = {"error": f"{type(exc).__name__}: {exc}"}
        times.append(time.perf_counter() - t0)
        value = out.get("value")
        if hasattr(value, "as_dict"):
            out["value"] = value.as_dict()
        elif isinstance(value, tuple):
            out["value"] = list(value)
        outputs.append(out)
        sample_speed()

    result = {
        "ready": ready,
        "times": times,
        "loops": loops,
        "outputs": outputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {"nproc": os.cpu_count(), "python": sys.version.split()[0],
                "numpy": numpy.__version__, "backend": kernels.active_backend()},
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["edges"] = tracer.edge_table()
    sys.stdout.write(json.dumps(result, default=str) + "\n")


if __name__ == "__main__":
    main()
