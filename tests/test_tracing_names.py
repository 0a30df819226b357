"""The benchmark's tracer and worker reach into skewplanes by name, and its
workloads expect the verify suite's check names; every name they use must
still resolve after a refactor."""

import importlib
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import pytest

import skewplanes.verify as verify_mod
from skewplanes.verify import CHECKS, run_all_checks

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracing():
    # by file path, without calling install(): nothing gets wrapped
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(modname, attr):
    mod = importlib.import_module(f"skewplanes.{modname}")
    if attr.endswith("*"):
        return any(name.startswith(attr[:-1]) and inspect.isfunction(value)
                   and value.__module__ == mod.__name__
                   for name, value in vars(mod).items())
    obj = mod
    for part in attr.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    return callable(obj)


def test_traced_names_resolve():
    tracing = _load_tracing()
    targets = [t for pairs in tracing.SPANS.values() for t in pairs]
    targets += list(tracing.YIELD_COUNTERS.values())
    missing = [t for t in targets if not _resolves(*t)]
    assert not missing, missing


def test_yield_counters_wrap_generators():
    # the tracer re-yields each item it counts, so a target that returned an
    # array or a list would break the traced round while still resolving
    tracing = _load_tracing()
    for modname, attr in tracing.YIELD_COUNTERS.values():
        target = getattr(importlib.import_module(f"skewplanes.{modname}"), attr)
        assert inspect.isgeneratorfunction(target), (modname, attr)


@pytest.mark.parametrize("name", ["count_system_chart", "height_scan_chart"])
def test_scanned_kernels_take_start_and_stop(name):
    # the tracer counts points scanned as stop - start
    from skewplanes import kernels
    params = inspect.signature(getattr(kernels, name)).parameters
    assert "start" in params and "stop" in params


@pytest.mark.parametrize("modname, attr", [
    ("kernels", "warmup"), ("kernels", "active_backend"),
    ("heights", "height_report"), ("heights", "parametrized_height_count"),
    ("verify", "verify_membership"),
    ("families", "build_phibar"), ("families", "build_x"),
])
def test_worker_names_exist(modname, attr):
    assert _resolves(modname, attr)
    assert f"{modname}.{attr}(" in (PERFBENCH / "worker.py").read_text()


def _load_workloads(monkeypatch):
    # workloads.py imports its sibling oracles.py by bare name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n, d", [(2, 1), (1, 3)])
def test_suite_checks_match_the_benchmark(monkeypatch, n, d):
    # the verify workload compares each suite's check names with these
    workloads = _load_workloads(monkeypatch)
    got = Counter(r.check for r in run_all_checks(n, d))
    assert got == workloads._suite_checks(n, d)


def test_line_factorization_is_looked_up_through_the_module(monkeypatch):
    # the tracer times verify.line_factorization_s by swapping the module
    # global verify_line_factorization; a registry entry that closed over the
    # function would leave that span at 0 without any error
    calls = []
    check = verify_mod.verify_line_factorization

    def spy(n, d):
        calls.append((n, d))
        return check(n, d)
    monkeypatch.setattr(verify_mod, "verify_line_factorization", spy)
    assert CHECKS["line_factorization"].run(1, 1, 0, 35).passed
    assert calls == [(1, 1)]
    assert all(r.passed for r in run_all_checks(2, 1))
    assert calls == [(1, 1), (2, 1)]


def test_composition_on_x_is_looked_up_through_the_module(monkeypatch):
    # as for line_factorization: a tracer span on verify_composition_on_x
    # sees the check only if the registry looks the global up when it runs
    calls = []
    check = verify_mod.verify_composition_on_x

    def spy(n, d):
        calls.append((n, d))
        return check(n, d)
    monkeypatch.setattr(verify_mod, "verify_composition_on_x", spy)
    assert CHECKS["composition_on_x"].run(1, 2, 0, 462).passed
    assert calls == [(1, 2)]
