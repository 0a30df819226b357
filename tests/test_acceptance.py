"""Acceptance criteria for the toolkit, one test per criterion.

Each test prints a single [PASS]/[FAIL] summary line (surfaced by the -rP
pytest option) and then asserts.  Tolerances are exact: every comparison is
integer or symbolic equality; timing limits are wall-clock seconds.
"""

import json
import random
import time
from fractions import Fraction
from math import gcd

import pytest

from skewplanes import kernels
from skewplanes.count import (
    check_projection_bijection,
    count_family,
    count_y0_structure,
    count_zeros,
    formula_x2d,
    projective_size,
)
from skewplanes.domains import field_create
from skewplanes.families import (
    build_ab,
    build_alpha_beta,
    build_char_two_maps,
    build_cremona,
    build_dnm,
    build_h,
    build_phibar,
    build_theta,
    build_x,
)
from skewplanes.heights import (
    direct_height_count,
    height_report,
    parametrized_height_count,
    reduced_representative,
)
from skewplanes.mpoly import MPoly, VarContext, compose
from skewplanes.reporting import strip_timing, to_json
from skewplanes.verify import (
    run_all_checks,
    verify_composition,
    verify_composition_numeric,
    verify_cox_grading,
    verify_galois_symmetry,
    verify_line_factorization,
    verify_linear_system_dim,
    verify_membership,
    verify_singular_locus,
)


@pytest.fixture(scope="module", autouse=True)
def _warm():
    kernels.warmup()


def _report(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {num:02d} {name}: {detail}")


# ---------------------------------------------------------------------------


def test_c01_formula_grid():
    fields = [(5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (23, 1),
              (5, 2), (3, 2), (3, 1), (2, 1), (2, 2), (2, 3)]
    worst = 0.0
    failures = []
    for p, m in fields:
        F = field_create(p, m)
        for d in (1, 2, 3):
            t0 = time.perf_counter()
            brute = count_zeros([build_x(1, d, F)], F)
            dt = time.perf_counter() - t0
            worst = max(worst, dt)
            expected = formula_x2d(F.q, d)
            if brute != expected or dt > 1.0:
                failures.append((F.q, d, brute, expected, round(dt, 3)))
    ok = not failures
    _report(1, "formula-vs-oracle grid", ok,
            f"36 cases, max {worst:.3f}s/case"
            + ("" if ok else f"; failures: {failures}"))
    assert ok, failures


def test_c02_high_dimension_counts():
    t0 = time.perf_counter()
    F5 = field_create(5)
    c5 = count_zeros([build_x(2, 1, F5)], F5)
    F11 = field_create(11)
    t1 = time.perf_counter()
    c11 = count_zeros([build_x(2, 1, F11)], F11)
    dt11 = time.perf_counter() - t1
    ok = c5 == 781 and c11 == 16105 and dt11 <= 30.0
    _report(2, "high-dimension counts", ok,
            f"X^4_1: F5 -> {c5} (want 781), F11 -> {c11} (want 16105), "
            f"{dt11:.2f}s at q=11")
    assert ok


def test_c03_y_counts():
    F5 = field_create(5)
    c5 = count_zeros([f.map_domain(F5, F5.reduce_rational)
                      for f in build_ab(2, 1)], F5)
    F11 = field_create(11)
    c11 = count_zeros([f.map_domain(F11, F11.reduce_rational)
                       for f in build_ab(2, 1)], F11)
    ok = c5 == 31 and c11 == 133
    _report(3, "codim-2 Y counts", ok,
            f"n=2 d=1: F5 -> {c5} (want 31), F11 -> {c11} (want 133)")
    assert ok


def test_c04_weighted_y0_structure():
    rows = []
    ok = True
    for d, F in [(1, field_create(7)), (2, field_create(31))]:
        out = count_y0_structure(d, F)
        want_total = 4 * d * d + 4 * d + 1
        want_mult = 2 * d * d + d
        good = (out["match"] is True
                and out["weighted_total"] == want_total
                and all(mp["multiplicity"] == want_mult
                        for mp in out["multiple_points"]))
        ok = ok and good
        rows.append(f"d={d}: total {out['weighted_total']} (want {want_total}), "
                    f"mult {out['expected_multiplicity']} (want {want_mult})")
    _report(4, "weighted Y0 structure", ok, "; ".join(rows))
    assert ok


def test_c05_symbolic_identities():
    t0 = time.perf_counter()
    checks = []
    for n, d in [(1, 1), (1, 2), (2, 1)]:
        checks.append(verify_line_factorization(n, d))
        checks.append(verify_membership(build_phibar(n, d), build_x(n, d)))
    for n in (1, 2, 3):
        for d in (1, 2, 3):
            checks.append(verify_galois_symmetry(n, d))
            checks.append(verify_cox_grading(n, d))
    dnm_ok = all(build_dnm(n, d)[0] == 2 * build_dnm(n, d)[2]
                 for n in (1, 2, 3) for d in (1, 2))
    dt = time.perf_counter() - t0
    bad = [c.check for c in checks if not c.passed]
    ok = not bad and dnm_ok and dt <= 60.0
    _report(5, "symbolic identity suite", ok,
            f"{len(checks)} checks + 6 D=2M expansions in {dt:.1f}s"
            + ("" if ok else f"; failed: {bad or 'D=2M'}"))
    assert ok


def test_c06_composition_roundtrips():
    cr, cri = build_cremona()
    r1 = verify_composition(cr, cri)
    alpha, beta = build_alpha_beta(2)
    r2 = verify_composition(alpha, beta)
    F1009 = field_create(1009)
    h_theta = compose(build_h(1), build_theta(1))
    h_theta.name = "h.theta"
    r3 = verify_composition_numeric(build_phibar(1, 1), h_theta, F1009,
                                    trials=100, seed=42)
    r3b = verify_composition_numeric(build_phibar(1, 1), h_theta, F1009,
                                     trials=100, seed=42)
    deterministic = strip_timing(r3.as_dict()) == strip_timing(r3b.as_dict())
    F32 = field_create(2, 5)
    data = build_char_two_maps(1, 1, F32)
    theta32 = build_theta(1).map_domain(F32, F32.reduce_rational)
    r4 = verify_composition_numeric(data["g"], theta32, F32,
                                    trials=100, seed=42)
    ok = (r1.passed and r2.passed and r3.passed and r4.passed
          and r3.params["skips"] < 10 and r4.params["skips"] < 10
          and deterministic)
    _report(6, "composition roundtrips", ok,
            f"cremona scalar deg {r1.params.get('scalar_degree')}, "
            f"alpha/beta scalar deg {r2.params.get('scalar_degree')}, "
            f"F1009 skips {r3.params['skips']}, F32 skips {r4.params['skips']}, "
            f"deterministic={deterministic}")
    assert ok


def test_c07_linear_system_dimension():
    rows = []
    ok = True
    for n, d in [(1, 1), (1, 2), (2, 1)]:
        r = verify_linear_system_dim(n, d)
        good = r.passed and r.params["dimension"] == 2 * n + 2
        ok = ok and good
        rows.append(f"({n},{d}) -> dim {r.params['dimension']} "
                    f"(want {2 * n + 2}), rank {r.params['rank']}")
    _report(7, "linear system dimension", ok, "; ".join(rows))
    assert ok


def test_c08_singular_locus_sampling():
    rows = []
    ok = True
    for d in (1, 2):
        r = verify_singular_locus(2, d, samples=50, seed=0)
        good = r.passed and r.params["samples"] == 50
        ok = ok and good
        rows.append(f"(2,{d}): minors zero on every locus plane, 50 generic nonzero -> "
                    f"{'ok' if good else r.witness}")
    _report(8, "singular locus sampling", ok, "; ".join(rows))
    assert ok


def _fermat_poly(nvars, deg, F):
    ctx = VarContext(tuple(f"x{i}" for i in range(nvars)))
    out = MPoly.zero(ctx, F)
    for name in ctx.names:
        out = out + MPoly.variable(ctx, F, name) ** deg
    return out


def test_c09_projection_bijection():
    F2, F5, F7, F11 = (field_create(q) for q in (2, 5, 7, 11))
    valid = [
        (_fermat_poly(3, 3, F5), 1, 3, F5),
        (_fermat_poly(2, 5, F7), 2, 5, F7),
        (build_x(1, 1, F5), 1, 3, F5),
        (_fermat_poly(3, 3, F2), 1, 3, F2),
        (build_ab(1, 1)[0].map_domain(F11, F11.reduce_rational), 1, 3, F11),
    ]
    gated = [
        (_fermat_poly(3, 3, F7), 1, 3, F7),
        (_fermat_poly(2, 5, F11), 2, 5, F11),
    ]
    results_v = [check_projection_bijection(f, a, D, F) for f, a, D, F in valid]
    results_g = [check_projection_bijection(f, a, D, F) for f, a, D, F in gated]
    ok = (all(r.passed and r.params["applicable"] for r in results_v)
          and all(r.passed and not r.params["applicable"] for r in results_g))
    _report(9, "projection bijection", ok,
            f"{sum(r.passed for r in results_v)}/5 valid pass, "
            f"{sum(not r.params['applicable'] for r in results_g)}/2 gated")
    assert ok


def test_c10_x_d_delta_counts():
    cases = [
        (1, 3, 1, 5, 31),
        (1, 5, 1, 13, 183),
        (1, 3, 2, 5, 31),
        (2, 3, 1, 5, 781),
    ]
    rows, ok = [], True
    for n, d, delta, q, expected in cases:
        F = field_create(q)
        delta_deg = delta * (d - 1) + 1
        assert gcd(d, q - 1) == 1 and gcd(delta_deg, q - 1) == 1
        rep = count_family("Xdelta", n, d, F, delta=delta)
        good = rep.brute == expected == projective_size(q, 2 * n) and rep.match
        ok = ok and good
        rows.append(f"(n={n},d={d},delta={delta},q={q}) -> {rep.brute} "
                    f"(want {expected})")
    _report(10, "generalized family counts", ok, "; ".join(rows))
    assert ok


def test_c11_heights():
    counts = [direct_height_count(1, B) for B in range(1, 21)]
    monotone = all(a <= b for a, b in zip(counts, counts[1:]))
    params, ok_sub = [], True
    for B in range(1, 21):
        par, _ = parametrized_height_count(1, B)
        params.append(par)
        if par > counts[B - 1]:
            ok_sub = False
    # image membership is asserted inside parametrized_height_count at eval
    # time; idempotence over 10^4 random rational points:
    rng = random.Random(99)
    idem = True
    for _ in range(10**4):
        pt = tuple(Fraction(rng.randrange(-40, 41), rng.randrange(1, 15))
                   for _ in range(4))
        if all(c == 0 for c in pt):
            continue
        once = reduced_representative(pt)
        if reduced_representative(tuple(Fraction(c) for c in once)) != once:
            idem = False
            break
    ok = monotone and ok_sub and idem
    _report(11, "height counts", ok,
            f"direct B=1..20 monotone={monotone}, param<=direct={ok_sub}, "
            f"idempotence 10^4 pts={idem}; B=20 direct {counts[-1]}, "
            f"param {params[-1]}")
    assert ok


def test_c12_determinism():
    def snapshot():
        records = [r.as_dict() for r in run_all_checks(1, 1, seed=42)]
        F5 = field_create(5)
        records.append(count_family("X", 1, 1, F5).as_dict())
        records.append(height_report(1, 5, mode="both").as_dict())
        doc = json.loads(to_json(records, {"seed": 42}))
        return json.dumps(strip_timing(doc), sort_keys=True).encode()

    blob1 = snapshot()
    blob2 = snapshot()
    ok = blob1 == blob2
    _report(12, "determinism", ok,
            f"two seeded full-suite reports: {len(blob1)} bytes, "
            f"byte-identical={ok}")
    assert ok
