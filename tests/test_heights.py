"""Tests for bounded-height rational point enumeration."""

import random
from dataclasses import asdict
from fractions import Fraction
from itertools import product
from math import gcd

import numpy as np
import pytest

from skewplanes import heights
from skewplanes.count import DEFAULT_BUDGET
from skewplanes.families import build_phibar, build_x
from skewplanes.heights import (
    _parametrized_first_rows,
    _refuse_direct_scan,
    _refuse_parametrized_pass,
    direct_height_count,
    height_report,
    height_scan,
    integer_root,
    parametrized_height_count,
    reduced_representative,
)
from skewplanes.kernels import height_scan_chart
from skewplanes.reporting import BudgetExceeded, HeightReport, abbreviate

DIRECT_D1 = [9, 21, 45, 69, 117, 165, 237, 285, 381, 429,
             549, 621, 765, 837, 933, 1053, 1245, 1317, 1557, 1677]

B1_POINTS = {
    (1, -1, 0, 0), (1, 0, -1, 0), (1, 0, 0, -1),
    (0, 1, -1, 0), (0, 1, 0, -1), (0, 0, 1, -1),
    (1, -1, 1, -1), (1, -1, -1, 1), (1, 1, -1, -1),
}


# ---------------------------------------------------------------------------
# reduction and height


def test_reduced_representative_examples():
    assert reduced_representative((Fraction(2), Fraction(-4), Fraction(6))) == (1, -2, 3)
    assert reduced_representative(
        (Fraction(1, 2), Fraction(1, 3), Fraction(1))
    ) == (3, 2, 6)
    assert reduced_representative((Fraction(1), Fraction(0), Fraction(0))) == (1, 0, 0)


def test_reduced_representative_sign_normalization():
    assert reduced_representative((Fraction(0), Fraction(-2), Fraction(4))) == (0, 1, -2)


def test_reduced_representative_rejects_zero():
    with pytest.raises(ValueError):
        reduced_representative((Fraction(0), Fraction(0)))


def test_reduction_idempotence_bulk():
    rng = random.Random(123)
    for _ in range(10**4):
        coords = tuple(
            Fraction(rng.randrange(-30, 31), rng.randrange(1, 12))
            for _ in range(4)
        )
        if all(c == 0 for c in coords):
            continue
        once = reduced_representative(coords)
        twice = reduced_representative(tuple(Fraction(c) for c in once))
        assert once == twice
        assert gcd(*[abs(c) for c in once]) == 1 or sum(
            1 for c in once if c
        ) == 1
        lead = next(c for c in once if c != 0)
        assert lead > 0


def test_integer_root():
    assert integer_root(16, 4) == 2
    assert integer_root(15, 4) == 1
    assert integer_root(81, 4) == 3
    assert integer_root(0, 3) == 0
    for k in (2, 3, 4, 7, 22):
        t = 10 ** (400 // k) + 12345
        assert integer_root(t ** k - 1, k) == t - 1
        assert integer_root(t ** k, k) == t
        assert integer_root(t ** k + 1, k) == t
    assert integer_root(10 ** 400, 4) == 10 ** 100


# ---------------------------------------------------------------------------
# direct counts


def test_direct_count_b0_and_b1():
    assert direct_height_count(1, 0) == 0
    assert direct_height_count(1, 1) == 9


def test_direct_count_b1_exact_points():
    # the nine height-1 points of the Fermat cubic surface
    X = build_x(1, 1)
    found = set()
    from itertools import product

    for tup in product((-1, 0, 1), repeat=4):
        if all(c == 0 for c in tup):
            continue
        lead = next(c for c in tup if c != 0)
        if lead < 0:
            continue
        if gcd(*[abs(c) for c in tup]) != 1 and sum(1 for c in tup if c) > 1:
            continue
        if X.evaluate(tuple(Fraction(c) for c in tup)) == 0:
            found.add(tup)
    assert found == B1_POINTS


def test_direct_counts_frozen_oracle():
    # exhaustive-scan values for d = 1, B = 1..20, frozen after independent
    # recomputation with a separate scan implementation
    for B in range(1, 11):
        assert direct_height_count(1, B) == DIRECT_D1[B - 1], B


def test_direct_counts_monotone():
    prev = 0
    for B in range(1, 13):
        cur = direct_height_count(1, B)
        assert cur >= prev
        prev = cur


def test_direct_count_budget():
    with pytest.raises(BudgetExceeded):
        direct_height_count(1, 1000)


def test_direct_guard_admits_cheap_tables_at_large_d():
    # 2401 pairs of about 10,800 bits: each entry's fixed cost is weighed
    # with its bits, so the guard does not refuse this small table
    assert height_report(1000, 24, mode="direct").direct == 2157


def _matched_value_count(d, B):
    """Primitive points up to sign with f(x0, x1) = -f(x2, x3) in [-B, B]^4,
    found by matching f-values of pairs in Python ints."""
    by_value = {}
    for a in range(-B, B + 1):
        for b in range(-B, B + 1):
            v = (a + b) * (a * a - a * b + b * b) ** d
            by_value.setdefault(v, []).append((a, b))
    count = 0
    for v, pairs in by_value.items():
        for a, b in pairs:
            for c, e in by_value.get(-v, ()):
                if gcd(a, b, c, e) == 1:
                    count += 1
    return count // 2


def test_direct_count_exact_past_int64():
    # at d = 9, B = 16 the values of f overflow int64; the count must not wrap
    assert 2 * 16 * (3 * 16 ** 2) ** 9 >= 2 ** 63
    assert direct_height_count(9, 16) == _matched_value_count(9, 16) == 957


@pytest.mark.parametrize("d, B", [(1, 20), (2, 16), (3, 12), (9, 5), (9, 6), (9, 20)])
def test_direct_rows_match_chart_scan(d, B):
    # the 4-tuple scan of the kernels shares no code with the grouping of pairs,
    # which at d = 9 runs in int64 up to B = 5 and in object from B = 6 on
    assert (2 * B * (3 * B * B) ** d < 2 ** 63) == (d < 9 or B <= 5)
    hist = sum(height_scan_chart(B, d, chart, 0, B * (2 * B + 1) ** (3 - chart))
               for chart in range(4))
    rows = height_scan(d, B, mode="direct")
    assert [r.direct for r in rows] == np.cumsum(hist)[1:].tolist()


@pytest.mark.parametrize("d, B, count", [(1, 40, 6213), (2, 40, 5917), (1, 60, 13869)])
def test_direct_counts_frozen_past_scan_range(d, B, count):
    assert direct_height_count(d, B) == count


def test_direct_rows_of_one_scan_match_oracle():
    # every row of the table comes from the one pair walk at B = 16
    rows = height_scan(9, 16, mode="direct")
    assert [r.bound for r in rows] == list(range(1, 17))
    for r in rows:
        assert r.direct == _matched_value_count(9, r.bound), r.bound


@pytest.mark.parametrize("B, in_int64", [(30, True), (31, False)])
def test_direct_count_on_both_sides_of_the_int64_bound(B, in_int64):
    # the direct column runs in int64 exactly when 2B (3B^2)^d < 2^63
    assert (2 * B * (3 * B * B) ** 5 < 2 ** 63) == in_int64
    assert direct_height_count(5, B) == _matched_value_count(5, B)


def test_direct_guard_boundary_at_d1000():
    _refuse_direct_scan(80, 1000, 10 ** 9)
    with pytest.raises(BudgetExceeded, match="memory guard"):
        _refuse_direct_scan(81, 1000, 10 ** 9)


# ---------------------------------------------------------------------------
# parametrized counts


def test_parametrized_count_below_direct():
    for d, B in [(1, 10), (1, 20), (2, 20)]:
        par, skips = parametrized_height_count(d, B)
        direct = direct_height_count(d, B)
        assert par <= direct, (d, B)


def test_parametrized_images_land_on_x():
    # parametrized_height_count asserts image membership internally; a clean
    # run at moderate B is the regression signal
    par, skips = parametrized_height_count(1, 50)
    assert par >= 1
    assert skips >= 0


@pytest.mark.parametrize("d, bound, check", [
    (1, 9 ** 4 - 1, np.int64),  # u = 8: 4M (3M^2) = 4.1 * 10^18 < 2^63, M = 170 * 8^4
    (1, 9 ** 4, object),        # u = 9: 1.7 * 10^19
    (2, 63, np.int64), (2, 64, object),
])
def test_parametrized_check_dtype_follows_the_bound(monkeypatch, d, bound, check):
    # X at the images is checked in int64 while 4M (3M^2)^d < 2^63, M being
    # _phibar_bound(d, u), and in Python ints past it.  The rows are those of
    # the object path, and under either dtype an image pushed off X is caught
    seen, x_form, phibar_form = [], heights.x_form, heights.phibar_form

    def spy(x, d):
        seen.append(x[0].dtype)
        return x_form(x, d)

    def pushed(u, d, half):
        comps = phibar_form(u, d, half)
        return [comps[0] + 1] + comps[1:]

    monkeypatch.setattr(heights, "x_form", spy)
    rows = _parametrized_first_rows(d, bound, 0, DEFAULT_BUDGET)
    assert rows[0]
    for exact in (heights._exact_dtype, lambda bound: object):
        monkeypatch.setattr(heights, "_exact_dtype", exact)
        assert _parametrized_first_rows(d, bound, 0, DEFAULT_BUDGET) == rows
        with monkeypatch.context() as m:
            m.setattr(heights, "phibar_form", pushed)
            with pytest.raises(AssertionError, match="off the hypersurface"):
                _parametrized_first_rows(d, bound, 0, DEFAULT_BUDGET)
    assert seen == [np.dtype(check)] * 3 + [np.dtype(object)] * 2


def _phibar_images(d, u):
    """(images, skips) of phibar (n = 1) on the primitive integer points of
    P^2 with height <= u, evaluated one by one in Fractions."""
    phibar = build_phibar(1, d)
    images, skips = [], 0
    for pt in product(range(-u, u + 1), repeat=3):
        if gcd(*pt) != 1 or next(v for v in pt if v) < 0:
            continue
        img = phibar.evaluate(tuple(Fraction(v) for v in pt))
        if all(v == 0 for v in img):
            skips += 1
        else:
            images.append(reduced_representative(img))
    return images, skips


def _check_parametrized_rows(d, bound, probes):
    # row B draws inputs of height <= floor(B^(1/(2d+2))); the band changes
    # at B = 2^(2d+2) and 3^(2d+2), and each image enters once its own
    # height is <= B
    k = 2 * d + 2
    by_band = {u: _phibar_images(d, u) for u in range(integer_root(bound, k) + 1)}
    rows = height_scan(d, bound, mode="param")
    assert [r.bound for r in rows] == list(range(1, bound + 1))
    for r in rows:
        images, skips = by_band[integer_root(r.bound, k)]
        expected = {img for img in images if max(map(abs, img)) <= r.bound}
        assert (r.parametrized, r.skips) == (len(expected), skips), r.bound
        assert r.direct is None
    for B in probes:
        assert parametrized_height_count(d, B) == (rows[B - 1].parametrized, rows[B - 1].skips)


def test_parametrized_rows_match_per_row_oracle():
    _check_parametrized_rows(1, 100, (15, 16, 80, 81, 100))


def test_parametrized_rows_match_per_row_oracle_d2():
    _check_parametrized_rows(2, 800, (63, 64, 728, 729, 800))


@pytest.mark.parametrize("B, expected", [(10 ** 4, (2333, 1)), (10 ** 5, (12373, 1))])
def test_parametrized_counts_frozen(B, expected):
    assert parametrized_height_count(1, B) == expected


def test_parametrized_table_budget():
    # a table at B = 5 costs its 5 rows plus the 13 candidate inputs of height 1
    assert len(height_scan(1, 5, mode="param", budget=18)) == 5
    with pytest.raises(BudgetExceeded):
        height_scan(1, 5, mode="param", budget=17)
    with pytest.raises(BudgetExceeded):
        height_scan(1, 10 ** 30, mode="param")
    # the root of a bound past float range is taken in integers
    with pytest.raises(BudgetExceeded):
        height_report(1, 10 ** 400, mode="param")


def test_budget_messages_abbreviate_huge_ints():
    with pytest.raises(BudgetExceeded) as exc:
        height_report(1, 10 ** 400, mode="param")
    assert len(str(exc.value)) < 200 and "~1.0e400" in str(exc.value)
    assert abbreviate(10 ** 20 - 1) == "99999999999999999999"
    assert abbreviate(10 ** 20) == "~1.0e20"
    assert abbreviate(10 ** 400 - 1) == "~1.0e400"
    assert abbreviate(24 * 10 ** 399 + 7) == "~2.4e400"
    assert abbreviate(3 ** 10000) == "~1.6e4771"  # past int-to-str's digit limit


@pytest.mark.parametrize("d, bound, u", [(11, 3 ** 24 - 1, 2), (11, 3 ** 24, 3),
                                          (11, 3 ** 24 * 100, 3)])
def test_parametrized_counts_on_both_sides_of_the_int64_bound(d, bound, u):
    # phibar's values at inputs of height <= u stay below 10 (1 + 4^(d+1)) u^(2d+2),
    # which at d = 11 is below 2^63 for u = 2 and above it for u = 3
    assert integer_root(bound, 2 * d + 2) == u
    assert (heights._phibar_bound(d, u) < 2 ** 63) == (u == 2)
    images, skips = _phibar_images(d, u)
    expected = {img for img in images if max(map(abs, img)) <= bound}
    assert parametrized_height_count(d, bound) == (len(expected), skips)


def test_primitive_inputs_enumerate_p2():
    for u in range(5):
        pts = list(heights._projective_int_points(u))
        assert len(set(pts)) == len(pts)
        assert set(pts) == {pt for pt in product(range(-u, u + 1), repeat=3)
                            if gcd(*pt) == 1 and next(v for v in pt if v) > 0}


@pytest.fixture
def no_pass(monkeypatch):
    # a refused pass must not build its inputs
    def refuse(u):
        raise AssertionError(f"inputs of height <= {u} built before the guard")
    monkeypatch.setattr(heights, "_primitive_inputs", refuse)


@pytest.mark.parametrize("d, bound, nrows", [
    (1, 900_000_000, 900_000_000),  # heights --mode param --bound 900000000
    (1, 10 ** 11, 1),               # height_report(1, 10**11, mode="param")
    (1, 10 ** 11, 0),               # parametrized_height_count(1, 10**11)
    (1000, 5 ** 2002, 0),           # 661 inputs whose check forms ints of 13M bits
])
def test_parametrized_memory_guard_refuses_before_the_pass(no_pass, d, bound, nrows):
    with pytest.raises(BudgetExceeded, match="memory guard") as exc:
        _refuse_parametrized_pass(d, bound, nrows, 10 ** 30)
    assert len(str(exc.value)) < 200
    with pytest.raises(BudgetExceeded, match="memory guard"):
        parametrized_height_count(d, bound)
    if nrows:
        with pytest.raises(BudgetExceeded, match="memory guard"):
            height_report(d, bound, mode="param", budget=10 ** 30)


@pytest.mark.parametrize("d, bound, nrows", [
    (1, 10 ** 8, 1),          # 4.06M inputs
    (1, 10 ** 6, 10 ** 6),    # heights --mode param --bound 1000000
    (1, 8 ** 4 - 1, 1),       # the benchmark's parametrized count
    (2, 800, 800), (9, 20, 20), (1000, 2 ** 2002, 1),
])
def test_parametrized_memory_guard_admits(d, bound, nrows):
    _refuse_parametrized_pass(d, bound, nrows, 10 ** 30)


@pytest.mark.parametrize("d, bound, cost", [
    (400, 2 ** 802, 4112084218),     # 62 candidate inputs, checked on ints of 1.3M bits: 2.9 s
    (1000, 2 ** 2002, 74591467098),  # and on ints of 8M bits: 55 s
])
def test_parametrized_check_work_refused_before_the_pass(no_pass, d, bound, cost):
    with pytest.raises(BudgetExceeded, match=f"membership check cost {cost}, over budget"):
        parametrized_height_count(d, bound)
    _refuse_parametrized_pass(d, bound, 0, cost)
    with pytest.raises(BudgetExceeded):
        _refuse_parametrized_pass(d, bound, 0, cost - 1)


@pytest.mark.parametrize("d, bound, nrows", [
    (1, 8 ** 4 - 1, 0), (2, 16, 16), (9, 20, 20),  # the benchmark's passes
    (1, 10 ** 5, 0), (2, 800, 800), (11, 3 ** 24 * 100, 0), (200, 2 ** 402, 0),
])
def test_parametrized_check_work_admits(d, bound, nrows):
    _refuse_parametrized_pass(d, bound, nrows, DEFAULT_BUDGET)


def test_parametrized_skips_base_points():
    # u-height 1 includes the base point [1:-1:0]; it must be skipped
    _, skips = parametrized_height_count(1, 20)
    assert skips >= 1


# ---------------------------------------------------------------------------
# reports


def test_height_report_fields():
    rep = height_report(1, 10, mode="both")
    assert rep.bound == 10
    assert rep.direct == DIRECT_D1[9]
    assert rep.parametrized is not None and rep.parametrized <= rep.direct
    assert rep.upper_ref == 10**6
    assert rep.lower_ref == round(10 ** (3 / 4), 3) or rep.lower_ref > 0
    assert rep.skips >= 0


def test_height_report_modes():
    rep_d = height_report(1, 5, mode="direct")
    assert rep_d.direct is not None and rep_d.parametrized is None
    rep_p = height_report(1, 5, mode="param")
    assert rep_p.parametrized is not None and rep_p.direct is None


def test_height_scan_rows():
    rows = height_scan(1, 6, mode="direct")
    assert len(rows) == 6
    assert [r.bound for r in rows] == list(range(1, 7))
    counts = [r.direct for r in rows]
    assert counts == DIRECT_D1[:6]


def test_height_report_as_dict_matches_dataclass_fields():
    rep = HeightReport(params={"n": 1, "d": 2, "mode": "both"}, bound=7, direct=3,
                       parametrized=None, lower_ref=1.5, lower_ref_n1=None,
                       upper_ref=2.0, skips=1, elapsed_ms=1.23456)
    out = rep.as_dict()
    assert out == {**asdict(rep), "elapsed_ms": 1.235}
    assert list(out) == list(asdict(rep))
