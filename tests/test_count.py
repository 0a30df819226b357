"""Tests for exact point counting over finite fields."""

import dataclasses
import functools
import random
import re
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewplanes import count as count_module
from skewplanes import domains, families, kernels
from skewplanes.count import (
    check_projection_bijection,
    count_family,
    count_y0_structure,
    count_zeros,
    enumerate_projective,
    formula_high_dim,
    formula_x2d,
    formula_x2d_alt,
    formula_y,
    prime_power,
    projective_size,
    reduce_poly,
    YChartZeros,
)
from skewplanes.domains import QQ, QQXI, field_create, sqrt_of_minus_three
from skewplanes.families import build_ab, build_x, build_x_d_delta, x_context, u_context
from skewplanes.mpoly import MPoly, VarContext, local_multiplicity, multiplicity_at
from skewplanes.reporting import BudgetExceeded

GRID_FIELDS = [(5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (23, 1),
               (5, 2), (3, 2), (3, 1), (2, 1), (2, 2), (2, 3)]
GRID_EXPECTED = {
    # q -> counts for d = 1, 2, 3 of the n = 1 family in P^3
    5: (31, 31, 31),
    7: (99, 85, 85),
    11: (133, 177, 133),
    13: (261, 235, 235),
    17: (307, 307, 307),
    23: (553, 553, 553),
    25: (801, 751, 751),
    9: (91, 91, 91),
    3: (13, 13, 13),
    2: (7, 7, 7),
    4: (45, 37, 37),
    8: (73, 73, 121),
}


# ---------------------------------------------------------------------------
# enumeration basics


def test_projective_size():
    assert projective_size(5, 2) == 31
    assert projective_size(2, 1) == 3
    assert projective_size(3, 3) == 40


def test_enumerate_projective_examples():
    F2 = field_create(2)
    pts = list(enumerate_projective(F2, 1))
    assert len(pts) == 3
    F5 = field_create(5)
    assert sum(1 for _ in enumerate_projective(F5, 2)) == 31
    F3 = field_create(3)
    assert sum(1 for _ in enumerate_projective(F3, 3)) == 40


def test_enumerate_projective_normalized_distinct():
    F = field_create(3, 2)
    pts = list(enumerate_projective(F, 2))
    assert len(pts) == projective_size(9, 2)
    assert len(set(pts)) == len(pts)
    # each point is normalized: first nonzero coordinate is 1
    for pt in pts:
        lead = next(c for c in pt if c != F.zero)
        assert lead == F.one


def test_enumerate_budget():
    F = field_create(101)
    with pytest.raises(BudgetExceeded):
        list(enumerate_projective(F, 4, budget=1000))


# ---------------------------------------------------------------------------
# counting systems


def test_count_zeros_of_zero_polynomial():
    for (p, m), N in [((5, 1), 2), ((2, 3), 2), ((3, 2), 1)]:
        F = field_create(p, m)
        ctx = VarContext(tuple(f"x{i}" for i in range(N + 1)))
        z = MPoly.zero(ctx, F)
        assert count_zeros([z], F) == projective_size(F.q, N)


def test_count_zeros_rejects_inhomogeneous():
    F = field_create(5)
    ctx = VarContext(("x", "y"))
    f = MPoly.variable(ctx, F, "x") + MPoly.constant(ctx, F, 1)
    with pytest.raises(ValueError):
        count_zeros([f], F)


def test_count_zeros_budget():
    # the block engine charges X(1, 1) over F_1009 7063 (see below)
    F = field_create(1009)
    f = build_x(1, 1, F)
    with pytest.raises(BudgetExceeded):
        count_zeros([f], F, budget=7062)


def test_hyperplane_slice_consistency():
    # covering P^4 by the pencil x0 = a*x1 (a in F_q) plus {x1 = 0} counts
    # X once everywhere except the common locus {x0 = x1 = 0}, hit q+1 times
    F = field_create(5)
    n, d = 2, 1
    X = build_x(n, d, F)
    ctx = X.ctx
    x0 = MPoly.variable(ctx, F, "x0")
    x1 = MPoly.variable(ctx, F, "x1")
    total = count_zeros([X, x1], F)
    for a in range(5):
        slice_a = x0 - x1.scale(F.from_int(a))
        total += count_zeros([X, slice_a], F)
    whole = count_zeros([X], F)
    common = count_zeros([X, x0, x1], F)
    assert total == whole + 5 * common


# ---------------------------------------------------------------------------
# closed-form formulas


def test_formula_grid_against_brute_force():
    for p, m in GRID_FIELDS:
        F = field_create(p, m)
        q = F.q
        for d in (1, 2, 3):
            X = build_x(1, d, F)
            brute = count_zeros([X], F)
            assert brute == GRID_EXPECTED[q][d - 1], (q, d)
            main = formula_x2d(q, d)
            alt = formula_x2d_alt(q, d)
            assert brute in {main, alt} - {None}, (q, d, brute, main, alt)


def test_formula_alt_only_for_char_two():
    assert formula_x2d_alt(7, 1) is None
    assert formula_x2d_alt(5, 1) is None


def test_formula_gates():
    # q = 5 mod 6 and gcd(2d+1, q-1) = 1 required
    assert formula_high_dim(11, 2, 1) == projective_size(11, 4)
    assert formula_high_dim(7, 2, 1) is None  # 7 = 1 mod 6
    assert formula_high_dim(11, 2, 2) is None  # gcd(5, 10) = 5
    assert formula_y(11, 2, 1) == projective_size(11, 2)
    assert formula_y(11, 1, 1) is None  # needs n >= 2


def test_count_family_x_n1():
    F = field_create(7)
    rep = count_family("X", 1, 2, F)
    assert rep.brute == 85
    assert rep.match is True


def test_count_family_y():
    for q, expected in [(5, 31), (11, 133)]:
        F = field_create(q)
        rep = count_family("Y", 2, 1, F)
        assert rep.brute == expected
        assert rep.formula == expected
        assert rep.match is True


def test_count_family_y_ungated():
    F = field_create(13)  # 13 = 1 mod 6: no formula claim
    rep = count_family("Y", 2, 1, F)
    assert rep.formula is None
    assert rep.match is None
    assert rep.brute == 364
    rep2 = count_family("Y", 2, 2, F)
    assert rep2.brute == 235 and rep2.match is None


def test_count_x_d_delta_full_space():
    # gcd(Delta, q - 1) = 1 forces the count |P^{2n}|
    F = field_create(5)
    rep = count_family("Xdelta", 1, 3, F, delta=1)
    assert rep.brute == projective_size(5, 2) == 31
    assert rep.match is True


# ---------------------------------------------------------------------------
# reduction of coefficient domains


def test_reduce_poly_rational():
    F = field_create(7)
    ctx = VarContext(("x", "y"))
    from fractions import Fraction

    f = MPoly(ctx, QQ, {(1, 0): Fraction(1, 2)})
    g = reduce_poly(f, F)
    assert g.terms[(1, 0)] == F.reduce_rational(Fraction(1, 2))


def test_reduce_poly_refuses_quadext():
    # Q(xi) stays in characteristic 0, also where -3 is a square mod p
    fx = MPoly(VarContext(("x", "y")), QQXI, {(1, 0): QQXI.xi})
    for p in (7, 5):
        with pytest.raises(ValueError, match=fr"^cannot reduce coefficients from QQ\(xi\) "
                                             fr"into GF\({p}\)$"):
            reduce_poly(fx, field_create(p))


@pytest.mark.parametrize("p, m", [(7, 1), (3, 2)])
def test_count_zeros_over_an_equal_field(p, m):
    # fields with equal (p, m) are one field: x over one counts over another
    F, G = field_create(p, m), field_create(p, m)
    assert F is not G and F == G and hash(F) == hash(G) and F != field_create(5)
    x = MPoly.variable(VarContext(("x", "y")), G, "x")
    assert reduce_poly(x, F) is x
    assert count_zeros([x], F) == 1


# ---------------------------------------------------------------------------
# projection bijection


def fermat(ctx_names, deg, F):
    ctx = VarContext(tuple(ctx_names))
    out = MPoly.zero(ctx, F)
    for v in ctx_names:
        out = out + MPoly.variable(ctx, F, v) ** deg
    return out


def test_projection_bijection_valid_cases():
    F5 = field_create(5)
    rep = check_projection_bijection(fermat(("x0", "x1", "x2"), 3, F5), 1, 3, F5)
    assert rep.params["applicable"] is True
    assert rep.passed and rep.params["count"] == 31
    assert rep.params["engine"] == "blocks"
    F7 = field_create(7)
    rep2 = check_projection_bijection(fermat(("x0", "x1"), 5, F7), 2, 5, F7)
    assert rep2.passed and rep2.params["count"] == 8
    # two classes of one-line blocks cost 2 + 3 * 7 = 23 and a table of 13
    # cells, 36 against the 57 points of P^2(F_7); over F_2 one class of
    # three costs 1 + 3 * 2 = 7 and a table of 3, 10 against 7, so it scans
    assert rep2.params["engine"] == "blocks"
    F2 = field_create(2)
    rep3 = check_projection_bijection(fermat(("x0", "x1"), 3, F2), 1, 3, F2)
    assert rep3.passed and rep3.params["count"] == 3
    assert rep3.params["engine"] == "scan"


def test_projection_bijection_gated_case():
    F7 = field_create(7)  # gcd(3, 6) = 3 != 1
    rep = check_projection_bijection(fermat(("x0", "x1", "x2"), 3, F7), 1, 3, F7)
    assert rep.params["applicable"] is False
    assert rep.passed  # gated, not failed
    assert "gate" in rep.params


# ---------------------------------------------------------------------------
# special fiber structure


def test_y0_structure_f7():
    F = field_create(7)
    out = count_y0_structure(1, F)
    assert out["match"] is True
    assert out["weighted_total"] == 4 * 1 * 1 + 4 * 1 + 1 == 9
    assert out["expected_multiplicity"] == 2 * 1 * 1 + 1 == 3
    assert len(out["multiple_points"]) == 2
    for mp in out["multiple_points"]:
        assert mp["multiplicity"] == 3
        assert tuple(sorted(mp["orders"])) == (1, 3)
    assert out["simple_points"] == out["expected_simple"] == 2 * 1 + 1


def test_y0_structure_f31_d2():
    F = field_create(31)
    out = count_y0_structure(2, F)
    assert out["match"] is True
    assert out["weighted_total"] == 4 * 4 + 4 * 2 + 1 == 25
    assert out["expected_multiplicity"] == 2 * 4 + 2 == 10
    for mp in out["multiple_points"]:
        assert mp["multiplicity"] == 10
        assert tuple(sorted(mp["orders"])) == (2, 5)
    assert out["simple_points"] == 2 * 2 + 1


def _roots_of_minus_one(F, D):
    """Roots of x^D = -1 in F, by exhaustive evaluation: the oracle of Y0's
    `split` and `expected_simple`."""
    minus_one = F.from_int(-1)
    return sum(1 for a in F.elements() if F.pow(a, D) == minus_one)


def test_gcd_counts_the_roots_of_minus_one():
    for p, m in [(p, m) for p in (2, 3, 5, 7, 11, 13) for m in range(1, 8) if p ** m <= 121]:
        F = field_create(p, m)
        for D in range(1, 16, 2):
            assert _roots_of_minus_one(F, D) == gcd(F.q - 1, D), (p, m, D)


@pytest.mark.parametrize("q, d", [(7, 1), (7, 2), (7, 3), (13, 2), (19, 4), (25, 1), (25, 2),
                                  (31, 2), (43, 3), (49, 3), (61, 2), (7, 0), (25, 0)])
def test_y0_simple_points_against_root_scan(q, d):
    # where x^(2d+1) = -1 does not split, only its F_q-roots are points; at
    # d = 0 the points [0 : ±xi : 1] are off Y0, of multiplicity 0
    F = field_create(*prime_power(q))
    out = count_y0_structure(d, F)
    roots = _roots_of_minus_one(F, 2 * d + 1)
    assert out["simple_points"] == out["expected_simple"] == roots
    assert out["split"] == (roots == 2 * d + 1)
    assert out["closed_form_total"] == 4 * d * d + 4 * d + 1
    assert out["match"] is True


@pytest.mark.parametrize("q", [7, 13, 19, 25, 31, 37, 43, 49, 61, 67, 73, 79, 97, 103, 109,
                               121, 127, 169])
def test_y0_local_forms_match_multiplicity_at_on_built_ab(q):
    # ab_form at (u0, 1, u2 + c) is the built (A, B) moved to [0 : 1 : c]
    F = field_create(*prime_power(q))
    xi = sqrt_of_minus_three(F)
    ctx = u_context(1)
    u0, u2 = MPoly.variable(ctx, F, "u0"), MPoly.variable(ctx, F, "u2")
    for d in (0, 1, 2, 3, 4, 5, 7, 10):
        A, B = build_ab(1, d, F)
        for c in (F.inv(xi), F.inv(F.neg(xi))):
            local = families.ab_form([u0, 1, u2 + MPoly.constant(ctx, F, c)], d)
            assert local_multiplicity(local) == multiplicity_at([A, B], (F.zero, F.one, c))


def test_y0_stray_point_is_refused(monkeypatch):
    # a point off u2 = 0 beside the two multiple points cannot be named by a
    # count, so the two counts are reported
    real = count_module.count_family
    monkeypatch.setattr(count_module, "count_family", lambda *args, **kwargs:
                        dataclasses.replace(real(*args, **kwargs), brute=8))
    with pytest.raises(AssertionError, match="6 simple points but 3 on u2 = 0"):
        count_y0_structure(1, field_create(7))


def test_y0_structure_requires_split_field():
    F = field_create(5)  # 5 = 5 mod 6: xi not rational here
    with pytest.raises(ValueError):
        count_y0_structure(1, F)


# ---------------------------------------------------------------------------
# the single count loop over prime and extension fields


def test_backends_agree():
    # one numpy loop serves both the prime field and the table field
    F = field_create(7)
    X = build_x(1, 2, F)
    assert count_zeros([X], F) == 85
    F9 = field_create(3, 2)
    X9 = build_x(1, 1, F9)
    assert count_zeros([X9], F9) == 91


def test_backend_forcing_reports():
    kernels.warmup()
    assert kernels.active_backend() == "numpy"


# ---------------------------------------------------------------------------
# block engine against the chart scan


def _both_engines(polys, F):
    """(block engine, chart scan) on the same term lists, whichever
    engine count_zeros would choose.  A system of forms of several degrees
    must go to the chart scan, and count_zeros stands in for the block
    engine."""
    engine, _, systems, _, s = count_module._plan(polys, F)
    scan = _chart_scan(polys, F)
    if s is None:
        assert engine == "scan"
        return count_zeros(polys, F), scan
    nvars = polys[0].ctx.nvars
    classes = count_module._block_classes(F, systems,
                                          count_module._variable_blocks(systems, nvars))
    return count_module._count_blocks(F, classes, nvars, len(polys), s), scan


def _engine_systems(F):
    systems = [[build_x(n, d, F)] for n in (1, 2) for d in (1, 2, 3)]
    systems += [list(build_ab(n, 1, F)) for n in (2, 3)]
    systems += [[build_x_d_delta(1, 3, delta, F)] for delta in (1, 2)]
    ctx = VarContext(("x0", "x1", "x2", "e0"))
    cubic = fermat(("x0", "x1", "x2"), 3, F).substitute(
        {v: MPoly.variable(ctx, F, v) for v in ("x0", "x1", "x2")})
    systems.append([cubic + (MPoly.variable(ctx, F, "e0") ** 3).scale(F.from_int(2))])
    # three forms of degree 3 on Y's blocks, and two forms of degrees 3 and 2
    A, B = build_ab(2, 1, F)
    u = [MPoly.variable(A.ctx, F, f"u{i}") for i in range(5)]
    systems.append([A, B, u[0] ** 3 + (u[1] ** 3).scale(F.from_int(2)) + u[3] * u[4] ** 2])
    X = build_x(1, 1, F)
    systems.append([X, sum((MPoly.variable(X.ctx, F, f"x{i}") ** 2 for i in range(1, 4)),
                           MPoly.variable(X.ctx, F, "x0") ** 2)])
    return systems


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
def test_block_engine_matches_chart_scan(q):
    F = field_create(*prime_power(q))
    for polys in _engine_systems(F):
        blocks, scan = _both_engines(polys, F)
        assert blocks == scan, (q, [f.to_text() for f in polys])


# q^nvars of a drawn system is at most this, so the chart scan is cheap
_COPY_POINTS = 2 ** 15


def _draw_block(draw, q, width, r, e):
    """r forms of degree e on `width` variables, as lists of (exponents,
    coefficient index) terms; a form may be empty."""
    monomials = [(e,)] if width == 1 else [(a, e - a) for a in range(e + 1)]
    return [[(mono, draw(st.integers(1, q - 1)))
             for mono in draw(st.lists(st.sampled_from(monomials), unique=True, max_size=3))]
            for _ in range(r)]


@st.composite
def _repeated_block_systems(draw):
    """(polys, F): r forms of degree e on k copies of one random block and
    perhaps copies of a block of the other width, with the variables
    permuted, and perhaps one copy with a coefficient or an exponent changed."""
    F = field_create(*draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (7, 1),
                                            (2, 2), (2, 3), (3, 2), (5, 2)])))
    q, r, e = F.q, draw(st.integers(1, 2)), draw(st.integers(1, 3))
    room = max(j for j in range(16) if q ** j <= _COPY_POINTS)
    width = draw(st.integers(1, min(2, room)))
    k = draw(st.integers(1, min(6, room // width)))
    copies = [(width, _draw_block(draw, q, width, r, e))] * k
    other = 3 - width
    if room - k * width >= other:
        block = _draw_block(draw, q, other, r, e)
        copies += [(other, block)] * draw(st.integers(0, min(6, (room - k * width) // other)))
    at = draw(st.integers(0, len(copies) - 1))
    width_at, block = copies[at]
    terms = [(i, j) for i, form in enumerate(block) for j in range(len(form))]
    change = draw(st.sampled_from(["none", "coefficient", "exponent"]))
    if terms and change != "none":
        i, j = draw(st.sampled_from(terms))
        (mono, c), block = block[i][j], [list(form) for form in block]
        if change == "coefficient" and q > 2:
            block[i][j] = mono, draw(st.integers(1, q - 1).filter(lambda x: x != c))
        elif change == "exponent" and width_at == 2:
            a = mono[0] - 1 if mono[0] else 1
            block[i][j] = (a, e - a), c
        copies[at] = width_at, block
    nvars = sum(w for w, _ in copies)
    place = draw(st.permutations(range(nvars)))
    ctx = VarContext(tuple(f"x{i}" for i in range(nvars)))
    polys = [MPoly.zero(ctx, F) for _ in range(r)]
    first = 0
    for w, block in copies:
        for i, form in enumerate(block):
            for mono, c in form:
                exps = [0] * nvars
                for v, power in zip(place[first:first + w], mono):
                    exps[v] = power
                polys[i] = polys[i] + MPoly(ctx, F, {tuple(exps): F.element_from_index(c)})
        first += w
    return polys, F


@settings(max_examples=150, deadline=None)
@given(_repeated_block_systems())
def test_repeated_blocks_match_chart_scan(system):
    # copies of one block share a histogram raised by squaring; a changed
    # copy is a class of its own
    polys, F = system
    blocks, scan = _both_engines(polys, F)
    assert blocks == scan == count_zeros(polys, F)


def _spy(monkeypatch, name):
    """The argument tuples of the calls `count` makes to the named kernel."""
    calls = []
    real = getattr(count_module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(count_module, name, spy)
    return calls


def test_block_classes_take_one_histogram_each(monkeypatch):
    # as custom systems, X(3, 1) is 8 copies of y^3; Y(3, 1) is a u0 block
    # and 3 copies of one pair system
    calls = _spy(monkeypatch, "line_orbit_counts")
    F = field_create(101)
    assert count_zeros([build_x(3, 1, F)], F, with_engine=True) == \
        (formula_high_dim(101, 3, 1), "blocks")
    assert len(calls) == 1
    calls.clear()
    F = field_create(11)
    assert count_zeros(list(build_ab(3, 1, F)), F, with_engine=True) == \
        (formula_y(11, 3, 1), "blocks")
    assert len(calls) == 2


def test_repeated_block_raised_by_squaring(monkeypatch):
    # X(40, 1) is 82 copies of y^3 on the object-array path: 5 squarings
    # and 3 products of 4 factors, the last one at 0 alone
    lines, convolve, at_zero = (_spy(monkeypatch, name) for name in (
        "line_orbit_counts", "convolve_invariant", "convolution_at_zero"))
    F = field_create(1013)
    assert count_zeros([build_x(40, 1, F)], F) == projective_size(1013, 80)
    assert (len(lines), len(at_zero)) == (1, 1)
    assert 0 < len(convolve) <= 2 * 6 + 1
    assert all(h1.dtype == h2.dtype == object for _, h1, h2, _ in convolve)


def test_block_engine_exact_past_int64():
    # the affine cones have 11^20 and 11^21 points, past int64
    F = field_create(11)
    assert 11 ** 20 > 2 ** 63
    rep_x = count_family("X", 9, 1, F)
    rep_y = count_family("Y", 10, 1, F)
    assert rep_x.engine == rep_y.engine == "blocks"
    assert rep_x.brute == projective_size(11, 18)
    assert rep_y.brute == projective_size(11, 18)


def test_count_report_names_engine():
    for family in ("X", "Y"):
        rep = count_family(family, 1, 1, field_create(7))
        assert rep.engine == "blocks" and rep.as_dict()["engine"] == "blocks"
        assert "engine=blocks" in rep.line()


def test_histograms_past_cap_are_scanned(monkeypatch):
    # F_11's table has 21 cells; past its guard the system is scanned, and
    # the scan over a prime field reads no table
    F = field_create(11)
    X = build_x(1, 2, F)
    assert count_module._plan([X], F)[0] == "blocks"
    monkeypatch.setattr(domains, "TABLE_MAX", 20)
    assert count_module._plan([X], F)[0] == "scan"
    assert count_zeros([X], F) == GRID_EXPECTED[11][1]


def test_budget_refusal_names_engine():
    # X(1, 1) is the diagonal cubic: one class of 4 one-variable blocks, its
    # one line evaluated for the pencil of one form, the class squared once
    # (1 + s = 4 cells of length 1009) and read at 0 (1009 cells): 1 + 5 * 1009,
    # plus the 2 * 1009 - 1 cells of the exp/log table the block engine reads
    F = field_create(1009)
    with pytest.raises(BudgetExceeded, match="'blocks'.*costs 7063"):
        count_zeros([build_x(1, 1, F)], F, budget=7062)
    assert count_zeros([build_x(1, 1, F)], F, budget=7063) == formula_x2d(1009, 1)
    # X(9, 1) over F_11, one class of 20 one-variable blocks past int64
    # (11^20 > 2^63): one line, then 4 convolutions of 2 cells and a read at
    # 0 of 11 each, in cells of 2 words, and 21 table cells
    F = field_create(11)
    with pytest.raises(BudgetExceeded, match="'blocks' on 20 variable blocks.*costs 220,"):
        count_zeros([build_x(9, 1, F)], F, budget=219)
    assert count_zeros([build_x(9, 1, F)], F, budget=220) == projective_size(11, 18)
    # (A, B) of Y(1, 1) over F_2 scans: its 3 members on 1 + 3 lines and a
    # read at 0 of 2 cells cost 18 against the 7 points of P^2, and the
    # chart scan over a prime field reads no table
    F2 = field_create(2)
    assert count_zeros(list(build_ab(1, 1, F2)), F2, with_engine=True) == (3, "scan")
    with pytest.raises(BudgetExceeded, match="'scan' on P\\^2\\(F_2\\) costs 7,"):
        count_zeros(list(build_ab(1, 1, F2)), F2, budget=6)


@pytest.mark.parametrize("p,m", [(7, 1), (13, 1), (31, 1), (5, 2), (7, 2)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_y_chart_zeros_and_y0_count_match_pointwise_walk(p, m, d):
    # against a walk of all of P^2 through MPoly.evaluate: every rank of
    # YChartZeros at n = 1 gives the walk's zeros with u0 = 1, in order, and
    # Y0's simple points and its multiple points on Y0 are the walk's count
    F = field_create(p, m)
    A, B = build_ab(1, d, F)
    walk = [pt for pt in enumerate_projective(F, 2)
            if A.evaluate(pt) == F.zero and B.evaluate(pt) == F.zero]
    chart = YChartZeros(1, d, F)
    ranked = [tuple(map(F.element_from_index, row))
              for row in chart.unrank(range(chart.pool)).tolist()]
    assert ranked == [pt for pt in walk if pt[0] == F.one]
    if F.q % 6 == 1:
        out = count_y0_structure(d, F)
        assert out["simple_points"] + sum(
            mp["multiplicity"] > 0 for mp in out["multiple_points"]) == len(walk)


@pytest.mark.parametrize("q", [4, 7, 8, 9, 16, 25, 27, 32, 49, 64, 121, 125,
                               2 ** 11, 3 ** 7, 7 ** 4, 2 ** 16])
def test_field_tables_match_field_arithmetic(q):
    # on every pair up to q = 125, on 20 000 seeded pairs past it
    F = field_create(*prime_power(q))
    if q <= 125:
        a, b = (x.ravel() for x in np.indices((q, q)))
    else:
        a, b = np.random.default_rng(q).integers(0, q, (2, 20000))
    add, mul = kernels.field_tables(F)
    pairs = [(F.element_from_index(i), F.element_from_index(j))
             for i, j in zip(a.tolist(), b.tolist())]
    assert add(a, b).tolist() == [F.element_index(F.add(x, y)) for x, y in pairs]
    assert mul(a, b).tolist() == [F.element_index(F.mul(x, y)) for x, y in pairs]


@pytest.mark.parametrize("q", [2, 7, 9, 32, 1009])
def test_field_array_matches_field_arithmetic(q):
    # every expression shape the family forms use, ints coerced mod p
    F = field_create(*prime_power(q))
    a, b = np.random.default_rng(q).integers(0, q, (2, 500))
    va, vb = kernels.FieldArray.columns(F, np.stack([a, b], axis=1))
    got = [va + vb, va - vb, -va, 3 - vb, vb - 5, 2 * va + 0, va * vb, va ** 5, (va - 7) ** 2]
    e = F.element_from_index
    want = [lambda x, y: F.add(x, y), lambda x, y: F.sub(x, y), lambda x, y: F.neg(x),
            lambda x, y: F.sub(F.from_int(3), y), lambda x, y: F.sub(y, F.from_int(5)),
            lambda x, y: F.mul(F.from_int(2), x), lambda x, y: F.mul(x, y),
            lambda x, y: F.pow(x, 5), lambda x, y: F.pow(F.sub(x, F.from_int(7)), 2)]
    for v, f in zip(got, want):
        assert v.idx.tolist() == [F.element_index(f(e(i), e(j)))
                                  for i, j in zip(a.tolist(), b.tolist())]


def pairwise_proportional_rows(F, a, b):
    """The tests' oracle: every 2x2 minor a_i b_j - a_j b_i of each row
    pair is zero, tested as a_i b_j == a_j b_i on indices."""
    _, mul = kernels.field_tables(F)
    ok = np.ones(len(a), bool)
    for i in range(a.shape[1]):
        for j in range(i + 1, a.shape[1]):
            ok &= mul(a[:, i], b[:, j]) == mul(a[:, j], b[:, i])
    return ok


@pytest.mark.parametrize("q", [2, 5, 7, 9, 32, 1009])
@pytest.mark.parametrize("k", [1, 2, 3, 5, 9])
def test_proportional_rows_matches_pairwise_minors(q, k):
    # random rows, zero rows on either side, leading zeros, and b a multiple
    # of a, mostly nonzero, so that both answers occur
    F = field_create(*prime_power(q))
    _, mul = kernels.field_tables(F)
    rng = np.random.default_rng(10 * q + k)
    a = rng.integers(0, q, (400, k))
    a[rng.random((400, k)) < 0.3] = 0
    a[::17] = 0
    b = rng.integers(0, q, (400, k))
    scaled = rng.random(400) < 0.6
    b[scaled] = mul(a[scaled], rng.integers(0, q, (int(scaled.sum()), 1)))
    b[::23] = 0
    want = pairwise_proportional_rows(F, a, b)
    assert kernels.proportional_rows(F, a, b).tolist() == want.tolist()
    assert want.any() and (k == 1 or not want.all())


def _wide_payload_system(F, nvars, e, r, rng):
    """r forms of degree e on the blocks {x0, x1}, {x2}, ..., every payload
    of element index at least p, so not in F_p."""
    ctx = VarContext(tuple(f"x{i}" for i in range(nvars)))
    rest = (0,) * (nvars - 2)
    monomials = [(a, e - a) + rest for a in range(e + 1)]
    monomials += [tuple(e * (j == i) for j in range(nvars)) for i in range(2, nvars)]
    polys = []
    for _ in range(r):
        terms = {mono: rng.randrange(F.p, F.q) for mono in monomials if rng.random() < 0.7}
        terms[(1, e - 1) + rest] = rng.randrange(F.p, F.q)  # joins x0 and x1
        polys.append(MPoly(ctx, F, {mono: F.element_from_index(c) for mono, c in terms.items()}))
    return polys


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27])
def test_custom_engines_match_pointwise_evaluation_off_the_prime_field(monkeypatch, q):
    # the oracle, `enumerate_projective` and `MPoly.evaluate`, shares no
    # code with the engines; each engine is forced in turn
    F = field_create(*prime_power(q))
    rng = random.Random(q)
    nvars = 4 if q < 25 else 3
    systems = [_wide_payload_system(F, nvars, e, r, rng) for e in (2, 3, 4) for r in (1, 2)]
    want = [sum(all(f.evaluate(pt) == F.zero for f in polys)
                for pt in enumerate_projective(F, nvars - 1)) for polys in systems]
    for engine, attr, value in [("blocks", "_block_cost", lambda *args: 0),
                                ("scan", "_block_cost", lambda *args: float("inf"))]:
        with monkeypatch.context() as patch:
            patch.setattr(count_module, attr, value)
            got = [count_zeros(polys, F, with_engine=True) for polys in systems]
        assert got == [(n, engine) for n in want]


# ---------------------------------------------------------------------------
# line-orbit mode of the block engine against the full block histograms


def _term_lists(polys, F):
    return [list(reduce_poly(f, F).terms.items()) for f in polys]


def _restrict(systems, block):
    """The term lists' terms in the block's variables, restricted to them:
    a filter of every term against every block, not `_block_classes`'s one
    pass."""
    return [[(tuple(e[v] for v in block), c) for e, c in terms if any(e[v] for v in block)]
            for terms in systems]


def _pencil_blocks(polys, F):
    """(s, pencil, blocks, [term lists of each block]) for a system of
    forms of one degree, cut as `_count_blocks` cuts it, with the points of
    the whole pencil, built here from `enumerate_projective`, as
    `kernels._line_points` gives them."""
    _, _, systems, _, s = count_module._plan(polys, F)
    blocks = count_module._variable_blocks(systems, polys[0].ctx.nvars)
    subs = [_restrict(systems, b) for b in blocks]
    pencil = np.array([[F.element_index(c) for c in pt]
                       for pt in enumerate_projective(F, len(polys) - 1)], np.int64)
    r = len(polys)
    assert kernels._line_points(F.q, r, 0, projective_size(F.q, r - 1)).tolist() == \
        pencil.tolist()
    return s, pencil, blocks, subs


def _block_histogram(F, system, k):
    """The histogram over F_q^r of the value vector of the r term lists on
    k variables at every point of F_q^k."""
    q = F.q
    values = kernels.system_values(F, system, kernels._affine_points(q, k, 0, q ** k))
    return np.bincount(sum(v * q ** j for j, v in enumerate(values)),
                       minlength=q ** len(system))


@functools.cache
def _discrete_logs(F):
    """{element index: discrete logarithm} of F_q^* to the base g of least
    element index that generates it, found by walking powers with F.mul: an
    oracle that shares no code with `kernels` or the exp/log table."""
    for i in range(1, F.q):
        g, x, logs = F.element_from_index(i), F.one, {}
        for k in range(F.q - 1):
            logs.setdefault(F.element_index(x), k)
            x = F.mul(x, g)
        if len(logs) == F.q - 1:
            return logs


def _expand(F, h):
    """The q cells of the histogram whose coset vector is
    h = [H(0), H(g^0), ..., H(g^(s-1))]: H(v) = h[1 + log v mod s]."""
    h, logs = [int(c) for c in h], _discrete_logs(F)
    return [h[0]] + [h[1 + logs[v] % (len(h) - 1)] for v in range(1, F.q)]


def _coset_vector(F, hist, s):
    """The coset vector of a q-cell histogram constant on the cosets of
    the e-th powers, s = gcd(e, q - 1): its cells at 0 and at g^0, ...,
    g^(s-1)."""
    at = {k: v for v, k in _discrete_logs(F).items()}
    h = np.array([hist[0]] + [hist[at[i]] for i in range(s)], hist.dtype)
    assert _expand(F, h) == hist.tolist()
    return h


def _orbit_histograms(F, system, width, s, pieces, pencil):
    """The orbit histograms' coset vectors, as `_count_blocks` forms them,
    from the lines cut into `pieces` consecutive ranges, whose counts add:
    the block's forms are evaluated at each range's line points and
    binned."""
    lines = projective_size(F.q, width - 1)
    cuts = [lines * i // pieces for i in range(pieces + 1)]
    counts = sum(kernels.line_orbit_counts(F, np.array(list(kernels.system_values(
        F, system, kernels._line_points(F.q, width, lo, hi)))), pencil, s)
        for lo, hi in zip(cuts, cuts[1:]))
    return np.column_stack([1 + (F.q - 1) * counts[:, 0], s * counts[:, 1:]])


def _assert_orbit_histograms(polys, F):
    """Each batch row of each block's orbit histograms, expanded to q
    cells, is the full histogram of that pencil member c.f in the block's
    variables."""
    s, pencil, blocks, subs = _pencil_blocks(polys, F)
    zero = MPoly.zero(polys[0].ctx, F)
    for block, system in zip(blocks, subs):
        batches = [_orbit_histograms(F, system, len(block), s, pieces, pencil)
                   for pieces in (1, 3)]
        for c, *rows in zip(pencil.tolist(), *batches):
            member = sum((f.scale(F.element_from_index(ci)) for f, ci in zip(polys, c)), zero)
            full = _block_histogram(F, _restrict(_term_lists([member], F), block), len(block))
            assert [_expand(F, row) for row in rows] == [full.tolist()] * 2, c


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27])
def test_line_orbit_histogram_matches_block_histogram(q, d):
    F = field_create(*prime_power(q))
    _assert_orbit_histograms([build_x(1, d, F)], F)
    _assert_orbit_histograms(list(build_ab(2, d, F)), F)


@pytest.mark.parametrize("q", [7, 13, 16, 25])
def test_line_orbit_histogram_on_xdelta(q):
    F = field_create(*prime_power(q))
    for delta in (1, 2):
        _assert_orbit_histograms([build_x_d_delta(1, 3, delta, F)], F)


@pytest.mark.parametrize("q", [4, 7, 13])
def test_line_orbit_termless_block(q):
    # e0 occurs in no term: its block takes the value 0 on all of F_q
    F = field_create(*prime_power(q))
    ctx = VarContext(("x0", "x1", "x2", "e0"))
    f = fermat(("x0", "x1", "x2"), 3, F).substitute(
        {v: MPoly.variable(ctx, F, v) for v in ("x0", "x1", "x2")})
    s, pencil, variables, blocks = _pencil_blocks([f], F)
    assert len(blocks) == 4 and variables[3] == [3] and blocks[3] == [[]]
    _assert_orbit_histograms([f], F)
    assert [_expand(F, row) for row in _orbit_histograms(F, blocks[3], 1, s, 1, pencil)] == \
        [[q] + [0] * (q - 1)]
    assert count_module._plan([f], F)[0] == "blocks"
    assert count_zeros([f], F) == count_zeros([fermat(("x0", "x1", "x2"), 3, F)], F) * q + 1


def _even_form(e, F):
    """x0^e - x1^e + x2^e + x2 x3^(e-1) + c x4^e, c of element index q - 1,
    on the blocks {x0}, {x1}, {x2, x3}, {x4}: x0^e - x1^e has zeros off the
    origin only as -1 lies in the coset l."""
    ctx = VarContext(tuple(f"x{i}" for i in range(5)))
    x = [MPoly.variable(ctx, F, v) for v in ctx.names]
    return (x[0] ** e - x[1] ** e + x[2] ** e + x[2] * x[3] ** (e - 1)
            + (x[4] ** e).scale(F.element_from_index(F.q - 1)))


@pytest.mark.parametrize("q,form", [(q, ("X", n, d)) for n in (2, 3) for q, d in [
    (7, 1), (13, 1), (13, 2), (16, 2), (25, 1), (27, 1)]] + [
    # even degrees: over q = 3 mod 4, -1 lies in the coset l = s/2
    (q, ("even", e)) for q, e in [(7, 2), (7, 6), (11, 2), (11, 10), (27, 2), (27, 26),
                                  (16, 2), (16, 6)]])
def test_invariant_convolution_matches_convolve_histograms(q, form):
    # each partial convolution of coset vectors, expanded to q cells, and
    # its read at 0 against the next block, from the full histograms
    F = field_create(*prime_power(q))
    polys = [build_x(*form[1:], F) if form[0] == "X" else _even_form(form[1], F)]
    s, _, variables, blocks = _pencil_blocks(polys, F)
    hists = [_block_histogram(F, system, len(b)) for b, system in zip(variables, blocks)]
    full, invariant = hists[0], _coset_vector(F, hists[0], s)[None]
    for hist in hists[1:]:
        h = _coset_vector(F, hist, s)[None]
        assert kernels.convolution_at_zero(F, invariant, h).tolist() == \
            [kernels.convolve_histograms(F, full, hist)[0]]
        full = kernels.convolve_histograms(F, full, hist)
        invariant = kernels.convolve_invariant(F, invariant, h, s)
        assert _expand(F, invariant[0]) == full.tolist()


# ---------------------------------------------------------------------------
# the families' pair-form path against the chart scan of the built system


def _chart_scan(polys, F):
    """The chart scan of the term lists, the oracle that shares no code
    with the pair-form path, chart by chart: the line indices of the chart
    whose first nonzero coordinate is at c start at |P^(nvars-1)| -
    |P^(nvars-1-c)|."""
    nvars = polys[0].ctx.nvars
    values = functools.partial(kernels.system_values, F, _term_lists(polys, F))
    first = [projective_size(F.q, nvars - 1) - projective_size(F.q, nvars - 1 - c)
             for c in range(nvars + 1)]
    return sum(kernels.count_system_chart(F, values, nvars, lo, hi)
               for lo, hi in zip(first, first[1:]))


def _built(family, n, d, delta, F):
    """The family's system, from the builders that family counts never call."""
    if family == "X":
        return [build_x(n, d, F)]
    if family == "Y":
        return list(build_ab(n, d, F))
    return [build_x_d_delta(n, d, delta, F)]


def _assert_pair_form_matches_scan(family, n, d, delta, F):
    scan = _chart_scan(_built(family, n, d, delta, F), F)
    assert count_family(family, n, d, F, delta=delta).brute == scan, (family, F.q, n, d, delta)


def _pair_form_cases():
    """(family, q, n, d, delta) with at most _COPY_POINTS points per chart
    scan: characteristics 2, 3, 5 and 7, d = 0 to 3, n = 1 to 3, and Xdelta
    at d = 3, 5."""
    cases = []
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27):
        for n in (1, 2, 3):
            nvars = {"X": 2 * n + 2, "Y": 2 * n + 1, "Xdelta": 2 * n + 2}
            cases += [(family, q, n, d, None) for family in ("X", "Y") for d in range(4)
                      if q ** (nvars[family] - 1) <= _COPY_POINTS]
            cases += [("Xdelta", q, n, d, delta) for d in (3, 5) for delta in (1, 2)
                      if q ** (nvars["Xdelta"] - 1) <= _COPY_POINTS]
    return cases


@pytest.mark.parametrize("family,q,n,d,delta", _pair_form_cases())
def test_pair_form_count_matches_chart_scan(family, q, n, d, delta):
    _assert_pair_form_matches_scan(family, n, d, delta, field_create(*prime_power(q)))


@st.composite
def _pair_form_draws(draw):
    """(family, F, n, d, delta) whose chart scan has at most _COPY_POINTS
    points; Xdelta takes an odd prime d and delta."""
    family = draw(st.sampled_from(["X", "Y", "Xdelta"]))
    F = field_create(*prime_power(draw(st.sampled_from(
        [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 31, 32]))))
    # the scan walks q^(2n + 1) points for X and Xdelta, q^(2n) for Y
    room = max(j for j in range(16) if F.q ** j <= _COPY_POINTS) - (family != "Y")
    n = draw(st.integers(1, max(1, min(3, room // 2))))
    if family == "Xdelta":
        return family, F, n, draw(st.sampled_from([3, 5, 7])), draw(st.integers(1, 3))
    return family, F, n, draw(st.integers(0, 4)), None


@settings(max_examples=60, deadline=None)
@given(_pair_form_draws())
def test_pair_form_count_matches_chart_scan_drawn(case):
    family, F, n, d, delta = case
    _assert_pair_form_matches_scan(family, n, d, delta, F)


def _refuse_builds(monkeypatch):
    # family counts build no polynomial, wherever a builder is looked up
    def refuse(*args, **kwargs):
        raise AssertionError("built the family")
    for module in (families, count_module):
        for name in ("build_x", "build_ab", "build_x_d_delta"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


@pytest.fixture
def no_family_builds(monkeypatch):
    _refuse_builds(monkeypatch)


@pytest.mark.parametrize("family,q,n,d,delta,expected", [
    ("X", 101, 3, 1, None, projective_size(101, 6)),
    ("X", 4, 2, 2, None, None),
    ("X", 2, 1, 1, None, 7),
    ("Y", 11, 3, 1, None, projective_size(11, 4)),
    ("Y", 17, 2, 2, None, projective_size(17, 2)),
    ("Xdelta", 13, 2, 3, 2, None),
    ("Xdelta", 101, 100, 997, 10, projective_size(101, 200)),
])
def test_family_count_builds_nothing(no_family_builds, family, q, n, d, delta, expected):
    rep = count_family(family, n, d, field_create(*prime_power(q)), delta=delta)
    assert rep.engine == "blocks"
    assert expected is None or rep.brute == expected == rep.formula


@pytest.mark.parametrize("q,d", [(1031, 3), (2048, 1)])
def test_family_count_past_q_1024_takes_the_blocks(monkeypatch, q, d):
    # Y past q = 1024, where q^2 passes 2^20, counts on the block engine a
    # chunk of its pencil at a time, with every builder made to raise, what
    # the chart scan counts on the built (A, B)
    F = field_create(*prime_power(q))
    scan = _chart_scan(list(build_ab(1, d, F)), F)
    _refuse_builds(monkeypatch)
    rep = count_family("Y", 1, d, F)
    assert (rep.brute, rep.engine) == (scan, "blocks")
    assert "engine=blocks" in rep.line()


@pytest.mark.parametrize("p,m", [(1048583, 1), (2, 21)])
def test_family_count_past_q_2_to_the_20(monkeypatch, p, m):
    # past 2^20 the block engine's only memory is its table, dropped after
    monkeypatch.setattr(domains, "_LOG_TABLES", {})
    F = field_create(p, m)
    rep = count_family("X", 1, 1, F)
    assert (rep.brute, rep.engine) == (formula_x2d(F.q, 1), "blocks") and rep.match


@pytest.mark.parametrize("q,k,zeros", [(13, 2, 3), (3, 3, 4)])
def test_custom_system_takes_blocks_only_when_cheaper_with_the_table(q, k, zeros):
    # x0^3 + x1^3 over F_13 ties: one class of two one-line blocks costs the
    # 14 points of P^1, and a table of 25 more.  x0^3 + x1^3 + x2^3 over F_3
    # costs 10 on the blocks and a table of 5, against 13 points of P^2.
    # Both scan, charged the points alone
    F = field_create(q)
    f = fermat(tuple(f"x{i}" for i in range(k)), 3, F)
    points = projective_size(q, k - 1)
    assert count_zeros([f], F, with_engine=True) == (zeros, "scan")
    with pytest.raises(BudgetExceeded, match=f"'scan' on P\\^{k - 1}\\(F_{q}\\) costs {points},"):
        count_zeros([f], F, budget=points - 1)
    assert count_zeros([f], F, budget=points) == zeros


@pytest.mark.parametrize("cached", [False, True])
def test_family_count_past_a_lowered_cap_names_the_memory_guard(no_family_builds,
                                                                monkeypatch, cached):
    # a table past domains.TABLE_MAX, F_11's of 21 cells, is refused by
    # name before any work, cached or not: the first kernel call fails the
    # test at once
    F = field_create(11)
    monkeypatch.setattr(domains, "_LOG_TABLES", {})
    if cached:
        domains.index_exp_log(F)

    def refuse(*args):
        raise AssertionError("started counting")
    monkeypatch.setattr(count_module, "line_orbit_counts", refuse)
    monkeypatch.setattr(domains, "TABLE_MAX", 20)
    with pytest.raises(BudgetExceeded, match="'blocks' on 2 pair blocks, the u0 block: the "
                                             "exp/log table of GF\\(11\\) has 21 cells, over "
                                             "its memory guard of 20$"):
        count_family("Y", 2, 1, F)
    assert list(domains._LOG_TABLES) == [(11, 1)] * cached


def test_counts_match_across_chunk_boundaries(monkeypatch):
    # with _BLOCK = 2, a chunk of pencil members holds max(1, 16 // q) rows
    # and a chunk of lines 2 lines, so that both split, the last chunk
    # short, on the families' grid and on custom systems
    fields = [field_create(*prime_power(q)) for q in (4, 7, 8, 9)]
    systems = [(F, polys) for F in fields for polys in _engine_systems(F)]
    cases = [(family, field_create(*prime_power(q)), n, d, delta)
             for family, q, n, d, delta in _pair_form_cases()]
    want = [count_zeros(polys, F, with_engine=True) for F, polys in systems]
    want_families = [count_family(family, n, d, F, delta=delta).brute
                     for family, F, n, d, delta in cases]
    assert ("blocks" in {engine for _, engine in want}
            and {engine for _, engine in want} != {"blocks"})
    for module in (kernels, count_module):
        monkeypatch.setattr(module, "_BLOCK", 2)
    pencils = _spy(monkeypatch, "line_orbit_counts")
    assert [count_zeros(polys, F, with_engine=True) for F, polys in systems] == want
    assert [count_family(family, n, d, F, delta=delta).brute
            for family, F, n, d, delta in cases] == want_families
    members = {len(pencil) for _, values, pencil, _ in pencils}
    assert 1 in members and len(members) > 2


@pytest.mark.parametrize("family,q,n,d", [("X", 1013, 40, 1), ("X", 101, 1000, 1000),
                                          ("X", 7, 6, 2), ("Y", 101, 200, 3),
                                          ("Y", 13, 5, 2)])
def test_pair_form_charges_the_convolutions_it_makes(monkeypatch, family, q, n, d):
    convolve, at_zero = (_spy(monkeypatch, name)
                         for name in ("convolve_invariant", "convolution_at_zero"))
    rep = count_family(family, n, d, field_create(q))
    assert rep.engine == "blocks" and rep.match is not False
    u0 = family == "Y"
    assert count_module._convolutions([1] * u0 + [n + 1 - u0]) == (len(convolve), len(at_zero))


@pytest.mark.parametrize("k", list(range(1, 70)) + [1000, 2 ** 20 - 1, 2 ** 20])
def test_binary_factors_multiply_to_k(k):
    # nondecreasing exponents whose powers of 2 sum to k, no square unused
    factors = count_module._binary_factors(k)
    assert factors == sorted(factors) and sum(2 ** i for i in factors) == k
    assert factors.count(factors[-1]) <= 2 and (k < 2 or len(factors) >= 2)


def _refused_cost(count, *args, **kwargs):
    """The cost that `count` names when it refuses at budget 0."""
    with pytest.raises(BudgetExceeded) as refusal:
        count(*args, budget=0, **kwargs)
    return int(re.search(r"costs (\d+),", str(refusal.value)).group(1))


@pytest.mark.parametrize("q", [7, 8, 13, 25, 101])
def test_families_and_their_built_systems_pay_one_charge(q):
    # where a family's variable blocks as a system are its pairs (X at
    # d >= 2, Xdelta at delta >= 2, Y), count_zeros on the built system
    # charges what count_family charges and counts the same.  Y(1, d) as a
    # system scans: its q + 1 members cost more than the points of P^2.
    F = field_create(*prime_power(q))
    cases = [("X", n, d, None) for n in (1, 2, 3) for d in (2, 3)]
    cases += [("Xdelta", n, 3, delta) for n in (1, 2, 3) for delta in (2, 3)]
    cases += [("Y", n, d, None) for n in (2, 3) for d in (1, 2)]
    for family, n, d, delta in cases:
        polys = _built(family, n, d, delta, F)
        rep = count_family(family, n, d, F, delta=delta)
        assert count_zeros(polys, F, with_engine=True) == (rep.brute, "blocks")
        assert _refused_cost(count_zeros, polys, F) == \
            _refused_cost(count_family, family, n, d, F, delta=delta), (family, q, n, d, delta)


def test_pair_form_budget_refusal():
    # X(1, 1) over F_1009: one pair form on 1010 lines, two factors read at
    # 0 against each other (1009 cells) and the 2 * 1009 - 1 cells of the
    # exp/log table: 1010 + 1009 + 2017
    F = field_create(1009)
    with pytest.raises(BudgetExceeded, match="'blocks' on 2 pair blocks and the field's "
                                             "exp/log table costs 4036, over budget 4035"):
        count_family("X", 1, 1, F, budget=4035)
    assert count_family("X", 1, 1, F, budget=4036).brute == formula_x2d(1009, 1)
    # Y(2, 1) over F_233: 234 members, each on the u0 block's 1 line and
    # 234 pair lines, one convolution of 1 + s = 2 cells and one read at 0
    # of 233 each, then 465 table cells
    F = field_create(233)
    with pytest.raises(BudgetExceeded, match="2 pair blocks, the u0 block and the field's "
                                             "exp/log table costs 219021"):
        count_family("Y", 2, 1, F, budget=219020)
    assert count_family("Y", 2, 1, F, budget=219021).brute == 54523
    # X(1000, 1000) over F_101, past int64: 102 lines, 14 convolutions of
    # 1 + s = 2 cells and one read at 0 of 101 each, every cell 209 words
    # long (101^2002 has 13331 bits), then 201 table cells
    F = field_create(101)
    with pytest.raises(BudgetExceeded, match="costs 612464, over budget 612463"):
        count_family("X", 1000, 1000, F, budget=612463)
    assert count_family("X", 1000, 1000, F, budget=612464).match is True


def test_pair_form_charges_python_int_cells_by_their_words(monkeypatch):
    # Y(1000, 999) over F_1021: 1022 members, cells of 313 words past
    # int64, 9.5 * 10^9 in all, refused before any work (it would run for
    # minutes): the first kernel call fails the test at once
    def refuse(*args):
        raise AssertionError("started counting")
    monkeypatch.setattr(count_module, "line_orbit_counts", refuse)
    with pytest.raises(BudgetExceeded, match="costs 9472552121, over budget 1000000000"):
        count_family("Y", 1000, 999, field_create(1021))
    assert count_module._cell_words(2, 62) == count_module._cell_words(2, 63) == 1
    assert count_module._cell_words(2, 64) == 2 and count_module._cell_words(101, 2002) == 209
