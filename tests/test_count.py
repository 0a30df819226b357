"""Tests for exact point counting over finite fields."""

import numpy as np
import pytest

from skewplanes import count as count_module
from skewplanes import kernels
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
    projective_zeros,
    reduce_poly,
)
from skewplanes.domains import QQ, QQXI, field_create
from skewplanes.families import build_ab, build_x, build_x_d_delta, x_context, u_context
from skewplanes.mpoly import MPoly, VarContext
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
    # the block engine charges X(1, 1) over F_1009 11106 (see below)
    F = field_create(1009)
    f = build_x(1, 1, F)
    with pytest.raises(BudgetExceeded):
        count_zeros([f], F, budget=11105)


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


def test_reduce_poly_rational_and_quadext():
    F = field_create(7)
    ctx = VarContext(("x", "y"))
    from fractions import Fraction

    f = MPoly(ctx, QQ, {(1, 0): Fraction(1, 2)})
    g = reduce_poly(f, F)
    assert g.terms[(1, 0)] == F.reduce_rational(Fraction(1, 2))
    fx = MPoly(ctx, QQXI, {(1, 0): QQXI.xi})
    gx = reduce_poly(fx, F)
    assert gx.terms[(1, 0)] == 2  # 2^2 = 4 = -3 mod 7


def test_reduce_poly_missing_xi_raises():
    F5 = field_create(5)
    ctx = VarContext(("x",))
    fx = MPoly(ctx, QQXI, {(1,): QQXI.xi})
    with pytest.raises(ValueError):
        reduce_poly(fx, F5)


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
    # three one-line blocks cost 2 * 3 + 3 * 7 = 27 of the 57 points of P^2(F_7);
    # over F_2 they cost 2 * 3 + 3 * 2 = 12 of 7
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
    """(block engine, chart scan) on the same flattened system, whichever
    engine count_zeros would choose.  A system of forms of several degrees
    must go to the chart scan, and count_zeros stands in for the block
    engine."""
    engine, _, exps, coeffs, offsets, blocks, s = count_module._plan(polys, F)
    nvars = exps.shape[1]
    scan = sum(kernels.count_system_chart(F, exps, coeffs, offsets, chart, 0,
                                          F.q ** (nvars - 1 - chart), nvars)
               for chart in range(nvars))
    if s is None:
        assert engine == "scan"
        return count_zeros(polys, F), scan
    return count_module._count_blocks(F, exps, coeffs, offsets, blocks, s), scan


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
    rep = count_family("X", 1, 1, field_create(7))
    assert rep.engine == "blocks" and rep.as_dict()["engine"] == "blocks"
    assert "engine=blocks" in rep.line()
    # over F_2 the diagonal cubic has four one-variable blocks, which cost
    # more than the 15 points of P^3(F_2)
    F2 = field_create(2)
    assert count_module._plan([build_x(1, 1, F2)], F2)[0] == "scan"
    assert count_family("X", 1, 1, F2).as_dict()["engine"] == "scan"


def test_histograms_past_cap_are_scanned(monkeypatch):
    F = field_create(11)
    X = build_x(1, 2, F)
    assert count_module._plan([X], F)[0] == "blocks"
    monkeypatch.setattr(count_module, "HIST_MAX", 10)
    assert count_module._plan([X], F)[0] == "scan"
    assert count_zeros([X], F) == GRID_EXPECTED[11][1]


def test_budget_refusal_names_engine():
    # X(1, 1) is the diagonal cubic: 4 one-variable blocks of one line each,
    # evaluated and combined for the pencil of one form (2 * 4), 2
    # convolutions of 1 + s = 4 cells of length 1009 and a 1009-term dot
    # product: 8 + 9 * 1009, plus the 2 * 1009 - 1 cells of the exp/log
    # table the block engine reads
    F = field_create(1009)
    with pytest.raises(BudgetExceeded, match="'blocks'.*costs 11106"):
        count_zeros([build_x(1, 1, F)], F, budget=11105)
    assert count_zeros([build_x(1, 1, F)], F, budget=11106) == formula_x2d(1009, 1)
    # the chart scan over a prime field reads no table
    F2 = field_create(2)
    with pytest.raises(BudgetExceeded, match="'scan'.*costs 15"):
        count_zeros([build_x(1, 1, F2)], F2, budget=14)


@pytest.mark.parametrize("p,m", [(7, 1), (13, 1), (5, 2)])
def test_projective_zeros_match_pointwise_walk(p, m):
    F = field_create(p, m)
    A, B = build_ab(1, 2, F)
    walk = [pt for pt in enumerate_projective(F, 2)
            if A.evaluate(pt) == F.zero and B.evaluate(pt) == F.zero]
    assert projective_zeros([A, B], F) == walk


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


# ---------------------------------------------------------------------------
# line-orbit mode of the block engine against the full block histograms


def _pencil_blocks(polys, F):
    """(s, pencil, blocks, [(exps, coeffs, offsets) of each block]) for a
    system of forms of one degree, cut as `_count_blocks` cuts it, with the
    pencil as `kernels.pencil_lines` gives it: its points, built here from
    `enumerate_projective`, and the offsets of their rows of counts."""
    _, _, exps, coeffs, offsets, blocks, s = count_module._plan(polys, F)
    subs = [count_module._block_system(exps, coeffs, offsets, b) for b in blocks]
    points = np.array([[F.element_index(c) for c in pt]
                       for pt in enumerate_projective(F, len(polys) - 1)], np.int64)
    pencil = points, np.arange(len(points))[:, None] * (1 + s)
    assert [a.tolist() for a in kernels.pencil_lines(F, len(polys), s)] == \
        [a.tolist() for a in pencil]
    return s, pencil, blocks, subs


def _orbit_histograms(F, arrays, s, pieces, pencil):
    """The orbit histograms from the lines cut into `pieces` consecutive
    ranges, whose counts add."""
    lines = projective_size(F.q, arrays[0].shape[1] - 1)
    cuts = [lines * i // pieces for i in range(pieces + 1)]
    return kernels.orbit_histogram(F, sum(
        kernels.line_orbit_counts(F, *arrays, *pencil, s, lo, hi)
        for lo, hi in zip(cuts, cuts[1:])))


def _assert_orbit_histograms(polys, F):
    """Each batch row of each block's orbit histograms is the full
    histogram of that pencil member c.f in the block's variables."""
    s, pencil, blocks, subs = _pencil_blocks(polys, F)
    zero = MPoly.zero(polys[0].ctx, F)
    for block, arrays in zip(blocks, subs):
        batches = [_orbit_histograms(F, arrays, s, pieces, pencil) for pieces in (1, 3)]
        for c, *rows in zip(pencil[0].tolist(), *batches):
            member = sum((f.scale(F.element_from_index(ci)) for f, ci in zip(polys, c)), zero)
            sub = count_module._block_system(*count_module._system_arrays([member], F), block)
            full = kernels.block_histogram(F, *sub, 0, F.q ** len(block))
            assert [row.tolist() for row in rows] == [full.tolist()] * 2, c


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
    s, pencil, _, blocks = _pencil_blocks([f], F)
    assert len(blocks) == 4 and not len(blocks[3][0])
    _assert_orbit_histograms([f], F)
    assert _orbit_histograms(F, blocks[3], s, 1, pencil).tolist() == [[q] + [0] * (q - 1)]
    assert count_module._plan([f], F)[0] == "blocks"
    assert count_zeros([f], F) == count_zeros([fermat(("x0", "x1", "x2"), 3, F)], F) * q + 1


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("q,d", [(7, 1), (13, 1), (13, 2), (16, 2), (25, 1), (27, 1)])
def test_invariant_convolution_matches_convolve_histograms(q, d, n):
    F = field_create(*prime_power(q))
    s, _, _, blocks = _pencil_blocks([build_x(n, d, F)], F)
    hists = [kernels.block_histogram(F, *arrays, 0, q ** arrays[0].shape[1])
             for arrays in blocks]
    full, invariant = hists[0], hists[0][None]
    for hist in hists[1:]:
        full = kernels.convolve_histograms(F, full, hist)
        invariant = kernels.convolve_invariant(F, invariant, hist[None], s)
        assert invariant[0].tolist() == full.tolist()
