"""Tests for sparse multivariate polynomials, rational maps, and local data."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewplanes.domains import QQ, QQXI, field_create
from skewplanes.families import (
    build_ab,
    build_cox_model,
    build_h,
    build_line_pencil,
    build_phibar,
    build_sd,
    build_theta,
    build_x,
)
from skewplanes.mpoly import (
    MPoly,
    RationalMap,
    VarContext,
    compose,
    exact_rank,
    multiplicity_at,
)
from skewplanes.verify import _v_coordinates
from mpoly_extras import set_var

F7 = field_create(7)
XY = VarContext(("x", "y"))
XYZ = VarContext(("x", "y", "z"))


def poly_f7(ctx, pairs):
    return MPoly(ctx, F7, {tuple(e): F7.from_int(c) for e, c in pairs if c % 7})


def random_poly(ctx, dom, rng, max_deg=3, max_terms=5):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        e = tuple(rng.randrange(max_deg + 1) for _ in ctx.names)
        c = dom.from_int(rng.randrange(-9, 10))
        if not dom.is_zero(c):
            terms[e] = c
    return MPoly(ctx, dom, terms)


# ---------------------------------------------------------------------------
# arithmetic


def test_square_expansion():
    ctx = VarContext(("u1", "u2"))
    u1 = MPoly.variable(ctx, QQ, "u1")
    u2 = MPoly.variable(ctx, QQ, "u2")
    f = (u1 * u1 + 3 * (u2 * u2)) ** 2
    expected = (u1**4) + 6 * (u1**2 * u2**2) + 9 * (u2**4)
    assert f == expected


small_poly = st.builds(
    lambda seed: random_poly(XY, F7, random.Random(seed)),
    st.integers(0, 10**9),
)


@settings(max_examples=500, deadline=None)
@given(small_poly, small_poly, small_poly)
def test_ring_axioms(f, g, h):
    zero = MPoly.zero(XY, F7)
    one = MPoly.constant(XY, F7, 1)
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert f + zero == f
    assert f * one == f
    assert f - f == zero
    assert f * zero == zero


@settings(max_examples=200, deadline=None)
@given(small_poly, small_poly, st.integers(0, 6), st.integers(0, 6))
def test_evaluate_is_ring_hom(f, g, a, b):
    pt = (F7.from_int(a), F7.from_int(b))
    assert (f + g).evaluate(pt) == F7.add(f.evaluate(pt), g.evaluate(pt))
    assert (f * g).evaluate(pt) == F7.mul(f.evaluate(pt), g.evaluate(pt))


def test_evaluate_example():
    x = MPoly.variable(XY, F7, "x")
    y = MPoly.variable(XY, F7, "y")
    f = x * x - x * y + y * y
    assert f.evaluate((F7.from_int(2), F7.from_int(3))) == F7.zero


def test_polynomials_mix_across_equal_fields():
    # fields with equal (p, m) are one field, so their polynomials add
    x, y = MPoly.variable(XY, F7, "x"), MPoly.variable(XY, field_create(7), "y")
    assert x + y == y + x == poly_f7(XY, [((1, 0), 1), ((0, 1), 1)])
    assert hash(x + y) == hash(y + x)
    assert x.substitute({"x": y}) == y


def test_pow_matches_repeated_mul():
    rng = random.Random(7)
    f = random_poly(XY, QQ, rng)
    acc = MPoly.constant(XY, QQ, 1)
    for e in range(5):
        assert f**e == acc
        acc = acc * f


# ---------------------------------------------------------------------------
# the packed-monomial kernel against the tuple-key loop it replaced

F9 = field_create(3, 2)
KERNEL_DOMAINS = [QQ, QQXI, F7, F9]


def oracle_mul(f, g):
    """f * g by the tuple-key loop: one domain mul and add per pair of terms."""
    dom = f.dom
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            c = dom.mul(c1, c2)
            out[e] = dom.add(out[e], c) if e in out else c
    return MPoly(f.ctx, dom, {e: c for e, c in out.items() if not dom.is_zero(c)})


def oracle_substitute(f, images, tctx):
    """f with variable i replaced by images[i], term by term through oracle_mul."""
    dom = f.dom
    acc = MPoly.zero(tctx, dom)
    for exps, c in f.terms.items():
        term = MPoly.constant(tctx, dom, 1).scale(c)
        for img, e in zip(images, exps):
            for _ in range(e):
                term = oracle_mul(term, img)
        acc = acc + term
    return acc


def canonical(r):
    """The rational r in the payload form: an int when integral."""
    return r.numerator if r.denominator == 1 else r


def random_rational(rng):
    # integral half the time, so all-int polynomials and mixed ones both occur
    den = rng.choice((1, rng.randrange(1, 13)))
    return canonical(Fraction(rng.randrange(-9, 10), den))


def random_payload(dom, rng):
    if dom is QQ:
        return random_rational(rng)
    if dom is QQXI:
        return (random_rational(rng), random_rational(rng))
    return dom.element_from_index(rng.randrange(dom.q))


def random_dom_poly(ctx, dom, rng, max_deg=3, max_terms=6):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        c = random_payload(dom, rng)
        if not dom.is_zero(c):
            terms[tuple(rng.randrange(max_deg + 1) for _ in ctx.names)] = c
    return MPoly(ctx, dom, terms)


def is_canonical_rational(r):
    """An int, or a Fraction with denominator > 1: never a float, a bool or
    an integral Fraction."""
    return type(r) is int or (type(r) is Fraction and r.denominator > 1)


def assert_payload_types(p):
    for e, c in p.terms.items():
        assert type(e) is tuple and all(type(x) is int for x in e)
        if p.dom is QQ:
            assert is_canonical_rational(c)
        elif p.dom is QQXI:
            assert type(c) is tuple and len(c) == 2 and all(map(is_canonical_rational, c))
        elif p.dom.m == 1:
            assert type(c) is int and 0 < c < p.dom.p
        else:
            assert type(c) is tuple and len(c) == p.dom.m


@pytest.mark.parametrize("n, d", [(1, 1), (2, 2)])
def test_integral_families_hold_int_payloads(n, d):
    # phibar's halves cancel, so every family built over Q is integral and
    # its payloads are ints; so are the v-coordinates, at 6 times the u's
    polys = [build_x(n, d), *build_ab(n, d), *build_sd(n, d),
             *build_h(n).components, *build_theta(n).components,
             *build_phibar(n, d).components]
    for p in polys:
        assert p.dom is QQ and p.terms
        assert all(type(c) is int for c in p.terms.values())
    v = _v_coordinates(n)
    assert {type(x) for p in v for c in p.terms.values() for x in c} == {int}
    for p in v:
        assert_payload_types(p)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(KERNEL_DOMAINS), st.integers(0, 10**9), st.sampled_from([None, 0, 1]))
def test_kernel_product_matches_tuple_loop(dom, seed, one_term):
    # one_term: which operand, if any, is cut down to one term
    rng = random.Random(seed)
    f = random_dom_poly(XYZ, dom, rng)
    g = random_dom_poly(XYZ, dom, rng)
    if one_term is not None:
        c = random_payload(dom, rng)
        one = MPoly(XYZ, dom, {} if dom.is_zero(c) else
                    {tuple(rng.randrange(4) for _ in XYZ.names): c})
        f, g = (one, g) if one_term == 0 else (f, one)
    fg = f * g
    assert fg.terms == oracle_mul(f, g).terms
    assert_payload_types(fg)


@pytest.mark.parametrize("dom", KERNEL_DOMAINS)
def test_kernel_has_no_fixed_exponent_width(dom):
    # exponents past 16, 40 and 64 bits pack and unpack exactly
    for big in (2 ** 16, 2 ** 40, 2 ** 70):
        f = MPoly(XYZ, dom, {(big, 3, 0): dom.from_int(5),
                             (0, big + 1, 1): dom.one})
        g = MPoly(XYZ, dom, {(big - 1, 0, 2): dom.one, (1, 1, big): dom.from_int(2)})
        fg = f * g
        assert fg.terms == oracle_mul(f, g).terms
        assert (2 * big - 1, 3, 2) in fg.terms and (1, big + 2, big + 1) in fg.terms
        assert (f ** 2).terms == oracle_mul(f, f).terms


def test_kernel_products_cancel_to_zero_terms():
    x = MPoly.variable(XY, QQ, "x")
    y = MPoly.variable(XY, QQ, "y")
    assert ((x + y) * (x - y)).terms == {(2, 0): 1, (0, 2): -1}
    half = MPoly.constant(XY, QQ, 1).scale(Fraction(1, 2))
    assert ((half * x - y) * (x + 2 * y) - half * (x * x) + 2 * (y * y)).is_zero()
    # (x + y)^p = x^p + y^p: every middle term vanishes mod p
    for dom in (F7, F9):
        x = MPoly.variable(XY, dom, "x")
        y = MPoly.variable(XY, dom, "y")
        p = dom.p
        assert ((x + y) ** p).terms == {(p, 0): dom.one, (0, p): dom.one}
    # (x + xi*y)(x - xi*y) = x^2 + 3y^2: the xi terms cancel
    x = MPoly.variable(XY, QQXI, "x")
    y = MPoly.variable(XY, QQXI, "y")
    xi_y = y.scale(QQXI.xi)
    assert ((x + xi_y) * (x - xi_y)).terms == {(2, 0): QQXI.one, (0, 2): QQXI.from_int(3)}
    assert (x * MPoly.zero(XY, QQXI)).is_zero() and (MPoly.zero(XY, QQXI) * x).is_zero()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(KERNEL_DOMAINS), st.integers(0, 10**9))
def test_substitute_matches_term_by_term(dom, seed):
    # sources are not homogeneous and images carry mixed denominators, so the
    # common scale of the packed sum is exercised
    rng = random.Random(seed)
    f = random_dom_poly(XYZ, dom, rng)
    images = [random_dom_poly(XY, dom, rng, max_deg=2, max_terms=4) for _ in XYZ.names]
    g = f.substitute(dict(zip(XYZ.names, images)))
    assert g.ctx == XY
    assert g.terms == oracle_substitute(f, images, XY).terms
    assert_payload_types(g)


# ---------------------------------------------------------------------------
# substitution and evaluation


def test_substitute_line_identity():
    # the quadratic form x^2 - xy + y^2 collapses on each conjugate line pair
    # to -3(lam^2 - lam)(v^2 + 3 w^2), and to -3(lam^2 - lam) on the last pair
    for n, d in [(1, 1), (2, 1), (2, 2)]:
        data = build_line_pencil(n, d)
        L = data["lines"]
        ctx = L[0].ctx
        lam = MPoly.variable(ctx, QQXI, "lam")
        factor = (-3) * (lam * lam - lam)
        for i in range(n):
            a, b = L[2 * i], L[2 * i + 1]
            v = MPoly.variable(ctx, QQXI, f"u{2 * i + 1}")
            w = MPoly.variable(ctx, QQXI, f"u{2 * i + 2}")
            assert a * a - a * b + b * b == factor * (v * v + 3 * (w * w))
        last = L[2 * n]
        one = MPoly.constant(ctx, QQXI, 1)
        assert last * last - last + one == factor


@settings(max_examples=200, deadline=None)
@given(small_poly, st.integers(0, 10**9), st.integers(0, 6), st.integers(0, 6))
def test_substitute_commutes_with_evaluate(f, seed, a, b):
    rng = random.Random(seed)
    images = {
        "x": random_poly(XY, F7, rng),
        "y": random_poly(XY, F7, rng),
    }
    pt = (F7.from_int(a), F7.from_int(b))
    lhs = f.substitute(images).evaluate(pt)
    rhs = f.evaluate(tuple(images[v].evaluate(pt) for v in ("x", "y")))
    assert lhs == rhs


def test_substitute_into_larger_context():
    big = VarContext(("s", "t", "u"))
    x = MPoly.variable(XY, QQ, "x")
    y = MPoly.variable(XY, QQ, "y")
    s = MPoly.variable(big, QQ, "s")
    t = MPoly.variable(big, QQ, "t")
    u = MPoly.variable(big, QQ, "u")
    f = x * y + y * y
    g = f.substitute({"x": s + t, "y": u})
    assert g == (s + t) * u + u * u
    assert g.ctx == big


def test_set_var_scalar():
    x = MPoly.variable(XY, QQ, "x")
    y = MPoly.variable(XY, QQ, "y")
    f = x * x * y + 2 * y
    assert set_var(f, "x", Fraction(3)) == 9 * y + 2 * y
    assert set_var(f, "y", 0).is_zero()


# ---------------------------------------------------------------------------
# homogenization


def test_homogenize_example():
    x = MPoly.variable(XYZ, QQ, "x")
    y = MPoly.variable(XYZ, QQ, "y")
    z = MPoly.variable(XYZ, QQ, "z")
    f = y * y + z + 1
    g = f.homogenize("x", 2)
    assert g == y * y + x * z + x * x
    assert g.is_homogeneous() and g.total_degree() == 2


def test_homogenize_adds_terms_that_meet():
    # x^2 and x * x land on one monomial, as do x^2 and -(x * x)
    x = MPoly.variable(XYZ, QQ, "x")
    y = MPoly.variable(XYZ, QQ, "y")
    assert (x ** 2 + x + y).homogenize("x", 2) == 2 * x ** 2 + x * y
    assert (x ** 2 - x + y).homogenize("x", 2) == x * y
    assert (x - 1).homogenize("x", 1).is_zero()


def test_homogenize_target_too_small():
    y = MPoly.variable(XYZ, QQ, "y")
    f = y**3
    with pytest.raises(ValueError):
        f.homogenize("x", 2)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_homogenize_dehomogenize_roundtrip(seed):
    rng = random.Random(seed)
    f = random_poly(XYZ, QQ, rng)
    d = f.total_degree()
    if f.is_zero():
        return
    g = f.homogenize("x", d + rng.randrange(3))
    assert g.is_homogeneous()
    assert set_var(g, "x", 1).homogenize("x", g.total_degree()) == g


def test_dehomogenize_recovers_affine_part():
    A, B = build_ab(2, 1)
    affine = set_var(A, "u0", 1)
    assert affine.homogenize("u0", A.total_degree()) == A


# ---------------------------------------------------------------------------
# calculus


def test_partial_example():
    x = MPoly.variable(XY, QQ, "x")
    y = MPoly.variable(XY, QQ, "y")
    f = x**3 * y + 2 * (x * y)
    assert f.partial("x") == 3 * (x * x * y) + 2 * y


def test_partial_char_p_kills_pth_powers():
    F3 = field_create(3)
    x = MPoly.variable(XY, F3, "x")
    assert (x**3).partial("x").is_zero()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_leibniz_rule(seed):
    rng = random.Random(seed)
    f = random_poly(XY, QQ, rng)
    g = random_poly(XY, QQ, rng)
    for v in ("x", "y"):
        assert (f * g).partial(v) == f.partial(v) * g + f * g.partial(v)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_formal_finite_difference(seed):
    # f(x+h) - f(x-h) = 2h f'(x) + O(h^3), checked exactly with a formal h
    rng = random.Random(seed)
    ext = VarContext(("x", "y", "h"))
    f = random_poly(XY, QQ, rng)
    x = MPoly.variable(ext, QQ, "x")
    h = MPoly.variable(ext, QQ, "h")
    y = MPoly.variable(ext, QQ, "y")
    plus = f.substitute({"x": x + h, "y": y})
    minus = f.substitute({"x": x - h, "y": y})
    diff = plus - minus

    def h_coefficient(p, k):
        i = ext.index["h"]
        out = {}
        for e, c in p.terms.items():
            if e[i] == k:
                out[e[:i] + (0,) + e[i + 1:]] = c
        return MPoly(ext, QQ, out)

    fx = f.partial("x").substitute(
        {"x": x, "y": y}
    )
    assert h_coefficient(diff, 0).is_zero()
    assert h_coefficient(diff, 1) == 2 * fx
    assert h_coefficient(diff, 2).is_zero()  # odd function of h


# ---------------------------------------------------------------------------
# degrees and orderings


def test_multidegree_examples():
    model = build_cox_model(1, 1)
    ctx, dom = model.ctx, model.S_hat.dom
    z0 = MPoly.variable(ctx, dom, "z0")
    z1 = MPoly.variable(ctx, dom, "z1")
    wp = MPoly.variable(ctx, dom, "wp")
    assert (z0 * z1).multidegree(model.grading) == (2, -1, -1)
    assert (z0 + wp).multidegree(model.grading) is None


def test_graded_lex_leading_term():
    x = MPoly.variable(XY, QQ, "x")
    y = MPoly.variable(XY, QQ, "y")
    f = x * x + x * y**2 + y
    exps, c = f.leading_term()
    assert exps == (1, 2) and c == 1  # degree 3 beats degree 2


def test_to_text_deterministic():
    x = MPoly.variable(XY, QQ, "x")
    y = MPoly.variable(XY, QQ, "y")
    f = y + x * x - 2 * (x * y)
    assert f.to_text() == (f + 0 * y).to_text()
    assert "x^2" in f.to_text()


def test_total_degree_and_homogeneous_flags():
    x = MPoly.variable(XY, QQ, "x")
    y = MPoly.variable(XY, QQ, "y")
    assert (x * y + y * y).is_homogeneous()
    assert not (x + y * y).is_homogeneous()
    assert MPoly.zero(XY, QQ).total_degree() is None


# ---------------------------------------------------------------------------
# exact division


def oracle_try_div(f, g):
    """f / g by the loop `MPoly.try_div` used before its heap: the whole
    remainder rebuilt, and rescanned for its leading term, at every step."""
    dom = f.dom
    ge, gc = g.leading_term()
    gc_inv = dom.inv(gc)
    rem = MPoly(f.ctx, dom, dict(f.terms))
    quot = {}
    while rem.terms:
        re_, rc = rem.leading_term()
        qe = tuple(a - b for a, b in zip(re_, ge))
        if any(x < 0 for x in qe):
            return None
        qc = dom.mul(rc, gc_inv)
        quot[qe] = qc
        rem = rem - oracle_mul(MPoly(f.ctx, dom, {qe: qc}), g)
    return MPoly(f.ctx, dom, quot)


def test_try_div_recovers_factor():
    rng = random.Random(11)
    for _ in range(25):
        f = random_poly(XYZ, QQ, rng)
        g = random_poly(XYZ, QQ, rng)
        if g.is_zero():
            continue
        q = (f * g).try_div(g)
        assert q == f


def test_try_div_rejects_non_multiple():
    x = MPoly.variable(XY, QQ, "x")
    y = MPoly.variable(XY, QQ, "y")
    assert (x * x + y).try_div(x + y) is None
    assert (x * x - y * y).try_div(x - y) == x + y


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(KERNEL_DOMAINS), st.integers(0, 10**9))
def test_heap_division_matches_oracle(dom, seed):
    rng = random.Random(seed)
    f = random_dom_poly(XYZ, dom, rng)
    g = random_dom_poly(XYZ, dom, rng)
    h = random_dom_poly(XYZ, dom, rng, max_terms=2)
    if g.is_zero():
        g = MPoly.constant(XYZ, dom, 1)
    quot = (f * g).try_div(g)
    assert quot == f and quot == oracle_try_div(f * g, g)
    assert_payload_types(quot)
    # a remainder h makes most dividends non-multiples; the oracle decides
    assert (f * g + h).try_div(g) == oracle_try_div(f * g + h, g)
    zero = MPoly.zero(XYZ, dom)
    assert zero.try_div(g) == zero == oracle_try_div(zero, g)


@pytest.mark.parametrize("dom", KERNEL_DOMAINS)
def test_heap_division_edge_cases(dom):
    x, y, z = (MPoly.variable(XYZ, dom, nm) for nm in XYZ.names)
    # g's leading monomial x^3 exceeds every monomial of f in x
    f, g = x * x * y + z ** 4, x ** 3 + y
    assert f.try_div(g) is None and oracle_try_div(f, g) is None
    # leading terms divide at first, then a lower term does not
    assert (g * (x + z) + z ** 2).try_div(g) is None
    # terms cancel and come back: (x + y)(x - y) * (x^2 + y^2) / (x - y)
    p = (x + y) * (x - y) * (x * x + y * y)
    assert p.try_div(x - y) == (x + y) * (x * x + y * y) == oracle_try_div(p, x - y)
    with pytest.raises(ZeroDivisionError):
        f.try_div(MPoly.zero(XYZ, dom))


# ---------------------------------------------------------------------------
# exact linear algebra


def gauss_jordan_rank(rows, dom):
    """Rank by Gauss-Jordan elimination over the field of fractions, with
    domain arithmetic on payloads: the elimination `exact_rank` ran before
    its fraction-free one, kept as its oracle."""
    mat = [list(r) for r in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((r for r in range(rank, len(mat)) if not dom.is_zero(mat[r][col])), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = dom.inv(mat[rank][col])
        mat[rank] = [dom.mul(v, inv) for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and not dom.is_zero(mat[r][col]):
                f = mat[r][col]
                mat[r] = [dom.sub(a, dom.mul(f, b)) for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


RANK_DOMAINS = [QQ, QQXI, field_create(1009), field_create(2, 5)]


def returned_values(fn, *args):
    """(fn(*args), every value returned by a frame of `mpoly` or `domains`
    that the call ran)."""
    files = {sys.modules[f.__module__].__file__ for f in (exact_rank, field_create)}
    seen = []

    def returns(frame, event, arg):
        if event == "return":
            seen.append(arg)
        return returns

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: returns if frame.f_code.co_filename in files else None)
    try:
        return fn(*args), seen
    finally:
        sys.settrace(old)


def leaves(values):
    for v in values:
        if type(v) in (list, tuple):
            yield from leaves(v)
        else:
            yield v


def known_rank_matrix(dom, rng, m, n, proper):
    """(matrix, rank) for an m x n matrix L R of `dom` payloads: L (m x k)
    and R (k x n) random integer factors holding an identity block, so the
    rank is k in every characteristic; then each row and each column is
    scaled by a nonzero payload, a proper Fraction (per part over Q(xi))
    when `proper`, and zero rows and columns are inserted."""
    k = rng.randrange(min(m, n) + 1)
    lrows, rcols = rng.sample(range(m), k), rng.sample(range(n), k)
    L = [[rng.randrange(-4, 5) for _ in range(k)] for _ in range(m)]
    R = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(k)]
    for i in range(k):
        L[lrows[i]] = [int(j == i) for j in range(k)]
        for j in range(k):
            R[j][rcols[i]] = int(j == i)

    def unit():
        while True:
            if dom.char:
                c = dom.element_from_index(rng.randrange(dom.q))
            else:
                c = random_payload(dom, rng) if proper else (
                    dom.from_int(rng.randrange(-9, 10)) if dom is QQ else
                    (rng.randrange(-9, 10), rng.randrange(-9, 10)))
            if not dom.is_zero(c):
                return c

    mat = [[dom.from_int(sum(row[i] * R[i][j] for i in range(k))) for j in range(n)]
           for row in L]
    mat = [[dom.mul(c, s) for c in row] for row, s in zip(mat, [unit() for _ in mat])]
    col_scales = [unit() for _ in range(n)]
    mat = [[dom.mul(c, s) for c, s in zip(row, col_scales)] for row in mat]
    for _ in range(rng.randrange(3)):
        mat.insert(rng.randrange(len(mat) + 1), [dom.zero] * n)
    for _ in range(rng.randrange(3) if mat else 0):
        j = rng.randrange(len(mat[0]) + 1)
        for row in mat:
            row.insert(j, dom.zero)
    return mat, k


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(RANK_DOMAINS), st.integers(0, 6), st.integers(0, 6), st.booleans(),
       st.integers(0, 10**9))
def test_exact_rank_matches_gauss_jordan(dom, m, n, proper, seed):
    mat, k = known_rank_matrix(dom, random.Random(seed), m, n, proper)
    rows = [row[:] for row in mat]
    rank, seen = returned_values(exact_rank, rows, dom)
    assert rank == k == gauss_jordan_rank(mat, dom)
    assert type(rank) is int and rows == mat
    assert float not in {type(v) for v in leaves(seen)}


@pytest.mark.parametrize("dom", RANK_DOMAINS)
def test_exact_rank_empty_and_zero(dom):
    z = dom.zero
    for rows in ([], [[]], [[], []], [[z, z]], [[z], [z], [z]]):
        assert exact_rank(rows, dom) == gauss_jordan_rank(rows, dom) == 0


def test_exact_rank_integral_rows_build_no_fraction():
    # over Q and Q(xi) the lifted rows of integral payloads are the payloads
    # themselves, and every elimination value stays an int
    for dom, mat in ((QQ, [[2, 4, 1], [1, 2, 7], [3, 6, 8]]),
                     (QQXI, [[(1, 1), (0, 2)], [(-2, 2), (-6, 2)], [(3, 0), (0, 0)]])):
        rank, seen = returned_values(exact_rank, mat, dom)
        assert rank == gauss_jordan_rank(mat, dom) == 2
        assert {type(v) for v in leaves(seen)} <= {int, bool, type(None)}


def test_exact_rank_basic():
    rows = [
        [Fraction(1), Fraction(0), Fraction(2)],
        [Fraction(0), Fraction(1), Fraction(3)],
        [Fraction(1), Fraction(1), Fraction(5)],
    ]
    assert exact_rank(rows, QQ) == 2


def test_exact_rank_quadext():
    xi = QQXI.xi
    one = QQXI.one
    rows = [
        [one, xi],
        [xi, QQXI.mul(xi, xi)],  # xi * row 1
    ]
    assert exact_rank(rows, QQXI) == 1
    rows2 = [[one, xi], [xi, one]]
    assert exact_rank(rows2, QQXI) == 2


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_exact_rank_invariant_under_row_ops(seed):
    rng = random.Random(seed)
    rows = [
        [Fraction(rng.randrange(-5, 6)) for _ in range(4)] for _ in range(3)
    ]
    r = exact_rank([row[:] for row in rows], QQ)
    # swap two rows and add a multiple of one row to another
    rows[0], rows[1] = rows[1], rows[0]
    c = Fraction(rng.randrange(-3, 4))
    rows[2] = [a + c * b for a, b in zip(rows[2], rows[0])]
    assert exact_rank(rows, QQ) == r


# ---------------------------------------------------------------------------
# local multiplicity


def test_multiplicity_at_conjugate_point_n2():
    A, B = build_ab(2, 1, dom=QQXI)
    xi, zero, one = QQXI.xi, QQXI.zero, QQXI.one
    q_minus = (zero, zero, zero, QQXI.neg(xi), one)
    out = multiplicity_at([A, B], q_minus)
    assert out["multiplicity"] == 3
    assert tuple(sorted(out["orders"])) == (1, 3)
    assert not out["shared_tangent"]


def test_multiplicity_at_plane_point_n1_d2():
    A, B = build_ab(1, 2, dom=QQXI)
    xi, zero, one = QQXI.xi, QQXI.zero, QQXI.one
    p_plus = (zero, xi, one)
    out = multiplicity_at([A, B], p_plus)
    assert out["multiplicity"] == 10
    assert tuple(sorted(out["orders"])) == (2, 5)


def test_multiplicity_at_smooth_and_missing_points():
    A, B = build_ab(1, 1, dom=QQXI)
    # a transverse intersection point has multiplicity 1... use a point on
    # neither hypersurface instead: multiplicity must be 0
    pt = (QQXI.one, QQXI.one, QQXI.one)
    out = multiplicity_at([A, B], pt)
    assert out["multiplicity"] == 0


def test_multiplicity_shared_tangent_flag():
    x = MPoly.variable(XYZ, QQ, "x")
    y = MPoly.variable(XYZ, QQ, "y")
    out = multiplicity_at(
        [x * x, x * y + y**3], (Fraction(0), Fraction(0), Fraction(1))
    )
    # lowest forms x^2 and xy share the factor x without one dividing the
    # other; the flag must warn that the product may overcount
    assert out["shared_tangent"] is True
    # a clean transverse-ish pair reduces and reports no shared tangent
    clean = multiplicity_at(
        [x * x, x * x + y**3], (Fraction(0), Fraction(0), Fraction(1))
    )
    assert clean["multiplicity"] == 6 and clean["shared_tangent"] is False


def test_multiplicity_rejects_zero_point():
    A, B = build_ab(1, 1, dom=QQXI)
    with pytest.raises(ValueError):
        multiplicity_at([A, B], (QQXI.zero, QQXI.zero, QQXI.zero))


# ---------------------------------------------------------------------------
# rational maps


def test_rational_map_evaluate_and_compose():
    x = MPoly.variable(XY, QQ, "x")
    y = MPoly.variable(XY, QQ, "y")
    sq = RationalMap("square", [x * x, y * y])
    dbl = RationalMap("double", [2 * x, 2 * y])
    c = compose(sq, dbl)
    assert c.components[0] == 4 * (x * x)
    assert sq.evaluate((Fraction(2), Fraction(3))) == (Fraction(4), Fraction(9))
    assert sq.degree() == 2


def test_rational_map_map_domain():
    x = MPoly.variable(XY, QQ, "x")
    y = MPoly.variable(XY, QQ, "y")
    m = RationalMap("m", [x + y, x - y])
    mf = m.map_domain(F7, F7.reduce_rational)
    assert mf.evaluate((F7.from_int(3), F7.from_int(5))) == (1, 5)
