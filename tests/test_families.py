"""Tests for the hypersurface families, maps, and distinguished ideals."""

import random
from fractions import Fraction

import numpy as np
import pytest

from skewplanes.domains import QQ, QQXI, field_create
from skewplanes.families import (
    A_MINUS,
    A_PLUS,
    FAMILY_BUILDERS,
    ab_form,
    build_ab,
    build_alpha_beta,
    build_char_two_maps,
    build_cox_model,
    build_cremona,
    build_dnm,
    build_h,
    build_ideal,
    build_line_pencil,
    build_phibar,
    build_phitilde,
    build_sd,
    build_theta,
    build_x,
    build_x_d_delta,
    pencil_context,
    phibar_blocks,
    phibar_form,
    sd_form,
    x_context,
    x_form,
    y_context,
)
from skewplanes.mpoly import MPoly, VarContext, compose, exact_rank


def qq_point(rng, length):
    return tuple(Fraction(rng.randrange(-9, 10)) for _ in range(length))


def qqxi_point(rng, length):
    return tuple(
        (Fraction(rng.randrange(-9, 10)), Fraction(rng.randrange(-9, 10)))
        for _ in range(length)
    )


# ---------------------------------------------------------------------------
# the hypersurface X


def test_x_fermat_cubic():
    X = build_x(1, 1)
    ctx = X.ctx
    expected = MPoly.zero(ctx, QQ)
    for v in ctx.names:
        expected = expected + MPoly.variable(ctx, QQ, v) ** 3
    assert X == expected


def test_x_degree_and_homogeneity():
    for n in (1, 2, 3):
        for d in (1, 2, 3):
            X = build_x(n, d)
            assert X.is_homogeneous()
            assert X.total_degree() == 2 * d + 1
            assert X.ctx.nvars == 2 * n + 2


def test_x_cyclic_block_shift_symmetry():
    for n, d in [(1, 2), (2, 1), (2, 2)]:
        X = build_x(n, d)
        ctx = X.ctx
        k = 2 * n + 2
        images = {
            f"x{i}": MPoly.variable(ctx, QQ, f"x{(i + 2) % k}") for i in range(k)
        }
        assert X.substitute(images) == X


def test_x_pair_swap_symmetry():
    # x^2 - xy + y^2 and x + y are both symmetric under (x, y) -> (y, x)
    X = build_x(2, 2)
    ctx = X.ctx
    images = {}
    for i in range(3):
        images[f"x{2 * i}"] = MPoly.variable(ctx, QQ, f"x{2 * i + 1}")
        images[f"x{2 * i + 1}"] = MPoly.variable(ctx, QQ, f"x{2 * i}")
    assert X.substitute(images) == X


def test_x_vanishes_at_diagonal_point():
    for n, d in [(1, 1), (1, 2), (2, 1), (3, 2)]:
        X = build_x(n, d)
        pt = [Fraction(0)] * (2 * n + 2)
        pt[0], pt[1] = Fraction(1), Fraction(-1)
        assert X.evaluate(tuple(pt)) == 0


def test_x_char_two_matches_plus_sign_form():
    F2 = field_create(2)
    X = build_x(1, 1, dom=F2)
    ctx = X.ctx
    expected = MPoly.zero(ctx, F2)
    for v in ctx.names:
        expected = expected + MPoly.variable(ctx, F2, v) ** 3
    assert X == expected
    # the middle sign is + in characteristic 2: check a d=2 coefficient
    X2 = build_x(1, 2, dom=F2)
    # (x0+x1)(x0^2+x0x1+x1^2)^2 contains x0^3 x1^2 with coefficient 3 = 1
    assert X2.coefficient_of((3, 2, 0, 0)) == F2.one


def test_x_d_delta_fermat_and_errors():
    f = build_x_d_delta(1, 3, 1)
    ctx = f.ctx
    expected = MPoly.zero(ctx, QQ)
    for v in ctx.names:
        expected = expected + MPoly.variable(ctx, QQ, v) ** 3
    assert f == expected
    g = build_x_d_delta(1, 3, 2)
    assert g.total_degree() == 2 * (3 - 1) + 1 == 5
    assert g.is_homogeneous()
    pt = (Fraction(1), Fraction(-1), Fraction(0), Fraction(0))
    assert g.evaluate(pt) == 0
    for bad in (2, 4, 9, 15):
        with pytest.raises(ValueError):
            build_x_d_delta(1, bad, 1)
    with pytest.raises(ValueError):
        build_x_d_delta(1, 3, 0)


@pytest.mark.parametrize("n", [1, 2])
def test_x_form_matches_build_x_on_values(n):
    # the value form on Fractions, ints, int64 and object arrays is the
    # polynomial build_x expands, as is its k = d form for Xdelta
    rng = random.Random(11 + n)
    for d in (1, 2, 3, 6):
        pts = [tuple(rng.randrange(-4, 5) for _ in range(2 * n + 2)) for _ in range(10)]
        fracs = [tuple(Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(2 * n + 2))
                 for _ in range(5)]
        for k, X in ((3, build_x(n, d)), (5, build_x_d_delta(n, 5, d))):
            assert [x_form(pt, d, k) for pt in fracs] == [X.evaluate(pt) for pt in fracs]
            want = [X.evaluate(tuple(map(Fraction, pt))) for pt in pts]
            assert [x_form(pt, d, k) for pt in pts] == want, (d, k)
            # |a + b| <= 8 and |g_k| <= k 4^(k-1) bound each value formed
            wide = (n + 1) * 8 * (k * 4 ** (k - 1)) ** d >= 2 ** 63
            for dtype in (object,) if wide else (np.int64, object):
                cols = np.array(pts, dtype=dtype).T
                got = x_form(list(cols), d, k)
                assert [int(v) for v in got] == want, (d, k, dtype)
                # the in-place steps leave the arguments as they were
                assert cols.T.tolist() == [list(pt) for pt in pts]


def test_x_is_x_d_delta_at_three():
    for n in (1, 2, 3):
        for d in (1, 2, 3):
            assert build_x(n, d) == build_x_d_delta(n, 3, d)


# ---------------------------------------------------------------------------
# the pair (A, B)


def test_ab_printed_forms_n1_d1():
    A, B = build_ab(1, 1)
    ctx = A.ctx
    u0 = MPoly.variable(ctx, QQ, "u0")
    u1 = MPoly.variable(ctx, QQ, "u1")
    u2 = MPoly.variable(ctx, QQ, "u2")
    quad = u1 * u1 + 3 * (u2 * u2)
    assert A == u0**3 + (u1 + 3 * u2) * quad
    assert B == u0**3 + (u1 - u2) * quad
    assert A - B == 4 * (u2 * quad)


def test_ab_difference_divisible_by_four():
    for n, d in [(1, 2), (2, 1), (2, 2)]:
        A, B = build_ab(n, d)
        diff = A - B
        quarter = diff.scale(Fraction(1, 4))
        assert all(c.denominator == 1 for c in quarter.terms.values())


def test_ab_degrees():
    for n, d in [(1, 1), (1, 2), (2, 1), (3, 3)]:
        A, B = build_ab(n, d)
        assert A.is_homogeneous() and B.is_homogeneous()
        assert A.total_degree() == B.total_degree() == 2 * d + 1


def test_ab_equal_on_even_locus():
    A, B = build_ab(2, 1)
    # on u_{2i+2} = 0 for all i the two polynomials coincide
    for f in (A - B,):
        g = f
        for i in range(2):
            g = g.set_var(f"u{2 * i + 2}", 0)
        assert g.is_zero()


# ---------------------------------------------------------------------------
# phibar


def test_phibar_shape_and_last_component():
    for n, d in [(1, 1), (1, 2), (2, 1)]:
        phi = build_phibar(n, d)
        A, B = build_ab(n, d)
        assert len(phi.components) == 2 * n + 2
        for c in phi.components:
            assert c.is_homogeneous() and c.total_degree() == 2 * d + 2
        u0 = MPoly.variable(A.ctx, QQ, "u0")
        assert phi.components[2 * n + 1] == u0 * A
        assert phi.components[2 * n] == (u0 * (A - 3 * B)).scale(Fraction(1, 2))


def test_phibar_components_in_ideal_ab():
    # each component must be L_A * Abar + L_B * Bbar with linear L's; solvability
    # is rank(M) == rank(M | b) over the exact rationals
    for n, d in [(1, 1), (1, 2), (2, 1)]:
        phi = build_phibar(n, d)
        A, B = build_ab(n, d)
        ctx = A.ctx
        gens = []
        for v in ctx.names:
            xv = MPoly.variable(ctx, QQ, v)
            gens.append(xv * A)
            gens.append(xv * B)
        monomials = sorted({e for g in gens for e in g.terms}
                           | {e for c in phi.components for e in c.terms})
        cols = [[g.terms.get(e, Fraction(0)) for e in monomials] for g in gens]
        rows = [list(r) for r in zip(*cols)]
        base_rank = exact_rank([r[:] for r in rows], QQ)
        for comp in phi.components:
            aug = [r[:] + [comp.terms.get(e, Fraction(0))]
                   for r, e in zip(rows, monomials)]
            assert exact_rank(aug, QQ) == base_rank, (n, d)


@pytest.mark.parametrize("n", [1, 2])
def test_phibar_form_matches_polynomial_on_values(n):
    # the value form that the height engine evaluates on int64 and object
    # arrays is the one build_phibar expands; halving by floor division is
    # exact, because the halved values are even at integer points
    rng = random.Random(7 + n)
    for d in range(1, 10 if n == 1 else 4):
        phi = build_phibar(n, d)
        pts = [tuple(rng.randrange(-4, 5) for _ in range(2 * n + 1)) for _ in range(12)]
        pts += [(1,) + (0,) * (2 * n), (0, 1, -1) + (0,) * (2 * n - 2)]
        want = [phi.evaluate(tuple(Fraction(v) for v in pt)) for pt in pts]
        assert [tuple(phibar_form(list(map(Fraction, pt)), d, lambda x: x / 2))
                for pt in pts] == want, d
        assert [tuple(phibar_form(list(pt), d, lambda x: x // 2)) for pt in pts] == want, d
        cols = np.array(pts, dtype=np.int64 if d <= 3 else object).T
        got = phibar_form(list(cols), d, lambda x: x // 2)
        assert [tuple(int(c[i]) for c in got) for i in range(len(pts))] == want, d


def test_phibar_blocks_identities():
    # with A and B free, phibar's block pair (P, Q) and its last pair
    # (P0, Q0) satisfy identities free of n and d, and one block of ab_form
    # has the summands that make X(phibar) vanish through them
    ctx = VarContext(["A", "B", "u0", "v", "w"])
    A, B, u0, v, w = (MPoly.variable(ctx, QQ, name) for name in ctx.names)
    P, Q, P0, Q0 = phibar_blocks([u0, v, w], A, B, lambda p: p.scale(Fraction(1, 2)))
    N = v * v + 3 * (w * w)
    norm = A * A + 3 * (B * B)
    assert P + Q == ((v - w) * A - (v + 3 * w) * B).scale(Fraction(3, 2))
    assert P * P - P * Q + Q * Q == (norm * N).scale(Fraction(3, 4))
    assert P0 + Q0 == (u0 * (A - B)).scale(Fraction(3, 2))
    assert P0 * P0 - P0 * Q0 + Q0 * Q0 == (u0 * u0 * norm).scale(Fraction(3, 4))
    for d in range(1, 5):
        assert ab_form([u0, v, w], d) == (u0 ** (2 * d + 1) + (v + 3 * w) * N ** d,
                                          u0 ** (2 * d + 1) + (v - w) * N ** d)


def test_ab_form_matches_build_ab_on_values():
    rng = random.Random(5)
    for n, d in [(1, 1), (1, 4), (2, 2), (3, 1)]:
        polys = build_ab(n, d)
        for _ in range(5):
            pt = [rng.randrange(-6, 7) for _ in range(2 * n + 1)]
            assert ab_form(pt, d) == tuple(p.evaluate(tuple(map(Fraction, pt))) for p in polys)


def test_phibar_integer_after_clearing():
    phi = build_phibar(1, 1)
    for c in phi.components:
        doubled = c.scale(Fraction(2))
        assert all(x.denominator == 1 for x in doubled.terms.values())


# ---------------------------------------------------------------------------
# theta and h


def test_theta_last_component_and_count():
    for n in (1, 2, 3):
        th = build_theta(n)
        assert len(th.components) == 2 * n + 1
        ctx = th.ctx
        a = MPoly.variable(ctx, QQ, f"x{2 * n}")
        b = MPoly.variable(ctx, QQ, f"x{2 * n + 1}")
        assert th.components[2 * n] == a * a - a * b + b * b
        for c in th.components:
            assert c.is_homogeneous() and c.total_degree() == 2


def test_theta_defined_at_ones_tail():
    th = build_theta(1)
    pt = (Fraction(0), Fraction(0), Fraction(1), Fraction(1))
    img = th.evaluate(pt)
    assert img[2] == 1  # theta_{2n} = 1 - 1 + 1


def test_theta_vanishes_on_plus_plane():
    rng = random.Random(5)
    for n in (1, 2):
        th = build_theta(n).map_domain(QQXI, QQXI.from_rational)
        for _ in range(5):
            odd = qqxi_point(rng, n + 1)
            pt = []
            for i in range(n + 1):
                pt.append(QQXI.mul(A_PLUS, odd[i]))
                pt.append(odd[i])
            img = th.evaluate(tuple(pt))
            assert all(QQXI.is_zero(c) for c in img)


def test_h_printed_form_and_invertibility():
    h = build_h(1)
    texts = [c.to_text() for c in h.components]
    assert texts == ["2*u2", "2*u0 + -1*u1", "1*u1"]
    for n in (1, 2, 3):
        hn = build_h(n)
        k = 2 * n + 1
        ctx = hn.ctx
        mat = [
            [comp.coefficient_of(tuple(1 if j == i else 0 for i in range(k)))
             for j in range(k)]
            for comp in hn.components
        ]
        assert exact_rank(mat, QQ) == k


def test_h_inverse_composes_to_identity():
    for n in (1, 2):
        h = build_h(n)
        k = 2 * n + 1
        ctx = h.ctx
        mat = [
            [Fraction(comp.coefficient_of(tuple(1 if j == i else 0 for i in range(k))))
             for j in range(k)]
            for comp in h.components
        ]
        # invert the matrix by Gauss-Jordan over Q
        aug = [row[:] + [Fraction(int(i == r)) for i in range(k)]
               for r, row in enumerate(mat)]
        for col in range(k):
            piv = next(r for r in range(col, k) if aug[r][col] != 0)
            aug[col], aug[piv] = aug[piv], aug[col]
            pv = aug[col][col]
            aug[col] = [x / pv for x in aug[col]]
            for r in range(k):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        inv = [row[k:] for row in aug]
        # h applied after its inverse is the identity substitution
        rng = random.Random(3)
        for _ in range(5):
            pt = qq_point(rng, k)
            mid = tuple(sum(row[j] * pt[j] for j in range(k)) for row in inv)
            back = h.evaluate(mid)
            assert tuple(back) == tuple(pt)


# ---------------------------------------------------------------------------
# characteristic 2


def test_char_two_p_printed_form():
    F32 = field_create(2, 5)
    maps = build_char_two_maps(1, 1, F32)
    P = maps["P"]
    ctx = P.ctx
    expected = MPoly.zero(ctx, F32)
    for v in ("u0", "u1", "u2"):
        expected = expected + MPoly.variable(ctx, F32, v) ** 3
    assert P == expected


def test_char_two_g_last_components():
    F4 = field_create(2, 2)
    for n, d in [(1, 1), (2, 1)]:
        maps = build_char_two_maps(n, d, F4)
        P, Q, g = maps["P"], maps["Q"], maps["g"]
        ctx = P.ctx
        u_last = MPoly.variable(ctx, F4, f"u{2 * n}")
        assert g.components[2 * n] == u_last * (P + Q)
        assert g.components[2 * n + 1] == u_last * P
        for c in g.components:
            assert c.total_degree() == 2 * d + 2


def test_char_two_requires_char_two():
    with pytest.raises(ValueError):
        build_char_two_maps(1, 1, field_create(5))


def test_char_two_g_lands_on_x():
    F32 = field_create(2, 5)
    maps = build_char_two_maps(1, 1, F32)
    X = build_x(1, 1, dom=F32)
    comp = [c.substitute(dict(zip(X.ctx.names, maps["g"].components)))
            for c in [X]]
    # X(g(u)) must vanish identically as a polynomial
    assert comp[0].is_zero()


# ---------------------------------------------------------------------------
# cremona


def test_cremona_printed_components():
    cr, cri = build_cremona()
    ctx = cr.ctx
    t0 = MPoly.variable(ctx, QQ, "t0")
    t1 = MPoly.variable(ctx, QQ, "t1")
    t2 = MPoly.variable(ctx, QQ, "t2")
    assert cr.components[0] == 3 * (t0 * t0) + 4 * (t0 * t1) + t1 * t1 + 3 * (t2 * t2)
    assert cr.components[1] == -(t0 * t0) - t0 * t1
    assert cr.components[2] == t0 * t2
    vctx = cri.ctx
    v1 = MPoly.variable(vctx, QQ, "v1")
    v2 = MPoly.variable(vctx, QQ, "v2")
    assert cri.components[0] == v1 * v1 + 3 * (v2 * v2)


def test_cremona_base_point_roundtrip():
    cr, cri = build_cremona()
    mid = cr.evaluate((Fraction(1), Fraction(0), Fraction(0)))
    assert mid == (Fraction(3), Fraction(-1), Fraction(0))
    back = cri.evaluate(mid)
    # projectively [1:0:0]
    assert back[1] == 0 and back[2] == 0 and back[0] != 0


def test_cremona_inverse_up_to_scalar():
    cr, cri = build_cremona()
    rng = random.Random(1)
    for _ in range(10):
        pt = qq_point(rng, 3)
        img = cr.evaluate(pt)
        if all(c == 0 for c in img):
            continue
        back = cri.evaluate(img)
        if all(c == 0 for c in back):
            continue
        # back is a scalar multiple of pt
        ratios = {q / p for p, q in zip(pt, back) if p != 0}
        assert len(ratios) == 1
        for p, q in zip(pt, back):
            if p == 0:
                assert q == 0


# ---------------------------------------------------------------------------
# D, N, M


def test_dnm_n1_printed_forms():
    for d in (1, 2, 3):
        D, N, M = build_dnm(1, d)
        ctx = D.ctx
        t1 = MPoly.variable(ctx, QQ, "t1")
        t2 = MPoly.variable(ctx, QQ, "t2")
        base = t1 * t1 + t1 + MPoly.constant(ctx, QQ, 1)
        assert N == -(t2 ** (1 + 2 * d)) + base ** (d + 1)
        assert D == 2 * M


def test_dnm_n2_closed_form():
    # the n = 2 closed forms; the trailing exponent of D's last term is d + 1,
    # forced by the identity D = 2M
    for d in (1, 2):
        D, N, M = build_dnm(2, d)
        ctx = D.ctx
        t1, t2, t3, t4 = (MPoly.variable(ctx, QQ, f"t{i}") for i in (1, 2, 3, 4))
        one = MPoly.constant(ctx, QQ, 1)
        q1 = t1 * t1 + t1 + one
        lead = t4 * q1 - t1 * t2 * t3 + t2 * t3
        inner = (t4 * t4) * q1 - 2 * (t1 * t2 * t3 * t4) - t2 * t3 * t4 \
            + (t2 * t2) * (t3 * t3)
        M_expected = lead * inner**d + (2 * t1 + one) * t2 ** (2 * d + 1) \
            - q1 ** (d + 1)
        n_lead = t1 * t2 * t3 + t2 * t3 - t4 * q1
        N_expected = n_lead * inner**d - t2 ** (1 + 2 * d) + q1 ** (d + 1)
        assert M == M_expected
        assert N == N_expected
        assert D == 2 * M_expected


def test_dnm_identity_d_equals_2m():
    for n in (1, 2, 3):
        for d in (1, 2):
            D, N, M = build_dnm(n, d)
            assert D == 2 * M, (n, d)


# ---------------------------------------------------------------------------
# alpha / beta


def test_alpha_beta_printed_components():
    alpha, beta = build_alpha_beta(2)
    ctx = alpha.ctx
    t0 = MPoly.variable(ctx, QQ, "t0")
    t1 = MPoly.variable(ctx, QQ, "t1")
    q = t0 * t0 + t0 * t1 + t1 * t1
    assert alpha.components[0] == -2 * (t0 * q)
    uctx = beta.ctx
    u1 = MPoly.variable(uctx, QQ, "u1")
    u2 = MPoly.variable(uctx, QQ, "u2")
    assert beta.components[2] == u1 * u1 + 3 * (u2 * u2)


def test_alpha_beta_n1_conic_system():
    alpha, beta = build_alpha_beta(1)
    ctx = alpha.ctx
    t0 = MPoly.variable(ctx, QQ, "t0")
    t1 = MPoly.variable(ctx, QQ, "t1")
    t2 = MPoly.variable(ctx, QQ, "t2")
    q = t0 * t0 + t0 * t1 + t1 * t1
    assert alpha.components[0] == -2 * q
    assert alpha.components[1] == t2 * (2 * t0 + t1)
    assert alpha.components[2] == t1 * t2
    assert alpha.degree() == 2


def test_alpha_degree_three_for_n_at_least_two():
    alpha, beta = build_alpha_beta(2)
    assert alpha.degree() == 3
    assert beta.degree() == 2


def test_phitilde_degrees():
    assert all(c.total_degree() == 4 for c in build_phitilde(1, 1).components)
    assert all(c.total_degree() == 6 for c in build_phitilde(1, 2).components)
    assert all(c.total_degree() == 8 for c in build_phitilde(2, 1).components)


def test_phitilde_lands_on_x_numerically():
    F = field_create(1009)
    rng = random.Random(9)
    for n, d in [(1, 1), (2, 1)]:
        phit = build_phitilde(n, d)
        X = build_x(n, d)
        phif = phit.map_domain(F, F.reduce_rational)
        Xf = X.map_domain(F, F.reduce_rational)
        checked = 0
        for _ in range(60):
            pt = tuple(F.from_int(rng.randrange(F.q)) for _ in range(2 * n + 1))
            img = phif.evaluate(pt)
            if all(F.is_zero(c) for c in img):
                continue
            assert F.is_zero(Xf.evaluate(img)), (n, d, pt)
            checked += 1
        assert checked > 30


# ---------------------------------------------------------------------------
# line pencil


def test_line_pencil_factorization_small():
    data = build_line_pencil(1, 1)
    assert data["F"] == data["target"]


def _pencil_lines_by_hand(n):
    # the pencil's lines as written out before they were phibar's blocks
    dom, ctx = QQXI, pencil_context(n)
    lam, *u = (MPoly.variable(ctx, dom, name) for name in ctx.names)
    xi = MPoly.constant(ctx, dom, 1).scale(QQXI.xi)
    half = QQXI.from_rational(Fraction(1, 2))
    L = []
    for v, w in zip(u[::2], u[1::2]):
        L.append((v - 3 * w).scale(half) + (xi * (v + w)).scale(half) - lam * xi * (v + w))
        L.append(v + xi * w - 2 * (lam * (xi * w)))
    L.append(MPoly.constant(ctx, dom, 1).scale((Fraction(1, 2), Fraction(1, 2))) - lam * xi)
    return L


@pytest.mark.parametrize("n, d", [(n, d) for n in (1, 2, 3) for d in (1, 2, 3)])
def test_line_pencil_f_is_x_along_the_lines(n, d):
    # the lines are the hand-written ones, and F is X over Q(xi) with the
    # lines substituted and x_{2n+1} = 1
    data = build_line_pencil(n, d)
    assert data["lines"] == _pencil_lines_by_hand(n)
    ctx = data["F"].ctx
    ends = data["lines"] + [MPoly.constant(ctx, QQXI, 1)]
    X = build_x(n, d, QQXI)
    assert data["F"] == X.substitute(dict(zip(X.ctx.names, ends)))


def test_line_pencil_degree_in_lambda():
    for n, d in [(1, 1), (1, 2)]:
        data = build_line_pencil(n, d)
        assert data["F"].degree_in("lam") == 2 * d + 1


# ---------------------------------------------------------------------------
# Cox model and split form


def test_cox_multidegrees():
    for n, d in [(1, 1), (1, 2), (2, 1)]:
        model = build_cox_model(n, d)
        expected = (2 * d + 1, -d, -d)
        assert model.expected_multidegree == expected
        assert model.S_hat.multidegree(model.grading) == expected
        assert model.D_hat.multidegree(model.grading) == expected
        assert model.F_hat.multidegree(model.grading) == expected


def test_cox_recovers_split_form():
    # substituting w+ = w- = 1 and z -> y into S_hat recovers S
    for n, d in [(1, 1), (2, 1)]:
        model = build_cox_model(n, d)
        S, D = build_sd(n, d)
        flat_S = model.S_hat.set_var("wp", 1).set_var("wm", 1)
        flat_D = model.D_hat.set_var("wp", 1).set_var("wm", 1)
        ren = {f"z{i}": MPoly.variable(S.ctx, QQ, f"y{i}")
               for i in range(2 * n + 2)}
        ren["wp"] = MPoly.constant(S.ctx, QQ, 1)
        ren["wm"] = MPoly.constant(S.ctx, QQ, 1)
        assert flat_S.substitute(ren) == S
        assert flat_D.substitute(ren) == D


def test_cox_f_hat_combination():
    model = build_cox_model(1, 1)
    S = model.S_hat.map_domain(QQXI, QQXI.from_rational)
    D = model.D_hat.map_domain(QQXI, QQXI.from_rational)
    assert model.F_hat == 3 * D - S.scale(QQXI.xi)


def test_sd_symmetry_basic():
    S, D = build_sd(1, 1)
    swap = {}
    for i in range(2):
        swap[f"y{2 * i}"] = MPoly.variable(S.ctx, QQ, f"y{2 * i + 1}")
        swap[f"y{2 * i + 1}"] = MPoly.variable(S.ctx, QQ, f"y{2 * i}")
    assert S.substitute(swap) == S
    assert D.substitute(swap) == -D


@pytest.mark.parametrize("generalized", [False, True])
def test_sd_form_matches_block_loop(generalized):
    # build_sd against the loop over y_{2i}^d y_{2i+1}^d blocks it replaced,
    # and the form on ints, Fractions and int64 arrays against its values
    rng = random.Random(5)
    for n, d in [(1, 1), (2, 1), (1, 3), (2, 2)]:
        ctx = y_context(n, with_coeff_vars=generalized)
        v = [MPoly.variable(ctx, QQ, nm) for nm in ctx.names]
        S = D = MPoly.zero(ctx, QQ)
        for i in range(n + 1):
            ye, yo = v[2 * i], v[2 * i + 1]
            block = (ye ** d) * (yo ** d)
            if generalized:
                ae, ao = v[2 * n + 2 + 2 * i], v[2 * n + 3 + 2 * i]
                S = S + (block * (ye + yo) * ae).scale(Fraction(1, 2))
                D = D + block * (ye - yo) * (ae.scale(Fraction(-1, 2)) - ao)
            else:
                S, D = S + block * (ye + yo), D + block * (ye - yo)
        assert build_sd(n, d, generalized) == (S, D)
        if generalized:
            continue
        pts = [tuple(rng.randrange(-5, 6) for _ in range(2 * n + 2)) for _ in range(8)]
        want = [(S.evaluate(tuple(map(Fraction, pt))), D.evaluate(tuple(map(Fraction, pt))))
                for pt in pts]
        assert [sd_form(pt, d) for pt in pts] == want
        assert [sd_form(tuple(map(Fraction, pt)), d) for pt in pts] == want
        cols = sd_form(list(np.array(pts, dtype=np.int64).T), d)
        assert [tuple(map(int, sd)) for sd in zip(*cols)] == want


def test_sd_generalized_carries_coefficients():
    S, D = build_sd(1, 1, generalized=True)
    assert "a0" in S.ctx.names and "a3" in S.ctx.names
    assert not S.is_zero() and not D.is_zero()


# ---------------------------------------------------------------------------
# ideals


def test_ideal_hpm_counts_and_vanishing():
    for n in (1, 2):
        ig = build_ideal(n, 1, "Hpm", dom=QQXI)
        assert len(ig.gens) == (n + 1) ** 2
        rng = random.Random(n)
        for a_val in (A_PLUS, A_MINUS):
            for _ in range(3):
                odd = qqxi_point(rng, n + 1)
                pt = []
                for c in odd:
                    pt.append(QQXI.mul(a_val, c))
                    pt.append(c)
                assert all(QQXI.is_zero(g.evaluate(tuple(pt))) for g in ig.gens)


def test_ideal_zpm_generators():
    ig = build_ideal(2, 1, "Zpm")
    texts = [g.to_text() for g in ig.gens]
    assert "1*u0" in texts
    assert any("u1^2" in t and "u2^2" in t for t in texts)


def test_ideal_y_is_ab():
    for n, d in [(1, 1), (2, 2)]:
        ig = build_ideal(n, d, "Y")
        A, B = build_ab(n, d)
        assert list(ig.gens) == [A, B]


def test_ideal_parts_present():
    t = build_ideal(2, 1, "T")
    assert "T1" in t.parts and "T2" in t.parts
    assert any(k.startswith("T3") for k in t.parts)
    assert any(k.startswith("T4") for k in t.parts)
    u = build_ideal(2, 1, "U")
    assert set(u.parts) == {"U1", "U2"}


def test_ideal_rejects_unknown_label():
    with pytest.raises((KeyError, ValueError)):
        build_ideal(1, 1, "nope")


def test_family_builders_registry():
    expected = {"X", "AB", "phibar", "theta", "h", "cremona", "dnm",
                "alphabeta", "phitilde", "SD", "cox"}
    assert expected <= set(FAMILY_BUILDERS)
