"""Constructors for the hypersurface families, their distinguished subschemes,
and the birational maps between them.

Everything is built over an explicit coefficient domain (default Q, or Q(xi)
where the conjugate-plane data genuinely needs xi with xi^2 = -3).  X and
Xdelta, (A, B), phibar, theta, h, the char-2 map g and (S, D) are each
defined once, as a form on values (`x_form`, `ab_form`, `phibar_form`,
`theta_form`, `h_form`, `char_two_form`, `sd_form`) that takes polynomials,
ints, Fractions or arrays; the `build_*` constructors apply it to variables,
the line pencil to its lines, the height engine to arrays, and `verify` to
other coordinates or to `kernels.FieldArray` samples.  phibar is
built block by block (`phibar_blocks`) from the values of A and B, and the
line pencil is those blocks at A = 1, B = xi(2 lam - 1)/3.  Components
follow the closed forms of the source construction, with two corrections that
the composition identities force and that are pinned by tests:

* the non-xi part of the even pencil lines, phibar's first block entry
  there, is (u_{2i+1} - 3u_{2i+2})/2;
* the middle term of the odd cubic components of `alpha` carries a minus sign
  (-2*t1*t2*t_{2j+1}); with the plus sign the quadratic inverse fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import iadd

from .domains import QQ, QQXI, _least_prime_factor
from .mpoly import MPoly, RationalMap, VarContext
from .reporting import BudgetExceeded, abbreviate

A_PLUS = (Fraction(1, 2), Fraction(1, 2))    # (1 + xi)/2
A_MINUS = (Fraction(1, 2), Fraction(-1, 2))  # (1 - xi)/2
# Bound on the exponent cells (terms x variables) of a family, map or ideal
# that `_guard_cells` refuses before building, about 17 bytes each as built:
# 2^27 cells, some 2.3 GB, admit X(300, 300) at 1.09 * 10^8.  No budget sees
# them, and X(1000, 1000) would have 4.0 * 10^9.  `count` counts the families
# from their forms, so these builders serve `families dump` and `verify`.
CELLS_MAX = 1 << 27


def x_context(n):
    return VarContext([f"x{i}" for i in range(2 * n + 2)])


def u_context(n):
    return VarContext([f"u{i}" for i in range(2 * n + 1)])


def t_context(n):
    return VarContext([f"t{i}" for i in range(2 * n + 1)])


def y_context(n, with_coeff_vars=False):
    names = [f"y{i}" for i in range(2 * n + 2)]
    if with_coeff_vars:
        names += [f"a{i}" for i in range(2 * n + 2)]
    return VarContext(names)


def cox_context(n):
    return VarContext([f"z{i}" for i in range(2 * n + 2)] + ["wp", "wm"])


def _v(ctx, dom, name):
    return MPoly.variable(ctx, dom, name)


def _vars(ctx, dom):
    return [MPoly.variable(ctx, dom, name) for name in ctx.names]


# ---------------------------------------------------------------------------
# hypersurfaces


def _alternating(a, b, k):
    """g_k(a, b) = sum_{j<k} (-1)^j a^{k-1-j} b^j by Horner's rule
    g_{m+1} = a g_m + (-b)^m, in place after the first difference: g_3 is
    (a - b) a + b^2 in two products.  Its temporaries die on return."""
    g, p = a - b, b
    for m in range(2, k):
        p = p * b
        g *= a
        g += p if m % 2 == 0 else -p
    return g


def _guard_cells(label, pairs, terms, nvars):
    """Raise BudgetExceeded, before any work, when `pairs` sums of at most
    `terms` terms each in `nvars` variables have more than CELLS_MAX
    exponent cells."""
    cells = pairs * terms * nvars
    if cells > CELLS_MAX:
        raise BudgetExceeded(f"{label} has up to {abbreviate(cells)} exponent cells, "
                             f"over its memory guard of {CELLS_MAX}")


def x_form(x, d, k=3):
    """X at the values x, as `ab_form`: the sum over the pairs (a, b) =
    (x_{2i}, x_{2i+1}) of (a + b) g_k(a, b)^d; X has k = 3, Xdelta k = d
    and power delta.  On arrays the power and the product are taken in
    place and the sum starts from the first pair, so one wide value per
    entry is alive."""
    F = None
    for a, b in zip(x[::2], x[1::2]):
        g = _alternating(a, b, k)
        g **= d
        g *= a + b
        F = g if F is None else iadd(F, g)
    return F


def build_x(n, d, dom=QQ):
    """The degree-(2d+1) hypersurface `x_form` of P^{2n+1}, refused by
    `_guard_cells` past CELLS_MAX: 2d + 2 terms for each of its n + 1
    pairs."""
    _guard_cells(f"X({n}, {d})", n + 1, 2 * d + 2, 2 * n + 2)
    return x_form(_vars(x_context(n), dom), d)


def x_d_delta_degree(d, delta):
    """The degree delta*(d-1)+1 of Xdelta, refusing d that is not an odd
    prime and delta < 1."""
    if d < 3 or d % 2 == 0 or _least_prime_factor(d) != d:
        raise ValueError("d must be an odd prime")
    if delta < 1:
        raise ValueError("delta must be >= 1")
    return delta * (d - 1) + 1


def build_x_d_delta(n, d, delta, dom=QQ):
    """Generalized family of degree `x_d_delta_degree`: `x_form` with the
    alternating form g_d in place of g_3, raised to delta."""
    degree = x_d_delta_degree(d, delta)
    _guard_cells(f"Xdelta({n}, {d}, {delta})", n + 1, degree + 1, 2 * n + 2)
    return x_form(_vars(x_context(n), dom), delta, k=d)


def ab_form(u, d):
    """(A, B) at the coordinate values u = (u0, ..., u_{2n}): polynomials,
    ints or integer arrays alike, since only +, -, * and ** are applied."""
    A = B = u[0] ** (2 * d + 1)
    for v, w in zip(u[1::2], u[2::2]):
        Q = (v * v + 3 * (w * w)) ** d
        A = A + (v + 3 * w) * Q
        B = B + (v - w) * Q
    return A, B


def build_ab(n, d, dom=QQ):
    """The pair (A, B) cutting out Y^{2n-2} = {A = B = 0} in P^{2n},
    refused by `_guard_cells` past CELLS_MAX: 1 + n(2d + 2) terms each."""
    _guard_cells(f"(A, B) of Y({n}, {d})", 2, 1 + n * (2 * d + 2), 2 * n + 1)
    return ab_form(_vars(u_context(n), dom), d)


# ---------------------------------------------------------------------------
# maps


def phibar_blocks(u, A, B, half):
    """phibar's components at the coordinate values u, with the values of A
    and B given: for each block (v, w) = (u_{2i+1}, u_{2i+2}) the pair
    ((v - 3w)A - 3(v + w)B)/2, vA - 3wB, then u0(A - 3B)/2 and u0 A.
    `half` halves a value."""
    comps = []
    for v, w in zip(u[1::2], u[2::2]):
        comps.append(half((v - 3 * w) * A - 3 * ((v + w) * B)))
        comps.append(v * A - 3 * (w * B))
    comps.append(half(u[0] * (A - 3 * B)))
    comps.append(u[0] * A)
    return comps


def phibar_form(u, d, half):
    """The components of phibar at the coordinate values u, as `ab_form`:
    `phibar_blocks` at (A, B) = `ab_form(u, d)`.  The halved values are even
    at integer u (there A - B = 4wQ is even), so `half` may be exact floor
    division."""
    return phibar_blocks(u, *ab_form(u, d), half)


def build_phibar(n, d):
    """Degree-(2d+2) parametrization P^{2n} --> X, built from (A, B), which
    share 1 + n(2d + 2) monomials; a component is v or w times the two."""
    _guard_cells(f"phibar({n}, {d})", 2 * n + 2, 2 * (1 + n * (2 * d + 2)), 2 * n + 1)
    comps = phibar_form(_vars(u_context(n), QQ), d, lambda p: p.scale(Fraction(1, 2)))
    return RationalMap("phibar", comps)


def theta_form(x):
    """theta's components at the values x, as `ab_form`: for each pair
    (a, b) = (x_{2i}, x_{2i+1}) before the last pair (s, t), the pair
    as - at + bt, bs - at, then s^2 - st + t^2."""
    *x, s, t = x
    comps = []
    for a, b in zip(x[::2], x[1::2]):
        comps.append(a * s - a * t + b * t)
        comps.append(b * s - a * t)
    comps.append(s * s - s * t + t * t)
    return comps


def build_theta(n):
    """The quadric system inverting the parametrization: X --> P^{2n}."""
    return RationalMap("theta", theta_form(_vars(x_context(n), QQ)))


def h_form(u):
    """h's components at the values u, as `ab_form`:
    (u_0, ..., u_{2n}) -> (2u_{2n}, 2u_0 - u_1, u_1, 2u_2 - u_3, u_3, ...)."""
    *u, un = u
    comps = [2 * un]
    for a, b in zip(u[::2], u[1::2]):
        comps += [2 * a - b, b]
    return comps


def build_h(n):
    """Linear automorphism of P^{2n} with h∘theta inverting phibar."""
    return RationalMap("h", h_form(_vars(u_context(n), QQ)))


def char_two_form(u, d):
    """(P, Q, g) at the values u, as `ab_form`: the characteristic-2 data,
    g being the components of the degree-(2d+2) map with theta∘g ~ id."""
    *u, un = u
    pairs = list(zip(u[::2], u[1::2]))
    # in characteristic 2, a^2 - ab + b^2 = a^2 + ab + b^2: P is X at (u, 0)
    P = x_form(u + [un, 0], d)
    Q = sum(b * (a * a + a * b + b * b) ** d for a, b in pairs)
    g = []
    for a, b in pairs:
        g.append((a + b) * P + a * Q)
        g.append(a * P + b * Q)
    g.append(un * (P + Q))
    g.append(un * P)
    return P, Q, g


def build_char_two_maps(n, d, dom):
    """`char_two_form` on the variables over the char-2 domain `dom`: each
    of P, Q and g's components has at most 3 times P's 1 + n(2d + 2) terms."""
    if dom.char != 2:
        raise ValueError("characteristic-2 construction needs a char-2 domain")
    _guard_cells(f"the char-2 (P, Q, g) of ({n}, {d})", 2 * n + 4, 3 * (1 + n * (2 * d + 2)),
                 2 * n + 1)
    P, Q, g = char_two_form(_vars(u_context(n), dom), d)
    return {"P": P, "Q": Q, "g": RationalMap("g", g)}


def build_cremona():
    """The plane quadratic Cremona pair used for the n = 1 height bound."""
    dom = QQ
    tctx = VarContext(["t0", "t1", "t2"])
    vctx = VarContext(["v0", "v1", "v2"])
    t0, t1, t2 = (_v(tctx, dom, f"t{i}") for i in range(3))
    v0, v1, v2 = (_v(vctx, dom, f"v{i}") for i in range(3))
    cr = RationalMap("cr", [
        3 * (t0 * t0) + 4 * (t0 * t1) + t1 * t1 + 3 * (t2 * t2),
        -(t0 * t0) - t0 * t1,
        t0 * t2,
    ])
    cr_inv = RationalMap("cr_inv", [
        v1 * v1 + 3 * (v2 * v2),
        -(v0 * v1) - 3 * (v1 * v1) - 3 * (v2 * v2),
        v2 * (v0 + 2 * v1),
    ])
    return cr, cr_inv


def build_dnm(n, d):
    """(D, N, M) of the pencil-root recurrence; D = 2M identically.  A block's
    terms are fixed by their powers of t1 and t2, so each has n(2d + 3)^2."""
    _guard_cells(f"(D, N, M) of ({n}, {d})", 3, n * (2 * d + 3) ** 2, 2 * n + 1)
    dom = QQ
    ctx = t_context(n)
    t1 = _v(ctx, dom, "t1")
    t2 = _v(ctx, dom, "t2")
    q1 = t1 * t1 + t1 + 1
    D = 2 * (-(q1 ** (d + 1)) + (2 * t1 + 1) * t2 ** (2 * d + 1))
    N = -(t2 ** (2 * d + 1)) + q1 ** (d + 1)
    M = (2 * t1 + 1) * t2 ** (2 * d + 1) - q1 ** (d + 1)
    for i in range(2, n + 1):
        tprev = _v(ctx, dom, f"t{2 * i - 1}")
        tcur = _v(ctx, dom, f"t{2 * i}")
        pre = tcur * q1 - t1 * t2 * tprev + t2 * tprev
        core = (tcur * tcur * q1 - 2 * (t1 * t2 * tprev * tcur)
                - t2 * tprev * tcur + (t2 * t2) * (tprev * tprev)) ** d
        D = D + 2 * (pre * core)
        N = N + (t1 * t2 * tprev + t2 * tprev - tcur * q1) * core
        M = M + pre * core
    return D, N, M


def build_alpha_beta(n):
    """The inverse pair alpha (cubics) / beta (quadrics) between the two
    parametrization spaces.  For n = 1 alpha is the reduced conic system."""
    dom = QQ
    t = _vars(t_context(n), dom)
    u = _vars(u_context(n), dom)
    q = t[0] * t[0] + t[0] * t[1] + t[1] * t[1]
    if n == 1:
        alpha_comps = [-2 * q, t[2] * (2 * t[0] + t[1]), t[1] * t[2]]
    else:
        alpha_comps = [None] * (2 * n + 1)
        alpha_comps[0] = -2 * (t[0] * q)
        alpha_comps[1] = t[0] * t[2] * (2 * t[0] + t[1])
        for i in range(1, n + 1):
            alpha_comps[2 * i] = t[0] * t[2] * t[2 * i - 1]
        for j in range(1, n):
            alpha_comps[2 * j + 1] = (-(t[0] * t[2] * t[2 * j + 1])
                                      - 2 * (t[1] * t[2] * t[2 * j + 1])
                                      + 2 * (t[2 * j + 2] * q))
    beta_comps = [None] * (2 * n + 1)
    beta_comps[0] = u[0] * (u[2] - u[1])
    for i in range(n):
        beta_comps[2 * i + 1] = -2 * (u[0] * u[2 * i + 2])
    beta_comps[2] = u[1] * u[1] + 3 * (u[2] * u[2])
    for j in range(n - 1):
        beta_comps[2 * j + 4] = (u[1] * u[2 * j + 3] - u[2] * u[2 * j + 3]
                                 + u[1] * u[2 * j + 4] + 3 * (u[2] * u[2 * j + 4]))
    return (RationalMap("alpha", alpha_comps),
            RationalMap("beta", beta_comps))


def build_phitilde(n, d):
    """The line-construction parametrization P^{2n} --> X in the t-chart.

    Assembled from the intersection points with the conjugate planes and the
    third pencil root N/D: each component is (M*re_i + 3N*im_i) over the
    common denominator 2(t1^2+t1+1)*M.  The numerators all carry the factor
    2(t1^2+t1+1); it is divided out exactly and the result homogenized with
    t0.  Component degree comes out 2d+2 for n = 1 and 4d+4 for n >= 2, and
    each is charged 6 times the terms of M, a bound the tests check.
    """
    _guard_cells(f"phitilde({n}, {d})", 2 * n + 2, 6 * n * (2 * d + 3) ** 2, 2 * n + 1)
    dom = QQ
    ctx = t_context(n)
    t1 = _v(ctx, dom, "t1")
    t2 = _v(ctx, dom, "t2")
    q1 = t1 * t1 + t1 + 1
    # p_i^{a+} = (re_i + xi*im_i) / (2*q1)
    re = [t1 * t2 - t2, -(t1 * t2) - 2 * t2]
    im = [-(t2 * (t1 + 1)), -(t1 * t2)]
    for i in range(n - 1):
        t3 = _v(ctx, dom, f"t{2 * i + 3}")
        t4 = _v(ctx, dom, f"t{2 * i + 4}")
        re.append(-(t4 * q1) + t1 * t2 * t3 + 2 * (t2 * t3))
        im.append(t1 * t2 * t3 - t4 * q1)
        re.append(-2 * (t4 * q1) + t2 * t3 + 2 * (t1 * t3 * t2))
        im.append(-(t2 * t3))
    re.append(q1)
    im.append(q1)
    _, N, M = build_dnm(n, d)
    vec = [M * re[i] + 3 * (N * im[i]) for i in range(2 * n + 1)]
    vec.append(2 * (q1 * M))
    divisor = 2 * q1
    cleared = []
    for v in vec:
        w = v.try_div(divisor)
        if w is None:
            raise ArithmeticError("component not divisible by 2(t1^2+t1+1)")
        cleared.append(w)
    target = max(w.total_degree() for w in cleared)
    comps = [w.homogenize("t0", target) for w in cleared]
    return RationalMap("phitilde", comps)


# ---------------------------------------------------------------------------
# pencil of lines through the conjugate planes


def pencil_context(n):
    return VarContext(["lam"] + [f"u{i}" for i in range(1, 2 * n + 1)])


def build_line_pencil(n, d):
    """The family of lines L(lambda) joining conjugate plane points, the value
    F(lambda) = X(L(lambda)), and the factorized target
    xi * (-3)^d * lam^d (lam-1)^d * ((A - xi B)/2 - lam A).

    All over Q(xi) in variables (lam, u1..u_{2n}); the u_0 = 1 affine chart.
    The lines are phibar's blocks (`phibar_blocks`) at A = 1 and
    B = xi(2 lam - 1)/3, whose last entry u0 A = 1 is x_{2n+1}.  There
    A^2 + 3B^2 = 4 lam (1 - lam), which makes the factor (3/4)^d (A^2 + 3B^2)^d
    of X along phibar's blocks (-3)^d lam^d (lam - 1)^d.

    Refused by `_guard_cells` past CELLS_MAX: for each of the n + 1 pairs,
    F and the target have 2(d + 1)(d + 2) terms each, A and B 2d + 2 and
    the lines 7, at most (2d + 5)^2 together.
    """
    _guard_cells(f"the line pencil of X({n}, {d})", n + 1, (2 * d + 5) ** 2, 2 * n + 1)
    dom = QQXI
    ctx = pencil_context(n)
    lam, *u = _vars(ctx, dom)
    xi = MPoly.constant(ctx, dom, dom.xi)
    half = dom.from_rational(Fraction(1, 2))
    beta = (xi * (2 * lam - 1)).scale(dom.from_rational(Fraction(1, 3)))
    ends = phibar_blocks([1] + u, 1, beta, lambda p: p.scale(half))
    # affine hypersurface value along the line
    F = x_form(ends, d)
    # affine A, B in the pencil context
    A, B = ab_form([1] + u, d)
    target = xi * MPoly.constant(ctx, dom, (-3) ** d) * lam ** d * (lam - 1) ** d \
        * ((A - xi * B).scale(half) - lam * A)
    return {"lines": ends[:-1], "F": F, "A": A, "B": B, "target": target}


# ---------------------------------------------------------------------------
# Cox model


@dataclass
class CoxModel:
    n: int
    d: int
    ctx: VarContext
    S_hat: MPoly
    D_hat: MPoly
    F_hat: MPoly              # over Q(xi): 3*D_hat - xi*S_hat
    grading: dict
    irrelevant_parts: tuple
    expected_multidegree: tuple


def build_cox_model(n, d):
    """Cox-ring model of the blown-up ambient space: strict transforms
    S_hat, D_hat, the Z^3-grading, and the irrelevant-ideal components."""
    ctx = cox_context(n)
    *z, wp, wm = _vars(ctx, QQ)
    S_hat = D_hat = MPoly.zero(ctx, QQ)
    for ze, zo in zip(z[::2], z[1::2]):
        block = (ze ** d) * (zo ** d)
        S_hat = S_hat + block * (wp * ze + wm * zo)
        D_hat = D_hat + block * (wp * ze - wm * zo)
    # z_{2i}, z_{2i+1}, w_+, w_-
    grading = dict(zip(ctx.names, [(1, -1, 0), (1, 0, -1)] * (n + 1) + [(0, 1, 0), (0, 0, 1)]))
    conv = QQXI.from_rational
    F_hat = 3 * D_hat.map_domain(QQXI, conv) \
        - S_hat.map_domain(QQXI, conv).scale(QQXI.xi)
    zs = ctx.names[:-2]
    return CoxModel(
        n=n, d=d, ctx=ctx, S_hat=S_hat, D_hat=D_hat, F_hat=F_hat,
        grading=grading,
        # blowing up the two disjoint n-planes: V(even z) u V(odd z) u V(w+, w-)
        irrelevant_parts=(zs[::2], zs[1::2], ("wp", "wm")),
        expected_multidegree=(2 * d + 1, -d, -d),
    )


def sd_form(y, d, a=None):
    """(S, D) at the split coordinate values y, as `ab_form`: the sums over
    the pairs (e, o) = (y_{2i}, y_{2i+1}) of (eo)^d (e + o) and
    (eo)^d (e - o).  With the polynomials a, each block is weighted,
    a_{2i}/2 in S and -a_{2i}/2 - a_{2i+1} in D."""
    S = D = None
    for i, (e, o) in enumerate(zip(y[::2], y[1::2])):
        p = (e * o) ** d
        s, t = p * (e + o), p * (e - o)
        if a is not None:
            h = a[2 * i].scale(Fraction(1, 2))
            s, t = s * h, t * (-h - a[2 * i + 1])
        S, D = (s, t) if S is None else (S + s, D + t)
    return S, D


def build_sd(n, d, generalized=False):
    """(S, D) in the split y-coordinates, `sd_form` on the variables; with
    `generalized` the pair carries formal coefficient variables a_j."""
    v = _vars(y_context(n, with_coeff_vars=generalized), QQ)
    return sd_form(v[:2 * n + 2], d, v[2 * n + 2:] if generalized else None)


# ---------------------------------------------------------------------------
# distinguished subschemes


@dataclass
class IdealGens:
    label: str
    ctx: VarContext
    gens: tuple
    parts: dict = field(default_factory=dict)

    def to_text(self):
        lines = [f"{self.label}:"]
        if self.parts:
            for key, gens in self.parts.items():
                for g in gens:
                    lines.append(f"  {key}: {g.to_text()}")
        else:
            for g in self.gens:
                lines.append(f"  {g.to_text()}")
        return "\n".join(lines)


def build_ideal(n, d, which, dom=QQ):
    """Generator lists for the distinguished subschemes.

    Hpm: the (n+1)^2 quadrics cutting the conjugate-plane pair in P^{2n+1}.
    Z / Zpm: the plane-pair loci in P^{2n} (Zpm adds the cross quadrics
    isolating one conjugate pair).  Y: {A = B = 0}.  T / U: base-locus pieces
    of the cubic/quadric systems; index families touching variables beyond
    the ambient range are clamped to the valid range.  Hpm, Zpm, T and U
    have quadratically many generators of at most 3, 2, 3 and 2 terms.
    """
    which = which.strip()
    guards = {"Hpm": ((n + 1) ** 2, 3, 2 * n + 2), "Zpm": (n * n + 1, 2, 2 * n + 1),
              "T": (n * n + n + 3, 3, 2 * n + 1), "U": (n * n - n + 4, 2, 2 * n + 1)}
    if which in guards:
        _guard_cells(f"the ideal {which} at n = {n}", *guards[which])
    if which == "Hpm":
        ctx = x_context(n)
        x = [_v(ctx, dom, f"x{i}") for i in range(2 * n + 2)]
        gens = []
        for i in range(n + 1):
            gens.append(x[2 * i] * x[2 * i] - x[2 * i] * x[2 * i + 1] + x[2 * i + 1] * x[2 * i + 1])
        for i in range(n):
            for j in range(i, n):
                gens.append(x[2 * i] * x[2 * j + 2] - x[2 * i] * x[2 * j + 3] + x[2 * i + 1] * x[2 * j + 3])
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                gens.append(x[2 * i - 1] * x[2 * j] - x[2 * i - 2] * x[2 * j + 1])
        return IdealGens("Hpm", ctx, tuple(gens))
    if which in ("Z", "Zpm"):
        ctx = u_context(n)
        u = [_v(ctx, dom, f"u{i}") for i in range(2 * n + 1)]
        gens = [u[0]]
        for i in range(n):
            gens.append(u[2 * i + 1] * u[2 * i + 1] + 3 * (u[2 * i + 2] * u[2 * i + 2]))
        if which == "Zpm":
            for s in range(n - 1):
                for t_ in range(s, n - 1):
                    gens.append(u[2 * s + 1] * u[2 * t_ + 3] + 3 * (u[2 * s + 2] * u[2 * t_ + 4]))
                    gens.append(u[2 * s + 1] * u[2 * t_ + 4] - u[2 * s + 2] * u[2 * t_ + 3])
        return IdealGens(which, ctx, tuple(gens))
    if which == "Y":
        A, B = build_ab(n, d, dom)
        return IdealGens("Y", A.ctx, (A, B))
    if which == "T":
        ctx = t_context(n)
        t = [_v(ctx, dom, f"t{i}") for i in range(2 * n + 1)]
        parts = {
            "T1": [t[0] * t[0] + t[0] * t[1] + t[1] * t[1]],
            "T2": [t[0], t[1]],
        }
        for i in range(n):
            parts[f"T3[{i}]"] = [t[0], t[2 * i + 1]]
        for i in range(1, n):
            for j in range(i, n):
                parts[f"T4[{i},{j}]"] = [t[0], t[2 * i] * t[2 * j + 1] - t[2 * i - 1] * t[2 * j + 2]]
        gens = tuple(g for gs in parts.values() for g in gs)
        return IdealGens("T", ctx, gens, parts)
    if which == "U":
        ctx = u_context(n)
        u = [_v(ctx, dom, f"u{i}") for i in range(2 * n + 1)]
        parts = {"U1": [u[1], u[2]]}
        u2 = [u[0]]
        for i in range(n):
            u2.append(u[2 * i + 1] * u[2 * i + 1] + 3 * (u[2 * i + 2] * u[2 * i + 2]))
        for i in range(n - 1):
            for j in range(i + 1, n):
                u2.append(u[2 * i + 1] * u[2 * j + 1] + 3 * (u[2 * i + 2] * u[2 * j + 2]))
        for i in range(n - 1):
            for j in range(i + 1, n - 1):
                u2.append(u[2 * i + 2] * u[2 * j + 3] - u[2 * i + 1] * u[2 * j + 4])
        parts["U2"] = u2
        gens = tuple(g for gs in parts.values() for g in gs)
        return IdealGens("U", ctx, gens, parts)
    raise ValueError(f"unknown subscheme label: {which!r}")


def _components(*labelled_maps):
    """(label[i], component) pieces of each (label, rational map) pair."""
    return [(f"{label}[{i}]", c) for label, rmap in labelled_maps
            for i, c in enumerate(rmap.components)]


def _cox_pieces(cm):
    return [("S_hat", cm.S_hat), ("D_hat", cm.D_hat), ("F_hat", cm.F_hat)]


# family name -> (n, d) -> [(label, polynomial)]; each builds its family once
FAMILY_BUILDERS = {
    "X": lambda n, d: [("X", build_x(n, d))],
    "AB": lambda n, d: list(zip(("A", "B"), build_ab(n, d))),
    "phibar": lambda n, d: _components(("phibar", build_phibar(n, d))),
    "theta": lambda n, d: _components(("theta", build_theta(n))),
    "h": lambda n, d: _components(("h", build_h(n))),
    "cremona": lambda n, d: _components(*zip(("cr", "cr_inv"), build_cremona())),
    "dnm": lambda n, d: list(zip(("D", "N", "M"), build_dnm(n, d))),
    "alphabeta": lambda n, d: _components(*zip(("alpha", "beta"), build_alpha_beta(n))),
    "phitilde": lambda n, d: _components(("phitilde", build_phitilde(n, d))),
    "SD": lambda n, d: list(zip(("S", "D"), build_sd(n, d))),
    "cox": lambda n, d: _cox_pieces(build_cox_model(n, d)),
}
