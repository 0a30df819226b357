"""Constructors for the hypersurface families, their distinguished subschemes,
and the birational maps between them.

Everything is built over an explicit coefficient domain (default Q, or Q(xi)
where the conjugate-plane data genuinely needs xi with xi^2 = -3).  Components
follow the closed forms of the source construction, with two corrections that
the composition identities force and that are pinned by tests:

* the non-xi part of the even pencil lines is (u_{2i+1} - 3u_{2i+2})/2;
* the middle term of the odd cubic components of `alpha` carries a minus sign
  (-2*t1*t2*t_{2j+1}); with the plus sign the quadratic inverse fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .domains import QQ, QQXI, _least_prime_factor
from .mpoly import MPoly, RationalMap, VarContext

A_PLUS = (Fraction(1, 2), Fraction(1, 2))    # (1 + xi)/2
A_MINUS = (Fraction(1, 2), Fraction(-1, 2))  # (1 - xi)/2


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


# ---------------------------------------------------------------------------
# hypersurfaces


def build_x(n, d, dom=QQ):
    """The degree-(2d+1) hypersurface sum_i (x_{2i}+x_{2i+1}) * q_i^d with
    q_i = x_{2i}^2 - x_{2i}x_{2i+1} + x_{2i+1}^2, in P^{2n+1}."""
    ctx = x_context(n)
    F = MPoly.zero(ctx, dom)
    for i in range(n + 1):
        a = _v(ctx, dom, f"x{2 * i}")
        b = _v(ctx, dom, f"x{2 * i + 1}")
        F = F + (a + b) * (a * a - a * b + b * b) ** d
    return F


def build_x_d_delta(n, d, delta, dom=QQ):
    """Generalized family of degree delta*(d-1)+1: the alternating form
    sum_j (-1)^j x_{2i}^{d-1-j} x_{2i+1}^j replaces q_i, raised to delta."""
    if d < 3 or d % 2 == 0 or _least_prime_factor(d) != d:
        raise ValueError("d must be an odd prime")
    if delta < 1:
        raise ValueError("delta must be >= 1")
    ctx = x_context(n)
    F = MPoly.zero(ctx, dom)
    for i in range(n + 1):
        a = _v(ctx, dom, f"x{2 * i}")
        b = _v(ctx, dom, f"x{2 * i + 1}")
        inner = MPoly.zero(ctx, dom)
        for j in range(d):
            term = (a ** (d - 1 - j)) * (b ** j)
            inner = inner + (term if j % 2 == 0 else -term)
        F = F + (a + b) * inner ** delta
    return F


def build_ab(n, d, dom=QQ):
    """The pair (A, B) cutting out Y^{2n-2} = {A = B = 0} in P^{2n}."""
    ctx = u_context(n)
    u0 = _v(ctx, dom, "u0")
    A = u0 ** (2 * d + 1)
    B = u0 ** (2 * d + 1)
    for i in range(n):
        v = _v(ctx, dom, f"u{2 * i + 1}")
        w = _v(ctx, dom, f"u{2 * i + 2}")
        Q = (v * v + 3 * (w * w)) ** d
        A = A + (v + 3 * w) * Q
        B = B + (v - w) * Q
    return A, B


# ---------------------------------------------------------------------------
# maps


def build_phibar(n, d):
    """Degree-(2d+2) parametrization P^{2n} --> X, built from (A, B)."""
    dom = QQ
    ctx = u_context(n)
    A, B = build_ab(n, d, dom)
    half = Fraction(1, 2)
    comps = []
    for i in range(n):
        v = _v(ctx, dom, f"u{2 * i + 1}")
        w = _v(ctx, dom, f"u{2 * i + 2}")
        comps.append(((v - 3 * w) * A - 3 * ((v + w) * B)).scale(half))
        comps.append(v * A - 3 * (w * B))
    u0 = _v(ctx, dom, "u0")
    comps.append((u0 * (A - 3 * B)).scale(half))
    comps.append(u0 * A)
    return RationalMap("phibar", comps, {"n": n, "d": d})


def build_theta(n, dom=QQ):
    """The quadric system inverting the parametrization: X --> P^{2n}."""
    ctx = x_context(n)
    xn0 = _v(ctx, dom, f"x{2 * n}")
    xn1 = _v(ctx, dom, f"x{2 * n + 1}")
    comps = []
    for i in range(n):
        a = _v(ctx, dom, f"x{2 * i}")
        b = _v(ctx, dom, f"x{2 * i + 1}")
        comps.append(a * xn0 - a * xn1 + b * xn1)
        comps.append(b * xn0 - a * xn1)
    comps.append(xn0 * xn0 - xn0 * xn1 + xn1 * xn1)
    return RationalMap("theta", comps, {"n": n})


def build_h(n, dom=QQ):
    """Linear automorphism of P^{2n} with h∘theta inverting phibar:
    (u_0, ..., u_{2n}) -> (2u_{2n}, 2u_0 - u_1, u_1, 2u_2 - u_3, u_3, ...)."""
    ctx = u_context(n)
    comps = [2 * _v(ctx, dom, f"u{2 * n}")]
    for i in range(n):
        comps.append(2 * _v(ctx, dom, f"u{2 * i}") - _v(ctx, dom, f"u{2 * i + 1}"))
        comps.append(_v(ctx, dom, f"u{2 * i + 1}"))
    return RationalMap("h", comps, {"n": n})


def build_char_two_maps(n, d, dom):
    """Characteristic-2 parametrization data: P, Q and the degree-(2d+2)
    map g with theta∘g ~ id."""
    if dom.char != 2:
        raise ValueError("characteristic-2 construction needs a char-2 domain")
    ctx = u_context(n)
    un = _v(ctx, dom, f"u{2 * n}")
    P = un ** (2 * d + 1)
    Qp = MPoly.zero(ctx, dom)
    for i in range(n):
        a = _v(ctx, dom, f"u{2 * i}")
        b = _v(ctx, dom, f"u{2 * i + 1}")
        core = (a * a + a * b + b * b) ** d
        P = P + (a + b) * core
        Qp = Qp + b * core
    comps = []
    for i in range(n):
        a = _v(ctx, dom, f"u{2 * i}")
        b = _v(ctx, dom, f"u{2 * i + 1}")
        comps.append((a + b) * P + a * Qp)
        comps.append(a * P + b * Qp)
    comps.append(un * (P + Qp))
    comps.append(un * P)
    return {"P": P, "Q": Qp, "g": RationalMap("g", comps, {"n": n, "d": d})}


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
    """(D, N, M) of the pencil-root recurrence; D = 2M identically."""
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
    tctx = t_context(n)
    uctx = u_context(n)
    t = [_v(tctx, dom, f"t{i}") for i in range(2 * n + 1)]
    u = [_v(uctx, dom, f"u{i}") for i in range(2 * n + 1)]
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
    return (RationalMap("alpha", alpha_comps, {"n": n}),
            RationalMap("beta", beta_comps, {"n": n}))


def build_phitilde(n, d):
    """The line-construction parametrization P^{2n} --> X in the t-chart.

    Assembled from the intersection points with the conjugate planes and the
    third pencil root N/D: each component is (M*re_i + 3N*im_i) over the
    common denominator 2(t1^2+t1+1)*M.  The numerators all carry the factor
    2(t1^2+t1+1); it is divided out exactly and the result homogenized with
    t0.  Component degree comes out 2d+2 for n = 1 and 4d+4 for n >= 2.
    """
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
    return RationalMap("phitilde", comps, {"n": n, "d": d})


# ---------------------------------------------------------------------------
# pencil of lines through the conjugate planes


def pencil_context(n):
    return VarContext(["lam"] + [f"u{i}" for i in range(1, 2 * n + 1)])


def build_line_pencil(n, d):
    """The family of lines L(lambda) joining conjugate plane points, the value
    F(lambda) = X(L(lambda)), and the factorized target
    xi * (-3)^d * lam^d (lam-1)^d * ((A - xi B)/2 - lam A).

    All over Q(xi) in variables (lam, u1..u_{2n}); the u_0 = 1 affine chart.
    """
    dom = QQXI
    ctx = pencil_context(n)
    lam = _v(ctx, dom, "lam")
    xi = MPoly.constant(ctx, dom, 1).scale(QQXI.xi)
    half = QQXI.from_rational(Fraction(1, 2))
    L = []
    for i in range(n):
        v = _v(ctx, dom, f"u{2 * i + 1}")
        w = _v(ctx, dom, f"u{2 * i + 2}")
        L.append((v - 3 * w).scale(half) + (xi * (v + w)).scale(half) - lam * xi * (v + w))
        L.append(v + xi * w - 2 * (lam * (xi * w)))
    L.append(MPoly.constant(ctx, dom, 1).scale((Fraction(1, 2), Fraction(1, 2))) - lam * xi)
    # affine hypersurface value along the line
    F = MPoly.zero(ctx, dom)
    for i in range(n):
        a, b = L[2 * i], L[2 * i + 1]
        F = F + (a + b) * (a * a - a * b + b * b) ** d
    last = L[2 * n]
    F = F + (last + 1) * (last * last - last + 1) ** d
    # affine A, B in the pencil context
    one = MPoly.constant(ctx, dom, 1)
    A = one
    B = one
    for i in range(n):
        v = _v(ctx, dom, f"u{2 * i + 1}")
        w = _v(ctx, dom, f"u{2 * i + 2}")
        Q = (v * v + 3 * (w * w)) ** d
        A = A + (v + 3 * w) * Q
        B = B + (v - w) * Q
    target = xi * MPoly.constant(ctx, dom, (-3) ** d) * lam ** d * (lam - 1) ** d \
        * ((A - xi * B).scale(half) - lam * A)
    return {"lines": L, "F": F, "A": A, "B": B, "target": target}


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
    dom = QQ
    ctx = cox_context(n)
    wp = _v(ctx, dom, "wp")
    wm = _v(ctx, dom, "wm")
    S_hat = MPoly.zero(ctx, dom)
    D_hat = MPoly.zero(ctx, dom)
    for i in range(n + 1):
        ze = _v(ctx, dom, f"z{2 * i}")
        zo = _v(ctx, dom, f"z{2 * i + 1}")
        block = (ze ** d) * (zo ** d)
        S_hat = S_hat + block * (wp * ze + wm * zo)
        D_hat = D_hat + block * (wp * ze - wm * zo)
    grading = {}
    for i in range(n + 1):
        grading[f"z{2 * i}"] = (1, -1, 0)
        grading[f"z{2 * i + 1}"] = (1, 0, -1)
    grading["wp"] = (0, 1, 0)
    grading["wm"] = (0, 0, 1)
    conv = QQXI.from_rational
    F_hat = 3 * D_hat.map_domain(QQXI, conv) \
        - S_hat.map_domain(QQXI, conv).scale(QQXI.xi)
    zs = tuple(f"z{i}" for i in range(2 * n + 2))
    odd = tuple(f"z{2 * i + 1}" for i in range(n + 1))
    even = tuple(f"z{2 * i}" for i in range(n + 1))
    return CoxModel(
        n=n, d=d, ctx=ctx, S_hat=S_hat, D_hat=D_hat, F_hat=F_hat,
        grading=grading,
        irrelevant_parts=(zs, ("wp",) + odd, ("wm",) + even),
        expected_multidegree=(2 * d + 1, -d, -d),
    )


def build_sd(n, d, generalized=False):
    """(S, D) in the split y-coordinates; with `generalized` the pair carries
    formal coefficient variables a_j (S gets a_{2i}/2, D gets -a_{2i}/2 - a_{2i+1})."""
    dom = QQ
    ctx = y_context(n, with_coeff_vars=generalized)
    S = MPoly.zero(ctx, dom)
    D = MPoly.zero(ctx, dom)
    for i in range(n + 1):
        ye = _v(ctx, dom, f"y{2 * i}")
        yo = _v(ctx, dom, f"y{2 * i + 1}")
        block = (ye ** d) * (yo ** d)
        if generalized:
            ae = _v(ctx, dom, f"a{2 * i}")
            ao = _v(ctx, dom, f"a{2 * i + 1}")
            S = S + (block * (ye + yo) * ae).scale(Fraction(1, 2))
            D = D + block * (ye - yo) * (ae.scale(Fraction(-1, 2)) - ao)
        else:
            S = S + block * (ye + yo)
            D = D + block * (ye - yo)
    return S, D


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
    the ambient range are clamped to the valid range.
    """
    which = which.strip()
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
