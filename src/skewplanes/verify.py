"""Symbolic and sampled verification of the identities behind the
construction: pencil factorization, hypersurface membership, composition
roundtrips, singular loci, Galois symmetry, Cox grading, and the dimension
of the distinguished linear system.

All symbolic checks are exact (the difference must be the zero polynomial);
nothing here is tolerance-based.  The singular locus is checked exactly over
Q(xi), one plane at a time, by substitution.  Sampled checks run over F_q
only: they draw from seeded generators, are bit-reproducible for a fixed
seed, and evaluate all their samples at once: the roundtrips' forms on
`kernels.FieldArray`s, the singular locus's partials over Q, reduced into
F_q as term lists, by `kernels.system_values`.  Its generic points are
drawn by rank and unranked from the histogram of Y's pair block
(`count.YChartZeros`), in the order of a full scan, so no scan runs.
"""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction
from itertools import combinations, product
from math import comb
from typing import Callable, NamedTuple

import numpy as np

from .count import DEFAULT_BUDGET, YChartZeros, reduce_poly
from .domains import QQ, QQXI, field_create, sqrt_of_minus_three
from .families import (
    _vars,
    ab_form,
    build_ab,
    build_alpha_beta,
    build_cox_model,
    build_cremona,
    build_line_pencil,
    build_phibar,
    build_x,
    char_two_form,
    h_form,
    phibar_blocks,
    phibar_form,
    sd_form,
    theta_form,
    u_context,
    x_context,
    x_form,
    y_context,
)
from .kernels import FieldArray, proportional_rows, system_values
from .mpoly import MPoly, RationalMap, VarContext, compose, exact_rank
from .reporting import BudgetExceeded, VerificationResult, abbreviate


def _done(check, params, witness, t0, mode="symbolic"):
    return VerificationResult(
        check=check, params=params, passed=witness is None, witness=witness,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0, mode=mode)


def _residual_witness(*labelled):
    """The witness of the first nonzero residual among the (label,
    polynomial) pairs, in their order: its text, or its term count past 12
    terms, and its leading term.  None when every residual is zero."""
    for label, p in labelled:
        if not p.is_zero():
            # rational parts print as Fractions, integral or not
            e, c = p.leading_term()
            c = Fraction(c) if p.dom is QQ else tuple(map(Fraction, c)) if p.dom is QQXI else c
            return {label: p.to_text() if len(p.terms) <= 12 else f"{len(p.terms)} terms",
                    "leading_term": str((e, c))}
    return None


def _dense(m, D):
    """(cost, wording) of a polynomial of degree D in m variables: its dense
    monomial count C(m - 1 + D, m - 1)."""
    cost = comb(m - 1 + D, m - 1)
    return cost, f"of degree {D} in {m} variables has up to {abbreviate(cost)} monomials"


def _block_sums(blocks, m):
    """(cost, wording) of a sum of `blocks` block summands in m variables:
    blocks^2 * m, above the blocks * m exponent additions of the block
    products and the blocks^2 term copies of the partial sums."""
    cost = blocks * blocks * m
    return cost, f"summed over {blocks} blocks in {m} variables costs {abbreviate(cost)}"


def _pencil_cost(n, d):
    """(cost, wording) of the line pencil and its residual, fitted to their
    run time (12-25 ns a unit on a 2-core host past 10^6 units, up to
    (n, d) = (100, 20) at 8.7 * 10^8): (n + 1)(d + 1)^4 for the powers of
    the n + 1 blocks, and (n + 1)(d + 1)^2 (180 (n + 1) + 820) for their
    sums and terms."""
    blocks, terms = n + 1, (d + 1) ** 2
    cost = blocks * terms * (terms + 180 * blocks + 820)
    return cost, f"of {blocks} blocks of degree {2 * d + 1} costs {abbreviate(cost)}"


def _charge(check, what, cost, budget):
    """Raise BudgetExceeded, naming `check`, when the (cost, wording) pair
    `cost` of `what` is over `budget`."""
    if cost[0] > budget:
        raise BudgetExceeded(f"{check}: {what} {cost[1]}, over budget {abbreviate(budget)}")


# ---------------------------------------------------------------------------
# pencil factorization and membership


def verify_line_factorization(n, d):
    """F(lambda) == xi * (-3)^d * lam^d (lam-1)^d * ((A - xi B)/2 - lam A).

    The scalar in front is xi*(-3)^d: expanding the pencil forces the extra
    unit xi relative to the bare (-3)^d normalization.
    """
    t0 = time.perf_counter()
    data = build_line_pencil(n, d)
    witness = _residual_witness(("residual", data["F"] - data["target"]))
    return _done("line_factorization", {"n": n, "d": d}, witness, t0)


def verify_membership(rmap, hypersurface, budget=DEFAULT_BUDGET):
    """Substitute the map components into the hypersurface polynomial and
    require the exact zero polynomial.  A component-count mismatch is a
    failure with a witness, not an exception (negative-control friendly).

    Before substituting, its residual is charged its `_dense` monomials,
    with D = deg X * deg map."""
    t0 = time.perf_counter()
    params = {"map": rmap.name, "components": len(rmap.components)}
    need = hypersurface.ctx.nvars
    if len(rmap.components) != need:
        witness = {"reason": f"map has {len(rmap.components)} components but the "
                             f"hypersurface ambient space needs {need}"}
        return _done("membership", params, witness, t0)
    if rmap.dom != hypersurface.dom:
        witness = {"reason": "map and hypersurface over different domains"}
        return _done("membership", params, witness, t0)
    D = (hypersurface.total_degree() or 0) * max(c.total_degree() or 0 for c in rmap.components)
    _charge("membership", "residual", _dense(rmap.ctx.nvars, D), budget)
    mapping = dict(zip(hypersurface.ctx.names, rmap.components))
    witness = _residual_witness(("residual", hypersurface.substitute(mapping)))
    return _done("membership", params, witness, t0)


def _phibar_on_x(n, d, seed, budget):
    """`verify_membership(build_phibar(n, d), build_x(n, d))` through the
    forms, with the same record: `x_form` at `phibar_form` on the u-variables
    is its residual, with no substitution into X's monomials."""
    t0 = time.perf_counter()
    comps = phibar_form(_vars(u_context(n), QQ), d, lambda p: p.scale(Fraction(1, 2)))
    witness = _residual_witness(("residual", x_form(comps, d)))
    return _done("membership", {"map": "phibar", "components": len(comps)}, witness, t0)


# ---------------------------------------------------------------------------
# compositions


def _scalar_identity_witness(comps, ctx, dom):
    """Check comps == s * (v_0, ..., v_k) for one common scalar polynomial s;
    return (scalar, witness)."""
    first = None
    for i, c in enumerate(comps):
        if not c.is_zero():
            first = i
            break
    if first is None:
        return None, {"reason": "composition is identically zero"}
    vi = MPoly.variable(ctx, dom, ctx.names[first])
    s = comps[first].try_div(vi)
    if s is None:
        return None, {"reason": f"component {first} not divisible by {ctx.names[first]}"}
    for i, c in enumerate(comps):
        expected = s * MPoly.variable(ctx, dom, ctx.names[i])
        if c != expected:
            return None, _residual_witness((f"component_{i}_residual", c - expected))
    return s, None


def verify_composition(f, g, modulo=None):
    """g∘f == identity up to a scalar polynomial factor.

    With `modulo` (a hypersurface polynomial in the source variables) the
    identity is only birational on the hypersurface: the cross minors
    c_i*v_j - c_j*v_i must each be exact multiples of it.  Division by one
    polynomial is exact, so a minor it does not divide is outside the ideal
    of the hypersurface and fails the check.
    """
    t0 = time.perf_counter()
    params = {"f": f.name, "g": g.name}
    try:
        c = compose(g, f)
    except ValueError as exc:
        return _done("composition", params, {"reason": str(exc)}, t0)
    ctx, dom = f.ctx, f.dom
    if len(c.components) != ctx.nvars:
        return _done("composition", params,
                     {"reason": "composite does not map the source space to itself"}, t0)
    if modulo is None:
        s, witness = _scalar_identity_witness(c.components, ctx, dom)
        if witness is None:
            params["scalar_degree"] = s.total_degree()
        return _done("composition", params, witness, t0)
    # birational on the hypersurface: minors reduce to multiples of it
    vs = [MPoly.variable(ctx, dom, nm) for nm in ctx.names]
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            minor = c.components[i] * vs[j] - c.components[j] * vs[i]
            if minor.is_zero():
                continue
            if minor.try_div(modulo) is None:
                witness = {"reason": f"minor ({i},{j}) is not a multiple of the hypersurface"}
                return _done("composition", params, witness, t0)
    params["modulo_degree"] = modulo.total_degree()
    return _done("composition", params, None, t0)


ROUNDTRIP_TRIALS = 100


def _sample_point(rng, q, nvars):
    """Element indices of a random nonzero vector of F_q^nvars."""
    while True:
        pt = [rng.randrange(q) for _ in range(nvars)]
        if any(pt):
            return pt


def _values(polys, F, pts):
    """Values of the polynomials, reduced into F, at the rows of `pts`, as
    the columns of an array of element indices."""
    systems = [list(reduce_poly(f, F).terms.items()) for f in polys]
    return np.stack(list(system_values(F, systems, pts)), axis=1)


def _element_strs(F, row):
    return [str(F.element_from_index(i)) for i in row.tolist()]


def verify_composition_numeric(f, g, F, nvars, seed=42):
    """Sample ROUNDTRIP_TRIALS points of F_q^nvars, push them through g∘f,
    and require projective equality with the input.  f and g are (name, form) pairs,
    each form applied once to all samples as `kernels.FieldArray` columns.
    Samples before the first failing one where either map vanishes entirely
    are skipped and tallied; all samples degenerating is a failure."""
    t0 = time.perf_counter()
    (fname, f), (gname, g) = f, g
    trials = ROUNDTRIP_TRIALS
    params = {"f": fname, "g": gname, "field": F.name,
              "trials": trials, "seed": seed}
    rng = random.Random(seed)
    pts = np.array([_sample_point(rng, F.q, nvars) for _ in range(trials)],
                   np.int64).reshape(trials, nvars)
    mid = f(FieldArray.columns(F, pts))
    out = np.stack([v.idx for v in g(mid)], axis=1)
    mid = np.stack([v.idx for v in mid], axis=1)
    skip = ~mid.any(axis=1) | ~out.any(axis=1)
    bad = ~skip & ~proportional_rows(F, pts, out)
    if bad.any():
        k = int(np.argmax(bad))
        params["skips"] = int(skip[:k].sum())
        witness = {"point": _element_strs(F, pts[k]), "image": _element_strs(F, out[k])}
        return _done("composition_numeric", params, witness, t0, mode="numeric")
    params["skips"] = int(skip.sum())
    params["checked"] = checked = trials - params["skips"]
    witness = None if checked > 0 else {"reason": "all samples degenerate; field too small"}
    return _done("composition_numeric", params, witness, t0, mode="numeric")


# ---------------------------------------------------------------------------
# singular locus


def _plane_minor(pa, pb, signs):
    """The first minor (i, j) of the Jacobian rows pa, pb (polynomials over
    Q(xi) in u0..u_{2n}) that is not identically zero on the plane u0 = 0,
    u_{2k+1} = s_k*xi*u_{2k+2} for the signs s_k, or None when all are."""
    ctx, dom = pa[0].ctx, pa[0].dom
    sub = {"u0": MPoly.zero(ctx, dom)}
    for k, s in enumerate(signs):
        sx = dom.xi if s == 1 else dom.neg(dom.xi)
        sub[f"u{2 * k + 1}"] = MPoly.variable(ctx, dom, f"u{2 * k + 2}").scale(sx)
    va = [p.substitute(sub) for p in pa]
    vb = [p.substitute(sub) for p in pb]
    for i, j in combinations(range(len(va)), 2):
        if not (va[i] * vb[j] - va[j] * vb[i]).is_zero():
            return i, j
    return None


def _sample_ranks(rng, pool, samples):
    """rng.sample(range(pool), samples).  It draws from the population's
    length alone, so these are the indices it would pick from a list of
    `pool` points.  Past sys.maxsize, where a range has no len, the draws of
    its set-based branch are repeated: rng.randrange(pool), skipping
    repeats."""
    if pool <= sys.maxsize:
        return rng.sample(range(pool), samples)
    picked = {}
    while len(picked) < samples:
        picked.setdefault(rng.randrange(pool))
    return list(picked)


def verify_singular_locus(n, d, samples=50, seed=0, generic_field=13, budget=DEFAULT_BUDGET):
    """Jacobian minors of (A, B) vanish on the claimed singular locus and
    are nonzero at generic points of Y = {A = B = 0}.

    The locus lies in {u0 = 0}: for d = 1 it is the conjugate plane pair
    u_{2k+1} = s*xi*u_{2k+2} (one sign s for every k); for d > 1 it is the
    union of the planes of all 2^n sign patterns.  Each plane is checked
    exactly over Q(xi): the partials are restricted to it by substitution and
    every minor must be the zero polynomial.  Generic points are the zeros
    of Y with u0 = 1 over a prime field where xi exists and differs from
    -xi: `samples` of them, drawn by rank in the order of a full scan, are
    unranked from the histogram of Y's pair block (`count.YChartZeros`), and
    their minors are evaluated there through the kernels' evaluator, on the
    partials over Q (only the planes need xi).  Before
    any other work, `budget` is charged the sampler's pair points and cells
    (`YChartZeros.cost`), and on every plane each term of each
    partial (the substitution) and |dA_i||dB_j| + |dA_j||dB_i| coefficient
    products for each minor (i, j), from the term counts of the partials
    (read off the exponents of A and B), which restriction to a plane does
    not raise.
    """
    if n < 2:
        raise ValueError("singular-locus check needs n >= 2 (locus is empty for n = 1)")
    if samples < 1:
        raise ValueError(f"singular-locus check needs samples >= 1, got {samples}")
    F = field_create(generic_field)
    xi = sqrt_of_minus_three(F)
    if xi is None or xi == F.neg(xi):
        raise ValueError(f"generic points need xi = sqrt(-3) with xi != -xi, "
                         f"which {F.name} lacks")
    t0 = time.perf_counter()
    A, B = build_ab(n, d, QQ)
    generic = YChartZeros(n, d, F)
    # over Q, d/du_i maps the terms with e_i > 0 to distinct nonzero terms
    sa, sb = (np.count_nonzero(np.array(list(P.terms), np.int64), axis=0).tolist()
              for P in (A, B))
    products = (2 if d == 1 else 2 ** n) * (
        sum(sa) * sum(sb) - sum(a * b for a, b in zip(sa, sb)) + sum(sa) + sum(sb))
    cells = generic.cost(samples)
    if products + cells > budget:
        raise BudgetExceeded(
            f"singular_locus: {abbreviate(products)} coefficient products on the planes and "
            f"{abbreviate(cells)} sampler cells over {F.name} cost "
            f"{abbreviate(products + cells)}, over budget {abbreviate(budget)}")
    params = {"n": n, "d": d, "samples": samples, "seed": seed,
              "generic_field": generic_field}
    qa, qb = ([P.partial(nm) for nm in A.ctx.names] for P in (A, B))
    pa, pb = ([p.map_domain(QQXI, QQXI.from_rational) for p in partials] for partials in (qa, qb))
    planes = [(s,) * n for s in (1, -1)] if d == 1 else product((1, -1), repeat=n)
    for signs in planes:
        minor = _plane_minor(pa, pb, signs)
        if minor is not None:
            witness = {"reason": "nonzero minor on the singular locus",
                       "signs": list(signs), "minor": list(minor)}
            return _done("singular_locus", params, witness, t0)
    # the plane locus sits inside {u0 = 0}
    if generic.pool < samples:
        witness = {"reason": f"only {generic.pool} generic points available"}
        return _done("singular_locus", params, witness, t0)
    pts = generic.unrank(_sample_ranks(random.Random(seed), generic.pool, samples))
    flat = proportional_rows(F, _values(qa, F, pts), _values(qb, F, pts))
    if flat.any():
        witness = {"reason": "all minors vanish at a generic point of Y",
                   "point": _element_strs(F, pts[int(np.argmax(flat))])}
        return _done("singular_locus", params, witness, t0)
    params["generic_pool"] = generic.pool
    return _done("singular_locus", params, None, t0)


# ---------------------------------------------------------------------------
# linear system of degree-(2d+2) forms through the planes


def _v_coordinates(n):
    """6 times the images of u0..u_{2n}, polynomials in v0..v_{2n} over
    Z[xi], under the linear change putting the conjugate planes onto
    coordinate planes: v0 = u0, v_{2i+1} = u_{2i+1} + xi*u_{2i+2},
    v_{2i+2} = u_{2i+1} - xi*u_{2i+2}."""
    dom = QQXI
    vctx = VarContext([f"v{i}" for i in range(2 * n + 1)])
    neg_xi = dom.neg(dom.xi)
    uexprs = [MPoly.variable(vctx, dom, "v0").scale(dom.from_int(6))]
    for i in range(n):
        v1 = MPoly.variable(vctx, dom, f"v{2 * i + 1}")
        v2 = MPoly.variable(vctx, dom, f"v{2 * i + 2}")
        uexprs += [(v1 + v2).scale(dom.from_int(3)), (v1 - v2).scale(neg_xi)]
    return uexprs


def _plane_conditions(g, trans_vars, order):
    """The terms of g of degree <= `order` in the transverse variables, by
    exponent tuple.  g vanishes to order > `order` along the coordinate
    plane {trans_vars = 0} exactly when there are none: each is, up to the
    factor prod mi! for its transverse exponents mi (nonzero in
    characteristic 0), the restriction to the plane of one transverse
    partial of g of order <= `order`."""
    idx = [g.ctx.index[v] for v in trans_vars]
    return {e: c for e, c in g.terms.items() if sum(e[i] for i in idx) <= order}


def verify_linear_system_dim(n, d):
    """Dimension of the subsystem of {L_A*A + L_B*B : L linear} vanishing to
    order d+1 along both conjugate planes; expected 2n+2, with every
    parametrization component inside the subsystem.  Exact rank over Z[xi]:
    at 6 times the u's, every form gains the same factor 6^(2d+2), which
    changes no rank and no condition a form violates."""
    t0 = time.perf_counter()
    params = {"n": n, "d": d}
    dom = QQXI
    uexprs = _v_coordinates(n)
    Av, Bv = ab_form(uexprs, d)
    basis = [u * Av for u in uexprs] + [u * Bv for u in uexprs]
    monomials = {e for g in basis for e in g.terms}
    space_dim = exact_rank([[g.terms.get(e, dom.zero) for e in monomials] for g in basis], dom)
    trans_plus = ["v0"] + [f"v{2 * i + 1}" for i in range(n)]
    trans_minus = ["v0"] + [f"v{2 * i + 2}" for i in range(n)]

    def condition_row(g):
        row = {("plus",) + k: v for k, v in _plane_conditions(g, trans_plus, d).items()}
        row.update({("minus",) + k: v for k, v in _plane_conditions(g, trans_minus, d).items()})
        return row

    rows = [condition_row(g) for g in basis]
    cols = sorted({k for row in rows for k in row}, key=str)
    matrix = [[row.get(c, dom.zero) for c in cols] for row in rows]
    rank = exact_rank(matrix, dom)
    dim = space_dim - rank
    params["space_dim"] = space_dim
    params["rank"] = rank
    params["dimension"] = dim
    if dim != 2 * n + 2:
        witness = {"reason": f"dimension {dim} != {2 * n + 2}"}
        return _done("linear_system_dim", params, witness, t0)
    # every parametrization component must satisfy all the conditions; a
    # nonzero scalar keeps the ones a form violates, so halving is skipped
    for i, cv in enumerate(phibar_blocks(uexprs, Av, Bv, lambda p: p)):
        row = condition_row(cv)
        if row:
            witness = {"reason": f"parametrization component {i} violates {len(row)} conditions"}
            return _done("linear_system_dim", params, witness, t0)
    return _done("linear_system_dim", params, None, t0)


# ---------------------------------------------------------------------------
# Galois symmetry and Cox grading


def verify_galois_symmetry(n, d, generalized=False):
    """sigma(S) = S and sigma(D) = -D exactly, sigma(S) and sigma(D) being
    `sd_form` at the pair-swapped variables y_{2i} <-> y_{2i+1}; also in the
    generalized form with formal coefficients a_j, which sigma fixes."""
    t0 = time.perf_counter()
    params = {"n": n, "d": d, "generalized": generalized}
    v = _vars(y_context(n, with_coeff_vars=generalized), QQ)
    y, a = v[:2 * n + 2], (v[2 * n + 2:] if generalized else None)
    swapped = [c for e, o in zip(y[::2], y[1::2]) for c in (o, e)]
    (S, D), (sS, sD) = sd_form(y, d, a), sd_form(swapped, d, a)
    witness = _residual_witness(("S_residual", sS - S), ("D_residual", sD + D))
    return _done("galois_symmetry", params, witness, t0)


def verify_cox_grading(n, d):
    """Multidegrees of the strict transforms equal (2d+1, -d, -d) under the
    torus grading, and w_+^d w_-^d times each strict transform reproduces the
    split-coordinate polynomial."""
    t0 = time.perf_counter()
    params = {"n": n, "d": d}
    cm = build_cox_model(n, d)
    expected = cm.expected_multidegree
    for label, poly in (("S_hat", cm.S_hat), ("D_hat", cm.D_hat), ("F_hat", cm.F_hat)):
        md = poly.multidegree(cm.grading)
        if md != expected:
            witness = {"reason": f"{label} multidegree {md} != {expected}"}
            return _done("cox_grading", params, witness, t0)
    params["multidegree"] = list(expected)
    # w_+^d w_-^d * hat-polynomials are (S, D) at y = (w_+ z_{2i}, w_- z_{2i+1})
    *z, wp, wm = _vars(cm.ctx, QQ)
    S, D = sd_form([c for e, o in zip(z[::2], z[1::2]) for c in (wp * e, wm * o)], d)
    scale = (wp ** d) * (wm ** d)
    witness = _residual_witness(("S_residual", S - scale * cm.S_hat),
                                ("D_residual", D - scale * cm.D_hat))
    return _done("cox_grading", params, witness, t0)


# ---------------------------------------------------------------------------
# check registry and the full suite


def _h_theta(n):
    return RationalMap("h.theta", h_form(theta_form(_vars(x_context(n), QQ))))


def _roundtrip_cost(n, d):
    """(cost, wording) of either roundtrip: its samples times a bound on its
    forms' field operations on arrays.  Per pair of u they take at most 40
    sums and products and two powers, each of at most 2 bit_length(d)
    products by square-and-multiply."""
    ops = (n + 1) * (40 + 4 * d.bit_length())
    cost = ROUNDTRIP_TRIALS * ops
    return cost, (f"of {ROUNDTRIP_TRIALS} samples through {ops} field operations "
                  f"costs {abbreviate(cost)}")


def _composition_roundtrip(n, d, seed, budget):
    F = field_create(1009)
    half = (F.p + 1) // 2  # 1/2 in F_p
    return verify_composition_numeric(
        ("phibar", lambda u: phibar_form(u, d, lambda v: v * half)),
        ("h.theta", lambda x: h_form(theta_form(x))), F, 2 * n + 1, seed=seed)


def _composition_roundtrip_char2(n, d, seed, budget):
    return verify_composition_numeric(("g", lambda u: char_two_form(u, d)[2]),
                                      ("theta", theta_form), field_create(2, 5), 2 * n + 1,
                                      seed=seed)


class Check(NamedTuple):
    run: Callable      # (n, d, seed, budget) -> VerificationResult
    in_suite: Callable  # (n, d) -> bool: whether run_all_checks runs it


def _charged(check, what, cost, run, in_suite=lambda n, d: True):
    """The Check `check` whose run charges `what` cost(n, d), a `_dense`,
    `_block_sums`, `_pencil_cost` or `_roundtrip_cost` pair, by `_charge`
    before `run` builds anything."""
    def charged(n, d, seed, budget):
        _charge(check, what, cost(n, d), budget)
        return run(n, d, seed, budget)
    return Check(charged, in_suite)


# every check by its `verify --check` name, in the suite's record order.
# singular_locus charges its own work; line_factorization is charged the
# fit of its run time, the checks that sum the (S, D) blocks of `sd_form`
# those sums, the sampled roundtrips their samples' field operations, and
# the others their largest polynomial's monomials.
CHECKS = {
    "line_factorization": _charged(
        "line_factorization", "pencil", _pencil_cost,
        lambda n, d, seed, budget: verify_line_factorization(n, d),
        lambda n, d: n <= 2 and d <= 2),
    "membership": _charged(
        "membership", "residual", lambda n, d: _dense(2 * n + 1, (2 * d + 1) * (2 * d + 2)),
        _phibar_on_x),
    "composition_cremona": _charged(
        "composition_cremona", "composite", lambda n, d: _dense(3, 4),
        lambda n, d, seed, budget: verify_composition(*build_cremona())),
    "composition_alphabeta": _charged(
        "composition_alphabeta", "composite", lambda n, d: _dense(2 * n + 1, 6),
        lambda n, d, seed, budget: verify_composition(*build_alpha_beta(n))),
    "composition_on_x": _charged(
        "composition_on_x", "cross minor", lambda n, d: _dense(2 * n + 1, 4 * d + 5),
        lambda n, d, seed, budget: verify_composition(_h_theta(n), build_phibar(n, d),
                                                      modulo=build_x(n, d)),
        lambda n, d: False),
    "composition_roundtrip": _charged(
        "composition_roundtrip", "evaluation", _roundtrip_cost, _composition_roundtrip),
    "composition_roundtrip_char2": _charged(
        "composition_roundtrip_char2", "evaluation", _roundtrip_cost,
        _composition_roundtrip_char2),
    "linear_system_dim": _charged(
        "linear_system_dim", "condition form", lambda n, d: _dense(2 * n + 1, 2 * d + 2),
        lambda n, d, seed, budget: verify_linear_system_dim(n, d)),
    "singular_locus": Check(
        lambda n, d, seed, budget: verify_singular_locus(n, d, samples=50, seed=seed,
                                                         budget=budget),
        lambda n, d: n >= 2),
    "galois": _charged(
        "galois", "residual", lambda n, d: _block_sums(n + 1, 2 * n + 2),
        lambda n, d, seed, budget: verify_galois_symmetry(n, d)),
    "galois_generalized": _charged(
        "galois_generalized", "residual", lambda n, d: _block_sums(n + 1, 4 * n + 4),
        lambda n, d, seed, budget: verify_galois_symmetry(n, d, generalized=True)),
    "cox_grading": _charged(
        "cox_grading", "residual", lambda n, d: _block_sums(n + 1, 2 * n + 4),
        lambda n, d, seed, budget: verify_cox_grading(n, d)),
}


def run_all_checks(n, d, seed=42, budget=DEFAULT_BUDGET):
    """Every check applicable at (n, d); used by the CLI `verify --check all`.
    `budget` reaches the checks that are charged for their size."""
    return [check.run(n, d, seed, budget) for check in CHECKS.values() if check.in_suite(n, d)]
