"""Symbolic and sampled verification of the identities behind the
construction: pencil factorization, hypersurface membership, composition
roundtrips, singular loci, Galois symmetry, Cox grading, and the dimension
of the distinguished linear system.

All symbolic checks are exact (the difference must be the zero polynomial);
nothing here is tolerance-based.  The singular locus is checked exactly over
Q(xi), one plane at a time, by substitution.  Sampled checks run over F_q
only: they draw from seeded generators, are bit-reproducible for a fixed
seed, and evaluate all their samples at once with `kernels.system_values`,
the evaluator of the count engines.  The singular locus's generic points
are drawn by rank and unranked from the histograms of Y's pair blocks
(`count.FirstChartZeros`), in the order of a full scan, so no scan runs.
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

from .count import DEFAULT_BUDGET, FirstChartZeros, _system_arrays
from .domains import QQ, QQXI, field_create, sqrt_of_minus_three
from .families import (
    ab_form,
    build_ab,
    build_alpha_beta,
    build_char_two_maps,
    build_cox_model,
    build_cremona,
    build_h,
    build_line_pencil,
    build_phibar,
    build_sd,
    build_theta,
    build_x,
    phibar_form,
)
from .kernels import proportional_rows, system_values
from .mpoly import MPoly, VarContext, compose, exact_rank
from .reporting import BudgetExceeded, VerificationResult, abbreviate

# full symbolic expansion stays comfortably small up to here; larger
# parameters should go through the numeric paths
SYMBOLIC_N_MAX = 3
SYMBOLIC_D_MAX = 3


def _done(check, params, witness, t0, mode="symbolic"):
    return VerificationResult(
        check=check, params=params, passed=witness is None, witness=witness,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0, mode=mode)


def _poly_witness(p, label="residual"):
    lt = p.leading_term()
    return {label: p.to_text() if len(p.terms) <= 12 else f"{len(p.terms)} terms",
            "leading_term": str(lt)}


# ---------------------------------------------------------------------------
# pencil factorization and membership


def verify_line_factorization(n, d):
    """F(lambda) == xi * (-3)^d * lam^d (lam-1)^d * ((A - xi B)/2 - lam A).

    The scalar in front is xi*(-3)^d: expanding the pencil forces the extra
    unit xi relative to the bare (-3)^d normalization.
    """
    if n > SYMBOLIC_N_MAX or d > SYMBOLIC_D_MAX:
        raise BudgetExceeded(f"line factorization limited to n<={SYMBOLIC_N_MAX}, d<={SYMBOLIC_D_MAX}")
    t0 = time.perf_counter()
    data = build_line_pencil(n, d)
    diff = data["F"] - data["target"]
    witness = None if diff.is_zero() else _poly_witness(diff)
    return _done("line_factorization", {"n": n, "d": d}, witness, t0)


def _charge_membership(m, D, budget):
    """Raise BudgetExceeded when the membership residual of degree D in m
    variables, C(m - 1 + D, m - 1) dense monomials, is over `budget`."""
    cost = comb(m - 1 + D, m - 1)
    if cost > budget:
        raise BudgetExceeded(f"membership: residual of degree {D} in {m} variables has up to "
                             f"{abbreviate(cost)} monomials, over budget {abbreviate(budget)}")


def verify_membership(rmap, hypersurface, budget=DEFAULT_BUDGET):
    """Substitute the map components into the hypersurface polynomial and
    require the exact zero polynomial.  A component-count mismatch is a
    failure with a witness, not an exception (negative-control friendly).

    Before substituting, it is charged by `_charge_membership`, with
    D = deg X * deg map."""
    t0 = time.perf_counter()
    params = {"map": rmap.name, "components": len(rmap.components)}
    need = hypersurface.ctx.nvars
    if len(rmap.components) != need:
        witness = {"reason": f"map has {len(rmap.components)} components but the "
                             f"hypersurface ambient space needs {need}"}
        return _done("membership", params, witness, t0)
    if rmap.dom is not hypersurface.dom:
        witness = {"reason": "map and hypersurface over different domains"}
        return _done("membership", params, witness, t0)
    D = (hypersurface.total_degree() or 0) * max(c.total_degree() or 0 for c in rmap.components)
    _charge_membership(rmap.ctx.nvars, D, budget)
    mapping = dict(zip(hypersurface.ctx.names, rmap.components))
    residual = hypersurface.substitute(mapping)
    witness = None if residual.is_zero() else _poly_witness(residual)
    return _done("membership", params, witness, t0)


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
            return None, _poly_witness(c - expected, label=f"component_{i}_residual")
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


def _sample_point(rng, q, nvars):
    """Element indices of a random nonzero vector of F_q^nvars."""
    while True:
        pt = [rng.randrange(q) for _ in range(nvars)]
        if any(pt):
            return pt


def _values(polys, F, pts):
    """Values of the polynomials, reduced into F, at the rows of `pts`, as
    the columns of an array of element indices."""
    exps, coeffs, offsets = _system_arrays(polys, F)
    return np.stack(list(system_values(F, exps, coeffs, offsets, pts)), axis=1)


def _element_strs(F, row):
    return [str(F.element_from_index(i)) for i in row.tolist()]


def verify_composition_numeric(f, g, F, trials=100, seed=42):
    """Sample source points, push through g∘f, and require projective
    equality with the input.  Both maps are evaluated once on all samples
    through the kernels' evaluator.  Samples before the first failing one
    where either map vanishes entirely are skipped and tallied; all samples
    degenerating is a failure."""
    t0 = time.perf_counter()
    params = {"f": f.name, "g": g.name, "field": F.name,
              "trials": trials, "seed": seed}
    rng = random.Random(seed)
    nv = f.ctx.nvars
    pts = np.array([_sample_point(rng, F.q, nv) for _ in range(trials)],
                   np.int64).reshape(trials, nv)
    mid = _values(f.components, F, pts)
    out = _values(g.components, F, mid)
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
    unranked from the histograms of Y's pair blocks
    (`count.FirstChartZeros`), and their minors are evaluated there through
    the kernels' evaluator.  Before any other work, `budget` is charged the
    sampler's block points and cells, and on every plane each term of each
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
    generic = FirstChartZeros([A, B], F)
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
    pa, pb = ([P.partial(nm).map_domain(QQXI, QQXI.from_rational) for nm in A.ctx.names]
              for P in (A, B))
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
    flat = proportional_rows(F, _values(pa, F, pts), _values(pb, F, pts))
    if flat.any():
        witness = {"reason": "all minors vanish at a generic point of Y",
                   "point": _element_strs(F, pts[int(np.argmax(flat))])}
        return _done("singular_locus", params, witness, t0)
    params["generic_pool"] = generic.pool
    return _done("singular_locus", params, None, t0)


# ---------------------------------------------------------------------------
# linear system of degree-(2d+2) forms through the planes


def _v_coordinates(n):
    """The images of u0..u_{2n}, polynomials in v0..v_{2n} over Q(xi), under
    the linear change putting the conjugate planes onto coordinate planes:
    v0 = u0, v_{2i+1} = u_{2i+1} + xi*u_{2i+2}, v_{2i+2} = u_{2i+1} - xi*u_{2i+2}."""
    dom = QQXI
    vctx = VarContext([f"v{i}" for i in range(2 * n + 1)])
    half = dom.from_rational(Fraction(1, 2))
    neg_xi_sixth = dom.mul(dom.neg(dom.xi), dom.from_rational(Fraction(1, 6)))
    uexprs = [MPoly.variable(vctx, dom, "v0")]
    for i in range(n):
        v1 = MPoly.variable(vctx, dom, f"v{2 * i + 1}")
        v2 = MPoly.variable(vctx, dom, f"v{2 * i + 2}")
        uexprs += [(v1 + v2).scale(half), (v1 - v2).scale(neg_xi_sixth)]
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
    parametrization component inside the subsystem.  Exact rank over Q(xi)."""
    t0 = time.perf_counter()
    params = {"n": n, "d": d}
    dom = QQXI
    uexprs = _v_coordinates(n)
    Av, Bv = ab_form(uexprs, d)
    basis = [u * Av for u in uexprs] + [u * Bv for u in uexprs]
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
    dim = len(basis) - rank
    params["space_dim"] = len(basis)
    params["rank"] = rank
    params["dimension"] = dim
    if dim != 2 * n + 2:
        witness = {"reason": f"dimension {dim} != {2 * n + 2}"}
        return _done("linear_system_dim", params, witness, t0)
    # every parametrization component must satisfy all the conditions
    half = dom.from_rational(Fraction(1, 2))
    for i, cv in enumerate(phibar_form(uexprs, d, lambda p: p.scale(half))):
        row = condition_row(cv)
        if row:
            witness = {"reason": f"parametrization component {i} violates {len(row)} conditions"}
            return _done("linear_system_dim", params, witness, t0)
    return _done("linear_system_dim", params, None, t0)


# ---------------------------------------------------------------------------
# Galois symmetry and Cox grading


def galois_swap(p):
    """The involution swapping each split-coordinate pair: y_{2i} <-> y_{2i+1}
    (and z_{2i} <-> z_{2i+1}, w_+ <-> w_- when present)."""
    ctx, dom = p.ctx, p.dom
    mapping = {}
    for name in ctx.names:
        kind, idx = name[0], name[1:]
        if kind in ("y", "z") and idx.isdigit():
            k = int(idx)
            partner = f"{kind}{k + 1 if k % 2 == 0 else k - 1}"
            if partner in ctx.names:
                mapping[name] = MPoly.variable(ctx, dom, partner)
        elif name == "wp":
            mapping[name] = MPoly.variable(ctx, dom, "wm")
        elif name == "wm":
            mapping[name] = MPoly.variable(ctx, dom, "wp")
    return p.substitute(mapping)


def verify_galois_symmetry(n, d, generalized=False):
    """sigma(S) = S and sigma(D) = -D under the pair swap, exactly; also in
    the generalized form with formal coefficients a_j."""
    t0 = time.perf_counter()
    params = {"n": n, "d": d, "generalized": generalized}
    S, D = build_sd(n, d, generalized=generalized)
    rs = galois_swap(S) - S
    rd = galois_swap(D) + D
    if not rs.is_zero():
        return _done("galois_symmetry", params, _poly_witness(rs, "S_residual"), t0)
    if not rd.is_zero():
        return _done("galois_symmetry", params, _poly_witness(rd, "D_residual"), t0)
    return _done("galois_symmetry", params, None, t0)


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
    # w_+^d w_-^d * hat-polynomials reproduce S and D under y -> w*z
    S, D = build_sd(n, d)
    dom = cm.S_hat.dom
    wp = MPoly.variable(cm.ctx, dom, "wp")
    wm = MPoly.variable(cm.ctx, dom, "wm")
    mapping = {}
    for i in range(n + 1):
        mapping[f"y{2 * i}"] = wp * MPoly.variable(cm.ctx, dom, f"z{2 * i}")
        mapping[f"y{2 * i + 1}"] = wm * MPoly.variable(cm.ctx, dom, f"z{2 * i + 1}")
    scale = (wp ** d) * (wm ** d)
    rs = S.substitute(mapping) - scale * cm.S_hat
    rd = D.substitute(mapping) - scale * cm.D_hat
    if not rs.is_zero():
        return _done("cox_grading", params, _poly_witness(rs, "S_residual"), t0)
    if not rd.is_zero():
        return _done("cox_grading", params, _poly_witness(rd, "D_residual"), t0)
    return _done("cox_grading", params, None, t0)


# ---------------------------------------------------------------------------
# check registry and the full suite


def _h_theta(n):
    h_theta = compose(build_h(n), build_theta(n))
    h_theta.name = "h.theta"
    return h_theta


def _composition_roundtrip(n, d, seed, budget):
    return verify_composition_numeric(build_phibar(n, d), _h_theta(n), field_create(1009),
                                      trials=100, seed=seed)


def _composition_roundtrip_char2(n, d, seed, budget):
    F32 = field_create(2, 5)
    g = build_char_two_maps(n, d, F32)["g"]
    return verify_composition_numeric(g, build_theta(n, F32), F32, trials=100, seed=seed)


def _membership(n, d, seed, budget):
    # phibar(n, d) into X(n, d) is charged from (n, d) before either is built
    _charge_membership(2 * n + 1, (2 * d + 1) * (2 * d + 2), budget)
    return verify_membership(build_phibar(n, d), build_x(n, d), budget)


class Check(NamedTuple):
    run: Callable      # (n, d, seed, budget) -> VerificationResult
    in_suite: Callable  # (n, d) -> bool: whether run_all_checks runs it


def _always(n, d):
    return True


# every check by its `verify --check` name, in the suite's record order
CHECKS = {
    "line_factorization": Check(lambda n, d, seed, budget: verify_line_factorization(n, d),
                                lambda n, d: n <= 2 and d <= 2),
    "membership": Check(_membership, _always),
    "composition_cremona": Check(
        lambda n, d, seed, budget: verify_composition(*build_cremona()), _always),
    "composition_alphabeta": Check(
        lambda n, d, seed, budget: verify_composition(*build_alpha_beta(n)), _always),
    "composition_on_x": Check(lambda n, d, seed, budget: verify_composition(
        _h_theta(n), build_phibar(n, d), modulo=build_x(n, d)), lambda n, d: False),
    "composition_roundtrip": Check(_composition_roundtrip, _always),
    "composition_roundtrip_char2": Check(_composition_roundtrip_char2, _always),
    "linear_system_dim": Check(lambda n, d, seed, budget: verify_linear_system_dim(n, d),
                               _always),
    "singular_locus": Check(
        lambda n, d, seed, budget: verify_singular_locus(n, d, samples=50, seed=seed,
                                                         budget=budget),
        lambda n, d: n >= 2),
    "galois": Check(lambda n, d, seed, budget: verify_galois_symmetry(n, d), _always),
    "galois_generalized": Check(
        lambda n, d, seed, budget: verify_galois_symmetry(n, d, generalized=True), _always),
    "cox_grading": Check(lambda n, d, seed, budget: verify_cox_grading(n, d), _always),
}


def run_all_checks(n, d, seed=42, budget=DEFAULT_BUDGET):
    """Every check applicable at (n, d); used by the CLI `verify --check all`.
    `budget` reaches the checks that are charged for their size."""
    return [check.run(n, d, seed, budget) for check in CHECKS.values() if check.in_suite(n, d)]
