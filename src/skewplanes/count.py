"""Exact projective point counts over finite fields, the closed-form count
formulas, and their cross-validation.

`count_zeros` runs one of two engines, chosen from the system alone by cost.
The block engine splits the variables into blocks that share no monomial,
histograms each block's contribution to the value vector over F_q^r (r
polynomials), and convolves the histograms over the additive group; the
affine cone then has H[0] points.  It runs when there are at least two
blocks and it costs no more than the chart scan.  For one polynomial
(r = 1) it runs in line-orbit mode: a block's form is homogeneous, so it is
evaluated once per line, and its histogram and every partial convolution
are constant on the cosets of the e-th powers (see `_count_blocks`).  The
cost model of `_plan` is the same in both modes.  The chart scan walks
affine charts (points normalized so the first nonzero coordinate is 1) in
deterministic order and is the oracle for the block engine.  Both split
their index ranges into shards whose partial counts or histograms merge by
addition, so the total is independent of the shard count.
"""

from __future__ import annotations

import time
from math import gcd

import numpy as np

from .domains import QQ, QQXI, prime_power, sqrt_of_minus_three, root_count_unity
from .families import build_ab, build_x, build_x_d_delta
from .kernels import (
    block_histogram,
    chart_zeros,
    convolution_at_zero,
    convolve_histograms,
    convolve_invariant,
    count_system_chart,
    line_orbit_counts,
    orbit_histogram,
)
from .mpoly import MPoly, VarContext, multiplicity_at
from .reporting import BudgetExceeded, CountReport, VerificationResult, abbreviate

DEFAULT_BUDGET = 10 ** 9
# Largest histogram (q^r entries) the block engine builds.  Its cost bounds
# q^r only by the budget, and a histogram of 10^9 entries does not fit in
# memory, so larger systems are scanned, in blocks of constant memory.
HIST_MAX = 1 << 20


def projective_size(q, N):
    return (q ** (N + 1) - 1) // (q - 1)


def charge_projective(q, N, budget):
    """Raise BudgetExceeded when P^N(F_q) has more than `budget` points."""
    if projective_size(q, N) > budget:
        raise BudgetExceeded(f"|P^{N}(F_{q})| exceeds budget {abbreviate(budget)}")


# ---------------------------------------------------------------------------
# enumeration


def enumerate_projective(F, N, budget=DEFAULT_BUDGET):
    """Normalized points of P^N(F_q): charts by first-nonzero index ascending,
    remaining coordinates in field-element order, last coordinate fastest."""
    q = F.q
    charge_projective(q, N, budget)
    for chart in range(N + 1):
        nfree = N - chart
        prefix = (F.zero,) * chart + (F.one,)
        for idx in range(q ** nfree):
            k = idx
            tail = [F.zero] * nfree
            for j in range(nfree):
                tail[nfree - 1 - j] = F.element_from_index(k % q)
                k //= q
            yield prefix + tuple(tail)


def reduce_poly(f, F, xi_image=None):
    """Reduce a polynomial over Q, Q(xi), or F itself into F."""
    if f.dom is F:
        return f
    if f.dom is QQ:
        return f.map_domain(F, F.reduce_rational)
    if f.dom is QQXI:
        if xi_image is None:
            xi_image = sqrt_of_minus_three(F)
            if xi_image is None:
                raise ValueError(f"coefficients need xi but -3 is not a square in {F.name}")
        return f.map_domain(F, lambda a: F.reduce_quadext(a, xi_image))
    raise ValueError(f"cannot reduce coefficients from {f.dom.name} into {F.name}")


def _system_arrays(polys, F):
    """Reduce polynomials into F (see `reduce_poly`) and flatten them into
    (exps, coeffs, offsets) index arrays."""
    nvars = polys[0].ctx.nvars
    exps_rows = []
    coeff_rows = []
    offsets = [0]
    for f in polys:
        for e, c in sorted(reduce_poly(f, F).terms.items()):
            exps_rows.append(e)
            coeff_rows.append(F.element_index(c))
        offsets.append(len(exps_rows))
    exps = np.array(exps_rows, np.int64).reshape(len(exps_rows), nvars)
    coeffs = np.array(coeff_rows, np.int64)
    return exps, coeffs, np.array(offsets, np.int64)


def _variable_blocks(exps):
    """Connected components of the graph joining two variables when they
    share a monomial, each a sorted list, ordered by smallest variable."""
    parent = list(range(exps.shape[1]))

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for row in exps:
        support = np.flatnonzero(row)
        for v in support[1:]:
            parent[root(int(v))] = root(int(support[0]))
    blocks = {}
    for v in range(len(parent)):
        blocks.setdefault(root(v), []).append(v)
    return sorted(blocks.values())


def _plan(polys, F):
    """Check and flatten a homogeneous system, then choose its engine.

    Returns (engine, cost, exps, coeffs, offsets, blocks).  The block engine
    costs sum_b q^|b| point evaluations plus (#blocks - 2) * q^(2r)
    convolution cells and a final q^r-term dot product, which gives H[0]
    alone; the chart scan costs |P^(nvars-1)(F_q)| evaluations.
    Systems whose histograms would exceed HIST_MAX entries are scanned, and
    so are systems with a constant term (a nonzero constant polynomial),
    which leaves the origin off the cone."""
    polys = list(polys)
    if not polys:
        raise ValueError("empty system")
    ctx = polys[0].ctx
    for f in polys:
        if f.ctx != ctx:
            raise ValueError("system polynomials in mixed contexts")
        if not f.is_zero() and not f.is_homogeneous():
            raise ValueError("system polynomials must be homogeneous")
    q = F.q
    exps, coeffs, offsets = _system_arrays(polys, F)
    blocks = _variable_blocks(exps)
    scan_cost = projective_size(q, ctx.nvars - 1)
    r = len(polys)
    block_cost = (sum(q ** len(b) for b in blocks)
                  + (len(blocks) - 2) * q ** (2 * r) + q ** r)
    if (len(blocks) >= 2 and block_cost <= scan_cost and q ** r <= HIST_MAX
            and exps.any(axis=1).all()):
        return "blocks", block_cost, exps, coeffs, offsets, blocks
    return "scan", scan_cost, exps, coeffs, offsets, blocks


def count_engine(polys, F):
    """The engine `count_zeros` runs on this system: "blocks" or "scan"."""
    return _plan(polys, F)[0]


def _shard_ranges(size, shards):
    step = max(1, -(-size // max(1, shards)))
    return [(lo, min(lo + step, size)) for lo in range(0, size, step)]


def _count_blocks(F, exps, coeffs, offsets, blocks, shards):
    """(N_aff - 1) / (q - 1), with N_aff = H[0] of the convolution of the
    block histograms; Python ints once q^nvars reaches the int64 range.

    A one-polynomial system (r = 1) is homogeneous of some degree e, and so
    is each block's part of it: its histogram comes from one point per line
    (`line_orbit_counts`), and is constant on the cosets of (F_q^*)^e, of
    index s = gcd(e, q - 1), and so is every partial convolution, which is
    computed at 1 + s points (`convolve_invariant`)."""
    q = F.q
    exact = q ** exps.shape[1] >= 2 ** 63
    one_form = len(offsets) == 2
    # read for r = 1 only: e is the degree of any term (in Python ints, as
    # exponents may reach 2^63), and 1 for the zero polynomial, whose
    # histograms are zero off 0
    s = gcd(sum(map(int, exps[0])) if len(exps) else 1, q - 1)
    hists = []
    for block in blocks:
        rows = np.flatnonzero(exps[:, block].any(axis=1))
        sub_offsets = np.searchsorted(rows, offsets)
        sub_exps = exps[np.ix_(rows, block)]
        if one_form:
            lines = projective_size(q, len(block) - 1)
            hist = orbit_histogram(F, sum(
                line_orbit_counts(F, sub_exps, coeffs[rows], sub_offsets, s, lo, hi)
                for lo, hi in _shard_ranges(lines, shards)))
        else:
            hist = sum(block_histogram(F, sub_exps, coeffs[rows], sub_offsets, lo, hi)
                       for lo, hi in _shard_ranges(q ** len(block), shards))
        hists.append(hist.astype(object) if exact else hist)
    total = hists[0]
    for hist in hists[1:-1]:
        total = (convolve_invariant(F, total, hist, s) if one_form
                 else convolve_histograms(F, total, hist))
    n_aff = convolution_at_zero(F, total, hists[-1]) if len(hists) > 1 else int(total[0])
    return (n_aff - 1) // (q - 1)


def count_zeros(polys, F, shards=1, budget=DEFAULT_BUDGET, with_engine=False):
    """Number of normalized projective points where every polynomial
    vanishes; exact and shard-count independent.  `budget` caps the work of
    the engine that runs (see `_plan`).  With `with_engine`, returns
    (count, engine name), so a report names its engine without a second
    plan."""
    engine, cost, exps, coeffs, offsets, blocks = _plan(polys, F)
    q = F.q
    nvars = exps.shape[1]
    if cost > budget:
        what = (f"{len(blocks)} variable blocks" if engine == "blocks"
                else f"P^{nvars - 1}(F_{q})")
        raise BudgetExceeded(
            f"engine {engine!r} on {what} costs {abbreviate(cost)}, "
            f"over budget {abbreviate(budget)}")
    if engine == "blocks":
        total = _count_blocks(F, exps, coeffs, offsets, blocks, shards)
    else:
        total = sum(count_system_chart(F, exps, coeffs, offsets, chart, start, stop, nvars)
                    for chart in range(nvars)
                    for start, stop in _shard_ranges(q ** (nvars - 1 - chart), shards))
    return (total, engine) if with_engine else total


# ---------------------------------------------------------------------------
# closed-form counts


def formula_x2d(q, d):
    """Point count of the n = 1 hypersurface in P^3 over F_q, all branches."""
    p, m = prime_power(q)
    s = gcd(q - 1, 2 * d + 1)
    if p == 3:
        g = 2 * d + 1
        while g % 3 == 0:
            g //= 3
        return gcd(g, q - 1) * q * q + q + 1
    if p == 2:
        if m % 2 == 1:
            return q * q + s * q + 1
        return q * q + (4 + s) * q + 1
    if q % 6 == 5:
        return q * q + s * q + 1
    return q * q + (4 + s) * q + 1


def formula_x2d_alt(q, d):
    """For p = 2 the two parity readings of the branch condition; returns the
    value of the opposite reading when it differs, else None."""
    p, m = prime_power(q)
    if p != 2:
        return None
    s = gcd(q - 1, 2 * d + 1)
    main = formula_x2d(q, d)
    other = q * q + (4 + s) * q + 1 if m % 2 == 1 else q * q + s * q + 1
    return other if other != main else None


def formula_high_dim(q, n, d):
    """|P^{2n}(F_q)| when q = 5 mod 6 and gcd(2d+1, q-1) = 1; else None."""
    if q % 6 == 5 and gcd(2 * d + 1, q - 1) == 1:
        return projective_size(q, 2 * n)
    return None


def formula_y(q, n, d):
    """|P^{2n-2}(F_q)| under the same gates, for the codim-2 family (n >= 2)."""
    if n >= 2 and q % 6 == 5 and gcd(2 * d + 1, q - 1) == 1:
        return projective_size(q, 2 * n - 2)
    return None


# ---------------------------------------------------------------------------
# family count reports


def count_family(family, n, d, F, delta=None, shards=1, budget=DEFAULT_BUDGET):
    t0 = time.perf_counter()
    q = F.q
    params = {"n": n, "d": d}
    formula_alt = None
    if family == "X":
        polys = [build_x(n, d, F)]
        if n == 1:
            formula = formula_x2d(q, d)
            formula_alt = formula_x2d_alt(q, d)
        else:
            formula = formula_high_dim(q, n, d)
    elif family == "Y":
        A, B = build_ab(n, d, F)
        polys = [A, B]
        formula = formula_y(q, n, d)
    elif family == "Xdelta":
        if delta is None:
            raise ValueError("family Xdelta needs delta")
        params["delta"] = delta
        polys = [build_x_d_delta(n, d, delta, F)]
        Delta = delta * (d - 1) + 1
        if gcd(d, q - 1) == 1 and gcd(Delta, q - 1) == 1:
            formula = projective_size(q, 2 * n)
        else:
            formula = None
    else:
        raise ValueError(f"unknown family {family!r}")
    brute, engine = count_zeros(polys, F, shards=shards, budget=budget, with_engine=True)
    return CountReport(
        family=family, params=params,
        field_spec={"p": F.p, "m": F.m, "q": q},
        brute=brute, formula=formula,
        match=None if formula is None else brute == formula,
        formula_alt=formula_alt, shards=shards, engine=engine,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0)


def count_custom(polys, F, shards=1, budget=DEFAULT_BUDGET, label="custom"):
    t0 = time.perf_counter()
    brute, engine = count_zeros(polys, F, shards=shards, budget=budget, with_engine=True)
    return CountReport(
        family=label, params={"polys": len(polys)},
        field_spec={"p": F.p, "m": F.m, "q": F.q},
        brute=brute, formula=None, match=None, shards=shards,
        engine=engine, elapsed_ms=(time.perf_counter() - t0) * 1000.0)


def count_x_d_delta(n, d, delta, F, shards=1, budget=DEFAULT_BUDGET):
    return count_family("Xdelta", n, d, F, delta=delta, shards=shards, budget=budget)


# ---------------------------------------------------------------------------
# projection bijection (adjoining a·x_{N+1}^D)


def check_projection_bijection(f, a, D, F, shards=1, budget=DEFAULT_BUDGET):
    """Count {f + a*x_new^D = 0} in P^{N+1} and compare with |P^N|.

    When gcd(D, q-1) != 1 the statement does not apply; the result reports
    the gate instead of asserting."""
    t0 = time.perf_counter()
    q = F.q
    params = {"f_vars": f.ctx.nvars, "a": str(a), "D": D, "q": q}
    if gcd(D, q - 1) != 1:
        params["applicable"] = False
        params["gate"] = f"gcd({D}, {q - 1}) = {gcd(D, q - 1)} != 1"
        return VerificationResult(
            check="projection_bijection", params=params, passed=True,
            elapsed_ms=(time.perf_counter() - t0) * 1000.0, mode="numeric")
    params["applicable"] = True
    fF = reduce_poly(f, F)
    base = 0
    while f"e{base}" in f.ctx.names:
        base += 1
    new_name = f"e{base}"
    ctx2 = VarContext(tuple(f.ctx.names) + (new_name,))
    mapping = {nm: MPoly.variable(ctx2, F, nm) for nm in f.ctx.names}
    g = fF.substitute(mapping) + (MPoly.variable(ctx2, F, new_name) ** D).scale(F.from_int(a))
    count, engine = count_zeros([g], F, shards=shards, budget=budget, with_engine=True)
    expected = projective_size(q, f.ctx.nvars - 1)
    params["count"] = count
    params["engine"] = engine
    params["expected"] = expected
    witness = None if count == expected else {"count": count, "expected": expected}
    return VerificationResult(
        check="projection_bijection", params=params, passed=witness is None,
        witness=witness, elapsed_ms=(time.perf_counter() - t0) * 1000.0,
        mode="numeric")


# ---------------------------------------------------------------------------
# structure of Y0 = {A = B = 0} in P^2 (n = 1)


def projective_zeros(polys, F, budget=DEFAULT_BUDGET):
    """Normalized common zeros of the system, in `enumerate_projective`
    order, found chart by chart with the vectorized evaluator."""
    exps, coeffs, offsets = _system_arrays(polys, F)
    nvars = exps.shape[1]
    charge_projective(F.q, nvars - 1, budget)
    return [tuple(F.element_from_index(c) for c in row)
            for chart in range(nvars)
            for row in chart_zeros(F, exps, coeffs, offsets, chart, nvars).tolist()]


def normalize_point(F, pt):
    """Scale so the first nonzero coordinate equals 1."""
    for c in pt:
        if c != F.zero:
            inv = F.inv(c)
            return tuple(F.mul(inv, x) for x in pt)
    raise ValueError("zero vector has no projective normalization")


def count_y0_structure(d, F, budget=DEFAULT_BUDGET):
    """Solve A = B = 0 in P^2 over a field where xi = sqrt(-3) exists and
    x^2 + 3 is separable (q = 1 mod 6): two points [0:±xi:1] whose local
    intersection multiplicity is 2d^2+d, plus the simple points
    {u2 = 0, u0^{2d+1} + u1^{2d+1} = 0} — all 2d+1 of them when x^{2d+1} = -1
    splits; the multiplicity-weighted total over the closure is 4d^2+4d+1."""
    t0 = time.perf_counter()
    q = F.q
    if q % 6 != 1:
        raise ValueError(f"xi absent or x^2+3 degenerate in {F.name} (need q = 1 mod 6)")
    xi = sqrt_of_minus_three(F)
    A, B = build_ab(1, d, F)
    pts = projective_zeros([A, B], F, budget=budget)
    p_plus = normalize_point(F, (F.zero, xi, F.one))
    p_minus = normalize_point(F, (F.zero, F.neg(xi), F.one))
    mult_plus = multiplicity_at([A, B], p_plus)
    mult_minus = multiplicity_at([A, B], p_minus)
    simple = [pt for pt in pts if pt not in (p_plus, p_minus)]
    for pt in simple:
        # simple points all lie on {u2 = 0} with u0^{2d+1} = -u1^{2d+1}
        if pt[2] != F.zero:
            raise AssertionError(f"unexpected solution off u2 = 0: {pt}")
    root_count = root_count_unity(F, 2 * d + 1)
    split = root_count == 2 * d + 1
    weighted = mult_plus["multiplicity"] + mult_minus["multiplicity"] + len(simple)
    return {
        "d": d,
        "field": {"p": F.p, "m": F.m, "q": q},
        "multiple_points": [
            {"point": [F.fmt(c) for c in p_plus], "multiplicity": mult_plus["multiplicity"],
             "orders": mult_plus["orders"]},
            {"point": [F.fmt(c) for c in p_minus], "multiplicity": mult_minus["multiplicity"],
             "orders": mult_minus["orders"]},
        ],
        "expected_multiplicity": 2 * d * d + d,
        "simple_points": len(simple),
        "expected_simple": 2 * d + 1,
        "split": split,
        "weighted_total": weighted,
        "closed_form_total": 4 * d * d + 4 * d + 1,
        "match": split and weighted == 4 * d * d + 4 * d + 1
        and mult_plus["multiplicity"] == 2 * d * d + d
        and mult_minus["multiplicity"] == 2 * d * d + d,
        "elapsed_ms": (time.perf_counter() - t0) * 1000.0,
    }
