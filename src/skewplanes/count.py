"""Exact projective point counts over finite fields, the closed-form count
formulas, and their cross-validation.

`count_zeros` runs one of two engines, chosen from the system alone by cost.
The block engine splits the variables into blocks that share no monomial
and counts r forms of one degree from the members c.f of their pencil,
each block once per line (`_count_blocks`).  It runs when there are two
blocks or more and it costs no more than the chart scan, its oracle, which
walks affine charts (points normalized so the first nonzero coordinate is
1) in order.

Zeros as points come from a chart scan (`projective_zeros`, which Y0 uses)
or, on the chart x0 = 1 of a system whose other variables form blocks, by
rank from the blocks' histograms with no scan (`FirstChartZeros`, which
`verify` samples Y's generic points from).
"""

from __future__ import annotations

import functools
import time
from math import gcd

import numpy as np

from .domains import (QQ, QQXI, exp_log_cells, prime_power, root_count_unity,
                      sqrt_of_minus_three)
from .families import build_ab, build_x, build_x_d_delta
from .kernels import (
    _BLOCK,
    _affine_points,
    _digitwise,
    chart_zeros,
    convolution_at_zero,
    convolve_histograms,
    convolve_invariant,
    count_system_chart,
    line_orbit_counts,
    orbit_histogram,
    pencil_lines,
    system_values,
)
from .mpoly import MPoly, VarContext, multiplicity_at
from .reporting import BudgetExceeded, CountReport, VerificationResult, abbreviate

DEFAULT_BUDGET = 10 ** 9
# Bound on q^r, about the cells of a block's pencil histograms.  The cost
# bounds them only by the budget, and 10^9 cells do not fit in memory.
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

    Returns (engine, cost, exps, coeffs, offsets, blocks, s), with
    s = gcd(e, q - 1) when every nonzero form has degree e, else None.  With
    C = |P^(r-1)(F_q)| and L = sum_b |P^(|b|-1)(F_q)| lines, the block engine
    costs (r + C) * L evaluations plus C * ((#blocks - 2) * (1 + s) + 1) * q
    convolution cells; the chart scan costs |P^(nvars-1)(F_q)| evaluations.
    Forms of several degrees, q^r > HIST_MAX or a constant term (which
    leaves the origin off the cone) send a system to the scan."""
    polys = list(polys)
    if not polys:
        raise ValueError("empty system")
    ctx = polys[0].ctx
    for f in polys:
        if f.ctx != ctx:
            raise ValueError("system polynomials in mixed contexts")
        if not f.is_zero() and not f.is_homogeneous():
            raise ValueError("system polynomials must be homogeneous")
    q, r = F.q, len(polys)
    exps, coeffs, offsets = _system_arrays(polys, F)
    blocks = _variable_blocks(exps)
    # Python ints, as exponents may reach 2^63; zero forms alone take e = 1
    degrees = {sum(map(int, exps[lo])) for lo, hi in zip(offsets, offsets[1:]) if lo < hi} or {1}
    s = gcd(min(degrees), q - 1) if len(degrees) == 1 else None
    scan_cost = projective_size(q, ctx.nvars - 1)
    if len(blocks) >= 2 and s is not None and q ** r <= HIST_MAX and exps.any(axis=1).all():
        pencil = projective_size(q, r - 1)
        lines = sum(projective_size(q, len(b) - 1) for b in blocks)
        cost = (r + pencil) * lines + pencil * ((len(blocks) - 2) * (1 + s) + 1) * q
        if cost <= scan_cost:
            return "blocks", cost, exps, coeffs, offsets, blocks, s
    return "scan", scan_cost, exps, coeffs, offsets, blocks, s


def _block_system(exps, coeffs, offsets, block):
    """(exps, coeffs, offsets) of the system's terms in the block's
    variables, restricted to its columns."""
    rows = np.flatnonzero(exps[:, block].any(axis=1))
    return exps[rows][:, block], coeffs[rows], np.searchsorted(rows, offsets)


def _count_blocks(F, exps, coeffs, offsets, blocks, s):
    """(N - 1) / (q - 1) for N common zeros of the r forms on the affine
    cone.  Over all c in F_q^r, N_aff(c.f) counts a common zero q^r times
    and any other point q^(r-1) times, and c and tc cut the same zeros, so
    q^nvars + (q - 1) sum_[c] N_aff(c.f) = q^r N + q^(r-1) (q^nvars - N).

    N_aff(c.f) = H[0] of the convolution of c.f's block histograms.  Each
    block's part of c.f has degree e, so its histogram comes from one point
    per line and is constant on the cosets of (F_q^*)^e, of index s, as is
    every partial convolution.  Histograms hold Python ints once q^nvars
    reaches the int64 range, and the sum over [c] is in Python ints."""
    q, nvars, r = F.q, exps.shape[1], len(offsets) - 1
    exact = q ** nvars >= 2 ** 63
    pencil = pencil_lines(F, r, s)

    def histograms(block):
        lines = projective_size(q, len(block) - 1)
        hist = orbit_histogram(F, line_orbit_counts(
            F, *_block_system(exps, coeffs, offsets, block), *pencil, s, 0, lines))
        return hist.astype(object) if exact else hist

    hists = map(histograms, blocks)
    total = next(hists)
    for _ in blocks[1:-1]:
        total = convolve_invariant(F, total, next(hists), s)
    n_aff = convolution_at_zero(F, total, next(hists)) if len(blocks) > 1 else total[:, 0]
    cone, rem = divmod(q ** nvars + (q - 1) * sum(map(int, n_aff)) - q ** (r - 1 + nvars),
                       q ** r - q ** (r - 1))
    assert rem == 0 and (cone - 1) % (q - 1) == 0
    return (cone - 1) // (q - 1)


def count_zeros(polys, F, budget=DEFAULT_BUDGET, with_engine=False):
    """Exact number of normalized projective points where every polynomial
    vanishes.  `budget` caps the work of the engine that runs (see `_plan`)
    plus the cells of the field's exp/log table when the engine reads it:
    the block engine always, the chart scan over F_{p^m}.  With
    `with_engine`, returns (count, engine name), so a report names its
    engine without a second plan."""
    engine, cost, exps, coeffs, offsets, blocks, s = _plan(polys, F)
    q = F.q
    nvars = exps.shape[1]
    what = f"{len(blocks)} variable blocks" if engine == "blocks" else f"P^{nvars - 1}(F_{q})"
    if engine == "blocks" or F.m > 1:
        cost += exp_log_cells(F)
        what += " and the field's exp/log table"
    if cost > budget:
        raise BudgetExceeded(
            f"engine {engine!r} on {what} costs {abbreviate(cost)}, "
            f"over budget {abbreviate(budget)}")
    if engine == "blocks":
        total = _count_blocks(F, exps, coeffs, offsets, blocks, s)
    else:
        total = sum(count_system_chart(F, exps, coeffs, offsets, chart, 0,
                                       q ** (nvars - 1 - chart), nvars)
                    for chart in range(nvars))
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
    return formula_high_dim(q, n - 1, d) if n >= 2 else None


# ---------------------------------------------------------------------------
# family count reports


def count_family(family, n, d, F, delta=None, budget=DEFAULT_BUDGET):
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
    brute, engine = count_zeros(polys, F, budget=budget, with_engine=True)
    return CountReport(
        family=family, params=params,
        field_spec=F.spec.as_dict(),
        brute=brute, formula=formula,
        match=None if formula is None else brute == formula,
        formula_alt=formula_alt, engine=engine,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0)


def count_custom(polys, F, budget=DEFAULT_BUDGET, label="custom"):
    t0 = time.perf_counter()
    brute, engine = count_zeros(polys, F, budget=budget, with_engine=True)
    return CountReport(
        family=label, params={"polys": len(polys)},
        field_spec=F.spec.as_dict(),
        brute=brute, formula=None, match=None, engine=engine,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0)


# ---------------------------------------------------------------------------
# projection bijection (adjoining a·x_{N+1}^D)


def check_projection_bijection(f, a, D, F, budget=DEFAULT_BUDGET):
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
    count, engine = count_zeros([g], F, budget=budget, with_engine=True)
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
# common zeros as points: a chart scan, and ranks on the chart x0 = 1


def projective_zeros(polys, F, budget=DEFAULT_BUDGET):
    """Normalized common zeros of the system, in `enumerate_projective`
    order, found chart by chart with the vectorized evaluator."""
    exps, coeffs, offsets = _system_arrays(polys, F)
    nvars = exps.shape[1]
    charge_projective(F.q, nvars - 1, budget)
    return [tuple(F.element_from_index(c) for c in row)
            for chart in range(nvars)
            for row in chart_zeros(F, exps, coeffs, offsets, chart, nvars).tolist()]


class FirstChartZeros:
    """The common zeros of a system with x0 = 1, ranked in
    `enumerate_projective` order without a scan, for systems whose variables
    past x0 form contiguous blocks that share no monomial with x0 or with
    each other (ValueError otherwise).

    On that chart the system's value vector is c + sum_k v_k(x_k), with c
    its value at (1, 0, ..., 0) and v_k that of block k's terms at the
    block's point x_k, so the zeros are the tuples of block points whose
    values sum to t = -c in (F_q^r, +).  With H_k the histogram of v_k over
    the q^|b_k| points of block k, S_k = H_k * ... * H_(m-1) and S_m the
    unit at 0, the zeros whose block-0 point is x number S_1[t - v_0(x)].
    The scan's order is lex in the blocks' points, block 0 most
    significant, so a rank is unranked block by block: the cumulative sums
    of S_(k+1)[t - v_k(x)] over block k's points in lex order pick its point,
    whose value then leaves the target.  Counts are Python ints in object
    arrays once q^(nvars - 1) reaches the int64 range."""

    def __init__(self, polys, F):
        exps, coeffs, offsets = _system_arrays(polys, F)
        blocks = _variable_blocks(exps)
        if blocks[0] != [0] or any(b != list(range(b[0], b[-1] + 1)) for b in blocks):
            raise ValueError("the variables past x0 must form contiguous blocks free of x0")
        self.F, self.blocks, self.r = F, blocks[1:], len(offsets) - 1
        self._system = exps, coeffs, offsets

    def cost(self, samples):
        """The work of the pool and of unranking `samples` ranks, in cells:
        the L = sum_k q^|b_k| block points, (m - 1) q^r histogram cells and
        (m - 2) q^2r convolution cells for m blocks, and the unranking
        cells, q^|b_0| for the pool and L per rank."""
        q, m = self.F.q, len(self.blocks)
        sizes = [q ** len(b) for b in self.blocks] or [0]
        cells = max(m - 1, 0) * q ** self.r + max(m - 2, 0) * q ** (2 * self.r)
        return sum(sizes) + cells + sizes[0] + samples * sum(sizes)

    @functools.cached_property
    def _tables(self):
        """(points, values, suffix, target): each block's points in lex order
        and their value vectors v_k as base-q keys, S_1, ..., S_m, and t."""
        F, (exps, coeffs, offsets) = self.F, self._system
        q, size = F.q, F.q ** self.r
        dtype = object if q ** (exps.shape[1] - 1) >= 2 ** 63 else np.int64

        def keys(system, pts):
            return sum(v * q ** j for j, v in enumerate(system_values(F, *system, pts)))

        origin = np.eye(1, exps.shape[1], dtype=np.int64)
        target = int(_digitwise(F.p, 0, keys(self._system, origin), -1, size)[0])
        points = [_affine_points(q, len(b), 0, q ** len(b)) for b in self.blocks]
        values = [keys(_block_system(exps, coeffs, offsets, b), pts)
                  for b, pts in zip(self.blocks, points)]
        suffix = [np.zeros(size, dtype)]
        suffix[0][0] = 1
        for v in values[:0:-1]:
            hist = np.bincount(v, minlength=size).astype(dtype)
            suffix.append(hist if len(suffix) == 1 else convolve_histograms(F, hist, suffix[-1]))
        return points, values, suffix[::-1], target

    @functools.cached_property
    def pool(self):
        """The number of zeros: S_0[t] = sum over block 0's points x of
        S_1[t - v_0(x)]."""
        points, values, suffix, target = self._tables
        if not values:
            return int(target == 0)
        return int(suffix[0][_digitwise(self.F.p, target, values[0], -1, self.F.q ** self.r)]
                   .sum())

    def unrank(self, ranks):
        """The zeros of the given ranks (each below `pool`), in order, as rows
        of element indices."""
        points, values, suffix, target = self._tables
        ranks = np.array(ranks, suffix[0].dtype)
        out = np.zeros((len(ranks), self._system[0].shape[1]), np.int64)
        out[:, 0] = 1
        step = max(1, (_BLOCK * 8) // max(map(len, points), default=1))
        for lo in range(0, len(ranks), step):
            rank = ranks[lo:lo + step]
            t, at = np.full(len(rank), target), np.arange(len(rank))
            for block, pts, v, S in zip(self.blocks, points, values, suffix):
                rest = _digitwise(self.F.p, t[:, None], v[None, :], -1, self.F.q ** self.r)
                weight = S[rest]
                cum = np.cumsum(weight, axis=1)
                pick = (cum <= rank[:, None]).sum(axis=1)
                rank = rank - (cum[at, pick] - weight[at, pick])
                t = rest[at, pick]
                out[lo:lo + step, block] = pts[pick]
        return out


# ---------------------------------------------------------------------------
# structure of Y0 = {A = B = 0} in P^2 (n = 1)


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
    # the search of P^2 below is charged before xi, whose exp/log table it
    # pays for, is read
    charge_projective(q, 2, budget)
    xi = sqrt_of_minus_three(F)
    A, B = build_ab(1, d, F)
    pts = projective_zeros([A, B], F, budget=budget)
    p_plus = normalize_point(F, (F.zero, xi, F.one))
    p_minus = normalize_point(F, (F.zero, F.neg(xi), F.one))
    points = (p_plus, p_minus)
    mults = [multiplicity_at([A, B], pt) for pt in points]
    simple = [pt for pt in pts if pt not in points]
    for pt in simple:
        # simple points all lie on {u2 = 0} with u0^{2d+1} = -u1^{2d+1}
        if pt[2] != F.zero:
            raise AssertionError(f"unexpected solution off u2 = 0: {pt}")
    split = root_count_unity(F, 2 * d + 1) == 2 * d + 1
    weighted = sum(m["multiplicity"] for m in mults) + len(simple)
    return {
        "d": d,
        "field": F.spec.as_dict(),
        "multiple_points": [{"point": [F.fmt(c) for c in pt], "multiplicity": m["multiplicity"],
                             "orders": m["orders"]} for pt, m in zip(points, mults)],
        "expected_multiplicity": 2 * d * d + d,
        "simple_points": len(simple),
        "expected_simple": 2 * d + 1,
        "split": split,
        "weighted_total": weighted,
        "closed_form_total": 4 * d * d + 4 * d + 1,
        # a shared tangent means the product of orders may overcount
        "match": split and weighted == 4 * d * d + 4 * d + 1
        and all(m["multiplicity"] == 2 * d * d + d and m["shared_tangent"] is False
                for m in mults),
        "elapsed_ms": (time.perf_counter() - t0) * 1000.0,
    }
