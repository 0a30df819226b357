"""Exact projective point counts over finite fields, the closed-form count
formulas, and their cross-validation.

Counts have two engines, each charged before it runs (`_charge`).  The
block engine (`_count_blocks`) counts r forms of one degree from the
members c.f of their pencil, a chunk of members at a time, over blocks of
variables that share no monomial: each class of blocks alike is evaluated
at one point per line, binned by `line_orbit_counts`, and its histogram
raised to the class size by squaring and read at 0 (`_cone_count`), as
coset vectors.  It costs `_block_cost`, and its one memory guard is its
table's, domains.TABLE_MAX.  The chart scan (`_scan`), its oracle, walks
the normalized points (first nonzero coordinate 1) in order.

The families X, Xdelta and Y are counted from their forms on the block
engine (`count_family`), with no polynomial built: each is a sum of one
two-variable form over its pairs, plus a u0 block for Y, so its classes
are the pair form on the q + 1 points of P^1 and u0.  A custom system over
Q or F_q goes to `count_zeros`, which reduces it into F_q (`reduce_poly`),
as term lists, and sorts its blocks into classes; the block engine runs when
there are two blocks or more and it costs less than the scan, each with the
table it reads (`_plan`).

The zeros of Y = {A = B = 0} as points come by rank, with no scan, from the
histogram of its pair block on the chart u0 = 1 (`YChartZeros`): `verify`
samples Y's generic points from it.  Y0 (n = 1) is counted as Y(1, d), and
its two multiple points are read from (A, B) expanded there by `ab_form`.
"""

from __future__ import annotations

import functools
import time
from itertools import compress
from math import gcd
from typing import Callable, NamedTuple

import numpy as np

from . import domains
from .domains import QQ, exp_log_cells, prime_power, sqrt_of_minus_three
from .families import ab_form, u_context, x_d_delta_degree, x_form
from .kernels import (
    _BLOCK,
    _affine_points,
    _digitwise,
    _line_points,
    FieldArray,
    convolution_at_zero,
    convolve_histograms,
    convolve_invariant,
    count_system_chart,
    line_orbit_counts,
    system_values,
)
from .mpoly import MPoly, VarContext, local_multiplicity
from .reporting import BudgetExceeded, CountReport, VerificationResult, abbreviate

DEFAULT_BUDGET = 10 ** 9


def projective_size(q, N):
    return (q ** (N + 1) - 1) // (q - 1)


# ---------------------------------------------------------------------------
# enumeration


def enumerate_projective(F, N, budget=DEFAULT_BUDGET):
    """Normalized points of P^N(F_q): charts by first-nonzero index ascending,
    remaining coordinates in field-element order, last coordinate fastest."""
    q = F.q
    if projective_size(q, N) > budget:
        raise BudgetExceeded(f"|P^{N}(F_{q})| exceeds budget {abbreviate(budget)}")
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


def reduce_poly(f, F):
    """Reduce a polynomial over Q, or F itself, into F."""
    if f.dom == F:
        return f
    if f.dom == QQ:
        return f.map_domain(F, F.reduce_rational)
    raise ValueError(f"cannot reduce coefficients from {f.dom.name} into {F.name}")


def _variable_blocks(systems, nvars):
    """Connected components of the graph joining two variables when they
    share a monomial of a term list in `systems`, each a sorted list,
    ordered by smallest variable."""
    parent = list(range(nvars))

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for terms in systems:
        for exps, _ in terms:
            support = list(compress(range(nvars), exps))
            for v in support[1:]:
                parent[root(v)] = root(support[0])
    blocks = {}
    for v in range(nvars):
        blocks.setdefault(root(v), []).append(v)
    return sorted(blocks.values())


def _plan(polys, F):
    """Check and reduce a custom homogeneous system, then choose its engine.

    Returns (engine, cost, systems, classes, s): systems the polynomials'
    term lists over F, classes the block classes (`_block_classes`) when
    the block engine runs, else None, and s = gcd(e, q - 1) when every
    nonzero form has degree e, else None.  The block engine costs
    `_block_cost` and runs when that and its `_table_cells` are less than
    the chart scan's |P^(nvars-1)(F_q)| points and its `_table_cells`.  One
    block, forms of several degrees, a table past TABLE_MAX or a constant
    term (which leaves the origin off the cone) send a system to the scan."""
    polys = list(polys)
    if not polys:
        raise ValueError("empty system")
    ctx = polys[0].ctx
    for f in polys:
        if f.ctx != ctx:
            raise ValueError("system polynomials in mixed contexts")
        if not f.is_zero() and not f.is_homogeneous():
            raise ValueError("system polynomials must be homogeneous")
    q, r, nvars = F.q, len(polys), ctx.nvars
    systems = [list(reduce_poly(f, F).terms.items()) for f in polys]
    # zero forms alone take e = 1
    degrees = {sum(terms[0][0]) for terms in systems if terms} or {1}
    s = gcd(min(degrees), q - 1) if len(degrees) == 1 else None
    scan_cost = projective_size(q, nvars - 1)
    if (s is not None and _table_cells(F, "blocks") <= domains.TABLE_MAX
            and all(any(e) for terms in systems for e, _ in terms)):
        blocks = _variable_blocks(systems, nvars)
        if len(blocks) >= 2:
            classes = _block_classes(F, systems, blocks)
            cost = _block_cost(q, r, s, [(width, k) for _, width, k in classes], nvars)
            if cost + _table_cells(F, "blocks") < scan_cost + _table_cells(F, "scan"):
                return "blocks", cost, systems, classes, s
    return "scan", scan_cost, systems, None, s


def _block_classes(F, systems, blocks):
    """The classes (values, width, k) of `_count_blocks`: the distinct
    systems of the blocks, each the term lists restricted to the block's
    variables, in order of first appearance, each evaluated by
    `system_values`, with the number k of blocks alike.  Every term is
    filed under the block of its first variable."""
    owner = {v: i for i, block in enumerate(blocks) for v in block}
    cut = [[[] for _ in systems] for _ in blocks]
    for i, terms in enumerate(systems):
        for exps, c in terms:
            b = owner[next(compress(range(len(exps)), exps))]
            cut[b][i].append((tuple(exps[v] for v in blocks[b]), c))
    classes = {}
    for block, system in zip(blocks, cut):
        key = len(block), tuple(tuple(sorted(terms)) for terms in system)
        classes.setdefault(key, [system, len(block), 0])[2] += 1
    return [(functools.partial(system_values, F, system), width, k)
            for system, width, k in classes.values()]


def _count_blocks(F, classes, nvars, r, s):
    """The common zeros in P^(nvars-1) of r forms of degree e, with
    s = gcd(e, q - 1), from the classes (values, width, k) of their blocks:
    values(pts) the r forms' element indices at rows of normalized points of
    P^(width-1), evaluated `_BLOCK` lines at a time and binned by
    `line_orbit_counts`, and k the number of blocks alike.  A line of value
    v takes each value of v (F_q^*)^e s times, so each member's histogram
    has the coset vector H(0) = 1 + (q - 1) z, H(g^i) = s c_i.  The pencil's
    C = |P^(r-1)(F_q)| members c go max(1, _BLOCK * 8 // q) rows at a time.
    Over all c in F_q^r, N_aff(c.f) counts a common zero q^r times and any
    other point q^(r-1) times, and c and tc cut the same zeros, so for N
    zeros on the affine cone
    q^nvars + (q - 1) sum_[c] N_aff(c.f) = q^r N + q^(r-1) (q^nvars - N)."""
    q = F.q
    members, step = projective_size(q, r - 1), max(1, (_BLOCK * 8) // q)
    n_aff = 0
    for lo in range(0, members, step):
        pencil = _line_points(q, r, lo, min(lo + step, members))
        hists = []
        for values, width, k in classes:
            lines = projective_size(q, width - 1)
            counts = sum(line_orbit_counts(F, np.array(list(values(_line_points(
                q, width, at, min(at + _BLOCK, lines))))), pencil, s)
                for at in range(0, lines, _BLOCK))
            hist = s * counts
            hist[:, 0] = 1 + (q - 1) * counts[:, 0]
            hists.append((hist, k))
        n_aff += _cone_count(F, hists, nvars, s)
    cone, rem = divmod(q ** nvars + (q - 1) * n_aff - q ** (r - 1 + nvars),
                       q ** r - q ** (r - 1))
    assert rem == 0 and (cone - 1) % (q - 1) == 0
    return (cone - 1) // (q - 1)


def _binary_factors(k):
    """The exponents i, in order, of the factors h^(2^i) whose product is
    h^k, made by squaring: one for each set bit of k but its top two,
    which leave h^(2^i) twice (top bits 10) or h^(2^i) and h^(2^(i+1))
    (top bits 11), so that no square is made only to be read at 0."""
    out, i = [], 0
    while k > 2:
        if k & 1:
            out.append(i)
        k, i = k >> 1, i + 1
    return out + [i] * k


def _cell_words(q, nvars):
    """The machine words of a histogram cell in `_cone_count`: 1 while
    q^nvars, the most its cells count, fits int64, and the words of q^nvars
    once they are Python ints, whose products cost about that many word
    operations a cell."""
    size = q ** nvars
    return 1 if size < 2 ** 63 else -(-size.bit_length() // 64)


def _convolutions(ks):
    """(convolutions, reads at 0) that `_cone_count` makes for classes of
    the multiplicities `ks`: each class's squarings, then the products of
    all factors but the last, which is read at 0 against their product."""
    powers = [_binary_factors(k) for k in ks]
    factors = sum(map(len, powers))
    return sum(p[-1] for p in powers if p) + max(factors - 2, 0), int(factors > 1)


def _block_cost(q, r, s, classes, nvars):
    """The work of `_count_blocks` on classes of the given (width, k), in
    units of one cell: for each of the C = |P^(r-1)(F_q)| members of the
    pencil, one evaluation for each line of each class, (1 + s) q cells for
    each convolution and q for each read at 0 (`_convolutions`), an upper
    bound on its 1 + s products, each cell `_cell_words` long."""
    convolutions, reads = _convolutions([k for _, k in classes])
    return projective_size(q, r - 1) * (
        sum(projective_size(q, width - 1) for width, _ in classes)
        + ((1 + s) * convolutions + reads) * q * _cell_words(q, nvars))


def _cone_count(F, classes, nvars, s):
    """The sum of N_aff(c.f), the zeros on the affine cone in `nvars`
    variables, over a chunk of members c.f of a pencil of forms of degree e,
    with s = gcd(e, q - 1), from the (hist, k) of their distinct blocks: hist
    the blocks' coset vectors, one row per member, k the blocks alike.
    N_aff(c.f) = H(0) of the convolution of c.f's block histograms, each
    constant on the cosets of (F_q^*)^e, of index s, as is every partial
    convolution.  A class's histogram is raised to k by squaring
    (`_binary_factors`).  Histograms hold Python ints once q^nvars reaches
    the int64 range, and the sum is in Python ints."""
    exact = F.q ** nvars >= 2 ** 63
    factors = []
    for hist, k in classes:
        hist, at = hist.astype(object) if exact else hist, 0
        for i in _binary_factors(k):
            while at < i:
                hist, at = convolve_invariant(F, hist, hist, s), at + 1
            factors.append(hist)
    total = factors[0]
    for factor in factors[1:-1]:
        total = convolve_invariant(F, total, factor, s)
    n_aff = convolution_at_zero(F, total, factors[-1]) if len(factors) > 1 else total[:, 0]
    return sum(map(int, n_aff))


def _table_cells(F, engine):
    """The cells of the field's exp/log table where the engine reads it (the
    block engine always, the chart scan over F_{p^m}), else 0."""
    return exp_log_cells(F) if engine == "blocks" or F.m > 1 else 0


def _charge(F, engine, cost, what, budget):
    """Raise BudgetExceeded when the engine's `cost` on `what`, plus its
    `_table_cells`, passes `budget`, or when those cells pass their memory
    guard, domains.TABLE_MAX, whether or not the table is cached."""
    table = _table_cells(F, engine)
    if cost + table > budget:
        tail = " and the field's exp/log table" if table else ""
        raise BudgetExceeded(f"engine {engine!r} on {what}{tail} costs "
                             f"{abbreviate(cost + table)}, over budget {abbreviate(budget)}")
    if table > domains.TABLE_MAX:
        raise BudgetExceeded(f"engine {engine!r} on {what}: the exp/log table of {F.name} "
                             f"has {table} cells, over its memory guard of {domains.TABLE_MAX}")


def _scan(F, values, nvars, budget):
    """The chart scan, charged |P^(nvars-1)(F_q)| points: the common zeros
    of the forms `values` gives (see `count_system_chart`)."""
    size = projective_size(F.q, nvars - 1)
    _charge(F, "scan", size, f"P^{nvars - 1}(F_{F.q})", budget)
    return count_system_chart(F, values, nvars, 0, size)


def count_zeros(polys, F, budget=DEFAULT_BUDGET, with_engine=False):
    """Exact number of normalized projective points where every polynomial
    vanishes, by the engine `_plan` chooses.  `budget` caps its work (see
    `_charge`).  With `with_engine`, returns (count, engine name), so a
    report names its engine without a second plan."""
    polys = list(polys)
    engine, cost, systems, classes, s = _plan(polys, F)
    nvars = polys[0].ctx.nvars
    if engine == "blocks":
        _charge(F, engine, cost, f"{sum(k for *_, k in classes)} variable blocks", budget)
        total = _count_blocks(F, classes, nvars, len(systems), s)
    else:
        total = _scan(F, functools.partial(system_values, F, systems), nvars, budget)
    return (total, engine) if with_engine else total


# ---------------------------------------------------------------------------
# closed-form counts


def formula_x2d(q, d):
    """Point count of the n = 1 hypersurface in P^3 over F_q, all branches:
    with s = gcd(q - 1, 2d + 1), s q^2 + q + 1 when 3 | q, and otherwise
    q^2 + s q + 1 when q = 2 mod 3 and q^2 + (4 + s) q + 1 when q = 1 mod 3."""
    prime_power(q)  # refuses q that is not a prime power
    s = gcd(q - 1, 2 * d + 1)
    if q % 3 == 0:
        return s * q * q + q + 1
    return q * q + (s if q % 3 == 2 else 4 + s) * q + 1


def formula_x2d_alt(q, d):
    """For p = 2, the value under the opposite reading of the branch
    condition, which swaps the branches q = 2 mod 3 (m odd) and q = 1 mod 3
    (m even) of `formula_x2d`; None for odd q."""
    if prime_power(q)[0] != 2:
        return None
    return q * q + (gcd(q - 1, 2 * d + 1) + (4 if q % 3 == 2 else 0)) * q + 1


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


class FamilyForm(NamedTuple):
    """A family as its forms: r forms of degree e, each the sum of one pair
    form over `pairs` pairs of variables, plus u0^e when `u0` (Y).
    `forms(cols)` gives the r forms at the values `cols` of the variables,
    u0 first for Y; `params`, `formula` and `formula_alt` go to the report."""

    params: dict
    formula: int | None
    formula_alt: int | None
    r: int
    e: int
    pairs: int
    u0: bool
    forms: Callable


def _family_form(family, n, d, delta, F):
    """The `FamilyForm` of X(n, d), Y(n, d) or Xdelta(n, d, delta) over F,
    with the paper's formula where it has one."""
    q = F.q
    if family == "X":
        return FamilyForm(
            {"n": n, "d": d}, formula_x2d(q, d) if n == 1 else formula_high_dim(q, n, d),
            formula_x2d_alt(q, d) if n == 1 else None, 1, 2 * d + 1, n + 1, False,
            lambda cols: [x_form(cols, d)])
    if family == "Y":
        return FamilyForm({"n": n, "d": d}, formula_y(q, n, d), None, 2, 2 * d + 1, n, True,
                          lambda cols: ab_form(cols, d))
    if family == "Xdelta":
        if delta is None:
            raise ValueError("family Xdelta needs delta")
        e = x_d_delta_degree(d, delta)
        formula = projective_size(q, 2 * n) if gcd(d, q - 1) == gcd(e, q - 1) == 1 else None
        return FamilyForm({"n": n, "d": d, "delta": delta}, formula, None, 1, e, n + 1, False,
                          lambda cols: [x_form(cols, delta, k=d)])
    raise ValueError(f"unknown family {family!r}")


def count_family(family, n, d, F, delta=None, budget=DEFAULT_BUDGET):
    """The report of one family's count against the paper's formula, where
    it has one, from its forms (see `FamilyForm`) with no polynomial built,
    on the block engine at every q whose table passes `_charge`: its classes
    are the pairs, the forms on the q + 1 points of P^1 (at u0 = 0 for Y),
    and Y's u0 block."""
    t0 = time.perf_counter()
    q, form = F.q, _family_form(family, n, d, delta, F)
    nvars = 2 * form.pairs + form.u0

    def values(pts, zeros=0):
        # Y's pair blocks are its forms at u0 = 0
        return [v.idx for v in form.forms([0] * zeros + FieldArray.columns(F, pts))]
    s = gcd(form.e, q - 1)
    classes = [(values, 1, 1)] * form.u0 + [
        (functools.partial(values, zeros=form.u0), 2, form.pairs)]
    _charge(F, "blocks", _block_cost(q, form.r, s, [(w, k) for _, w, k in classes], nvars),
            f"{form.pairs} pair blocks" + ", the u0 block" * form.u0, budget)
    brute = _count_blocks(F, classes, nvars, form.r, s)
    return CountReport(
        family=family, params=form.params,
        field_spec={"p": F.p, "m": F.m, "q": q},
        brute=brute, formula=form.formula,
        match=None if form.formula is None else brute == form.formula,
        formula_alt=form.formula_alt, engine="blocks",
        elapsed_ms=(time.perf_counter() - t0) * 1000.0)


def count_custom(polys, F, budget=DEFAULT_BUDGET):
    t0 = time.perf_counter()
    brute, engine = count_zeros(polys, F, budget=budget, with_engine=True)
    return CountReport(
        family="custom", params={"polys": len(polys)},
        field_spec={"p": F.p, "m": F.m, "q": F.q},
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
    g = MPoly(ctx2, F, {e + (0,): c for e, c in fF.terms.items()}) \
        + (MPoly.variable(ctx2, F, new_name) ** D).scale(F.from_int(a))
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
# the zeros of Y on its chart u0 = 1, by rank


class YChartZeros:
    """The zeros of Y = {A = B = 0} in P^{2n} with u0 = 1, ranked in
    `enumerate_projective` order without a scan.

    There A = 1 + sum_k a(x_k) and B = 1 + sum_k b(x_k) over the pair blocks
    x_k = (u_{2k+1}, u_{2k+2}), with (a, b) = `ab_form` at (0, x_k), so a
    zero is an n-tuple of pair points whose values sum to t = (-1, -1) in
    (F_q^2, +).
    With H the histogram of (a, b) and S_k = H^{*(n-k)}, the zeros whose
    block-k point is x, given blocks 0..k-1, number S_(k+1)[t' - (a, b)(x)]
    for t' what is left of t.  Their cumulative sums over the pair points in
    lex order unrank block by block, block 0 most significant, as the scan
    orders them.  Counts are Python ints once q^(2n) reaches 2^63."""

    def __init__(self, n, d, F):
        self.n, self.d, self.F = n, d, F

    def cost(self, samples):
        """The work of the pool and of unranking `samples` ranks, in cells:
        n q^2 pair points (the pair block is evaluated once and charged for
        each block, an upper bound), (n - 1) q^2 histogram cells, (n - 2) q^4
        convolution cells, and the unranking cells, q^2 for the pool and
        n q^2 per rank."""
        n, size = self.n, self.F.q ** 2
        return n * size + max(n - 1, 0) * size + max(n - 2, 0) * size ** 2 \
            + size + samples * n * size

    @functools.cached_property
    def _tables(self):
        """(points, values, suffix, target): the pair points in lex order,
        their values (a, b) as base-q keys a + q b, S_1, ..., S_n and t."""
        F, q = self.F, self.F.q
        size = q * q
        points = _affine_points(q, 2, 0, size)
        a, b = ab_form([0, *FieldArray.columns(F, points)], self.d)
        values = a.idx + q * b.idx
        hist = np.bincount(values, minlength=size)
        hist = hist.astype(object) if q ** (2 * self.n) >= 2 ** 63 else hist
        suffix = [np.zeros_like(hist), hist]
        suffix[0][0] = 1
        while len(suffix) < self.n:
            suffix.append(convolve_histograms(F, hist, suffix[-1]))
        return points, values, suffix[self.n - 1::-1], int(_digitwise(F.p, 0, 1 + q, -1, size))

    @functools.cached_property
    def pool(self):
        """The number of zeros, the sum of S_1[t - (a, b)(x)]."""
        points, values, suffix, target = self._tables
        return int(suffix[0][_digitwise(self.F.p, target, values, -1, len(values))].sum())

    def unrank(self, ranks):
        """The zeros of the given ranks (each below `pool`), in order, as rows
        of element indices."""
        points, values, suffix, target = self._tables
        ranks = np.array(ranks, suffix[0].dtype)
        out = np.zeros((len(ranks), 2 * self.n + 1), np.int64)
        out[:, 0] = 1
        step = max(1, (_BLOCK * 8) // len(points))
        for lo in range(0, len(ranks), step):
            rank = ranks[lo:lo + step]
            t, at = np.full(len(rank), target), np.arange(len(rank))
            for k, S in enumerate(suffix):
                rest = _digitwise(self.F.p, t[:, None], values[None, :], -1, len(values))
                weight = S[rest]
                cum = np.cumsum(weight, axis=1)
                pick = (cum <= rank[:, None]).sum(axis=1)
                rank = rank - (cum[at, pick] - weight[at, pick])
                t = rest[at, pick]
                out[lo:lo + step, 2 * k + 1:2 * k + 3] = points[pick]
        return out


# ---------------------------------------------------------------------------
# structure of Y0 = {A = B = 0} in P^2 (n = 1)


def count_y0_structure(d, F, budget=DEFAULT_BUDGET):
    """Solve A = B = 0 in P^2 over a field where xi = sqrt(-3) exists and
    x^2 + 3 is separable (q = 1 mod 6): two points [0:±xi:1] whose local
    intersection multiplicity is 2d^2+d, plus the simple points
    {u2 = 0, u0^{2d+1} + u1^{2d+1} = 0}, one for each root of x^{2d+1} = -1
    in F_q, so gcd(q - 1, 2d + 1) of them.  All 2d+1 lie in F_q when that
    equation splits, and the multiplicity-weighted total over the closure is
    4d^2+4d+1.

    The points are counted as Y(1, d) (`count_family`, charged `budget`),
    and each multiple point [0:1:c] is read from `ab_form` at (u0, 1, u2 + c)."""
    t0 = time.perf_counter()
    q = F.q
    if q % 6 != 1:
        raise ValueError(f"xi absent or x^2+3 degenerate in {F.name} (need q = 1 mod 6)")
    total = count_family("Y", 1, d, F, budget=budget).brute
    xi = sqrt_of_minus_three(F)
    # [0 : ±xi : 1], normalized
    points = tuple((F.zero, F.one, F.inv(s)) for s in (xi, F.neg(xi)))
    ctx = u_context(1)
    u0, u2 = MPoly.variable(ctx, F, "u0"), MPoly.variable(ctx, F, "u2")
    mults = [local_multiplicity(ab_form([u0, 1, u2 + MPoly.constant(ctx, F, c)], d))
             for *_, c in points]
    simple = total - sum(m["multiplicity"] > 0 for m in mults)
    # simple points all lie on {u2 = 0}; a count cannot name a stray one
    a, b = ab_form([*FieldArray.columns(F, _line_points(q, 2, 0, q + 1)), 0], d)
    on_line = int(((a.idx == 0) & (b.idx == 0)).sum())
    if on_line != simple:
        raise AssertionError(f"{simple} simple points but {on_line} on u2 = 0")
    roots = gcd(q - 1, 2 * d + 1)
    weighted = sum(m["multiplicity"] for m in mults) + simple
    return {
        "d": d,
        "field": {"p": F.p, "m": F.m, "q": q},
        "multiple_points": [{"point": [F.fmt(c) for c in pt], "multiplicity": m["multiplicity"],
                             "orders": m["orders"]} for pt, m in zip(points, mults)],
        "expected_multiplicity": 2 * d * d + d,
        "simple_points": simple,
        "expected_simple": roots,
        "split": roots == 2 * d + 1,
        "weighted_total": weighted,
        "closed_form_total": 4 * d * d + 4 * d + 1,
        # a shared tangent means the product of orders may overcount
        "match": simple == roots
        and all(m["multiplicity"] == 2 * d * d + d and m["shared_tangent"] is False
                for m in mults),
        "elapsed_ms": (time.perf_counter() - t0) * 1000.0,
    }
