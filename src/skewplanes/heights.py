"""Bounded-height rational points on the n = 1 hypersurface in P^3,
f(x0, x1) + f(x2, x3) = 0 with f(a, b) = (a + b)(a^2 - ab + b^2)^d, both
`families.x_form`: the exact direct count, from the pairs (a, b) grouped by
f-value, and the count of points reached through the degree-(2d+2)
parametrization phibar.  Each is one numpy array algorithm in int64 when a
bound on every value it forms, computed in advance, is below 2^63, and in
`object` arrays of Python ints otherwise, so both are exact at every d.  A
memory guard refuses each pass before anything is allocated.
`kernels.height_scan_chart`, with its own f, is the tests' oracle.  The
asymptotic growth bounds are reference curves only.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from fractions import Fraction
from math import gcd, lcm, log2

import numpy as np

from .count import DEFAULT_BUDGET
from .families import phibar_form, x_form
from .reporting import BudgetExceeded, HeightReport, abbreviate

# Memory guard of the direct column, capped at B = 400, d = 1: a pair of [-B, B]^2 weighs
# DIRECT_ENTRY_BITS (72 bytes) plus the bits of 2B (3B^2)^d, the largest |f|.  Measured peak
# RSS growth a pair: 37 bytes at d = 1, 71 at d = 3 and 76 at d = 9 (largest B each), 784 at
# d = 1000, B = 80.
DIRECT_ENTRY_BITS = 576
DIRECT_BITS_MAX = 641_601 * (DIRECT_ENTRY_BITS + 29)
# Parametrized pass, measured: 360-430 bytes per input at d <= 3, 530-790 per row
PARAM_INPUT_BYTES, PARAM_ROW_BYTES, PARAM_BYTES_MAX = 400, 1000, 2 ** 31
# Budget units (~1 ns) per word product of an input's membership check, (bits / 64)^log2(3)
# products (Karatsuba), which took 9-11 ns each at d = 100, 200, 400 (2 cores, Python 3.11)
PARAM_WORD_UNITS = 10


def reduced_representative(coords):
    """Canonical integer representative of a rational projective point:
    denominators cleared, gcd 1, first nonzero coordinate positive."""
    fracs = [Fraction(c) for c in coords]
    denom = lcm(*(f.denominator for f in fracs))
    ints = [int(f * denom) for f in fracs]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no projective representative")
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


def integer_root(B, k):
    """Largest t >= 0 with t^k <= B, by Newton's method in integers from
    2^ceil(bits(B)/k), which is above the root."""
    if B < 1:
        return 0
    t = 1 << -(-B.bit_length() // k)
    while True:
        s = ((k - 1) * t + B // t ** (k - 1)) // k
        if s >= t:
            return t
        t = s


def _exact_dtype(bound):
    """int64 for values of absolute value at most `bound` when it is below
    2^63, else `object` (Python ints)."""
    return np.int64 if bound < 2 ** 63 else object


def _refuse_direct_scan(B, d, budget):
    """Raise BudgetExceeded when the direct column at bound B is past the
    memory guard or would walk more than `budget` pairs."""
    pairs = (2 * B + 1) ** 2
    # |f| has over d bits at B >= 1: testing d first builds no power of a huge d
    if pairs * (DIRECT_ENTRY_BITS + d) > DIRECT_BITS_MAX or pairs * (
            DIRECT_ENTRY_BITS + (2 * B * (3 * B * B) ** d).bit_length()) > DIRECT_BITS_MAX:
        raise BudgetExceeded(f"direct height search at B = {B}, d = {d} is over its memory "
                             f"guard, which allows B <= 400 at d = 1")
    if pairs > budget:
        raise BudgetExceeded(f"direct height search at B = {B} walks {pairs} pairs, "
                             f"over budget {abbreviate(budget)}")


def _direct_rows(d, B, budget):
    """Points of the hypersurface (n = 1) with height <= b, for b = 0..B.  The
    tuples in [-h, h]^4 on it (zero included) are N[h] = sum_v C_v(h)^2, as f
    is odd, C_v(h) the pairs of value v and ring max(|a|, |b|) <= h; the pairs
    a <= b, of weight w = 2 off the diagonal as f(a, b) = f(b, a), sorted by
    (value, ring): one after weight j of its value adds (j + w)^2 - j^2 from its
    ring on.  Primitive tuples P[b] = N[b] - 1 - sum over g >= 2 of P[b // g]
    (Moebius inversion over the gcd); each point has two of them."""
    _refuse_direct_scan(B, d, budget)
    a, b = np.subtract(np.triu_indices(2 * B + 1), B)
    # f is X at n = 0; only a takes `dtype`, so b's temporaries stay int64 (less peak RSS)
    dtype = _exact_dtype(2 * B * (3 * B * B) ** d)
    v = x_form([a.astype(dtype, copy=False), b], d)
    ring, w = np.maximum(abs(a), abs(b)), np.where(a == b, 1, 2)
    del a, b
    by_value = np.lexsort((ring, v))
    v, ring, w = v[by_value], ring[by_value], w[by_value]
    start = np.flatnonzero(np.r_[True, v[1:] != v[:-1]])
    del v, by_value
    j = np.cumsum(w) - w
    j -= np.repeat(j[start], np.diff(np.r_[start, len(w)]))
    grow = np.zeros(B + 1, np.int64)
    np.add.at(grow, ring, w * (2 * j + w))
    total = np.cumsum(grow).tolist()
    prim = [0]
    for h in range(1, B + 1):
        prim.append(total[h] - 1 - sum(prim[h // g] for g in range(2, h + 1)))
    return [p // 2 for p in prim]


def direct_height_count(d, B, budget=DEFAULT_BUDGET):
    """Exact number of points of the hypersurface (n = 1) with height <= B."""
    return _direct_rows(d, B, budget)[B]


def _projective_int_points(bound):
    """Reduced representatives of P^2(Q) with height <= bound, one by one."""
    yield from map(tuple, _primitive_inputs(bound).tolist())


def _primitive_inputs(u):
    """`_projective_int_points(u)` as one int64 array, chart by chart."""
    side, lead = np.arange(-u, u + 1), np.arange(1, u + 1)
    pts = np.concatenate([np.stack(np.meshgrid(*[[0]] * chart, lead, *[side] * (2 - chart),
                                               indexing="ij"), -1).reshape(-1, 3)
                          for chart in range(3)])
    return pts[np.gcd.reduce(pts, axis=1) == 1]


def _phibar_bound(d, u):
    # |A|, |B| <= (1 + 4^(d+1)) u^(2d+1); phibar_form's widest is (v - 3w)A - 3(v + w)B
    return 10 * (1 + 4 ** (d + 1)) * u ** (2 * d + 2)


def _parametrized_first_rows(d, bound, nrows, budget):
    """(rows, skip_rows) for a table of `nrows` rows: the row at which each
    image enters by `bound`, max(its height, h^(2d+2) for the least height h
    of its inputs), and the row from which each base-locus input is skipped.
    Images are checked to lie on the hypersurface, in int64 when a bound on
    X at them allows it, reduced by gcd and sign, and lexsorted by (image,
    row) to read each first row."""
    _refuse_parametrized_pass(d, bound, nrows, budget)
    k = 2 * d + 2
    u = integer_root(bound, k)
    pts = _primitive_inputs(u)
    M = _phibar_bound(d, u)
    dtype = _exact_dtype(M)
    img = np.stack(phibar_form(list(pts.T.astype(dtype)), d, lambda x: x // 2), axis=1)
    # X at the images sums two pairs of at most 2M (3M^2)^d, over 2^d: testing
    # d first builds no power of a huge d
    check = _exact_dtype(4 * M * (3 * M * M) ** d) if d < 63 else object
    off = np.flatnonzero(x_form(list(img.T.astype(check, copy=False)), d) != 0)
    if len(off):
        raise AssertionError(f"parametrized image off the hypersurface at {pts[off[0]].tolist()}")
    row = abs(pts).max(axis=1).astype(dtype) ** k
    g = np.gcd.reduce(img, axis=1)
    skip = g == 0
    img, g, skip_rows, row = img[~skip], g[~skip], row[skip], row[~skip]
    lead = img[np.arange(len(img)), (img != 0).argmax(axis=1)]
    img //= np.where(lead < 0, -g, g)[:, None]
    row = np.maximum(row, abs(img).max(axis=1))
    img, row = img[row <= bound], row[row <= bound]
    order = np.lexsort((row, *img.T))
    img, row = img[order], row[order]
    first = np.r_[True, (img[1:] != img[:-1]).any(axis=1)][:len(img)]
    return row[first].tolist(), skip_rows.tolist()


def parametrized_height_count(d, B):
    """(count, skips): points of height <= B hit by phibar from inputs of height
    <= floor(B^{1/(2d+2)}), and base-locus inputs (all components 0) skipped."""
    rows, skip_rows = _parametrized_first_rows(d, B, 0, DEFAULT_BUDGET)
    return len(rows), len(skip_rows)


def _refuse_parametrized_pass(d, bound, nrows, budget):
    """Raise BudgetExceeded past the memory guard, PARAM_INPUT_BYTES plus a
    quarter of the bits of |f| <= 2M (3M^2)^d per input and PARAM_ROW_BYTES per
    row, or past `budget`: one unit per row, and per candidate input one or the
    PARAM_WORD_UNITS per word product of its membership check on those bits."""
    u = integer_root(bound, 2 * d + 2)
    inputs = sum(u * (2 * u + 1) ** (2 - chart) for chart in range(3))
    bits = (2 * d + 1) * _phibar_bound(d, u).bit_length() + 2 * d + 1
    need = inputs * (PARAM_INPUT_BYTES + bits // 4) + nrows * PARAM_ROW_BYTES
    what = (f"parametrized height table at B = {abbreviate(bound)}: {abbreviate(nrows)} rows "
            f"and {abbreviate(inputs)} candidate inputs")
    if need > PARAM_BYTES_MAX:
        raise BudgetExceeded(f"{what} take about {abbreviate(need)} bytes, over the "
                             f"parametrized pass's memory guard of {PARAM_BYTES_MAX}")
    cost = nrows + inputs * max(1, int(PARAM_WORD_UNITS * (bits // 64) ** log2(3)))
    if cost > budget:
        raise BudgetExceeded(f"{what} with their membership check cost {abbreviate(cost)}, "
                             f"over budget {abbreviate(budget)}")


def _height_rows(d, bound, first, mode, budget):
    """HeightReport rows for B = first..bound, read off one pass of each column
    at `bound`; elapsed_ms is the time of both.  Reference curves are floats."""
    t0 = time.perf_counter()
    direct = images = skipped = None
    if mode in ("direct", "both"):
        direct = _direct_rows(d, bound, budget)
    if mode in ("param", "both"):
        images, skipped = (sorted(rows) for rows in
                           _parametrized_first_rows(d, bound, bound - first + 1, budget))
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return [HeightReport(
        params={"n": 1, "d": d, "mode": mode}, bound=B,
        direct=None if direct is None else direct[B],
        parametrized=None if images is None else bisect_right(images, B),
        lower_ref=float(B) ** (3.0 / (2 * d + 2)), lower_ref_n1=float(B) ** (3.0 / (2 * d + 1)),
        upper_ref=float(B) ** 6.0, skips=0 if skipped is None else bisect_right(skipped, B),
        elapsed_ms=elapsed_ms) for B in range(first, bound + 1)]


def height_report(d, B, mode="both", shards=1, budget=DEFAULT_BUDGET):
    """The last row of `height_scan(d, B)`; `shards` is ignored (the benchmark passes it)."""
    return _height_rows(d, B, B, mode, budget)[0]


def height_scan(d, bound, mode="both", budget=DEFAULT_BUDGET):
    """HeightReport rows for B = 1..bound (CSV-friendly), from one direct
    pass and one parametrized pass at `bound`."""
    return _height_rows(d, bound, 1, mode, budget)
