"""Bounded-height rational points on the n = 1 hypersurface in P^3:
exact direct search over reduced integer representatives, and the count of
points reached through the degree-(2d+2) parametrization.

The asymptotic growth bounds are reported as reference curves only; nothing
asymptotic is asserted at desk scale.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import numpy as np

from .count import DEFAULT_BUDGET, _shard_ranges
from .domains import QQ
from .families import build_phibar, build_x
from .kernels import height_chart_size, height_scan_chart
from .reporting import BudgetExceeded, HeightReport

DIRECT_BOUND_MAX = 60  # ~2*10^8 candidate tuples at the default budget


def reduced_representative(coords):
    """Canonical integer representative of a rational projective point:
    denominators cleared, gcd 1, first nonzero coordinate positive."""
    fracs = [Fraction(c) for c in coords]
    if all(f == 0 for f in fracs):
        raise ValueError("zero vector has no projective representative")
    denom = lcm(*(f.denominator for f in fracs))
    ints = [int(f * denom) for f in fracs]
    g = gcd(*ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


def height_of(coords):
    """max |coordinate| of the reduced representative."""
    return max(abs(v) for v in reduced_representative(coords))


def integer_root(B, k):
    """Largest t >= 0 with t^k <= B."""
    if B < 1:
        return 0
    t = int(round(B ** (1.0 / k)))
    while (t + 1) ** k <= B:
        t += 1
    while t ** k > B:
        t -= 1
    return t


def _refuse_direct_scan(B, budget):
    """Raise BudgetExceeded when a direct scan at bound B is past the cap on
    B or would visit more than `budget` tuples."""
    if B > DIRECT_BOUND_MAX:
        raise BudgetExceeded(f"direct height search capped at B <= {DIRECT_BOUND_MAX}")
    tuples = sum(height_chart_size(B, chart) for chart in range(4))
    if tuples > budget:
        raise BudgetExceeded(
            f"direct height search at B = {B} scans {tuples} tuples, over budget {budget}")


def _direct_histogram(d, B, shards, budget):
    """Points of the hypersurface (n = 1) by height h = 0..B, from one scan
    of reduced representatives in [-B, B]^4."""
    _refuse_direct_scan(B, budget)
    hist = np.zeros(B + 1, np.int64)
    for chart in range(4):
        for start, stop in _shard_ranges(height_chart_size(B, chart), shards):
            hist += height_scan_chart(B, d, chart, start, stop)
    return hist


def direct_height_count(d, B, shards=1, budget=DEFAULT_BUDGET):
    """Exact number of points of the hypersurface (n = 1) with height <= B,
    via a scan of reduced representatives in [-B, B]^4."""
    return int(_direct_histogram(d, B, shards, budget).sum())


def _projective_int_points(bound):
    """Reduced representatives of P^2(Q) with height <= bound."""
    coords = range(-bound, bound + 1)
    for chart in range(3):
        for lead in range(1, bound + 1):
            for tail in product(coords, repeat=2 - chart):
                pt = (0,) * chart + (lead,) + tail
                if gcd(*pt) == 1:
                    yield pt


def _parametrized_first_rows(d, bound):
    """First rows of the parametrized column up to `bound`.

    An input of height h is drawn from row h^(2d+2) on, so an image enters
    at row max(its height, the least such row over its inputs).  Returns
    (rows, skip_rows): the entry row of each image that enters by `bound`,
    and the row from which each base-locus input (all components vanish) is
    skipped.  Every image is checked to lie on the hypersurface exactly."""
    phibar = build_phibar(1, d)
    X = build_x(1, d, QQ)
    k = 2 * d + 2
    first = {}
    skip_rows = []
    for pt in _projective_int_points(integer_root(bound, k)):
        row = max(abs(v) for v in pt) ** k
        img = phibar.evaluate(tuple(Fraction(v) for v in pt))
        if all(v == 0 for v in img):
            skip_rows.append(row)
            continue
        if X.evaluate(img) != 0:
            raise AssertionError(f"parametrized image off the hypersurface at {pt}")
        red = reduced_representative(img)
        row = max(row, max(abs(v) for v in red))
        if row <= bound and row < first.get(red, bound + 1):
            first[red] = row
    return list(first.values()), skip_rows


def parametrized_height_count(d, B):
    """Points of the hypersurface of height <= B hit by the parametrization
    from inputs of height <= floor(B^{1/(2d+2)}).

    Returns (count, skips): base-locus inputs (all components vanish) are
    skipped and tallied.  Every image is checked to lie on the hypersurface
    exactly before being counted.
    """
    rows, skip_rows = _parametrized_first_rows(d, B)
    return len(rows), len(skip_rows)


def _refuse_parametrized_pass(d, bound, nrows, budget):
    """Raise BudgetExceeded when a table of `nrows` rows read off the
    parametrized pass at `bound` costs more than `budget`, one unit per row
    and per candidate input.  The rows are checked first, so that a huge
    bound is refused before its root is taken in floating point."""
    inputs = 0
    if nrows <= budget:
        u = integer_root(bound, 2 * d + 2)
        inputs = sum(u * (2 * u + 1) ** (2 - chart) for chart in range(3))
    if inputs + nrows > budget:
        raise BudgetExceeded(f"parametrized height table at B = {bound}: {nrows} rows "
                             f"and {inputs} candidate inputs, over budget {budget}")


def _height_rows(d, bound, first, mode, shards, budget):
    """HeightReport rows for B = first..bound, all read off one direct scan
    and one parametrized pass at `bound`; each row's elapsed_ms is the time
    of both passes.  Reference curves are floats for plotting."""
    t0 = time.perf_counter()
    cumulative = images = skipped = None
    if mode in ("direct", "both"):
        cumulative = np.cumsum(_direct_histogram(d, bound, shards, budget)).tolist()
    if mode in ("param", "both"):
        _refuse_parametrized_pass(d, bound, bound - first + 1, budget)
        images, skipped = (sorted(rows) for rows in _parametrized_first_rows(d, bound))
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return [HeightReport(
        params={"n": 1, "d": d, "mode": mode},
        bound=B,
        direct=None if cumulative is None else cumulative[B],
        parametrized=None if images is None else bisect_right(images, B),
        lower_ref=float(B) ** (3.0 / (2 * d + 2)),
        lower_ref_n1=float(B) ** (3.0 / (2 * d + 1)),
        upper_ref=float(B) ** 6.0,
        skips=0 if skipped is None else bisect_right(skipped, B),
        elapsed_ms=elapsed_ms) for B in range(first, bound + 1)]


def height_report(d, B, mode="both", shards=1, budget=DEFAULT_BUDGET):
    """The last row of `height_scan(d, B)`, built alone."""
    return _height_rows(d, B, B, mode, shards, budget)[0]


def height_scan(d, bound, mode="both", shards=1, budget=DEFAULT_BUDGET):
    """HeightReport rows for B = 1..bound (CSV-friendly), from one direct
    scan and one parametrized pass at `bound`."""
    return _height_rows(d, bound, 1, mode, shards, budget)
