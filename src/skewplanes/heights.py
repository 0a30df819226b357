"""Bounded-height rational points on the n = 1 hypersurface in P^3:
exact direct search over reduced integer representatives, and the count of
points reached through the degree-(2d+2) parametrization.

The asymptotic growth bounds are reported as reference curves only; nothing
asymptotic is asserted at desk scale.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import gcd, lcm

from .count import DEFAULT_BUDGET
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
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    ints = [v // g for v in ints]
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-w for w in ints]
            break
    return tuple(ints)


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


def _refuse_direct_scan(B, bound_max, budget):
    """Raise BudgetExceeded when a direct scan at bound B is past the cap on
    B or would visit more than `budget` tuples."""
    if B > bound_max:
        raise BudgetExceeded(f"direct height search capped at B <= {bound_max}")
    tuples = sum(height_chart_size(B, chart) for chart in range(4))
    if tuples > budget:
        raise BudgetExceeded(
            f"direct height search at B = {B} scans {tuples} tuples, over budget {budget}")


def direct_height_count(d, B, shards=1, bound_max=DIRECT_BOUND_MAX, budget=DEFAULT_BUDGET):
    """Exact number of points of the hypersurface (n = 1) with height <= B,
    via a scan of reduced representatives in [-B, B]^4."""
    _refuse_direct_scan(B, bound_max, budget)
    if B <= 0:
        return 0
    total = 0
    for chart in range(4):
        size = height_chart_size(B, chart)
        step = max(1, -(-size // max(1, shards)))
        start = 0
        while start < size:
            stop = min(start + step, size)
            total += height_scan_chart(B, d, chart, start, stop)
            start = stop
    return total


def _projective_int_points(bound):
    """Reduced representatives of P^2(Q) with height <= bound."""
    if bound < 1:
        return
    for chart in range(3):
        nfree = 2 - chart
        for lead in range(1, bound + 1):
            ranges = [range(-bound, bound + 1)] * nfree

            def rec(prefix, remaining):
                if not remaining:
                    yield prefix
                    return
                for v in remaining[0]:
                    yield from rec(prefix + (v,), remaining[1:])

            for tail in rec((), ranges):
                pt = (0,) * chart + (lead,) + tail
                g = 0
                for v in pt:
                    g = gcd(g, abs(v))
                if g == 1:
                    yield pt


def parametrized_height_count(d, B):
    """Points of the hypersurface of height <= B hit by the parametrization
    from inputs of height <= floor(B^{1/(2d+2)}).

    Returns (count, skips): base-locus inputs (all components vanish) are
    skipped and tallied.  Every image is checked to lie on the hypersurface
    exactly before being counted.
    """
    phibar = build_phibar(1, d)
    X = build_x(1, d, QQ)
    ubound = integer_root(B, 2 * d + 2)
    images = set()
    skips = 0
    for pt in _projective_int_points(ubound):
        fr = tuple(Fraction(v) for v in pt)
        img = phibar.evaluate(fr)
        if all(v == 0 for v in img):
            skips += 1
            continue
        if X.evaluate(img) != 0:
            raise AssertionError(f"parametrized image off the hypersurface at {pt}")
        red = reduced_representative(img)
        if max(abs(v) for v in red) <= B:
            images.add(red)
    return len(images), skips


def height_report(d, B, mode="both", shards=1, budget=DEFAULT_BUDGET):
    """One HeightReport row; reference curves are floats for plotting."""
    t0 = time.perf_counter()
    direct = parametrized = None
    skips = 0
    if mode in ("direct", "both"):
        direct = direct_height_count(d, B, shards=shards, budget=budget)
    if mode in ("param", "both"):
        parametrized, skips = parametrized_height_count(d, B)
    return HeightReport(
        params={"n": 1, "d": d, "mode": mode},
        bound=B,
        direct=direct,
        parametrized=parametrized,
        lower_ref=float(B) ** (3.0 / (2 * d + 2)),
        lower_ref_n1=float(B) ** (3.0 / (2 * d + 1)),
        upper_ref=float(B) ** 6.0,
        skips=skips,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0)


def height_scan(d, bound, mode="both", shards=1, budget=DEFAULT_BUDGET):
    """HeightReport rows for B = 1..bound (CSV-friendly); the largest row's
    scan is checked against the cap and the budget before any row runs."""
    if mode in ("direct", "both"):
        _refuse_direct_scan(bound, DIRECT_BOUND_MAX, budget)
    return [height_report(d, B, mode=mode, shards=shards, budget=budget)
            for B in range(1, bound + 1)]
