"""Bounded-height rational points on the n = 1 hypersurface in P^3,
f(x0, x1) + f(x2, x3) = 0 with f(a, b) = (a + b)(a^2 - ab + b^2)^d: the
exact direct count, from pairs (a, b) matched by f-value, and the count of
points reached through the degree-(2d+2) parametrization, from phibar with
integer coefficients.  Both are exact Python-int computations at every d.
The direct column's memory guard weighs each stored value as a fixed cost
plus its bit length, so it tightens as d grows.  The 4-tuple scan
`kernels.height_scan_chart` is the tests' oracle.

The asymptotic growth bounds are reported as reference curves only; nothing
asymptotic is asserted at desk scale.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import numpy as np

from .count import DEFAULT_BUDGET
from .families import build_phibar
from .reporting import BudgetExceeded, HeightReport, abbreviate

# Memory guard of the direct column: its pair counter holds up to (2B + 1)^2
# ints no longer than 2B * (3B^2)^d, the largest |f| on [-B, B]^2.  Each entry
# weighs DIRECT_ENTRY_BITS, a fixed cost in the units of one bit of an int
# (about 77 bytes: the counter's slot and the int's header), plus that bit
# length; the total is capped at its value at B = 400, d = 1.
DIRECT_ENTRY_BITS = 576
DIRECT_BITS_MAX = 641_601 * (DIRECT_ENTRY_BITS + 29)


def reduced_representative(coords):
    """Canonical integer representative of a rational projective point:
    denominators cleared, gcd 1, first nonzero coordinate positive.  Integer
    coordinates skip the Fraction path."""
    if all(isinstance(c, int) for c in coords):
        ints = coords
    else:
        fracs = [Fraction(c) for c in coords]
        denom = lcm(*(f.denominator for f in fracs))
        ints = [int(f * denom) for f in fracs]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no projective representative")
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


def height_of(coords):
    """max |coordinate| of the reduced representative."""
    return max(abs(v) for v in reduced_representative(coords))


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


def _f(a, b, d):
    return (a + b) * (a * a - a * b + b * b) ** d


def _refuse_direct_scan(B, d, budget):
    """Raise BudgetExceeded when the direct column at bound B is past the
    memory guard or would walk more than `budget` pairs."""
    pairs = (2 * B + 1) ** 2
    # at B >= 1 that |f| has more than d bits: testing d first refuses a huge
    # d before its power is built
    if pairs * (DIRECT_ENTRY_BITS + d) > DIRECT_BITS_MAX or pairs * (
            DIRECT_ENTRY_BITS + (2 * B * (3 * B * B) ** d).bit_length()) > DIRECT_BITS_MAX:
        raise BudgetExceeded(f"direct height search at B = {B}, d = {d} is over its memory "
                             f"guard, which allows B <= 400 at d = 1")
    if pairs > budget:
        raise BudgetExceeded(
            f"direct height search at B = {B} walks {pairs} pairs, "
            f"over budget {abbreviate(budget)}")


def _direct_rows(d, B, budget):
    """Points of the hypersurface (n = 1) with height <= b, for b = 0..B.

    N[h], the number of integer tuples in [-h, h]^4 on the hypersurface (the
    zero tuple included), grows ring by ring: a pair with value v forms
    2 c[-v] ordered tuples with the pairs counted before it, and one with
    itself when v = 0.  A nonzero tuple is g times a primitive one of height
    <= b // g, so the primitive tuples P[b] = N[b] - 1 - sum over g >= 2 of
    P[b // g] (Moebius inversion over the gcd); each point has two of them."""
    _refuse_direct_scan(B, d, budget)
    seen = Counter({0: 1})  # the pair (0, 0), which makes the zero tuple
    total = 1
    prim = [0]
    for h in range(1, B + 1):
        side = range(-h, h + 1)
        for a, b in ([(t, s) for t in side for s in (-h, h)]
                     + [(s, t) for s in (-h, h) for t in side[1:-1]]):
            v = _f(a, b, d)
            total += 2 * seen[-v] + (v == 0)
            seen[v] += 1
        prim.append(total - 1 - sum(prim[h // g] for g in range(2, h + 1)))
    return [p // 2 for p in prim]


def direct_height_count(d, B, budget=DEFAULT_BUDGET):
    """Exact number of points of the hypersurface (n = 1) with height <= B,
    from the pairs in [-B, B]^2 matched by f-value."""
    return _direct_rows(d, B, budget)[B]


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
    and the row from which each base-locus input is skipped.  phibar is
    evaluated on all inputs at once in Python ints, its coefficients scaled
    by the lcm of their denominators, which leaves each projective image as
    it is; every image is checked to lie on the hypersurface exactly."""
    k = 2 * d + 2
    pts = list(_projective_int_points(integer_root(bound, k)))
    powers = [[u ** e for e in range(k + 1)] for u in np.array(pts, object).reshape(-1, 3).T]
    comps = build_phibar(1, d).components
    denom = lcm(*(c.denominator for comp in comps for c in comp.terms.values()))
    img = [sum(int(c * denom) * powers[0][e0] * powers[1][e1] * powers[2][e2]
               for (e0, e1, e2), c in comp.terms.items()) for comp in comps]
    off = np.flatnonzero(_f(img[0], img[1], d) + _f(img[2], img[3], d) != 0)
    if len(off):
        raise AssertionError(f"parametrized image off the hypersurface at {pts[off[0]]}")
    first = {}
    skip_rows = []
    for pt, x in zip(pts, zip(*(col.tolist() for col in img))):
        row = max(map(abs, pt)) ** k
        if not any(x):
            skip_rows.append(row)
            continue
        red = reduced_representative(x)
        row = max(row, max(map(abs, red)))
        if row <= bound and row < first.get(red, bound + 1):
            first[red] = row
    return list(first.values()), skip_rows


def parametrized_height_count(d, B):
    """Points of the hypersurface of height <= B hit by the parametrization
    from inputs of height <= floor(B^{1/(2d+2)}), and the number of
    base-locus inputs (all components vanish) skipped: (count, skips)."""
    rows, skip_rows = _parametrized_first_rows(d, B)
    return len(rows), len(skip_rows)


def _refuse_parametrized_pass(d, bound, nrows, budget):
    """Raise BudgetExceeded when a table of `nrows` rows read off the
    parametrized pass at `bound` costs more than `budget`, one unit per row
    and per candidate input."""
    u = integer_root(bound, 2 * d + 2)
    inputs = sum(u * (2 * u + 1) ** (2 - chart) for chart in range(3))
    if inputs + nrows > budget:
        raise BudgetExceeded(f"parametrized height table at B = {abbreviate(bound)}: "
                             f"{abbreviate(nrows)} rows and {abbreviate(inputs)} candidate "
                             f"inputs, over budget {abbreviate(budget)}")


def _height_rows(d, bound, first, mode, budget):
    """HeightReport rows for B = first..bound, all read off one direct pass
    and one parametrized pass at `bound`; each row's elapsed_ms is the time
    of both passes.  Reference curves are floats for plotting."""
    t0 = time.perf_counter()
    direct = images = skipped = None
    if mode in ("direct", "both"):
        direct = _direct_rows(d, bound, budget)
    if mode in ("param", "both"):
        _refuse_parametrized_pass(d, bound, bound - first + 1, budget)
        images, skipped = (sorted(rows) for rows in _parametrized_first_rows(d, bound))
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return [HeightReport(
        params={"n": 1, "d": d, "mode": mode},
        bound=B,
        direct=None if direct is None else direct[B],
        parametrized=None if images is None else bisect_right(images, B),
        lower_ref=float(B) ** (3.0 / (2 * d + 2)),
        lower_ref_n1=float(B) ** (3.0 / (2 * d + 1)),
        upper_ref=float(B) ** 6.0,
        skips=0 if skipped is None else bisect_right(skipped, B),
        elapsed_ms=elapsed_ms) for B in range(first, bound + 1)]


def height_report(d, B, mode="both", shards=1, budget=DEFAULT_BUDGET):
    """The last row of `height_scan(d, B)`, built alone.  `shards` is
    accepted and ignored, only because the benchmark's worker passes it."""
    return _height_rows(d, B, B, mode, budget)[0]


def height_scan(d, bound, mode="both", budget=DEFAULT_BUDGET):
    """HeightReport rows for B = 1..bound (CSV-friendly), from one direct
    pass and one parametrized pass at `bound`."""
    return _height_rows(d, bound, 1, mode, budget)
