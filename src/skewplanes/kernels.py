"""Enumeration kernels: vectorized numpy loops for point counting and
sampled verification over finite fields, and the tests' bounded-height scan
oracle.

Polynomial systems arrive as flat arrays: `exps` (terms x vars exponent
matrix), `coeffs` (field-element indices), `offsets` (term ranges per
polynomial).  Field elements are element indices; a vector over F_q is
encoded as the base-q number of its entries, the first entry in the lowest
place.  Points are decoded from linear indices, and each kernel walks one
index range [start, stop); the counts or histograms of disjoint ranges add.
Every evaluation of a system goes through `system_values`: the count
engines call it on at most `_BLOCK` points at a time, the sampled checks of
`verify` once on all their samples, whose value rows they compare with
`proportional_rows`.

The block engine's kernels take a batch axis, one row per member c.f of
the pencil of r forms of degree e (`pencil_lines`, built once per count):
`line_orbit_counts` evaluates the forms once per line and bins each row's
values by discrete logarithm mod s, and `orbit_histogram` and
`convolve_invariant` build and convolve histograms constant on the cosets
of the e-th powers (tests' oracles: `block_histogram` and
`convolve_histograms` over F_q^r).  `convolve_histograms` also forms the
suffix convolutions from which `count.FirstChartZeros` unranks zeros.
"""

from __future__ import annotations

import functools

import numpy as np

from .domains import index_exp_log, power

_BLOCK = 1 << 15


def active_backend():
    """Name of the backend behind every count kernel."""
    return "numpy"


def warmup():
    """No-op: the numpy loops need no one-time compilation.  Kept so timed
    callers can keep calling it before their first measured run."""


# ---------------------------------------------------------------------------
# field arithmetic on element indices


def _digitwise(p, a, b, sign, size):
    """Index of a + sign*b in the additive group (Z/p)^D of size p^D, for
    base-p encodings a and b (arrays, broadcast); with sign = -1 this is
    subtraction, and at p = 2 both are xor.  Element indices of F_{p^m} and
    vectors over it use this encoding, so it is their addition."""
    a = np.asarray(a, np.int64)
    b = np.asarray(b, np.int64)
    if p == 2:
        return a ^ b
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), np.int64)
    w = 1
    while w < size:
        out += (a // w % p + sign * (b // w % p)) % p * w
        w *= p
    return out


def field_tables(F):
    """Elementwise (add, mul) on arrays of element indices: residues mod p
    over a prime field.  Over F_{p^m}, add is `_digitwise` and mul reads the
    one table of `domains.index_exp_log`: a * b = exp[log a + log b]."""
    p, q = F.p, F.q
    if F.m == 1:
        return (lambda a, b: (a + b) % p), (lambda a, b: (a * b) % p)
    exp, log = index_exp_log(F)
    return (lambda a, b: _digitwise(p, a, b, 1, q)), (lambda a, b: exp[log[a] + log[b]])


# ---------------------------------------------------------------------------
# system evaluation


def _affine_points(q, width, start, stop):
    """Points of F_q^width with linear indices in [start, stop), as rows of
    element indices; the last coordinate varies fastest."""
    pts = np.zeros((stop - start, width), np.int64)
    k = np.arange(start, stop, dtype=np.int64)
    for j in range(width):
        k, pts[:, width - 1 - j] = np.divmod(k, q)
    return pts


def _chart_points(q, nvars, chart, start, stop):
    """Normalized points of P^{nvars-1} whose first nonzero coordinate (equal
    to 1) is at `chart`, with linear indices in [start, stop)."""
    pts = np.zeros((stop - start, nvars), np.int64)
    pts[:, chart] = 1
    pts[:, chart + 1:] = _affine_points(q, nvars - 1 - chart, start, stop)
    return pts


def system_values(F, exps, coeffs, offsets, pts):
    """Values of each polynomial of the flattened system at the rows of
    `pts` (one column per column of `exps`), yielded one polynomial at a
    time so that callers can stop early."""
    add, mul = field_tables(F)
    size = len(pts)
    for i in range(len(offsets) - 1):
        acc = np.zeros(size, np.int64)
        for t in range(offsets[i], offsets[i + 1]):
            term = np.full(size, coeffs[t], np.int64)
            for v in np.flatnonzero(exps[t]):
                term = mul(term, power(pts[:, v], int(exps[t, v]), mul))
            acc = add(acc, term)
        yield acc


def proportional_rows(F, a, b):
    """For each row of the equal-shape arrays of element indices `a` and
    `b`, whether the two value vectors are proportional: every 2x2 minor
    a_i b_j - a_j b_i is zero, tested as a_i b_j == a_j b_i on indices."""
    _, mul = field_tables(F)
    ok = np.ones(len(a), bool)
    for i in range(a.shape[1]):
        for j in range(i + 1, a.shape[1]):
            ok &= mul(a[:, i], b[:, j]) == mul(a[:, j], b[:, i])
    return ok


def _zero_mask(F, exps, coeffs, offsets, pts):
    ok = np.ones(len(pts), bool)
    for vals in system_values(F, exps, coeffs, offsets, pts):
        ok &= vals == 0
        if not ok.any():
            break
    return ok


def count_system_chart(F, exps, coeffs, offsets, chart, start, stop, nvars):
    """Zeros of the system inside one chart's linear-index range."""
    count = 0
    for lo in range(start, stop, _BLOCK):
        pts = _chart_points(F.q, nvars, chart, lo, min(lo + _BLOCK, stop))
        count += int(_zero_mask(F, exps, coeffs, offsets, pts).sum())
    return count


def chart_zeros(F, exps, coeffs, offsets, chart, nvars):
    """Zeros of the system in one whole chart, as rows of element indices
    in linear-index order."""
    size = F.q ** (nvars - 1 - chart)
    found = [np.zeros((0, nvars), np.int64)]
    for lo in range(0, size, _BLOCK):
        pts = _chart_points(F.q, nvars, chart, lo, min(lo + _BLOCK, size))
        found.append(pts[_zero_mask(F, exps, coeffs, offsets, pts)])
    return np.concatenate(found)


# ---------------------------------------------------------------------------
# line orbits of a pencil of forms, and coset-invariant convolution


def _line_points(q, k, start, stop):
    """Normalized points of P^{k-1}(F_q) with line indices in [start, stop):
    the charts in `_chart_points` order, chart 0 first."""
    parts = []
    for chart in range(k):
        first, size = (q ** k - q ** (k - chart)) // (q - 1), q ** (k - 1 - chart)
        lo = min(max(start - first, 0), size)
        parts.append(_chart_points(q, k, chart, lo, max(lo, min(stop - first, size))))
    return np.concatenate(parts)


def pencil_lines(F, r, s):
    """(pencil, rows) for `line_orbit_counts`: the points c of P^{r-1}(F_q)
    in line-index order, and the offset of each one's row of 1 + s counts."""
    pencil = _line_points(F.q, r, 0, (F.q ** r - 1) // (F.q - 1))
    return pencil, np.arange(0, len(pencil) * (1 + s), 1 + s)[:, None]


def line_orbit_counts(F, exps, coeffs, offsets, pencil, rows, s, start, stop):
    """[z, c_0, ..., c_{s-1}] for each member c.f of the pencil of the
    system's r forms, c through the rows of `pencil` (see `pencil_lines`,
    which also gives `rows`), over the points of P^{k-1}(F_q),
    k = exps.shape[1], with line indices in [start, stop): z are zeros of
    c.f, and c_i take a nonzero value whose discrete logarithm is i mod s.
    A split of the range merges by addition."""
    add, mul = field_tables(F)
    _, log = index_exp_log(F)
    width = max(1, min(_BLOCK, (_BLOCK * 8) // len(pencil)))
    counts = np.zeros(rows.size * (1 + s), np.int64)
    for at in range(start, stop, width):
        pts = _line_points(F.q, exps.shape[1], at, min(at + width, stop))
        vals = functools.reduce(add, map(mul, pencil.T[:, :, None],
                                         system_values(F, exps, coeffs, offsets, pts)))
        key = rows + np.where(vals != 0, 1 + log[vals] % s, 0)
        counts += np.bincount(key.ravel(), minlength=counts.size)
    return counts.reshape(len(pencil), 1 + s)


def orbit_histogram(F, counts):
    """Histograms over F_q of forms of degree e, one row per row of their
    `line_orbit_counts` with s = gcd(e, q - 1).  As f(tp) = t^e f(p), the
    line through a point of value v != 0 takes each value of the coset
    v (F_q^*)^e s times, and a line of zeros adds q - 1 zeros to the
    origin's: H[0] = 1 + (q - 1) z and H[v] = s c_(log v mod s)."""
    q, s = F.q, counts.shape[1] - 1
    _, log = index_exp_log(F)
    hist = s * counts[:, 1 + log % s]
    hist[:, 0] = 1 + (q - 1) * counts[:, 0]
    return hist


def convolve_invariant(F, h1, h2, s):
    """Row by row, `convolve_histograms` over F_q for histograms constant on
    the cosets of (F_q^*)^e, s = gcd(e, q - 1), whose convolution is
    constant on them too: it is computed at 0 and at one representative g^j
    of each coset (j < s), 1 + s dot products of length q a row, and
    expanded through log mod s.  The result has the dtype of the inputs."""
    q = F.q
    exp, log = index_exp_log(F)
    reps = np.concatenate(([0], exp[:s]))
    k = np.arange(q, dtype=np.int64)
    at = np.empty((len(h1), 1 + s), h1.dtype)
    step = max(1, (_BLOCK * 8) // q)
    for lo in range(0, 1 + s, step):
        idx = _digitwise(F.p, reps[lo:lo + step, None], k[None, :], -1, q)
        rows = max(1, (_BLOCK * 8) // idx.size)
        for row in range(0, len(h1), rows):
            at[row:row + rows, lo:lo + step] = (
                h2[row:row + rows, idx] @ h1[row:row + rows, :, None])[..., 0]
    out = at[:, 1 + log % s]
    out[:, 0] = at[:, 0]
    return out


def convolution_at_zero(F, h1, h2):
    """Row by row, (h1 * h2)[0] = sum over i of h1[i] * h2[-i]."""
    size = h1.shape[1]
    return (h1 * h2[:, _digitwise(F.p, 0, np.arange(size), -1, size)]).sum(axis=1)


# ---------------------------------------------------------------------------
# full block histograms over (F_q^r, +): the tests' oracles, and the
# convolution `count.FirstChartZeros` unranks through


def block_histogram(F, exps, coeffs, offsets, start, stop):
    """Histogram over F_q^r (r = number of polynomials) of the system's value
    vector at the points of F_q^k, k = exps.shape[1], with linear indices in
    [start, stop)."""
    q = F.q
    hist = np.zeros(q ** (len(offsets) - 1), np.int64)
    for lo in range(start, stop, _BLOCK):
        pts = _affine_points(q, exps.shape[1], lo, min(lo + _BLOCK, stop))
        key = np.zeros(len(pts), np.int64)
        for j, vals in enumerate(system_values(F, exps, coeffs, offsets, pts)):
            key += vals.astype(np.int64) * q ** j
        values, counts = np.unique(key, return_counts=True)
        hist[values] += counts
    return hist


def convolve_histograms(F, h1, h2):
    """(h1 * h2)[k] = sum over i of h1[i] * h2[k - i] in the additive group of
    F_q^r, gathered over the nonzero entries of the sparser histogram.  The
    result has the dtype of the inputs: int64, or Python ints in object
    arrays where int64 could overflow."""
    if np.count_nonzero(h2) < np.count_nonzero(h1):
        h1, h2 = h2, h1
    size = len(h1)
    k = np.arange(size, dtype=np.int64)
    nz = np.flatnonzero(h1)
    out = np.zeros_like(h2)
    step = max(1, (_BLOCK * 8) // size)
    for lo in range(0, len(nz), step):
        i = nz[lo:lo + step]
        out += h1[i] @ h2[_digitwise(F.p, k[None, :], i[:, None], -1, size)]
    return out


# ---------------------------------------------------------------------------
# bounded-height scan on the n = 1 hypersurface in P^3: the tests' oracle


def _f_exact(a, b, d):
    return (a + b) * (a * a - a * b + b * b) ** d


def height_scan_chart(B, d, chart, start, stop):
    """Reduced representatives on the hypersurface with first nonzero
    coordinate at `chart`, within the linear-index range [start, stop), as
    a histogram by height max |x_i| in 0..B.

    f is evaluated in int64 as a filter.  Its arithmetic wraps mod 2^64, a
    ring homomorphism, so every true zero passes; each survivor is then
    confirmed in Python ints, which makes the counts exact for every B and d.
    """
    width = 2 * B + 1
    nfree = 3 - chart
    hist = np.zeros(B + 1, np.int64)
    for lo in range(start, stop, _BLOCK):
        size = min(lo + _BLOCK, stop) - lo
        x = np.zeros((size, 4), np.int64)
        k = np.arange(lo, lo + size, dtype=np.int64)
        for j in range(nfree):
            k, r = np.divmod(k, width)
            x[:, 3 - j] = r - B
        x[:, chart] = k + 1
        g = np.gcd.reduce(np.abs(x[:, chart:]), axis=1)
        acc = np.zeros(size, np.int64)
        for i in range(2):
            a0 = x[:, 2 * i]
            b0 = x[:, 2 * i + 1]
            qv = a0 * a0 - a0 * b0 + b0 * b0
            t = a0 + b0
            for _ in range(d):
                t = t * qv
            acc += t
        for a, b, c, e in x[(g == 1) & (acc == 0)].tolist():
            if _f_exact(a, b, d) + _f_exact(c, e, d) == 0:
                hist[max(abs(a), abs(b), abs(c), abs(e))] += 1
    return hist
