"""Enumeration kernels: vectorized numpy loops for point counting and
sampled verification over finite fields, and the tests' bounded-height scan
oracle.

Polynomial systems arrive as flat arrays: `exps` (terms x vars exponent
matrix), `coeffs` (field-element indices), `offsets` (term ranges per
polynomial).  Field elements are element indices; a vector over F_q is
encoded as the base-q number of its entries, the first entry in the lowest
place.  Points are decoded from linear indices, so an index range splits
into disjoint shards whose counts or histograms merge by addition.  Every
evaluation of a system goes through `system_values`: the count engines call
it in blocks of `_BLOCK` points, the sampled checks of `verify` once on all
their samples, whose value rows they compare with `proportional_rows`.

A block of one homogeneous form has a line-orbit mode: `line_orbit_counts`
evaluates it once per normalized point of projective space and counts the
values by discrete logarithm mod s, `orbit_histogram` expands those counts
to its histogram over F_q, and `convolve_invariant` convolves histograms
that are constant on the cosets of the e-th powers at 1 + s points.  The
full-histogram kernels `block_histogram` and `convolve_histograms` serve
systems of several polynomials and are the tests' oracles for this mode.
"""

from __future__ import annotations

import numpy as np

from .domains import index_exp_log

_BLOCK = 1 << 15


def active_backend():
    """Name of the backend behind every count kernel."""
    return "numpy"


def warmup():
    """No-op: the numpy loops need no one-time compilation.  Kept so timed
    callers can keep calling it before their first measured run."""


# ---------------------------------------------------------------------------
# field arithmetic on element indices


_TABLE_CACHE = {}


def _digitwise(p, a, b, sign, size):
    """Index of a + sign*b in the additive group (Z/p)^D of size p^D, for
    base-p encodings a and b (arrays, broadcast); with sign = -1 this is
    subtraction.  Element indices of F_{p^m} and vectors over it use this
    encoding, so it is their addition."""
    a = np.asarray(a, np.int64)
    b = np.asarray(b, np.int64)
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), np.int64)
    w = 1
    while w < size:
        out += (a // w % p + sign * (b // w % p)) % p * w
        w *= p
    return out


def field_tables(F):
    """Dense addition/multiplication tables indexed by element index.

    Addition is digitwise mod p on element indices.  Multiplication goes
    through the discrete logarithms of `domains.index_exp_log`:
    mul[i, j] = exp[(log i + log j) mod (q - 1)] with row and column 0 set
    to zero.  Over F_{p^m} both are limited to q <= 1024."""
    key = (F.p, F.m)
    if key in _TABLE_CACHE:
        return _TABLE_CACHE[key]
    q = F.q
    exp, log = index_exp_log(F)
    idx = np.arange(q, dtype=np.int64)
    add_t = _digitwise(F.p, idx[:, None], idx[None, :], 1, q).astype(np.int32)
    mul_t = exp[(log[:, None] + log[None, :]) % (q - 1)].astype(np.int32)
    mul_t[0, :] = 0
    mul_t[:, 0] = 0
    _TABLE_CACHE[key] = (add_t, mul_t)
    return add_t, mul_t


def _field_ops(F):
    """Elementwise (add, mul) on arrays of element indices: residues mod p
    over a prime field, lookups in the cached tables over F_{p^m}."""
    if F.m == 1:
        p = F.p
        return (lambda a, b: (a + b) % p), (lambda a, b: (a * b) % p)
    add_t, mul_t = field_tables(F)
    return (lambda a, b: add_t[a, b]), (lambda a, b: mul_t[a, b])


def _pow_vec(base, e, mul):
    """base**e elementwise for e >= 1, by square-and-multiply over `mul`."""
    out = None
    while True:
        if e & 1:
            out = base if out is None else mul(out, base)
        e >>= 1
        if not e:
            return out
        base = mul(base, base)


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
    add, mul = _field_ops(F)
    size = len(pts)
    for i in range(len(offsets) - 1):
        acc = np.zeros(size, np.int64)
        for t in range(offsets[i], offsets[i + 1]):
            term = np.full(size, coeffs[t], np.int64)
            for v in np.flatnonzero(exps[t]):
                term = mul(term, _pow_vec(pts[:, v], int(exps[t, v]), mul))
            acc = add(acc, term)
        yield acc


def proportional_rows(F, a, b):
    """For each row of the equal-shape arrays of element indices `a` and
    `b`, whether the two value vectors are proportional: every 2x2 minor
    a_i b_j - a_j b_i is zero, tested as a_i b_j == a_j b_i on indices."""
    _, mul = _field_ops(F)
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
# block histograms and their convolution over (F_q^r, +)


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


def convolution_at_zero(F, h1, h2):
    """(h1 * h2)[0] = sum over i of h1[i] * h2[-i], as a Python int."""
    size = len(h1)
    return int(h1 @ h2[_digitwise(F.p, 0, np.arange(size), -1, size)])


# ---------------------------------------------------------------------------
# line orbits of one form and convolution of coset-invariant histograms


def line_orbit_counts(F, exps, coeffs, offsets, s, start, stop):
    """[z, c_0, ..., c_{s-1}] for one form, evaluated once per normalized
    point of P^{k-1}(F_q), k = exps.shape[1], with line indices in
    [start, stop): z of those points are zeros of the form, and c_i take a
    nonzero value whose discrete logarithm is i mod s.  Line indices run
    through the charts in `_chart_points` order, chart 0 first, so a split
    of the range merges by addition."""
    q, k = F.q, exps.shape[1]
    _, log = index_exp_log(F)
    counts = np.zeros(1 + s, np.int64)
    first = 0
    for chart in range(k):
        size = q ** (k - 1 - chart)
        lo, hi = max(start - first, 0), min(stop - first, size)
        for at in range(lo, hi, _BLOCK):
            pts = _chart_points(q, k, chart, at, min(at + _BLOCK, hi))
            vals = next(system_values(F, exps, coeffs, offsets, pts))
            nonzero = vals[vals != 0]
            counts[0] += len(vals) - len(nonzero)
            counts[1:] += np.bincount(log[nonzero] % s, minlength=s)
        first += size
    return counts


def orbit_histogram(F, counts):
    """Histogram over F_q of a form of degree e on F_q^k, from its
    `line_orbit_counts` with s = gcd(e, q - 1).  As f(tp) = t^e f(p), the
    line through a point of value v != 0 takes each value of the coset
    v (F_q^*)^e s times, and a line of zeros adds q - 1 zeros to the
    origin's: H[0] = 1 + (q - 1) z and H[v] = s c_(log v mod s)."""
    q, s = F.q, len(counts) - 1
    _, log = index_exp_log(F)
    hist = np.empty(q, np.int64)
    hist[0] = 1 + (q - 1) * counts[0]
    hist[1:] = s * counts[1:][log[1:] % s]
    return hist


def convolve_invariant(F, h1, h2, s):
    """`convolve_histograms` over F_q for histograms constant on the cosets
    of (F_q^*)^e, s = gcd(e, q - 1), whose convolution is constant on them
    too: it is computed at 0 and at one representative g^j of each coset
    (j < s), 1 + s dot products of length q, and expanded through
    log mod s.  The result has the dtype of the inputs."""
    q = F.q
    exp, log = index_exp_log(F)
    reps = np.concatenate(([0], exp[:s]))
    k = np.arange(q, dtype=np.int64)
    step = max(1, (_BLOCK * 8) // q)
    at = np.concatenate([
        h2[_digitwise(F.p, reps[lo:lo + step, None], k[None, :], -1, q)] @ h1
        for lo in range(0, len(reps), step)])
    out = np.empty_like(h1)
    out[0] = at[0]
    out[1:] = at[1:][log[1:] % s]
    return out


# ---------------------------------------------------------------------------
# bounded-height scan on the n = 1 hypersurface in P^3: the tests' oracle


def _f_exact(a, b, d):
    return (a + b) * (a * a - a * b + b * b) ** d


def height_scan_chart(B, d, chart, start, stop):
    """Reduced representatives on the hypersurface with first nonzero
    coordinate at `chart`, within a linear-index shard, as a histogram by
    height max |x_i| in 0..B.

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
