"""Enumeration kernels: vectorized numpy loops for point counting over
finite fields and bounded-height integer scans.

Polynomial systems arrive as flat arrays: `exps` (terms x vars exponent
matrix), `coeffs` (field-element indices), `offsets` (term ranges per
polynomial).  Points are decoded from linear indices inside a chart, so a
chart splits into disjoint shards by index range and counts merge by
integer addition.  Both loops work through the index range in blocks of
`_BLOCK` points.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 1 << 15


def active_backend():
    """Name of the engine behind every count and height scan."""
    return "numpy"


def warmup():
    """No-op: the numpy loops need no one-time compilation.  Kept so timed
    callers can keep calling it before their first measured run."""


# ---------------------------------------------------------------------------
# system counting over F_q


_TABLE_CACHE = {}
_TABLE_Q_MAX = 1024


def field_tables(F):
    """Dense addition/multiplication tables indexed by element index."""
    key = (F.p, F.m)
    if key in _TABLE_CACHE:
        return _TABLE_CACHE[key]
    q = F.q
    if q > _TABLE_Q_MAX:
        raise ValueError(f"table arithmetic limited to q <= {_TABLE_Q_MAX}")
    els = [F.element_from_index(i) for i in range(q)]
    add_t = np.zeros((q, q), np.int32)
    mul_t = np.zeros((q, q), np.int32)
    for i, a in enumerate(els):
        for j, b in enumerate(els):
            add_t[i, j] = F.element_index(F.add(a, b))
            mul_t[i, j] = F.element_index(F.mul(a, b))
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


def count_system_chart(F, exps, coeffs, offsets, chart, start, stop, nvars):
    """Zeros of the system inside one chart's linear-index range."""
    add, mul = _field_ops(F)
    q = F.q
    nfree = nvars - chart - 1
    count = 0
    for lo in range(start, stop, _BLOCK):
        size = min(lo + _BLOCK, stop) - lo
        pts = np.zeros((size, nvars), np.int64)
        pts[:, chart] = 1
        k = np.arange(lo, lo + size, dtype=np.int64)
        for j in range(nfree):
            k, pts[:, nvars - 1 - j] = np.divmod(k, q)
        ok = np.ones(size, bool)
        for i in range(len(offsets) - 1):
            acc = np.zeros(size, np.int64)
            for t in range(offsets[i], offsets[i + 1]):
                term = np.full(size, coeffs[t], np.int64)
                for v in range(nvars):
                    e = int(exps[t, v])
                    if e:
                        term = mul(term, _pow_vec(pts[:, v], e, mul))
                acc = add(acc, term)
            ok &= acc == 0
            if not ok.any():
                break
        count += int(ok.sum())
    return count


# ---------------------------------------------------------------------------
# bounded-height integer scan on the n = 1 hypersurface in P^3


def _f_exact(a, b, d):
    return (a + b) * (a * a - a * b + b * b) ** d


def height_chart_size(B, chart):
    return B * (2 * B + 1) ** (3 - chart)


def height_scan_chart(B, d, chart, start, stop):
    """Reduced representatives on the hypersurface with first nonzero
    coordinate at `chart`, within a linear-index shard.

    f is evaluated in int64 as a filter.  Its arithmetic wraps mod 2^64, a
    ring homomorphism, so every true zero passes; each survivor is then
    confirmed in Python ints, which makes the count exact for every B and d.
    """
    width = 2 * B + 1
    nfree = 3 - chart
    count = 0
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
                count += 1
    return count
