"""Enumeration kernels: vectorized numpy loops for point counting and
sampled verification over finite fields, and the tests' bounded-height scan
oracle.

Field elements are element indices; a vector over F_q is encoded as the
base-q number of its entries, the first entry in the lowest place.  Points
are decoded from linear indices, and each kernel walks one index range
[start, stop); the counts or histograms of disjoint ranges add.  The count
engines take forms as values(pts), on at most `_BLOCK` points at a time:
`system_values` on a system's term lists, or the family forms, both on
`FieldArray` columns, as in `verify`'s roundtrips and `count.YChartZeros`.
Value rows are compared by `proportional_rows`.

The block engine's kernels take a batch axis, one row per member c.f of
the pencil of r forms of degree e, for a chunk of the pencil's members at a
time (`count._count_blocks`): `line_orbit_counts` takes the forms' values at
one point per line, forms each member's values and bins them by discrete
logarithm mod s.  A histogram constant on the s cosets of the e-th powers
is held as its coset vector [H(0), H(g^0), ..., H(g^(s-1))], which
`convolve_invariant` convolves and `convolution_at_zero` reads at 0 (tests'
oracle: `convolve_histograms` over F_q^r, through which `count.YChartZeros`
unranks Y's zeros).
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


def _line_points(q, k, start, stop):
    """Normalized points of P^{k-1}(F_q) (first nonzero coordinate 1) with
    line indices in [start, stop): by the place of that 1 ascending, then
    by the following coordinates, the last fastest."""
    parts = []
    for chart in range(k):
        first, size = (q ** k - q ** (k - chart)) // (q - 1), q ** (k - 1 - chart)
        lo = min(max(start - first, 0), size)
        pts = np.zeros((max(lo, min(stop - first, size)) - lo, k), np.int64)
        pts[:, chart] = 1
        pts[:, chart + 1:] = _affine_points(q, k - 1 - chart, lo, lo + len(pts))
        parts.append(pts)
    return np.concatenate(parts)


def proportional_rows(F, a, b):
    """For each row of the equal-shape arrays of element indices `a` and
    `b`, whether the two value vectors are proportional: with p the row's
    first nonzero column of `a` (any column of a zero row), a_p b_j ==
    a_j b_p for every j."""
    _, mul = field_tables(F)
    rows = np.arange(len(a))
    p = np.argmax(a != 0, axis=1)
    return (mul(a[rows, p][:, None], b) == mul(a, b[rows, p][:, None])).all(axis=1)


class FieldArray:
    """Elements of F_q as an array of element indices, with the + - * ** of
    the family forms on `field_tables`; an int n stands for n mod p."""

    __slots__ = ("idx", "ops")

    def __init__(self, idx, ops):
        self.idx, self.ops = idx, ops

    @classmethod
    def columns(cls, F, pts):
        ops = (F.p, *field_tables(F))
        return [cls(pts[:, j], ops) for j in range(pts.shape[1])]

    def _of(self, other):
        return other.idx if isinstance(other, FieldArray) else other % self.ops[0]

    def __add__(self, other):
        return FieldArray(self.ops[1](self.idx, self._of(other)), self.ops)

    __radd__ = __add__

    def __mul__(self, other):
        return FieldArray(self.ops[2](self.idx, self._of(other)), self.ops)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (self.ops[0] - 1)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __pow__(self, e):
        # element index 1 is the field's one
        return FieldArray(power(self.idx, e, self.ops[2]) if e else np.ones_like(self.idx),
                          self.ops)


def system_values(F, systems, pts):
    """Values of each polynomial of `systems`, a list of term lists
    [(exponents, payload), ...], at the rows of `pts` (one column per
    exponent), yielded one polynomial at a time so that callers can stop
    early: each term is its payload's element index times powers of the
    `FieldArray` columns."""
    cols = FieldArray.columns(F, pts)
    ops = cols[0].ops
    for terms in systems:
        acc = FieldArray(np.zeros(len(pts), np.int64), ops)
        for exps, c in terms:
            term = FieldArray(F.element_index(c), ops)
            for col, e in zip(cols, exps):
                if e:
                    term = term * col ** e
            acc = acc + term
        yield acc.idx


def count_system_chart(F, values, nvars, start, stop):
    """Common zeros among the points of P^(nvars-1) with line indices in
    [start, stop) (see `_line_points`) of the forms that values(pts)
    yields, one at a time, at the rows of `pts`."""
    count = 0
    for lo in range(start, stop, _BLOCK):
        pts = _line_points(F.q, nvars, lo, min(lo + _BLOCK, stop))
        ok = np.ones(len(pts), bool)
        for vals in values(pts):
            ok &= vals == 0
            if not ok.any():
                break
        count += int(ok.sum())
    return count


# ---------------------------------------------------------------------------
# line orbits of a pencil of forms, and coset-invariant convolution


def _cell(log, v, s):
    """The cell of a coset vector holding element v: 0, or 1 + log v mod s."""
    return np.where(v != 0, 1 + log[v] % s, 0)


def line_orbit_counts(F, values, pencil, s):
    """[z, c_0, ..., c_{s-1}] for each member c.f of the pencil of r forms
    of one degree, c through the rows of `pencil` (normalized points of
    P^{r-1}(F_q), any of them), from the forms' values at one point of each
    line: `values` holds element indices, one row per form and one column
    per line.  z counts the lines where c.f is zero, and c_i those where it
    takes a value whose discrete logarithm is i mod s.  The counts of
    disjoint sets of lines add."""
    add, mul = field_tables(F)
    _, log = index_exp_log(F)
    width = max(1, (_BLOCK * 8) // len(pencil))
    rows = np.arange(len(pencil))[:, None] * (1 + s)
    counts = np.zeros(rows.size * (1 + s), np.int64)
    for at in range(0, values.shape[1], width):
        vals = functools.reduce(add, map(mul, pencil.T[:, :, None],
                                         values[:, None, at:at + width]))
        key = rows + _cell(log, vals, s)
        counts += np.bincount(key.ravel(), minlength=counts.size)
    return counts.reshape(len(pencil), 1 + s)


def convolve_invariant(F, h1, h2, s):
    """Row by row, the convolution over (F_q, +) of coset vectors, of
    histograms constant on the cosets of (F_q^*)^e, s = gcd(e, q - 1), and
    so constant on them too: 1 + s dot products of length q a row, at 0 and
    each g^j, of h1 at x and h2 at g^j - x, a block of elements x at a time.
    The result has the dtype of the inputs."""
    q = F.q
    exp, log = index_exp_log(F)
    reps = np.concatenate(([0], exp[:s]))
    out = np.zeros((len(h1), 1 + s), h1.dtype)
    width = min(q, _BLOCK)
    step = max(1, (_BLOCK * 8) // width)
    for at in range(0, q, width):
        x = np.arange(at, min(at + width, q), dtype=np.int64)
        cells = _cell(log, x, s)
        for lo in range(0, 1 + s, step):
            rest = _cell(log, _digitwise(F.p, reps[lo:lo + step, None], x, -1, q), s)
            rows = max(1, (_BLOCK * 8) // rest.size)
            for row in range(0, len(h1), rows):
                r = slice(row, row + rows)
                out[r, lo:lo + step] += (h2[r][:, rest] @ h1[r][:, cells, None])[..., 0]
    return out


def convolution_at_zero(F, h1, h2):
    """Row by row, the convolution of two coset vectors (see
    `convolve_invariant`) at 0, sum_x h1(x) h2(-x): as each coset holds
    (q - 1)/s elements and -1, of element index p - 1, lies in the coset
    l = log(-1) mod s, H1(0) H2(0) + ((q - 1)/s) sum_i H1(g^i) H2(g^(i+l))."""
    s = h1.shape[1] - 1
    _, log = index_exp_log(F)
    turn = 1 + (np.arange(s) + log[F.p - 1]) % s
    return h1[:, 0] * h2[:, 0] + (F.q - 1) // s * (h1[:, 1:] * h2[:, turn]).sum(axis=1)


# ---------------------------------------------------------------------------
# full convolution over (F_q^r, +): the tests' oracle, through which
# `count.YChartZeros` unranks


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
