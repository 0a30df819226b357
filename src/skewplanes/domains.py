"""Exact coefficient domains: Q, the quadratic extension Q(xi) with xi^2 = -3,
and finite fields F_{p^m} with a deterministic choice of modulus.

Domains are lightweight objects exposing arithmetic on plain hashable payloads:
a rational is an int when it is integral and a Fraction with denominator > 1
otherwise, a Q(xi) payload is a pair of such rationals, and finite fields use
ints / int tuples.  Every operation returns this canonical form, so integral
work (nearly all of it here) runs on Python ints, and none returns a float.
Polynomials carry a domain reference and delegate all coefficient work here.
For the polynomial product kernel a domain also lifts payloads to values over
a common scale (integer numerators over Q and Q(xi)) and lowers them back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import index

import numpy as np

from .reporting import BudgetExceeded


def power(base, e, mul):
    """base^e for e >= 1 by square-and-multiply over `mul`, for ints, arrays,
    polynomials and payloads alike; at e = 1 it is `base` itself."""
    out = None
    while True:
        if e & 1:
            out = base if out is None else mul(out, base)
        e >>= 1
        if not e:
            return out
        base = mul(base, base)


class Domain:
    """Base class; subclasses set `char`, `name`, `zero`, `one`."""

    char = 0
    name = "?"
    # whether lifted values are Python ints, which the polynomial kernel
    # multiplies inline and reduces mod `char` when it is nonzero; otherwise
    # it combines them with this domain's add, mul and is_zero
    int_kernel = False

    def lift(self, cs):
        """The payloads `cs` as (values, scale): each payload is its value
        over the common `scale`.  Here the values are the payloads and the
        scale is 1."""
        return list(cs), 1

    def lower(self, v, scale):
        """The payload whose lifted value over `scale` is `v`."""
        return v

    def from_int(self, n):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        if e < 2:  # the product with one reduces a, which `power` returns as given
            return self.mul(self.one, a) if e else self.one
        return power(a, e, self.mul)

    def is_zero(self, a):
        return a == self.zero

    def fmt(self, a):
        return str(a)

    def __repr__(self):
        return self.name


def _rational(r):
    """The canonical rational payload of the int or Fraction r: an int when
    r is integral, else a Fraction.  A float has no denominator and raises."""
    if type(r) is int:
        return r
    return index(r.numerator) if r.denominator == 1 else r


def _ratio(v, scale):
    """The rational payload v / scale, for ints v and scale >= 1."""
    if scale == 1:
        return v
    q, r = divmod(v, scale)
    return Fraction(v, scale) if r else q


def _pair(x, y):
    """The Q(xi) payload x + y*xi of the rationals x and y."""
    if type(x) is int and type(y) is int:
        return (x, y)
    return (_rational(x), _rational(y))


class Rationals(Domain):
    """Q; payloads are ints when integral, Fractions otherwise."""

    char = 0
    name = "QQ"
    zero = 0
    one = 1
    int_kernel = True

    def lift(self, cs):
        """Numerators over the lcm of the denominators; the payloads
        themselves when they are all ints."""
        cs = list(cs)
        dens = [c.denominator for c in cs if type(c) is not int]
        if not dens:
            return cs, 1
        scale = lcm(*dens)
        return [c.numerator * (scale // c.denominator) for c in cs], scale

    lower = staticmethod(_ratio)

    def from_int(self, n):
        return index(n)

    def add(self, a, b):
        r = a + b
        return r if type(r) is int else _rational(r)

    def neg(self, a):
        r = -a
        return r if type(r) is int else _rational(r)

    def mul(self, a, b):
        r = a * b
        return r if type(r) is int else _rational(r)

    def inv(self, a):
        return _rational(Fraction(1, a))

    def is_zero(self, a):
        return not a


class QuadExt(Domain):
    """Q(xi) with xi^2 = -3; payloads are (rational, rational) = a + b*xi,
    each part canonical as over Q."""

    char = 0
    name = "QQ(xi)"
    zero = (0, 0)
    one = (1, 0)
    xi = (0, 1)

    def from_int(self, n):
        return (index(n), 0)

    def from_rational(self, r):
        return (_rational(r), 0)

    def add(self, a, b):
        return _pair(a[0] + b[0], a[1] + b[1])

    def neg(self, a):
        return _pair(-a[0], -a[1])

    def mul(self, a, b):
        return _pair(a[0] * b[0] - 3 * a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def inv(self, a):
        nrm = a[0] * a[0] + 3 * a[1] * a[1]
        return _pair(Fraction(a[0], nrm), Fraction(-a[1], nrm))

    def is_zero(self, a):
        return not (a[0] or a[1])

    def lift(self, cs):
        """Pairs of integers over the lcm of all the denominators; add and
        mul work on them unchanged.  The payloads themselves when every part
        is an int."""
        cs = list(cs)
        dens = [r.denominator for c in cs for r in c if type(r) is not int]
        if not dens:
            return cs, 1
        scale = lcm(*dens)
        return [(a.numerator * (scale // a.denominator), b.numerator * (scale // b.denominator))
                for a, b in cs], scale

    def lower(self, v, scale):
        if scale == 1:
            return v
        return (_ratio(v[0], scale), _ratio(v[1], scale))

    def conj(self, a):
        return (a[0], -a[1])

    def fmt(self, a):
        re, im = a
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}*xi" if im != 1 else "xi"
        sign = "+" if im > 0 else "-"
        mag = abs(im)
        tail = "xi" if mag == 1 else f"{mag}*xi"
        return f"{re}{sign}{tail}"


QQ = Rationals()
QQXI = QuadExt()


# ---------------------------------------------------------------------------
# dense F_p[x] helpers (little-endian coefficient tuples), used for modulus
# search and extension-field arithmetic

def _poly_trim(c, zero=0):
    i = len(c)
    while i > 0 and c[i - 1] == zero:
        i -= 1
    return c[:i]


def _poly_mulmod(a, b, mod, p):
    m = len(mod) - 1
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    # reduce by the monic modulus
    for i in range(len(res) - 1, m - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(m):
                res[i - m + j] = (res[i - m + j] - c * mod[j]) % p
    return _poly_trim(res[:m] if len(res) > m else res)


def _poly_powmod(a, e, mod, p):
    """a^e modulo the monic `mod` over F_p, for a reduced `a` and e >= 1."""
    return power(list(a), e, lambda x, y: _poly_mulmod(x, y, mod, p))


def _poly_gcd(a, b, dom):
    """A gcd of the univariate polynomials a and b (little-endian payload
    sequences) over the field `dom`, by Euclid's algorithm, as a trimmed
    list; [] when both are zero."""
    a, b = list(_poly_trim(a, dom.zero)), list(_poly_trim(b, dom.zero))
    while b:
        # a mod b
        inv_lead = dom.inv(b[-1])
        while len(a) >= len(b):
            c, shift = dom.mul(a[-1], inv_lead), len(a) - len(b)
            for j, bj in enumerate(b):
                a[shift + j] = dom.sub(a[shift + j], dom.mul(c, bj))
            a = _poly_trim(a, dom.zero)
        a, b = b, a
    return a


def _poly_sub(a, b, p):
    n = max(len(a), len(b))
    return _poly_trim(tuple(((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                            for i in range(n)))


def _is_irreducible(mod, p, m):
    """Rabin test for the monic degree-m polynomial `mod` over F_p."""
    x = (0, 1)
    h = x
    for _ in range(m):
        h = _poly_powmod(h, p, mod, p)
    if _poly_sub(h, x, p):  # x^(p^m) != x (mod f)
        return False
    for ell in _prime_divisors(m):
        h = x
        for _ in range(m // ell):
            h = _poly_powmod(h, p, mod, p)
        g = _poly_gcd(_poly_sub(h, x, p), mod, FiniteField(p))
        if len(g) != 1:
            return False
    return True


def _least_prime_factor(n):
    """Least prime factor of n >= 2, by trial division up to sqrt(n)."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def _prime_divisors(m):
    out = []
    while m > 1:
        out.append(_least_prime_factor(m))
        while m % out[-1] == 0:
            m //= out[-1]
    return out


def smallest_irreducible(p, m):
    """Monic irreducible of degree m over F_p, minimal in the integer encoding
    sum(c_i * p^i) of the lower coefficients.  Returns little-endian tuple of
    length m+1 (monic)."""
    for k in range(p**m):
        coeffs = []
        kk = k
        for _ in range(m):
            coeffs.append(kk % p)
            kk //= p
        mod = coeffs + [1]
        if _is_irreducible(mod, p, m):
            return tuple(mod)
    raise RuntimeError("no irreducible polynomial found")  # unreachable


@dataclass(frozen=True)
class FieldSpec:
    p: int
    m: int

    @property
    def q(self):
        return self.p**self.m

    def as_dict(self):
        return {"p": self.p, "m": self.m, "q": self.q}


_MAX_Q = 1 << 31


def prime_power(q):
    """(p, m) with q = p^m; raises ValueError for q that is not a prime
    power, and for q >= _MAX_Q before any trial division."""
    if q >= _MAX_Q:
        raise ValueError(f"q = {q} exceeds the supported width ({_MAX_Q})")
    if q >= 2:
        p, m = _least_prime_factor(q), 1
        while p ** m < q:
            m += 1
        if p ** m == q:
            return p, m
    raise ValueError(f"{q} is not a prime power")


class FiniteField(Domain):
    """F_{p^m}.  Payloads: int residues when m == 1, little-endian int tuples
    of length m otherwise.  The modulus is the deterministic choice from
    `smallest_irreducible`, so two fields with equal (p, m) are interchangeable.
    """

    def __init__(self, p, m=1):
        if m < 1:
            raise ValueError("m must be >= 1")
        if prime_power(p**m) != (p, m):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.m = m
        self.q = p**m
        self.char = p
        self.spec = FieldSpec(p, m)
        if m == 1:
            self.modulus = None
            self.zero = 0
            self.one = 1
            self.name = f"GF({p})"
        else:
            self.modulus = smallest_irreducible(p, m)
            self.zero = (0,) * m
            self.one = (1,) + (0,) * (m - 1)
            self.name = f"GF({p}^{m})"
        self.int_kernel = m == 1

    # -- arithmetic ---------------------------------------------------------

    def from_int(self, n):
        r = n % self.p
        return r if self.m == 1 else (r,) + (0,) * (self.m - 1)

    def add(self, a, b):
        if self.m == 1:
            return (a + b) % self.p
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        if self.m == 1:
            return (-a) % self.p
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        if self.m == 1:
            return (a * b) % self.p
        return self._pad(_poly_mulmod(a, b, self.modulus, self.p))

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        # a^(q-2)
        return self.pow(a, self.q - 2)

    def _pad(self, c):
        return tuple(c) + (0,) * (self.m - len(c))

    # -- enumeration --------------------------------------------------------

    def element_index(self, a):
        if self.m == 1:
            return a
        idx = 0
        for c in reversed(a):
            idx = idx * self.p + c
        return idx

    def element_from_index(self, idx):
        if self.m == 1:
            return idx
        coeffs = []
        for _ in range(self.m):
            coeffs.append(idx % self.p)
            idx //= self.p
        return tuple(coeffs)

    def elements(self):
        return (self.element_from_index(i) for i in range(self.q))

    def fmt(self, a):
        if self.m == 1:
            return str(a)
        return "(" + ",".join(str(c) for c in a) + ")"

    def reduce_rational(self, r):
        """Image of a rational payload; raises if the denominator vanishes
        mod p."""
        if type(r) is int:
            return self.from_int(r)
        if r.denominator % self.p == 0:
            raise ZeroDivisionError(
                f"denominator {r.denominator} not invertible mod {self.p}")
        return self.mul(self.from_int(r.numerator), self.inv(self.from_int(r.denominator)))

    def reduce_quadext(self, a, xi_image=None):
        """Image of re + im*xi, sending xi to a chosen root of x^2 + 3."""
        re, im = a
        if im == 0:
            return self.reduce_rational(re)
        if xi_image is None:
            xi_image = sqrt_of_minus_three(self)
            if xi_image is None:
                raise ValueError(f"-3 is not a square in {self.name}")
        return self.add(self.reduce_rational(re), self.mul(self.reduce_rational(im), xi_image))

    def __repr__(self):
        return self.name


def field_create(p, m=1):
    """Construct F_{p^m} with the deterministic modulus."""
    return FiniteField(p, m)


# ---------------------------------------------------------------------------
# the discrete-log table of element indices, read by the count kernels

_LOG_TABLES = {}
# Bound on the cells of one field's exp/log table, 8 bytes each: 2^25 cells
# allow q up to about 6.7 * 10^6 over F_{p^m}.  The budget bounds them only
# by their number, and 10^9 cells do not fit in memory.
TABLE_MAX = 1 << 25


def _primitive_element(F):
    """The generator of F^* with the smallest element index."""
    q = F.q
    primes = _prime_divisors(q - 1)
    for i in range(1, q):
        g = F.element_from_index(i)
        if all(F.pow(g, (q - 1) // r) != F.one for r in primes):
            return g
    raise ValueError(f"{F.name} has no primitive element")  # unreachable


def _times(F, x, h, out):
    """Write into `out` the indices of h * a for the elements a of index x
    (int64 arrays).  Over F_{p^m}, multiplication by h is F_p-linear on
    base-p digits: the digits of a, a block of rows at a time so that no
    len(x) * m array is held, times the matrix whose row i holds the digits
    of h t^i."""
    p, m = F.p, F.m
    if m == 1:
        np.multiply(x, h, out=out)
        np.remainder(out, p, out=out)
        return
    digits = p ** np.arange(m, dtype=np.int64)
    rows = np.array([F.mul(h, F.element_from_index(p ** i)) for i in range(m)], np.int64)
    step = 1 << 15
    for lo in range(0, len(x), step):
        out[lo:lo + step] = (x[lo:lo + step, None] // digits % p) @ rows % p @ digits


def exp_log_cells(F):
    """The cells of `index_exp_log`'s arrays for F."""
    return 2 * F.q - 1 if F.m == 1 else 5 * F.q - 3


def index_exp_log(F):
    """(exp, log) as int64 arrays over element indices, for the generator g
    of F^* with the smallest element index.  With n = q - 1, exp[k] is the
    index of g^k for k < n; log[i] is the discrete logarithm of element i,
    in [0, n), and log[0] = 2n.  Over F_{p^m}, exp also holds the powers
    again up to 2n and zeros from 2n to 4n, so the product of elements of
    indices a and b is exp[log[a] + log[b]], zero included; over F_p, where
    `kernels.field_tables` multiplies residues, it stops at n.  Built once
    per (p, m) in O(q) memory by doubling the powers of g:
    exp[k:2k] = exp[:k] * g^k.  Raises BudgetExceeded, before any work, when
    the arrays would have more than TABLE_MAX cells."""
    key = (F.p, F.m)
    if key not in _LOG_TABLES:
        if exp_log_cells(F) > TABLE_MAX:
            raise BudgetExceeded(f"the exp/log table of {F.name} has {exp_log_cells(F)} "
                                 f"cells, over its memory guard of {TABLE_MAX}")
        n = F.q - 1
        k, h = 1, _primitive_element(F)
        exp = np.zeros(n if F.m == 1 else 4 * n + 1, np.int64)
        exp[0] = 1
        while k < n:
            size = min(k, n - k)
            _times(F, exp[:size], h, exp[k:k + size])
            k, h = k + size, F.mul(h, h)
        if F.m > 1:
            exp[n:2 * n] = exp[:n]
        log = np.empty(n + 1, np.int64)
        log[exp[:n]] = np.arange(n)
        log[0] = 2 * n
        _LOG_TABLES[key] = exp, log
    return _LOG_TABLES[key]


# ---------------------------------------------------------------------------
# square roots of -3 and root counts of x^D + 1


def minus_three_has_root(p, m):
    """Whether x^2 + 3 has a root in F_{p^m}: m even, or p = 1 mod 6, or p in {2,3}."""
    return m % 2 == 0 or p % 6 == 1 or p in (2, 3)


def _sqrt_prime(F, a):
    """Tonelli-Shanks over F_p, deterministic (smallest non-residue); None if
    a is a non-residue."""
    p = F.p
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p-1 = s * 2^e
    s, e = p - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    n = 2
    while pow(n, (p - 1) // 2, p) == 1:
        n += 1
    x = pow(a, (s + 1) // 2, p)
    b = pow(a, s, p)
    g = pow(n, s, p)
    r = e
    while True:
        t, m_ = b, 0
        while t != 1:
            t = (t * t) % p
            m_ += 1
        if m_ == 0:
            return x
        gs = pow(g, 1 << (r - m_ - 1), p)
        x = (x * gs) % p
        g = (gs * gs) % p
        b = (b * g) % p
        r = m_


def sqrt_of_minus_three(F):
    """A root of x^2 + 3 in F, or None.  Of the two roots the one with the
    smaller element index is returned, so the choice is deterministic.  Over
    F_{p^m} with -3 = g^k (see `index_exp_log`), the roots are +-g^(k/2)
    when k is even, and there are none when it is odd."""
    if F.m == 1:
        r = _sqrt_prime(F, (-3) % F.p)
        if r is None:
            return None
        return min(r, (-r) % F.p)
    if F.p == 3:
        return F.zero
    exp, log = index_exp_log(F)
    k = int(log[F.element_index(F.from_int(-3))])
    if k % 2:
        return None
    root = F.element_from_index(int(exp[k // 2]))
    return min(root, F.neg(root), key=F.element_index)


def root_count_unity(F, D):
    """Number of roots of x^D + 1 in F, by exhaustive evaluation.  For odd D
    this equals gcd(q - 1, D); that identity is asserted."""
    minus_one = F.from_int(-1)
    count = sum(1 for a in F.elements() if F.pow(a, D) == minus_one)
    if D % 2 == 1:
        expected = gcd(F.q - 1, D)
        assert count == expected, (count, expected)
    return count
