"""Exact coefficient domains: Q, the quadratic extension Q(xi) with xi^2 = -3,
and finite fields F_{p^m} with a deterministic choice of modulus.

Domains are lightweight objects exposing arithmetic on plain hashable payloads
(Fraction for Q, pairs of Fractions for Q(xi), ints / int tuples for finite
fields).  Polynomials carry a domain reference and delegate all coefficient
work here.  For the polynomial product kernel a domain also lifts payloads
to values over a common scale (integer numerators over Q and Q(xi)) and
lowers them back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np


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
        r = self.one
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def is_zero(self, a):
        return a == self.zero

    def fmt(self, a):
        return str(a)

    def __repr__(self):
        return self.name


class Rationals(Domain):
    char = 0
    name = "QQ"
    zero = Fraction(0)
    one = Fraction(1)
    int_kernel = True

    def lift(self, cs):
        """Numerators over the lcm of the denominators."""
        cs = list(cs)
        scale = lcm(*(c.denominator for c in cs))
        return [c.numerator * (scale // c.denominator) for c in cs], scale

    def lower(self, v, scale):
        return Fraction(v, scale)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return 1 / a


class QuadExt(Domain):
    """Q(xi) with xi^2 = -3; payloads are (rational, rational) = a + b*xi."""

    char = 0
    name = "QQ(xi)"
    zero = (Fraction(0), Fraction(0))
    one = (Fraction(1), Fraction(0))
    xi = (Fraction(0), Fraction(1))

    def from_int(self, n):
        return (Fraction(n), Fraction(0))

    def from_rational(self, r):
        return (Fraction(r), Fraction(0))

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def neg(self, a):
        return (-a[0], -a[1])

    def mul(self, a, b):
        return (a[0] * b[0] - 3 * a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def inv(self, a):
        nrm = a[0] * a[0] + 3 * a[1] * a[1]
        return (a[0] / nrm, -a[1] / nrm)

    def is_zero(self, a):
        return not (a[0] or a[1])

    def lift(self, cs):
        """Pairs of integers over the lcm of all the denominators; add and
        mul work on them unchanged."""
        cs = list(cs)
        scale = lcm(*(r.denominator for c in cs for r in c))
        return [(a.numerator * (scale // a.denominator), b.numerator * (scale // b.denominator))
                for a, b in cs], scale

    def lower(self, v, scale):
        return (Fraction(v[0], scale), Fraction(v[1], scale))

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

def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
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
    r = [1]
    a = list(a)
    while e:
        if e & 1:
            r = _poly_mulmod(r, a, mod, p)
        a = _poly_mulmod(a, a, mod, p)
        e >>= 1
    return r


def _poly_gcd(a, b, p):
    a, b = list(_poly_trim(a)), list(_poly_trim(b))
    while b:
        # a mod b
        inv_lead = pow(b[-1], p - 2, p)
        while len(a) >= len(b) and a:
            c = (a[-1] * inv_lead) % p
            shift = len(a) - len(b)
            for j in range(len(b)):
                a[shift + j] = (a[shift + j] - c * b[j]) % p
            a = list(_poly_trim(a))
        a, b = b, a
    return _poly_trim(a)


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
        g = _poly_gcd(_poly_sub(h, x, p), tuple(mod), p)
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
        # exp/log tables of the least-index primitive element; until they
        # are set, and always above _TABLE_Q_MAX, mul runs _poly_mulmod
        self._exp = self._log = None
        if m > 1 and self.q <= _TABLE_Q_MAX:
            self._exp, self._log = exp_log_tables(self)

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
        log = self._log
        if log is None:
            return self._pad(_poly_mulmod(a, b, self.modulus, self.p))
        if a == self.zero or b == self.zero:
            return self.zero
        return self._exp[(log[a] + log[b]) % (self.q - 1)]

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
        """Image of a Fraction; raises if the denominator vanishes mod p."""
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
# discrete-log tables, shared by FiniteField.mul and the count kernels

_TABLE_Q_MAX = 1024
_EXP_LOG = {}
_INDEX_EXP_LOG = {}


def _primitive_element(F):
    """The generator of F^* with the smallest element index."""
    q = F.q
    primes = _prime_divisors(q - 1)
    for i in range(1, q):
        g = F.element_from_index(i)
        if all(F.pow(g, (q - 1) // r) != F.one for r in primes):
            return g
    raise ValueError(f"{F.name} has no primitive element")  # unreachable


def exp_log_tables(F):
    """(exp, log) for the primitive element g of F with the smallest element
    index: exp[k] = g^k for k < q - 1 and log[exp[k]] = k.  Built once per
    (p, m) by q - 2 multiplications in F, which run _poly_mulmod while F has
    no tables yet."""
    key = (F.p, F.m)
    if key not in _EXP_LOG:
        if F.q > _TABLE_Q_MAX:
            raise ValueError(f"table arithmetic limited to q <= {_TABLE_Q_MAX}")
        g = _primitive_element(F)
        exp = [F.one]
        for _ in range(F.q - 2):
            exp.append(F.mul(exp[-1], g))
        _EXP_LOG[key] = exp, {x: k for k, x in enumerate(exp)}
    return _EXP_LOG[key]


def index_exp_log(F):
    """(exp, log) as int64 arrays over element indices, for the same
    primitive element g as `exp_log_tables`: exp[k] is the index of g^k for
    k < q - 1, and log[exp[k]] = k (log[0] = 0 stands for no logarithm).
    Built once per (p, m) in O(q): over F_{p^m} from `exp_log_tables`, so
    q <= _TABLE_Q_MAX there; over F_p as a numpy outer product of g^i and
    g^(jw), w = isqrt(p - 1) + 1, with no cap, so the caller bounds q."""
    key = (F.p, F.m)
    if key not in _INDEX_EXP_LOG:
        q = F.q
        if F.m == 1:
            g = _primitive_element(F)
            w = isqrt(q - 1) + 1
            low = [1]
            for _ in range(w - 1):
                low.append(low[-1] * g % q)
            high = [1]
            for _ in range(w - 1):
                high.append(high[-1] * low[-1] * g % q)
            exp = (np.array(high, np.int64)[:, None] * np.array(low, np.int64)
                   % q).ravel()[:q - 1]
        else:
            exp = np.array([F.element_index(x) for x in exp_log_tables(F)[0]], np.int64)
        log = np.zeros(q, np.int64)
        log[exp] = np.arange(q - 1)
        _INDEX_EXP_LOG[key] = exp, log
    return _INDEX_EXP_LOG[key]


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


_SCAN_LIMIT = 1 << 20


def sqrt_of_minus_three(F):
    """A root of x^2 + 3 in F, or None.  Of the two roots the one with the
    smaller element index is returned, so the choice is deterministic."""
    target = F.from_int(-3)
    if F.m == 1:
        r = _sqrt_prime(F, (-3) % F.p)
        if r is None:
            return None
        return min(r, (-r) % F.p)
    if F.q > _SCAN_LIMIT:
        raise ValueError(f"square-root scan not supported for q = {F.q}")
    best = None
    for a in F.elements():
        if F.mul(a, a) == target:
            if best is None or F.element_index(a) < F.element_index(best):
                best = a
    return best


def root_count_unity(F, D):
    """Number of roots of x^D + 1 in F, by exhaustive evaluation.  For odd D
    this equals gcd(q - 1, D); that identity is asserted."""
    minus_one = F.from_int(-1)
    count = sum(1 for a in F.elements() if F.pow(a, D) == minus_one)
    if D % 2 == 1:
        expected = gcd(F.q - 1, D)
        assert count == expected, (count, expected)
    return count


# ---------------------------------------------------------------------------
# reduction of characteristic-zero payloads into finite fields


def reduce_rational(F, r):
    """Image of a Fraction in F; raises if the denominator vanishes mod p."""
    return F.reduce_rational(r)


def reduce_quadext(F, a, xi_image=None):
    """Image of a + b*xi in F, sending xi to a chosen root of x^2 + 3."""
    return F.reduce_quadext(a, xi_image)
