"""Independent oracles for the benchmark's outputs.

Nothing here imports skewplanes.  Every expected value is recomputed from
the defining polynomials with plain Python integers, or read off the
paper's closed forms, which are written out below.  The two block forms are

    f(a, b) = (a + b) * (a^2 - a*b + b^2)^d          (X, in P^{2n+1})
    A = u0^{2d+1} + sum_i (v_i + 3 w_i) * (v_i^2 + 3 w_i^2)^d
    B = u0^{2d+1} + sum_i (v_i - w_i) * (v_i^2 + 3 w_i^2)^d   (Y, in P^{2n})

with (v_i, w_i) = (u_{2i+1}, u_{2i+2}).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import gcd


def f_pair(a, b, d):
    return (a + b) * (a * a - a * b + b * b) ** d


def projective_size(q, N):
    return (q ** (N + 1) - 1) // (q - 1)


def prime_power(q):
    """(p, m) with q = p^m; raises ValueError when q is not a prime power."""
    p = next((c for c in range(2, q + 1) if q % c == 0), None)
    if p is None:
        raise ValueError(f"{q} is not a prime power")
    m, r = 0, q
    while r % p == 0:
        r //= p
        m += 1
    if r != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, m


# ---------------------------------------------------------------------------
# point counts over F_q


def _convolve(h1, h2, p):
    """Additive convolution of two value histograms over Z/p."""
    out = [0] * p
    for i, a in enumerate(h1):
        if a:
            for j, b in enumerate(h2):
                if b:
                    out[(i + j) % p] += a * b
    return out


def x_count_prime(p, n, d):
    """#X(F_p) for prime p: histogram f over F_p^2, convolve the n + 1
    blocks, then #X = (N_aff - 1) / (p - 1)."""
    hist = [0] * p
    for a in range(p):
        for b in range(p):
            hist[(a + b) * pow(a * a - a * b + b * b, d, p) % p] += 1
    dist = hist
    for _ in range(n):
        dist = _convolve(dist, hist, p)
    n_aff = dist[0]
    if (n_aff - 1) % (p - 1):
        raise AssertionError("affine cone count not a multiple of p - 1")
    return (n_aff - 1) // (p - 1)


def _convolve2(h1, h2, p):
    out = Counter()
    for (a1, b1), c1 in h1.items():
        for (a2, b2), c2 in h2.items():
            out[((a1 + a2) % p, (b1 + b2) % p)] += c1 * c2
    return out


@lru_cache(maxsize=None)
def y_affine_zeros(p, n, d, u0_nonzero=False):
    """#{u in F_p^{2n+1} : A(u) = B(u) = 0} for prime p, from the joint
    (A, B) block histogram over F_p^2; optionally only points with u0 != 0."""
    block = Counter()
    for v in range(p):
        for w in range(p):
            Q = pow(v * v + 3 * w * w, d, p)
            block[((v + 3 * w) * Q % p, (v - w) * Q % p)] += 1
    dist = Counter()
    for u0 in range(1 if u0_nonzero else 0, p):
        s = pow(u0, 2 * d + 1, p)
        dist[(s, s)] += 1
    for _ in range(n):
        dist = _convolve2(dist, block, p)
    return dist[(0, 0)]


def y_count_prime(p, n, d):
    """#Y(F_p) = (N_aff - 1) / (p - 1) for prime p."""
    return (y_affine_zeros(p, n, d) - 1) // (p - 1)


def y_generic_pool(p, n, d):
    """Points of Y(F_p) off {u0 = 0}: the pool the singular-locus check
    samples generic points from."""
    return y_affine_zeros(p, n, d, u0_nonzero=True) // (p - 1)


def x_count_n1_closed(q, d):
    """The paper's count of the n = 1 hypersurface over F_q, every branch.
    In characteristic 3, f = (a + b)^{2d+1} and only the 3-free part of
    2d + 1 matters."""
    p, _ = prime_power(q)
    s = gcd(q - 1, 2 * d + 1)
    if p == 3:
        g = 2 * d + 1
        while g % 3 == 0:
            g //= 3
        return gcd(g, q - 1) * q * q + q + 1
    if q % 3 == 2:
        return q * q + s * q + 1
    return q * q + (4 + s) * q + 1


def y_count_closed(q, n, d):
    """|P^{2n-2}(F_q)| when n >= 2, q = 5 mod 6 and gcd(2d+1, q-1) = 1;
    None where the closed form makes no claim."""
    if n >= 2 and q % 6 == 5 and gcd(2 * d + 1, q - 1) == 1:
        return projective_size(q, 2 * n - 2)
    return None


def y0_closed(q, d):
    """Structure of Y0 = {A = B = 0} in P^2 for q = 1 mod 6: two points
    [0 : ±xi : 1] of multiplicity 2d^2 + d each, plus the simple points
    u2 = 0, u0^{2d+1} = -u1^{2d+1}, one per root of x^{2d+1} = -1."""
    simple = gcd(2 * d + 1, q - 1)
    return {"multiplicity": 2 * d * d + d, "simple": simple,
            "split": simple == 2 * d + 1, "weighted_total": (2 * d + 1) ** 2}


def y0_solutions(p, d):
    """Number of points of P^2(F_p) with A = B = 0 (n = 1), by a scan."""
    e = 2 * d + 1
    count = 0
    for u0, u1, u2 in _projective_points(p, 2):
        Q = pow(u1 * u1 + 3 * u2 * u2, d, p)
        s = pow(u0, e, p)
        if (s + (u1 + 3 * u2) * Q) % p == 0 and (s + (u1 - u2) * Q) % p == 0:
            count += 1
    return count


def _projective_points(p, N):
    """Normalized points of P^N(F_p): first nonzero coordinate 1."""
    for lead in range(N + 1):
        for k in range(p ** (N - lead)):
            tail = []
            for _ in range(N - lead):
                tail.append(k % p)
                k //= p
            yield (0,) * lead + (1,) + tuple(reversed(tail))


# ---------------------------------------------------------------------------
# bounded height on the n = 1 hypersurface


def _mobius(kmax):
    mu = [1] * (kmax + 1)
    prime = [True] * (kmax + 1)
    for i in range(2, kmax + 1):
        if prime[i]:
            for j in range(i, kmax + 1, i):
                if j > i:
                    prime[j] = False
                mu[j] = -mu[j]
            for j in range(i * i, kmax + 1, i * i):
                mu[j] = 0
    return mu


def direct_height_counts(d, kmax):
    """Points of X (n = 1) of height <= k, for k = 0..kmax.

    N(k) = #{x in [-k,k]^4 : f(x0,x1) + f(x2,x3) = 0} = sum_v c_k(v)^2,
    because f(-a,-b) = -f(a,b) makes the value multiset c_k symmetric.
    Möbius inversion over the gcd gives the primitive vectors, and each
    projective point has two of them (±x)."""
    mult = Counter()
    total = 0
    n_all = []

    def add(a, b):
        nonlocal total
        v = f_pair(a, b, d)
        total += 2 * mult[v] + 1
        mult[v] += 1

    add(0, 0)
    n_all.append(total)
    for k in range(1, kmax + 1):
        for a in range(-k, k + 1):
            add(a, k)
            add(a, -k)
        for b in range(-k + 1, k):
            add(k, b)
            add(-k, b)
        n_all.append(total)
    mu = _mobius(kmax)
    out = []
    for k in range(kmax + 1):
        prim = sum(mu[g] * (n_all[k // g] - 1) for g in range(1, k + 1))
        out.append(prim // 2)
    return out


def integer_root(B, k):
    """Largest t >= 0 with t^k <= B."""
    t = 0
    while (t + 1) ** k <= B:
        t += 1
    return t


def _primitive_p2(T):
    """Primitive integer points of P^2 with height <= T, one per point."""
    for lead_at in range(3):
        free = 2 - lead_at
        for lead in range(1, T + 1):
            for k in range((2 * T + 1) ** free):
                tail = []
                for _ in range(free):
                    tail.append(k % (2 * T + 1) - T)
                    k //= 2 * T + 1
                pt = (0,) * lead_at + (lead,) + tuple(tail)
                if gcd(*pt) == 1:
                    yield pt


def phibar_doubled(u, d):
    """2 * phibar(u) for n = 1, in integers."""
    u0, v, w = u
    Q = (v * v + 3 * w * w) ** d
    s = u0 ** (2 * d + 1)
    A = s + (v + 3 * w) * Q
    B = s + (v - w) * Q
    return ((v - 3 * w) * A - 3 * (v + w) * B, 2 * (v * A - 3 * w * B),
            u0 * (A - 3 * B), 2 * u0 * A)


def reduce_point(x):
    g = gcd(*x)
    x = tuple(c // g for c in x)
    lead = next(c for c in x if c)
    return tuple(-c for c in x) if lead < 0 else x


@lru_cache(maxsize=None)
def parametrized_images(d, T):
    """Reduced images of the parametrization from inputs of height <= T,
    mapped to their heights, and the number of base-locus inputs."""
    heights = {}
    skips = 0
    for u in _primitive_p2(T):
        x = phibar_doubled(u, d)
        if not any(x):
            skips += 1
            continue
        if f_pair(x[0], x[1], d) + f_pair(x[2], x[3], d) != 0:
            raise AssertionError(f"parametrization leaves X at input {u}")
        r = reduce_point(x)
        heights[r] = max(abs(c) for c in r)
    return heights, skips


def parametrized_count(d, B):
    """(points of height <= B reached from inputs of height <=
    floor(B^{1/(2d+2)}), base-locus inputs skipped)."""
    heights, skips = parametrized_images(d, integer_root(B, 2 * d + 2))
    return sum(1 for h in heights.values() if h <= B), skips
