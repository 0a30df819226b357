"""Each oracle against a plain Python scan at tiny sizes (q <= 13, B <= 6).

    python3 -m pytest -q perfbench/test_oracles.py
"""

from __future__ import annotations

import os
import sys
from itertools import product
from math import gcd

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402


def _field(q):
    """(add, mul, neg) tables of F_q on element indices; index i holds the
    polynomial with base-p digits of i, modulo a fixed irreducible."""
    p, m = oracles.prime_power(q)
    modulus = {4: [1, 1], 8: [1, 1, 0], 9: [1, 0]}.get(q, [0])  # monic, low terms

    def digits(x):
        return [(x // p ** i) % p for i in range(m)]

    def index(c):
        return sum(ci * p ** i for i, ci in enumerate(c))

    def mul(a, b):
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(digits(a)):
            for j, y in enumerate(digits(b)):
                prod[i + j] = (prod[i + j] + x * y) % p
        for k in range(2 * m - 2, m - 1, -1):
            c, prod[k] = prod[k], 0
            for i in range(m):
                prod[k - m + i] = (prod[k - m + i] - c * modulus[i]) % p
        return index(prod[:m])

    add = [[index([(x + y) % p for x, y in zip(digits(a), digits(b))]) for b in range(q)]
           for a in range(q)]
    mult = [[mul(a, b) for b in range(q)] for a in range(q)]
    neg = [index([(-x) % p for x in digits(a)]) for a in range(q)]
    return add, mult, neg


def _projective(q, N):
    for lead in range(N + 1):
        for tail in product(range(q), repeat=N - lead):
            yield (0,) * lead + (1,) + tail


def _scan_x(q, n, d):
    add, mul, neg = _field(q)

    def f(a, b):
        t = add[add[mul[a][a]][neg[mul[a][b]]]][mul[b][b]]
        v = add[a][b]
        for _ in range(d):
            v = mul[v][t]
        return v

    count = 0
    for x in _projective(q, 2 * n + 1):
        acc = 0
        for i in range(n + 1):
            acc = add[acc][f(x[2 * i], x[2 * i + 1])]
        count += acc == 0
    return count


def _ab(u, p, d):
    A = B = pow(u[0], 2 * d + 1, p)
    for i in range(1, len(u), 2):
        v, w = u[i], u[i + 1]
        Q = pow(v * v + 3 * w * w, d, p)
        A += (v + 3 * w) * Q
        B += (v - w) * Q
    return A % p, B % p


@pytest.mark.parametrize("p,n,d", [(2, 1, 1), (3, 1, 2), (5, 1, 1), (7, 1, 2), (7, 1, 3),
                                   (11, 1, 1), (13, 1, 2), (5, 2, 1), (3, 2, 2)])
def test_x_count_prime(p, n, d):
    assert oracles.x_count_prime(p, n, d) == _scan_x(p, n, d)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_x_count_n1_closed(q, d):
    assert oracles.x_count_n1_closed(q, d) == _scan_x(q, 1, d)


@pytest.mark.parametrize("p,n,d", [(5, 2, 1), (5, 2, 2), (7, 2, 1), (11, 2, 1),
                                   (11, 2, 2), (5, 3, 1)])
def test_y_counts(p, n, d):
    scan = sum(1 for u in _projective(p, 2 * n) if _ab(u, p, d) == (0, 0))
    assert oracles.y_count_prime(p, n, d) == scan
    closed = oracles.y_count_closed(p, n, d)
    assert closed is None or closed == scan


@pytest.mark.parametrize("p,n,d", [(7, 2, 1), (7, 2, 2), (13, 2, 1), (13, 2, 2)])
def test_y_generic_pool(p, n, d):
    scan = sum(1 for u in _projective(p, 2 * n) if u[0] and _ab(u, p, d) == (0, 0))
    assert oracles.y_generic_pool(p, n, d) == scan


@pytest.mark.parametrize("q", [7, 13])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_y0_closed(q, d):
    sols = [u for u in _projective(q, 2) if _ab(u, q, d) == (0, 0)]
    xi = [x for x in range(q) if (x * x + 3) % q == 0]
    multiple = {(0, 1, pow(x, -1, q)) for x in xi}   # [0 : ±xi : 1], normalized
    simple = [u for u in sols if u not in multiple]
    assert len(sols) == len(simple) + 2
    assert all(u[2] == 0 for u in simple)
    closed = oracles.y0_closed(q, d)
    assert len(simple) == closed["simple"] == oracles.y0_solutions(q, d) - 2
    assert closed["split"] == (len(simple) == 2 * d + 1)


def _height_scan(d, B):
    """Heights of the points of X (n = 1) with height <= B, one
    representative each (first nonzero coordinate positive, gcd 1)."""
    heights = []
    for x in product(range(-B, B + 1), repeat=4):
        lead = next((c for c in x if c), 0)
        if lead <= 0 or gcd(*x) != 1:
            continue
        if oracles.f_pair(x[0], x[1], d) + oracles.f_pair(x[2], x[3], d) == 0:
            heights.append(max(abs(c) for c in x))
    return heights


@pytest.mark.parametrize("d", [1, 2, 3])
def test_direct_height_counts(d):
    B = 6
    heights = _height_scan(d, B)
    expected = [sum(1 for h in heights if h <= k) for k in range(B + 1)]
    assert oracles.direct_height_counts(d, B) == expected


@pytest.mark.parametrize("d", [1, 2])
def test_parametrized_count_within_scan(d):
    B = 6
    on_x = set()
    for x in product(range(-B, B + 1), repeat=4):
        lead = next((c for c in x if c), 0)
        if lead > 0 and gcd(*x) == 1 and \
                oracles.f_pair(x[0], x[1], d) + oracles.f_pair(x[2], x[3], d) == 0:
            on_x.add(x)
    images, skips = oracles.parametrized_images(d, 1)
    low = {x for x, h in images.items() if h <= B}
    assert low <= on_x
    count, skips_b = oracles.parametrized_count(d, B)
    assert (count, skips_b) == (len(low), skips)
    assert count <= len(on_x)


def test_integer_root():
    for k in (1, 2, 4, 6):
        for B in range(0, 300):
            t = oracles.integer_root(B, k)
            assert t ** k <= B < (t + 1) ** k
