"""Tests for the exact scalar domains: Q, Q(xi), and F_{p^m}."""

import functools
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewplanes import domains
from skewplanes.domains import (
    QQ,
    QQXI,
    FiniteField,
    exp_log_cells,
    field_create,
    index_exp_log,
    minus_three_has_root,
    prime_power,
    root_count_unity,
    smallest_irreducible,
    sqrt_of_minus_three,
)
from skewplanes.kernels import field_tables
from skewplanes.mpoly import MPoly, VarContext
from skewplanes.reporting import BudgetExceeded

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]
PRIME_POWERS_121 = [
    (p, m)
    for p in SMALL_PRIMES
    for m in range(1, 8)
    if p**m <= 121
]


# ---------------------------------------------------------------------------
# construction


def test_field_create_prime_field():
    F = field_create(5)
    assert (F.p, F.m, F.q) == (5, 1, 5)
    assert F.modulus is None


def test_field_create_rejects_non_prime():
    with pytest.raises(ValueError):
        field_create(4)
    with pytest.raises(ValueError):
        field_create(1)


def test_field_create_rejects_overflow():
    with pytest.raises(ValueError):
        field_create(2, 40)  # 2^40 >= 2^31


def test_smallest_irreducible_known_moduli():
    # independently verified by scanning all monic polynomials of each degree
    assert smallest_irreducible(3, 2) == (1, 0, 1)  # x^2 + 1
    assert smallest_irreducible(5, 2) == (2, 0, 1)  # x^2 + 2
    assert smallest_irreducible(2, 2) == (1, 1, 1)  # x^2 + x + 1
    assert smallest_irreducible(2, 3) == (1, 1, 0, 1)  # x^3 + x + 1
    assert smallest_irreducible(2, 5) == (1, 0, 1, 0, 0, 1)  # x^5 + x^2 + 1


def test_smallest_irreducible_matches_exhaustive_scan():
    # brute-force re-derivation: the chosen modulus must be the monic
    # irreducible whose lower coefficients have the minimal integer encoding
    # sum(c_i * p^i); all earlier candidates must admit a factorization
    from itertools import product

    for p, m in [(3, 2), (5, 2), (2, 4), (7, 2)]:
        chosen = smallest_irreducible(p, m)

        def poly_mul(a, b):
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] = (out[i + j] + x * y) % p
            return out

        def all_monic(deg):
            for tail in product(range(p), repeat=deg):
                yield list(tail) + [1]

        def is_reducible(c):
            deg = len(c) - 1
            for d1 in range(1, deg // 2 + 1):
                for f in all_monic(d1):
                    for g in all_monic(deg - d1):
                        if poly_mul(f, g) == list(c):
                            return True
            return False

        for k in range(p**m):
            coeffs, kk = [], k
            for _ in range(m):
                coeffs.append(kk % p)
                kk //= p
            cand = tuple(coeffs) + (1,)
            if cand == chosen:
                break
            assert is_reducible(cand), (p, m, cand)
        assert not is_reducible(chosen)


def test_fields_with_equal_parameters_interchange():
    F1, F2 = field_create(3, 2), field_create(3, 2)
    assert F1.modulus == F2.modulus
    a = F1.element_from_index(5)
    assert F2.mul(a, a) == F1.mul(a, a)


TABLE_QS = [4, 8, 9, 16, 25, 27, 32, 49, 64, 121, 125]


def _product_mod(a, b, modulus, p):
    """The schoolbook product of coefficient tuples a and b, reduced by the
    monic modulus term by term from the top; shares no code with the field."""
    m = len(modulus) - 1
    c = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] += x * y
    for k in range(2 * m - 2, m - 1, -1):
        top = c[k]
        for i in range(m + 1):
            c[k - m + i] -= top * modulus[i]
    return tuple(x % p for x in c[:m])


@pytest.mark.parametrize("q", TABLE_QS)
def test_table_mul_matches_poly_mulmod(q):
    # every product, by FiniteField.mul and by the log table on element
    # indices, is the schoolbook product reduced by the modulus
    F = field_create(*prime_power(q))
    a, b = (x.ravel() for x in np.indices((q, q)))
    pairs = [(F.element_from_index(i), F.element_from_index(j))
             for i, j in zip(a.tolist(), b.tolist())]
    want = [_product_mod(x, y, F.modulus, F.p) for x, y in pairs]
    assert [F.mul(x, y) for x, y in pairs] == want
    assert field_tables(F)[1](a, b).tolist() == [F.element_index(c) for c in want]


@pytest.mark.parametrize("q", [2, 3, 7, 25, 64, 1031, 2048, 2187, 65536, 65537])
def test_index_exp_log_matches_field_powers(q):
    # exp runs through the powers of a generator g, over F_{p^m} twice and
    # then through zeros, which log 0 points into; every field has one
    # cached pair
    F = field_create(*prime_power(q))
    exp, log = index_exp_log(F)
    assert index_exp_log(field_create(*prime_power(q)))[1] is log
    n = q - 1
    assert exp.size + log.size == exp_log_cells(F)
    assert sorted(exp[:n].tolist()) == list(range(1, q)) and log[exp[:n]].tolist() == list(range(n))
    assert log[0] == 2 * n
    if F.m == 1:
        assert exp.size == n
    else:
        assert (exp[n:2 * n] == exp[:n]).all() and not exp[2 * n:].any()
    g = F.element_from_index(int(exp[1 % n]))
    # every step over F_p and up to q = 1031; a seeded sample of the large
    # extension fields, whose steps are payload products
    ks = range(n) if F.m == 1 or q <= 1031 else random.Random(q).sample(range(n), 500)
    step = [F.element_index(F.mul(F.element_from_index(int(exp[k])), g)) for k in ks]
    assert step == [int(exp[(k + 1) % n]) for k in ks]


@pytest.mark.parametrize("q", [2 ** 27, 5 ** 12])
def test_index_exp_log_refuses_past_its_memory_guard(monkeypatch, q):
    # refused before any work: no generator is searched for, nothing cached
    def no_build(F):
        raise AssertionError(f"table of {F.name} built")

    monkeypatch.setattr(domains, "_primitive_element", no_build)
    F = field_create(*prime_power(q))
    with pytest.raises(BudgetExceeded, match=f"{exp_log_cells(F)} cells, over its memory guard"):
        index_exp_log(F)
    assert (F.p, F.m) not in domains._LOG_TABLES


# ---------------------------------------------------------------------------
# arithmetic spot checks


def test_prime_field_arith():
    F = field_create(5)
    assert F.add(2, 3) == 0
    F7 = field_create(7)
    assert F7.div(3, 5) == 2  # 5 * 2 = 10 = 3 mod 7
    # powers are reduced payloads, the first power too
    assert F7.pow(10, 1) == 3 and F7.pow(10, 0) == 1 and F7.pow(10, -1) == 5


F9 = field_create(3, 2)


@pytest.mark.parametrize("base, mul", [
    (3, operator.mul),
    (np.array([2, -3, 5, 0], np.int64), np.multiply),
    (np.array([2 ** 70, -3, 1], dtype=object), np.multiply),
    (MPoly.variable(VarContext(["x", "y"]), QQ, "x") - 2, MPoly.__mul__),
    ((2, 1), F9.mul),
    ((Fraction(1, 2), Fraction(-1, 3)), QQXI.mul),
], ids=["int", "int64", "object", "mpoly", "gf9", "qqxi"])
def test_power_matches_repeated_mul(base, mul):
    for e in range(1, 12):
        want = functools.reduce(mul, [base] * e)
        got = domains.power(base, e, mul)
        assert np.array_equal(got, want) if isinstance(base, np.ndarray) else got == want, e


def _dense_mul(a, b, dom):
    out = [dom.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = dom.add(out[i + j], dom.mul(x, y))
    return out


@pytest.mark.parametrize("dom, u", [
    (QQ, Fraction(1, 2)), (QQXI, QQXI.xi), (field_create(7), 3), (F9, (0, 1)),
], ids=["QQ", "QQxi", "GF7", "GF9"])
def test_poly_gcd_over_fields(dom, u):
    # c * (x + u) and c * (x + u + 1) have the gcd c up to a unit, as the two
    # cofactors differ by 1; the cofactors alone are coprime
    one = dom.one
    c = [u, dom.from_int(2), dom.from_int(-1), one]
    f, g = [u, one], [dom.add(u, one), one]
    got = domains._poly_gcd(_dense_mul(c, f, dom), _dense_mul(c, g, dom), dom)
    lead = dom.inv(got[-1])
    assert [dom.mul(x, lead) for x in got] == c
    assert len(domains._poly_gcd(f, g, dom)) == 1
    assert domains._poly_gcd(c, [], dom) == c and domains._poly_gcd([], [], dom) == []


def test_quadext_arith():
    one_plus = (Fraction(1), Fraction(1))
    one_minus = (Fraction(1), Fraction(-1))
    assert QQXI.mul(one_plus, one_minus) == (Fraction(4), Fraction(0))
    assert QQXI.mul(QQXI.xi, QQXI.xi) == (Fraction(-3), Fraction(0))


def test_quadext_inverse_and_conj():
    a = (Fraction(2, 3), Fraction(-5, 7))
    assert QQXI.mul(a, QQXI.inv(a)) == QQXI.one
    c = QQXI.conj(a)
    prod = QQXI.mul(a, c)
    assert prod[1] == 0 and prod[0] > 0


def test_rationals_canonical():
    a = QQ.div(QQ.from_int(4), QQ.from_int(-6))
    assert a == Fraction(-2, 3)


# Q and Q(xi) payloads against Fraction-only oracles: inputs mix ints, proper
# Fractions and integral Fractions; every result must be exact and canonical
# (an int exactly when integral), never a float or a bool

RATIONALS = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.integers(-50, 50).map(Fraction),
)
EXPONENTS = st.integers(-4, 4)


def _is_canonical(r):
    return type(r) is int or (type(r) is Fraction and r.denominator > 1)


def _xi_mul(a, b):
    return (a[0] * b[0] - 3 * a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _xi_inv(a):
    nrm = a[0] * a[0] + 3 * a[1] * a[1]
    return (a[0] / nrm, -a[1] / nrm)


def _xi_pow(a, e):
    out, base = (Fraction(1), Fraction(0)), (a if e >= 0 else _xi_inv(a))
    for _ in range(abs(e)):
        out = _xi_mul(out, base)
    return out


def _check_q(got, want):
    assert _is_canonical(got) and got == want


def _check_xi(got, want):
    assert type(got) is tuple and len(got) == 2
    for g, w in zip(got, want):
        _check_q(g, w)


@settings(max_examples=300, deadline=None)
@given(RATIONALS, RATIONALS, EXPONENTS, st.lists(RATIONALS, max_size=5))
def test_rational_ops_exact_and_canonical(a, b, e, cs):
    fa, fb = Fraction(a), Fraction(b)
    _check_q(QQ.add(a, b), fa + fb)
    _check_q(QQ.sub(a, b), fa - fb)
    _check_q(QQ.neg(a), -fa)
    _check_q(QQ.mul(a, b), fa * fb)
    if fb:
        _check_q(QQ.inv(b), 1 / fb)
        _check_q(QQ.div(a, b), fa / fb)
    else:
        for op in (lambda: QQ.inv(b), lambda: QQ.div(a, b)):
            with pytest.raises(ZeroDivisionError):
                op()
    if fa or e >= 0:
        _check_q(QQ.pow(a, e), fa ** e)
    else:
        with pytest.raises(ZeroDivisionError):
            QQ.pow(a, e)
    values, scale = QQ.lift(cs)
    assert type(scale) is int and scale >= 1
    assert all(type(v) is int for v in values)
    for v, c in zip(values, cs):
        _check_q(QQ.lower(v, scale), Fraction(c))
        assert Fraction(v, scale) == c


@settings(max_examples=300, deadline=None)
@given(st.tuples(RATIONALS, RATIONALS), st.tuples(RATIONALS, RATIONALS), EXPONENTS,
       st.lists(st.tuples(RATIONALS, RATIONALS), max_size=4))
def test_quadext_ops_exact_and_canonical(a, b, e, cs):
    fa, fb = tuple(map(Fraction, a)), tuple(map(Fraction, b))
    _check_xi(QQXI.add(a, b), (fa[0] + fb[0], fa[1] + fb[1]))
    _check_xi(QQXI.sub(a, b), (fa[0] - fb[0], fa[1] - fb[1]))
    _check_xi(QQXI.neg(a), (-fa[0], -fa[1]))
    _check_xi(QQXI.mul(a, b), _xi_mul(fa, fb))
    if any(fb):
        _check_xi(QQXI.inv(b), _xi_inv(fb))
        _check_xi(QQXI.div(a, b), _xi_mul(fa, _xi_inv(fb)))
    else:
        for op in (lambda: QQXI.inv(b), lambda: QQXI.div(a, b)):
            with pytest.raises(ZeroDivisionError):
                op()
    if any(fa) or e >= 0:
        _check_xi(QQXI.pow(a, e), _xi_pow(fa, e))
    else:
        with pytest.raises(ZeroDivisionError):
            QQXI.pow(a, e)
    _check_xi(QQXI.from_rational(a[0]), (fa[0], 0))
    values, scale = QQXI.lift(cs)
    assert type(scale) is int and scale >= 1
    assert all(type(v) is tuple and type(v[0]) is int and type(v[1]) is int for v in values)
    for v, c in zip(values, cs):
        _check_xi(QQXI.lower(v, scale), tuple(map(Fraction, c)))


# ---------------------------------------------------------------------------
# field axioms (randomized)


@settings(max_examples=1000, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
def test_field_axioms_prime_field(x, y, z):
    F = field_create(13)
    a, b, c = F.from_int(x), F.from_int(y), F.from_int(z)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    if not F.is_zero(a):
        assert F.mul(a, F.inv(a)) == F.one


@settings(max_examples=1000, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_field_axioms_extension_field(i, j, k):
    F = field_create(3, 2)
    a, b, c = (F.element_from_index(t) for t in (i, j, k))
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    if not F.is_zero(a):
        assert F.mul(a, F.inv(a)) == F.one


@settings(max_examples=1000, deadline=None)
@given(
    st.fractions(min_value=-100, max_value=100, max_denominator=1000),
    st.fractions(min_value=-100, max_value=100, max_denominator=1000),
    st.fractions(min_value=-100, max_value=100, max_denominator=1000),
    st.fractions(min_value=-100, max_value=100, max_denominator=1000),
)
def test_field_axioms_quadext(p, q, r, s):
    a, b = (p, q), (r, s)
    assert QQXI.add(a, b) == QQXI.add(b, a)
    assert QQXI.mul(a, b) == QQXI.mul(b, a)
    assert QQXI.sub(QQXI.add(a, b), b) == a
    if not QQXI.is_zero(a):
        assert QQXI.mul(a, QQXI.inv(a)) == QQXI.one


def test_frobenius_fixes_every_element():
    for p, m in PRIME_POWERS_121:
        F = field_create(p, m)
        for a in F.elements():
            assert F.pow(a, F.q) == a, (p, m, a)


# ---------------------------------------------------------------------------
# sqrt(-3)


def test_sqrt_of_minus_three_examples():
    assert sqrt_of_minus_three(field_create(5)) is None
    assert sqrt_of_minus_three(field_create(7)) == 2
    r = sqrt_of_minus_three(field_create(5, 2))
    F25 = field_create(5, 2)
    assert r is not None and F25.mul(r, r) == F25.from_int(-3)
    # past the exhaustive oracle's range, read off the log table
    for p, m in [(2, 11), (3, 7), (7, 4), (5, 5), (5, 6), (2, 16)]:
        F = field_create(p, m)
        r = sqrt_of_minus_three(F)
        assert (r is not None) == minus_three_has_root(p, m), (p, m)
        if r is not None:
            assert F.mul(r, r) == F.from_int(-3)
            assert F.element_index(r) <= F.element_index(F.neg(r))


def test_sqrt_of_minus_three_matches_exhaustive_scan():
    for p, m in PRIME_POWERS_121:
        F = field_create(p, m)
        target = F.from_int(-3)
        roots = [a for a in F.elements() if F.mul(a, a) == target]
        r = sqrt_of_minus_three(F)
        if roots:
            assert r == min(roots, key=F.element_index), (p, m)
        else:
            assert r is None, (p, m)
        # existence criterion: m even, or p = 1 mod 6, or p in {2, 3}
        assert bool(roots) == minus_three_has_root(p, m), (p, m)


def test_sqrt_deterministic_choice():
    F = field_create(13)
    r1 = sqrt_of_minus_three(F)
    r2 = sqrt_of_minus_three(field_create(13))
    assert r1 == r2 == min(r1, (13 - r1) % 13)


# ---------------------------------------------------------------------------
# roots of x^D + 1


def test_root_count_unity_examples():
    assert root_count_unity(field_create(7), 3) == 3
    assert root_count_unity(field_create(5), 3) == 1
    assert root_count_unity(field_create(2), 1) == 1


def test_root_count_unity_gcd_identity():
    for p, m in PRIME_POWERS_121:
        F = field_create(p, m)
        for D in range(1, 16, 2):
            if D % p == 0:
                continue
            assert root_count_unity(F, D) == math.gcd(F.q - 1, D), (p, m, D)


# ---------------------------------------------------------------------------
# element indexing and reduction maps


def test_element_index_roundtrip():
    for p, m in [(7, 1), (3, 2), (2, 5)]:
        F = field_create(p, m)
        for i in range(F.q):
            a = F.element_from_index(i)
            assert F.element_index(a) == i


def test_reduce_rational():
    F = field_create(7)
    assert F.reduce_rational(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7
    with pytest.raises(ZeroDivisionError):
        F.reduce_rational(Fraction(1, 14))


def test_reduce_quadext():
    F = field_create(7)
    xi = sqrt_of_minus_three(F)
    a = F.reduce_quadext((Fraction(1), Fraction(1)))
    assert a == F.add(F.one, xi)
    F5 = field_create(5)
    with pytest.raises(ValueError):
        F5.reduce_quadext((Fraction(0), Fraction(1)))
    # rational part alone reduces fine even where -3 is not a square
    assert F5.reduce_quadext((Fraction(2), Fraction(0))) == 2


def test_reduce_quadext_respects_chosen_root():
    F = field_create(13)
    r = sqrt_of_minus_three(F)
    other = (13 - r) % 13
    a = (Fraction(0), Fraction(1))
    assert F.reduce_quadext(a, xi_image=other) == other


def test_domain_payload_shapes():
    F9 = field_create(3, 2)
    assert F9.zero == (0, 0) and F9.one == (1, 0)
    assert isinstance(field_create(3).one, int)
