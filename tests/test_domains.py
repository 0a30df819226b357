"""Tests for the exact scalar domains: Q, Q(xi), and F_{p^m}."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewplanes.domains import (
    QQ,
    QQXI,
    FiniteField,
    _poly_mulmod,
    exp_log_tables,
    field_create,
    index_exp_log,
    minus_three_has_root,
    prime_power,
    reduce_quadext,
    reduce_rational,
    root_count_unity,
    smallest_irreducible,
    sqrt_of_minus_three,
)

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


@pytest.mark.parametrize("q", TABLE_QS)
def test_table_mul_matches_poly_mulmod(q):
    # F_{p^m} up to the table cap multiplies by exp/log lookups; every
    # product must be the one the polynomial multiplication gives
    F = field_create(*prime_power(q))
    assert F._log is not None
    els = [F.element_from_index(i) for i in range(q)]
    for a in els:
        for b in els:
            assert F.mul(a, b) == F._pad(_poly_mulmod(a, b, F.modulus, F.p)), (a, b)


def test_exp_log_tables_shared_and_capped():
    F, G = field_create(2, 5), field_create(2, 5)
    assert F._exp is G._exp and F._log is G._log
    exp, log = exp_log_tables(F)
    assert len(exp) == len(set(exp)) == 31 and exp[1] == (0, 1, 0, 0, 0)
    assert all(log[x] == k for k, x in enumerate(exp))
    big = field_create(2, 11)  # above the cap, mul keeps _poly_mulmod
    assert big._log is None
    a, b = big.element_from_index(1234), big.element_from_index(777)
    assert big.mul(a, b) == big._pad(_poly_mulmod(a, b, big.modulus, 2))
    with pytest.raises(ValueError, match="q <= 1024"):
        exp_log_tables(big)


@pytest.mark.parametrize("q", [2, 3, 7, 25, 64, 1031, 65537])
def test_index_exp_log_matches_field_powers(q):
    # prime fields get index arrays past the table cap; every field uses the
    # primitive element of exp_log_tables
    F = field_create(*prime_power(q))
    exp, log = index_exp_log(F)
    assert index_exp_log(F)[1] is log
    assert sorted(exp.tolist()) == list(range(1, q)) and log[exp].tolist() == list(range(q - 1))
    g = F.element_from_index(int(exp[1 % (q - 1)]))
    step = [F.element_index(F.mul(F.element_from_index(x), g)) for x in exp.tolist()]
    assert step == exp[1:].tolist() + exp[:1].tolist()
    if q <= 1024:
        assert exp.tolist() == [F.element_index(x) for x in exp_log_tables(F)[0]]


# ---------------------------------------------------------------------------
# arithmetic spot checks


def test_prime_field_arith():
    F = field_create(5)
    assert F.add(2, 3) == 0
    F7 = field_create(7)
    assert F7.div(3, 5) == 2  # 5 * 2 = 10 = 3 mod 7


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
    assert reduce_rational(F, Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7
    with pytest.raises(ZeroDivisionError):
        reduce_rational(F, Fraction(1, 14))


def test_reduce_quadext():
    F = field_create(7)
    xi = sqrt_of_minus_three(F)
    a = reduce_quadext(F, (Fraction(1), Fraction(1)))
    assert a == F.add(F.one, xi)
    F5 = field_create(5)
    with pytest.raises(ValueError):
        reduce_quadext(F5, (Fraction(0), Fraction(1)))
    # rational part alone reduces fine even where -3 is not a square
    assert reduce_quadext(F5, (Fraction(2), Fraction(0))) == 2


def test_reduce_quadext_respects_chosen_root():
    F = field_create(13)
    r = sqrt_of_minus_three(F)
    other = (13 - r) % 13
    a = (Fraction(0), Fraction(1))
    assert reduce_quadext(F, a, xi_image=other) == other


def test_domain_payload_shapes():
    F9 = field_create(3, 2)
    assert F9.zero == (0, 0) and F9.one == (1, 0)
    assert isinstance(field_create(3).one, int)
