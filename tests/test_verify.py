"""Tests for the symbolic and sampled verification checks."""

import random
import sys
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import skewplanes.count as count_mod
import skewplanes.families as families_mod
import skewplanes.kernels as kernels_mod
import skewplanes.mpoly as mpoly_mod
import skewplanes.verify as verify_mod
from skewplanes.cli import main
from skewplanes.count import DEFAULT_BUDGET, YChartZeros, count_zeros, enumerate_projective
from skewplanes.domains import QQ, QQXI, field_create
from skewplanes.families import (
    _vars,
    ab_form,
    build_ab,
    build_char_two_maps,
    build_cox_model,
    build_cremona,
    build_h,
    build_line_pencil,
    build_phibar,
    build_theta,
    build_x,
    build_alpha_beta,
    build_phitilde,
    char_two_form,
    h_form,
    pencil_factors,
    pencil_point,
    phibar_blocks,
    phibar_form,
    sd_form,
    theta_form,
    u_context,
    x_context,
    x_form,
)
from skewplanes.mpoly import MPoly, RationalMap, VarContext, compose
from skewplanes.reporting import BudgetExceeded, strip_timing
from skewplanes.kernels import FieldArray, proportional_rows
from skewplanes.verify import (
    CHECKS,
    _plane_conditions,
    _plane_minor,
    _residual_witness,
    _roundtrip_cost,
    _sample_ranks,
    _v_coordinates,
    _values,
    run_all_checks,
    verify_composition,
    verify_composition_numeric,
    verify_cox_grading,
    verify_galois_symmetry,
    verify_line_factorization,
    verify_linear_system_dim,
    verify_membership,
    verify_singular_locus,
)


# ---------------------------------------------------------------------------
# line factorization


def test_line_factorization_budget(monkeypatch):
    # the block certificate is charged as membership is, from d alone:
    # C(7, 3) = 35 for g_3 at phibar's block pair, or C(2d + 3, 2) for a block
    # of ab_form, 55 at d = 4.  The exact charge admits it, and one unit less
    # refuses it before anything is built
    sizes = [(4, 1, 4, 4, 35), (1, 4, 9, 3, 55)]
    for n, d, _, _, cost in sizes:
        assert CHECKS["line_factorization"].run(n, d, 0, cost).passed
    _refuse_builders(monkeypatch)
    for n, d, degree, nvars, cost in sizes:
        with pytest.raises(BudgetExceeded, match=rf"^line_factorization: identity of degree "
                                                 rf"{degree} in {nvars} variables has up to "
                                                 rf"{cost} monomials, over budget {cost - 1}$"):
            CHECKS["line_factorization"].run(n, d, 0, cost - 1)


def _pencil_expands_to_target(n, d):
    """The expansion oracle: X along the pencil's lines equals the target."""
    data = build_line_pencil(n, d)
    return data["F"] == data["target"]


@pytest.mark.parametrize("n, d", [(1, 1), (1, 2), (2, 1), (2, 2), (4, 1), (1, 4), (3, 3)])
def test_line_factorization_grid(n, d):
    # the certificate passes where the expansion oracle does
    r = verify_line_factorization(n, d)
    assert r.passed and _pencil_expands_to_target(n, d)
    assert (r.mode, r.params, r.witness) == ("symbolic", {"n": n, "d": d}, None)


@pytest.mark.parametrize("n, d", [(6, 6), (100, 1)])
def test_line_factorization_certificate_passes_past_the_expansion(n, d):
    # the expansion took about 25 ms at (6, 6) and 0.24 s at (100, 1)
    t0 = time.perf_counter()
    assert CHECKS["line_factorization"].run(n, d, 0, DEFAULT_BUDGET).passed
    assert time.perf_counter() - t0 < 0.1


def _phibar_blocks_with(entry, value):
    """phibar_blocks with its component `entry` replaced by
    value(components, u, A, B)."""
    def blocks(u, A, B, half):
        comps = phibar_blocks(u, A, B, half)
        comps[entry] = value(comps, u, A, B)
        return comps
    return blocks


def _pencil_point_minus_beta(lam, xi):
    """pencil_point with beta's sign flipped."""
    A, B = pencil_point(lam, xi)
    return A, -B


def _pencil_point_plus_one(lam, xi):
    """pencil_point with beta = xi(2 lam + 1)/3."""
    A, B = pencil_point(lam, xi)
    return A, B + (2 * xi).scale(QQXI.from_rational(Fraction(1, 3)))


def _pencil_factors_without_xi(lam, xi, A, B):
    """pencil_factors with (A - xi B)/2 - lam A for its second factor."""
    norm, _ = pencil_factors(lam, xi, A, B)
    return norm, (A - xi * B).scale(QQXI.from_rational(Fraction(1, 2))) - lam * A


def _pencil_factors_three_to_the_d(lam, xi, A, B):
    """pencil_factors with the norm 3 lam (lam - 1), so the target's
    (-3)^d becomes 3^d."""
    norm, linear = pencil_factors(lam, xi, A, B)
    return -norm, linear


PENCIL_MUTANTS = {
    "beta_sign": ("pencil_point", _pencil_point_minus_beta),
    "beta_constant_sign": ("pencil_point", _pencil_point_plus_one),
    "target_without_xi": ("pencil_factors", _pencil_factors_without_xi),
    # (-3)^d and 3^d agree at even d, so the sizes below have odd d
    "three_to_the_d": ("pencil_factors", _pencil_factors_three_to_the_d),
    # vA - 3wB becomes 2vA - 3wB
    "phibar_entry": ("phibar_blocks",
                     _phibar_blocks_with(1, lambda c, u, A, B: c[1] + u[1] * A)),
}


@pytest.mark.parametrize("mutant", sorted(PENCIL_MUTANTS))
def test_line_factorization_mutants_fail_certificate_and_expansion(monkeypatch, mutant):
    name, mutated = PENCIL_MUTANTS[mutant]
    monkeypatch.setattr(families_mod, name, mutated)
    monkeypatch.setattr(verify_mod, name, mutated)
    for n, d in [(1, 1), (2, 1), (1, 3)]:
        got = CHECKS["line_factorization"].run(n, d, 0, DEFAULT_BUDGET)
        assert not got.passed and got.witness, (mutant, n, d)
        assert not _pencil_expands_to_target(n, d), (mutant, n, d)


# ---------------------------------------------------------------------------
# membership


def test_membership_grid():
    for n, d in [(1, 1), (1, 2), (2, 1)]:
        r = verify_membership(build_phibar(n, d), build_x(n, d))
        assert r.passed, (n, d)


def test_membership_higher_degrees():
    for n, d in [(2, 2), (1, 4)]:
        r = verify_membership(build_phibar(n, d), build_x(n, d))
        assert r.passed, (n, d)


def test_membership_negative_control_witness_text():
    # phibar(2, 2) does not land on the degree-3 hypersurface X(2, 1)
    r = verify_membership(build_phibar(2, 2), build_x(2, 1))
    assert not r.passed
    assert r.witness == {"residual": "494 terms",
                         "leading_term": "((15, 2, 1, 0, 0), Fraction(-18, 1))"}


@pytest.mark.parametrize("n, d_map, d_x", [
    (1, 1, 1), (1, 2, 2), (1, 3, 3), (2, 1, 1), (2, 2, 2), (1, 2, 1), (1, 1, 2), (2, 2, 1)])
def test_membership_form_route_matches_substitution(n, d_map, d_x):
    # x_form at phibar_form is the residual that substituting phibar into X
    # expands: the same witness, passing or not
    u = [MPoly.variable(u_context(n), QQ, nm) for nm in u_context(n).names]
    comps = phibar_form(u, d_map, lambda p: p.scale(Fraction(1, 2)))
    want = verify_membership(build_phibar(n, d_map), build_x(n, d_x))
    assert _residual_witness(("residual", x_form(comps, d_x))) == want.witness
    assert (want.passed, len(comps)) == (d_map == d_x, 2 * n + 2)


@pytest.mark.parametrize("n, d", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 1)])
def test_membership_certificate_matches_expansion(n, d):
    # the expansion oracle: substituting phibar into X
    want = verify_membership(build_phibar(n, d), build_x(n, d))
    got = CHECKS["membership"].run(n, d, 0, DEFAULT_BUDGET)
    assert want.passed and strip_timing(got.as_dict()) == strip_timing(want.as_dict())


@pytest.mark.parametrize("n, d", [(3, 3), (6, 6), (100, 1)])
def test_membership_certificate_passes_past_the_expansion(n, d):
    # the expansion took about 5 s at (3, 3) and was refused at (6, 6)
    t0 = time.perf_counter()
    r = CHECKS["membership"].run(n, d, 0, DEFAULT_BUDGET)
    assert r.passed and r.params == {"map": "phibar", "components": 2 * n + 2}
    assert time.perf_counter() - t0 < 0.1


def _ab_form_b_plus_w(u, d):
    """ab_form with (v + w) for (v - w) in B's block term."""
    A, B = ab_form(u, d)
    for v, w in zip(u[1::2], u[2::2]):
        B = B + 2 * w * (v * v + 3 * (w * w)) ** d
    return A, B


def _alternating_middle_plus(a, b, k):
    """g_3 with its middle sign flipped: a^2 + ab + b^2."""
    assert k == 3
    return (a + b) * a + b * b


MEMBERSHIP_MUTANTS = {
    # a coefficient: vA - 3wB becomes 2vA - 3wB
    "phibar_coefficient": ("phibar_blocks",
                           _phibar_blocks_with(1, lambda c, u, A, B: c[1] + u[1] * A)),
    "ab_block_v_plus_w": ("ab_form", _ab_form_b_plus_w),
    "g3_middle_sign": ("_alternating", _alternating_middle_plus),
    # u0(A - 3B)/2 loses its halving
    "u0_pair_unhalved": ("phibar_blocks",
                         _phibar_blocks_with(-2, lambda c, u, A, B: u[0] * (A - 3 * B))),
}


@pytest.mark.parametrize("mutant", sorted(MEMBERSHIP_MUTANTS))
def test_membership_mutants_fail_certificate_and_expansion(monkeypatch, mutant):
    name, mutated = MEMBERSHIP_MUTANTS[mutant]
    monkeypatch.setattr(families_mod, name, mutated)
    monkeypatch.setattr(verify_mod, name, mutated)
    for n, d in [(1, 1), (1, 2), (2, 1)]:
        got = CHECKS["membership"].run(n, d, 0, DEFAULT_BUDGET)
        assert not got.passed and got.witness, (mutant, n, d)
        assert not verify_membership(build_phibar(n, d), build_x(n, d)).passed, (mutant, n, d)


def test_form_checks_substitute_nothing(monkeypatch):
    # membership, composition_on_x, galois and cox_grading evaluate the
    # family forms: no substitution, composition or division, and neither
    # phibar nor X is built
    def refuse(*args, **kwargs):
        raise AssertionError("substituted, divided or built")
    monkeypatch.setattr(MPoly, "substitute", refuse)
    monkeypatch.setattr(MPoly, "try_div", refuse)
    for module, name in [(verify_mod, "compose"), (mpoly_mod, "compose"),
                         (families_mod, "build_x"), (families_mod, "build_phibar")]:
        monkeypatch.setattr(module, name, refuse)
    for name in ("membership", "composition_on_x", "galois", "galois_generalized",
                 "cox_grading"):
        assert CHECKS[name].run(2, 2, 0, DEFAULT_BUDGET).passed, name


def test_membership_budget():
    # the residual of phibar(1, 1) into X(1, 1) has degree 3 * 4 in 3
    # variables: C(14, 2) = 91 dense monomials
    phibar, X = build_phibar(1, 1), build_x(1, 1)
    assert verify_membership(phibar, X, budget=91).passed
    with pytest.raises(BudgetExceeded, match="91 monomials"):
        verify_membership(phibar, X, budget=90)


def _refuse_builders(monkeypatch):
    # a refused check must build nothing: every builder it could call raises
    def refuse(*args, **kwargs):
        raise AssertionError("built before the charge")
    for name in ("build_cremona", "build_alpha_beta", "build_cox_model", "_v_coordinates",
                 "_vars", "ab_form", "_alternating", "phibar_form", "phibar_blocks",
                 "pencil_point", "pencil_factors", "theta_form", "h_form", "char_two_form",
                 "sd_form"):
        monkeypatch.setattr(verify_mod, name, refuse)


@pytest.fixture
def no_builders(monkeypatch):
    _refuse_builders(monkeypatch)


@pytest.mark.parametrize("n, d, degree, nvars, cost", [
    (1, 1, 4, 4, 35), (100, 1, 4, 4, 35), (6, 6, 13, 3, 105), (1000, 1000, 2001, 3, 2005003)])
def test_membership_check_charges_before_building(monkeypatch, capsys, n, d, degree, nvars,
                                                  cost):
    # the certificate is charged the dense monomials of its largest
    # polynomial, from d alone: g_3 at phibar's block pair, of degree 4 in
    # (A, B, v, w), C(7, 3) = 35, or a block of ab_form, of degree 2d + 1 in
    # (u0, v, w), C(2d + 3, 2).  Its exact charge admits it, and one unit less
    # refuses it before anything is built
    assert CHECKS["membership"].run(n, d, 0, cost).passed
    _refuse_builders(monkeypatch)
    with pytest.raises(BudgetExceeded, match=rf"^membership: identity of degree {degree} in "
                                             rf"{nvars} variables has up to {cost} monomials, "
                                             rf"over budget {cost - 1}$"):
        CHECKS["membership"].run(n, d, 0, cost - 1)
    assert main(["verify", "--check", "membership", "--n", str(n), "--d", str(d),
                 "--budget", str(cost - 1)]) == 4
    assert f"up to {cost} monomials" in capsys.readouterr().err


def test_membership_negative_control_perturbed_coefficient():
    # adding 1 to a single coefficient of the hypersurface must break the
    # membership identity
    n, d = 1, 1
    X = build_x(n, d)
    exps = next(iter(X.terms))
    bad = X + MPoly(X.ctx, QQ, {exps: QQ.one})
    r = verify_membership(build_phibar(n, d), bad)
    assert not r.passed
    assert r.witness is not None


def test_membership_arity_mismatch_is_failure_not_exception():
    # theta maps to 2n+1 coordinates; X lives in 2n+2: must fail gracefully
    r = verify_membership(build_theta(1), build_x(1, 1))
    assert not r.passed
    assert r.witness is not None


# ---------------------------------------------------------------------------
# compositions


def test_cremona_composition_scalar():
    cr, cri = build_cremona()
    r = verify_composition(cr, cri)
    assert r.passed and r.params["scalar_degree"] == 3
    r2 = verify_composition(cri, cr)
    assert r2.passed


def test_alpha_beta_composition_scalar():
    alpha, beta = build_alpha_beta(2)
    r = verify_composition(alpha, beta)
    assert r.passed and r.params["scalar_degree"] == 5
    a1, b1 = build_alpha_beta(1)
    r1 = verify_composition(a1, b1)
    assert r1.passed and r1.params["scalar_degree"] == 3


def _h_theta(n):
    return compose(build_h(n), build_theta(n))


def _composition_modulo(f, g, modulo):
    """The expansion oracle of composition_on_x: g∘f is proportional to the
    identity on the hypersurface `modulo`, each cross minor
    c_i v_j - c_j v_i of the composite being an exact multiple of it.
    Division by one polynomial is exact, so a minor it does not divide is
    outside the ideal of the hypersurface and fails."""
    t0 = time.perf_counter()
    params = {"f": f.name, "g": g.name}
    c = compose(g, f).components
    vs = _vars(f.ctx, f.dom)
    for i, j in combinations(range(len(vs)), 2):
        minor = c[i] * vs[j] - c[j] * vs[i]
        if not minor.is_zero() and minor.try_div(modulo) is None:
            witness = {"reason": f"minor ({i},{j}) is not a multiple of the hypersurface"}
            return verify_mod._done("composition", params, witness, t0)
    params["modulo_degree"] = modulo.total_degree()
    return verify_mod._done("composition", params, None, t0)


def _inverse_on_x_by_expansion(n, d):
    return _composition_modulo(_h_theta(n), build_phibar(n, d), build_x(n, d))


def test_composition_on_x_modulo_ideal():
    n, d = 1, 1
    r = _composition_modulo(_h_theta(n), build_phibar(n, d), build_x(n, d))
    assert r.passed
    assert r.params.get("modulo_degree") == 2 * d + 1


def test_composition_on_x_wrong_hypersurface_fails():
    # phibar(1, 2) inverts h.theta on X(1, 2), not on X(1, 1); a minor that
    # X(1, 1) does not divide is a failure, not a cue to sample
    r = _composition_modulo(_h_theta(1), build_phibar(1, 2), build_x(1, 1))
    assert not r.passed and r.mode == "symbolic"
    assert r.witness == {"reason": "minor (0,1) is not a multiple of the hypersurface"}


def _support(p):
    """The indices of the variables that p reads."""
    return {i for e in p.terms for i, k in enumerate(e) if k}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_h_theta_forms_match_composition(n):
    # what the certificate rests on: h_form at theta_form is h∘theta, its
    # head reads only the last pair (s, t), and its block k reads only the
    # pair k and (s, t) and is the one-block image with those renamed
    x = _vars(x_context(n), QQ)
    image = h_form(theta_form(x))
    assert image == list(compose(build_h(n), build_theta(n)).components)
    one = h_form(theta_form(_vars(x_context(1), QQ)))
    last = {2 * n, 2 * n + 1}
    assert _support(image[0]) == last
    assert image[0] == one[0].substitute({"x2": x[2 * n], "x3": x[2 * n + 1]})
    for k in range(n):
        rename = {"x0": x[2 * k], "x1": x[2 * k + 1], "x2": x[2 * n], "x3": x[2 * n + 1]}
        for p, q in zip(image[1 + 2 * k:3 + 2 * k], one[1:]):
            assert _support(p) <= {2 * k, 2 * k + 1} | last, (n, k)
            assert p == q.substitute(rename), (n, k)


@pytest.mark.parametrize("n, d", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (2, 3)])
def test_composition_on_x_certificate_matches_expansion(n, d):
    want = _inverse_on_x_by_expansion(n, d)
    got = CHECKS["composition_on_x"].run(n, d, 0, DEFAULT_BUDGET)
    assert want.passed and strip_timing(got.as_dict()) == strip_timing(want.as_dict())


def _h_form_plus(u):
    """h_form with 2a + b for 2a - b in each block."""
    comps = h_form(u)
    for i in range(1, len(comps), 2):
        comps[i] = comps[i] + 2 * comps[i + 1]
    return comps


def _theta_form_plus_at(x):
    """theta_form with as + at + bt for as - at + bt in each block."""
    comps = theta_form(x)
    for i, a in enumerate(x[:-2:2]):
        comps[2 * i] = comps[2 * i] + 2 * (a * x[-1])
    return comps


def _theta_form_last_plus(x):
    """theta_form with s^2 + st + t^2 for its last entry."""
    comps = theta_form(x)
    comps[-1] = comps[-1] + 2 * (x[-2] * x[-1])
    return comps


INVERSE_MUTANTS = {
    # (families name, mutant, the label of the certificate's witness)
    "h_form_2a_plus_b": ("h_form", _h_form_plus, "norm"),
    "theta_plus_at": ("theta_form", _theta_form_plus_at, "norm"),
    "theta_last_plus_st": ("theta_form", _theta_form_last_plus, "head"),
    # vA - 3wB becomes 2vA - 3wB
    "phibar_entry": ("phibar_blocks",
                     _phibar_blocks_with(1, lambda c, u, A, B: c[1] + u[1] * A), "block_sum"),
}


@pytest.mark.parametrize("mutant", sorted(INVERSE_MUTANTS))
def test_composition_on_x_mutants_fail_certificate_and_expansion(monkeypatch, mutant):
    name, mutated, label = INVERSE_MUTANTS[mutant]
    monkeypatch.setattr(families_mod, name, mutated)
    monkeypatch.setattr(verify_mod, name, mutated)
    for n, d in [(1, 1), (2, 1), (1, 2)]:
        got = CHECKS["composition_on_x"].run(n, d, 0, DEFAULT_BUDGET)
        assert not got.passed and label in got.witness, (mutant, n, d)
        assert not _inverse_on_x_by_expansion(n, d).passed, (mutant, n, d)


THETA = ("theta", theta_form)
H_THETA = ("h.theta", lambda x: h_form(theta_form(x)))


def _phibar_then(g, n, d, q):
    """(f, g, F_q, nvars) for phibar(n, d), halved by 1/2 in F_q, then g."""
    half = (q + 1) // 2
    return (("phibar", lambda u: phibar_form(u, d, lambda v: v * half)), g,
            field_create(q), 2 * n + 1)


def test_composition_numeric_roundtrip():
    r = verify_composition_numeric(*_phibar_then(H_THETA, 1, 1, 1009), seed=42)
    assert r.passed
    assert r.params["skips"] < 10
    # determinism: identical seeds give identical reports modulo timing
    r2 = verify_composition_numeric(*_phibar_then(H_THETA, 1, 1, 1009), seed=42)
    assert strip_timing(r.as_dict()) == strip_timing(r2.as_dict())


def test_composition_numeric_char_two():
    r = verify_composition_numeric(("g", lambda u: char_two_form(u, 1)[2]), THETA,
                                   field_create(2, 5), 3, seed=42)
    assert r.passed
    assert r.params["skips"] < 10


# outputs of the per-point evaluator the array evaluator replaced:
# (maps, trials, seed, passed, skips, checked, witness), the trials set as
# ROUNDTRIP_TRIALS
PINNED_NUMERIC = {
    "phibar-theta-F1009": (
        lambda: _phibar_then(THETA, 1, 1, 1009), 100, 3,
        False, 0, None, {"point": ["243", "606", "557"], "image": ["608", "598", "29"]}),
    "phibar-theta-F5": (
        lambda: _phibar_then(THETA, 1, 1, 5), 40, 1,
        False, 1, None, {"point": ["2", "0", "3"], "image": ["1", "2", "4"]}),
    "h-h-F32": (
        lambda: (("h", h_form), ("h", h_form), field_create(2, 5), 3), 50, 7,
        False, 0, None,
        {"point": ["(0, 0, 1, 0, 1)", "(1, 0, 0, 1, 0)", "(1, 0, 0, 1, 1)"],
         "image": ["(0, 0, 0, 0, 0)", "(1, 0, 0, 1, 0)", "(1, 0, 0, 1, 0)"]}),
    "phibar-htheta-F7": (
        lambda: _phibar_then(H_THETA, 1, 1, 7), 30, 3,
        True, 5, 25, None),
    "phibar2-htheta-F5": (
        lambda: _phibar_then(H_THETA, 2, 1, 5), 40, 11,
        True, 13, 27, None),
}


@pytest.mark.parametrize("case", PINNED_NUMERIC)
def test_composition_numeric_pinned(monkeypatch, case):
    maps, trials, seed, passed, skips, checked, witness = PINNED_NUMERIC[case]
    monkeypatch.setattr(verify_mod, "ROUNDTRIP_TRIALS", trials)
    r = verify_composition_numeric(*maps(), seed=seed)
    assert r.params["trials"] == trials
    assert r.passed is passed
    assert r.params["skips"] == skips
    assert r.params.get("checked") == checked
    assert r.witness == witness


@pytest.mark.parametrize("p, m", [(7, 1), (1009, 1), (3, 2), (2, 5)])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_forms_on_field_arrays_match_expanded_maps(p, m, n, d):
    # each form on FieldArray columns against its MPoly, reduced into F and
    # evaluated term by term by kernels.system_values.  With the identity
    # for half, phibar is its components with the halved ones doubled, which
    # is defined in characteristic 2 too.  Off characteristic 2, P, Q and g
    # are char_two_form on the variables over Q, having no builder there
    F = field_create(p, m)
    pts = np.random.default_rng(100 * n + d).integers(0, F.q, (20, 2 * n + 2))
    x, u = FieldArray.columns(F, pts), FieldArray.columns(F, pts[:, 1:])
    phibar = build_phibar(n, d).components
    doubled = [c.scale(Fraction(2)) if i % 2 == 0 else c for i, c in enumerate(phibar)]
    if p == 2:
        maps = build_char_two_maps(n, d, F)
        P, Q, g = maps["P"], maps["Q"], maps["g"].components
    else:
        P, Q, g = char_two_form(_vars(u_context(n), QQ), d)
    Pv, Qv, gv = char_two_form(u, d)
    cases = [(theta_form(x), build_theta(n).components, pts),
             (h_form(u), build_h(n).components, pts[:, 1:]),
             (phibar_form(u, d, lambda v: v), doubled, pts[:, 1:]),
             ([Pv, Qv, *gv], [P, Q, *g], pts[:, 1:])]
    if p != 2:
        half = (p + 1) // 2
        cases.append((phibar_form(u, d, lambda v: v * half), phibar, pts[:, 1:]))
    for got, polys, at in cases:
        assert np.stack([v.idx for v in got], axis=1).tolist() == _values(polys, F, at).tolist()


def test_composition_detects_wrong_pair():
    cr, cri = build_cremona()
    r = verify_composition(cr, cr)  # cr is not its own inverse
    assert not r.passed


# ---------------------------------------------------------------------------
# singular locus


def test_singular_locus_samples():
    for d in (1, 2):
        r = verify_singular_locus(2, d, samples=20, seed=0)
        assert r.passed, (d, r.witness)
        assert r.params["samples"] == 20
        assert r.params["generic_pool"] > 0


def _first_chart_walk(F, A, B, N):
    """The zeros of A and B with first coordinate 1, by a pointwise walk of
    `enumerate_projective` through `MPoly.evaluate`, as rows of indices."""
    walk = []
    for pt in enumerate_projective(F, N):
        if pt[0] == F.zero:
            break
        if A.evaluate(pt) == F.zero and B.evaluate(pt) == F.zero:
            walk.append([F.element_index(c) for c in pt])
    return walk


def _first_chart_scan(F, polys):
    """The zeros of the polynomials with first coordinate 1, as rows of
    indices, by one vectorized scan of that whole chart."""
    systems = [list(count_mod.reduce_poly(f, F).terms.items()) for f in polys]
    nvars = polys[0].ctx.nvars
    pts = kernels_mod._line_points(F.q, nvars, 0, F.q ** (nvars - 1))
    ok = np.ones(len(pts), bool)
    for vals in kernels_mod.system_values(F, systems, pts):
        ok &= vals == 0
    return pts[ok].tolist()


@pytest.mark.parametrize("p, m, ns", [(7, 1, (1, 2)), (13, 1, (1, 2)), (2, 3, (1, 2)),
                                      (3, 2, (1, 2)), (5, 2, (1,)), (5, 1, (3,)),
                                      (2, 2, (3,))])
@pytest.mark.parametrize("d", [1, 2])
def test_singular_locus_generic_pool_matches_pointwise_walk(p, m, ns, d):
    # the samples are drawn by rank, so unranking every rank must give the
    # walk of u0 = 1 in content and order for the sample to stay the scan's
    F = field_create(p, m)
    for n in ns:
        A, B = build_ab(n, d, F)
        walk = _first_chart_walk(F, A, B, 2 * n)
        generic = YChartZeros(n, d, F)
        assert generic.pool == len(walk)
        assert generic.unrank(range(generic.pool)).tolist() == walk
        if n >= 2 and m == 1 and p % 3 == 1:
            r = verify_singular_locus(n, d, generic_field=p)
            assert r.passed and r.params["generic_pool"] == len(walk), r.witness


@pytest.mark.parametrize("q,n,d", [(7, 2, 1), (7, 2, 2), (7, 3, 1), (13, 2, 1), (13, 2, 3)])
def test_singular_locus_sample_is_rng_sample_of_scan_pool(monkeypatch, q, n, d):
    # the scan's list of generic points, sampled as the check sampled it
    F = field_create(q)
    A, B = build_ab(n, d, QQ)
    pool = _first_chart_scan(F, [A, B])
    generic = YChartZeros(n, d, F)
    assert generic.pool == len(pool)
    seen = []

    def spy(F, a, b):
        seen.append(a)
        return proportional_rows(F, a, b)
    monkeypatch.setattr(verify_mod, "proportional_rows", spy)
    for seed in (0, 1, 5, 42):
        sample = random.Random(seed).sample(pool, 20)
        assert generic.unrank(_sample_ranks(random.Random(seed), len(pool), 20)).tolist() \
            == sample
        seen.clear()
        r = verify_singular_locus(n, d, samples=20, seed=seed, generic_field=q)
        assert r.passed, r.witness
        grad = _values([A.partial(nm) for nm in A.ctx.names], F, np.array(sample, np.int64))
        assert seen[0].tolist() == grad.tolist()


def test_singular_locus_witness_is_the_scan_samples_point(monkeypatch):
    # a failing sample names the point rng.sample drew from the scan's pool
    F = field_create(7)
    A, B = build_ab(2, 2, QQ)
    pool = [[F.element_from_index(i) for i in pt] for pt in _first_chart_scan(F, [A, B])]

    def flag_third(F, a, b):
        flat = proportional_rows(F, a, b)
        flat[2] = True
        return flat
    monkeypatch.setattr(verify_mod, "proportional_rows", flag_third)
    for seed in (1, 5, 42):
        r = verify_singular_locus(2, 2, seed=seed, generic_field=7)
        point = random.Random(seed).sample(pool, 50)[2]
        assert r.witness == {"reason": "all minors vanish at a generic point of Y",
                             "point": [str(c) for c in point]}


@pytest.mark.parametrize("n, d", [(2, 1), (2, 2), (3, 1)])
def test_singular_locus_samples_the_rational_partials(monkeypatch, n, d):
    # the generic points are read on the partials over Q; only the planes
    # need xi
    domains = []

    def spy(f, F):
        domains.append(f.dom)
        return count_mod.reduce_poly(f, F)
    monkeypatch.setattr(verify_mod, "reduce_poly", spy)
    assert verify_singular_locus(n, d).passed
    assert len(domains) == 2 * (2 * n + 1) and all(dom is QQ for dom in domains)


def _distinct_draws(seed, pool, k):
    """rng.randrange(pool) until k distinct values, in order of first draw."""
    rng = random.Random(seed)
    picked = []
    while len(picked) < k:
        j = rng.randrange(pool)
        if j not in picked:
            picked.append(j)
    return picked


def test_sample_ranks_past_the_ssize_range():
    # rng.sample of a large population repeats distinct draws of randrange:
    # that is rng.sample below sys.maxsize, and _sample_ranks past it
    for seed in (0, 3):
        assert random.Random(seed).sample(range(sys.maxsize), 30) == \
            _distinct_draws(seed, sys.maxsize, 30) == \
            _sample_ranks(random.Random(seed), sys.maxsize, 30)
        for pool in (sys.maxsize + 1, 10 ** 30):
            assert _sample_ranks(random.Random(seed), pool, 30) == _distinct_draws(seed, pool, 30)


def _pool_from_counts(n, F):
    """count(Y) - count(Y with u0 = 0), both from the block engine."""
    A, B = build_ab(n, 1, F)
    tctx = VarContext(A.ctx.names[1:])
    sub = {nm: MPoly.variable(tctx, F, nm) for nm in tctx.names}
    sub["u0"] = MPoly.zero(tctx, F)
    return count_zeros([A, B], F) - count_zeros([A.substitute(sub), B.substitute(sub)], F)


@pytest.mark.parametrize("n", [4, 9])
def test_first_chart_zeros_at_large_n(n):
    # at n = 9, 13^18 passes 2^63 and the counts are Python ints
    F = field_create(13)
    A, B = build_ab(n, 1, QQ)
    generic = YChartZeros(n, 1, F)
    assert generic.pool == _pool_from_counts(n, F)
    if n == 4:
        assert generic.pool == 5079360
    ranks = sorted({0, 1, generic.pool // 3, generic.pool // 2, generic.pool - 1})
    pts = generic.unrank(ranks)
    assert not _values([A, B], F, pts).any() and (pts[:, 0] == 1).all()
    assert [tuple(p) for p in pts.tolist()] == sorted(set(tuple(p) for p in pts.tolist()))


@pytest.mark.parametrize("samples", [0, -3])
def test_singular_locus_refuses_no_samples(samples):
    with pytest.raises(ValueError, match=rf"samples >= 1, got {samples}"):
        verify_singular_locus(2, 1, samples=samples)


def test_singular_locus_rejects_n1():
    with pytest.raises(ValueError):
        verify_singular_locus(1, 1)


def test_singular_locus_rejects_field_without_xi():
    # -3 is not a square mod 11, so F_11 has no xi
    with pytest.raises(ValueError, match=r"GF\(11\)"):
        verify_singular_locus(2, 1, generic_field=11)


@pytest.mark.parametrize("p", [2, 3])
def test_singular_locus_rejects_characteristic_two_and_three(p):
    # x^2 + 3 has a double root there, so xi = -xi
    with pytest.raises(ValueError, match=rf"GF\({p}\)"):
        verify_singular_locus(2, 1, generic_field=p)


def _jacobian_rows(n, d):
    A, B = build_ab(n, d, QQ)
    return ([P.partial(nm).map_domain(QQXI, QQXI.from_rational) for nm in A.ctx.names]
            for P in (A, B))


def test_plane_minor_mixed_signs_negative_control():
    # at d = 1 only the two conjugate planes are singular
    pa, pb = _jacobian_rows(2, 1)
    assert _plane_minor(pa, pb, (1, 1)) is None
    assert _plane_minor(pa, pb, (-1, -1)) is None
    assert _plane_minor(pa, pb, (1, -1)) == (1, 3)
    assert _plane_minor(pa, pb, (-1, 1)) is not None


@pytest.mark.parametrize("d, planes", [
    (1, [(1, 1), (-1, -1)]),
    (2, [(1, 1), (1, -1), (-1, 1), (-1, -1)]),
])
def test_singular_locus_checks_every_plane(monkeypatch, d, planes):
    seen = []

    def spy(pa, pb, signs):
        seen.append(tuple(signs))
        return _plane_minor(pa, pb, signs)
    monkeypatch.setattr(verify_mod, "_plane_minor", spy)
    r = verify_singular_locus(2, d)
    assert r.passed, r.witness
    assert seen == planes


def test_singular_locus_witness_names_plane_and_minor(monkeypatch):
    # Y at d = 1 is singular only on the conjugate pair, so checking it on
    # every plane, as for d > 1, fails at the first mixed sign pattern
    monkeypatch.setattr(verify_mod, "build_ab", lambda n, d, dom: build_ab(n, 1, dom))
    r = verify_singular_locus(2, 2)
    assert not r.passed
    assert r.witness == {"reason": "nonzero minor on the singular locus",
                         "signs": [1, -1], "minor": [1, 3]}


def test_singular_locus_charges_budget_before_any_work(monkeypatch):
    def locus_half(*args):
        raise AssertionError("locus half ran")
    monkeypatch.setattr(verify_mod, "_plane_minor", locus_half)
    # at (2, 1) the partials of A and of B have 1, 3, 3, 3, 3 terms: on each
    # of the two planes 13 * 13 - 37 products over the ten minors and 26
    # substituted terms; two pair blocks of 169 points, one 169-cell
    # histogram, no convolution, and 169 + 50 * 338 unranking cells
    with pytest.raises(BudgetExceeded, match=r"316 coefficient products on the planes and "
                                             r"17576 sampler cells over GF\(13\) cost 17892, "
                                             r"over budget 17891"):
        verify_singular_locus(2, 1, budget=17891)
    # 2^40 planes at d = 2, where the partials have 1 and 80 * 5 terms
    with pytest.raises(BudgetExceeded, match=rf"^singular_locus: {2 ** 40 * (401 ** 2 - 2001 + 802)} "
                                             "coefficient products"):
        verify_singular_locus(40, 2)


# ---------------------------------------------------------------------------
# linear system dimension


def test_plane_conditions_read_order_off_terms():
    # along the plane {t0 = t1 = 0}, order d = 2
    ctx = VarContext(["t0", "t1", "w0", "w1"])
    t0, t1, w0, w1 = (MPoly.variable(ctx, QQ, nm) for nm in ctx.names)
    trans, d = ["t0", "t1"], 2
    # every term has degree >= d + 1 in (t0, t1); the mixed ones need both
    exact = t0 ** 3 * w0 + t0 ** 2 * t1 * w1 + t0 * t1 ** 2 * w0 + t1 ** 3 * w1 + t0 ** 4
    assert _plane_conditions(exact, trans, d) == {}
    assert _plane_conditions(exact, trans, d + 1) == {
        e: c for e, c in exact.terms.items() if e != (4, 0, 0, 0)}
    low = exact + (t0 * t1 * w0 * w1).scale(QQ.from_int(5))
    assert _plane_conditions(low, trans, d) == {(1, 1, 1, 1): QQ.from_int(5)}


def test_linear_system_dim_grid():
    for n, d in [(1, 1), (1, 2), (2, 1)]:
        r = verify_linear_system_dim(n, d)
        assert r.passed, (n, d, r.witness)
        assert r.params["dimension"] == 2 * n + 2
        assert r.params["rank"] == 2 * n


@pytest.mark.parametrize("n, d", [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3)])
def test_linear_system_dim_forms_match_substitution(n, d):
    # the check evaluates ab_form and phibar_form on the images of the u's;
    # the oracle expands A, B and phibar over Q, maps them to Q(xi) and
    # substitutes those images
    uexprs = _v_coordinates(n)
    sub = dict(zip(u_context(n).names, uexprs))
    want = [p.map_domain(QQXI, QQXI.from_rational).substitute(sub)
            for p in (*build_ab(n, d), *build_phibar(n, d).components)]
    half = QQXI.from_rational(Fraction(1, 2))
    assert [*ab_form(uexprs, d), *phibar_form(uexprs, d, lambda p: p.scale(half))] == want


def fractional_v_coordinates(n):
    """The images of u0..u_{2n} themselves, with the denominators 1/2 and
    -xi/6: the coordinates `verify_linear_system_dim` ran on before they
    were scaled by 6, kept as its oracle."""
    vctx = VarContext([f"v{i}" for i in range(2 * n + 1)])
    half = QQXI.from_rational(Fraction(1, 2))
    neg_xi_sixth = QQXI.mul(QQXI.neg(QQXI.xi), QQXI.from_rational(Fraction(1, 6)))
    uexprs = [MPoly.variable(vctx, QQXI, "v0")]
    for i in range(n):
        v1 = MPoly.variable(vctx, QQXI, f"v{2 * i + 1}")
        v2 = MPoly.variable(vctx, QQXI, f"v{2 * i + 2}")
        uexprs += [(v1 + v2).scale(half), (v1 - v2).scale(neg_xi_sixth)]
    return uexprs


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_linear_system_dim_integral_matches_fractional_coordinates(monkeypatch, n, d):
    # scaling the u's by 6 scales every form by 6^(2d+2): the same record
    new = verify_linear_system_dim(n, d)
    monkeypatch.setattr(verify_mod, "_v_coordinates", fractional_v_coordinates)
    old = verify_linear_system_dim(n, d)
    assert new.passed and old.passed
    assert new.params == old.params == {"n": n, "d": d, "space_dim": 4 * n + 2,
                                        "rank": 2 * n, "dimension": 2 * n + 2}


def test_linear_system_dim_builds_no_fraction(monkeypatch):
    built, lifted = [], []
    fraction_new, exact_rank = Fraction.__new__, verify_mod.exact_rank

    def counted(cls, *args, **kwargs):
        built.append(args)
        return fraction_new(cls, *args, **kwargs)

    def recorded(rows, dom):
        lifted.extend(dom.lift(r)[0] for r in rows)
        return exact_rank(rows, dom)
    monkeypatch.setattr(verify_mod, "exact_rank", recorded)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    r = verify_linear_system_dim(2, 1)
    monkeypatch.undo()
    assert r.passed and built == []
    assert {type(x) for row in lifted for c in row for x in c} == {int}


@pytest.mark.parametrize("coordinates", [_v_coordinates, fractional_v_coordinates])
def test_linear_system_dim_negative_control_component(monkeypatch, coordinates):
    # component 3 gains v1*v2^(2d+1), of degree 1 <= d in the transverse
    # variables v0, v1, v3 of the plane {v0 = v1 = v3 = 0}: one condition
    def perturbed(u, A, B, half):
        comps = list(phibar_blocks(u, A, B, half))
        v1, v2 = (MPoly.variable(u[0].ctx, u[0].dom, nm) for nm in ("v1", "v2"))
        comps[3] = comps[3] + v1 * v2 ** A.total_degree()  # 2d + 1
        return comps
    monkeypatch.setattr(verify_mod, "_v_coordinates", coordinates)
    monkeypatch.setattr(verify_mod, "phibar_blocks", perturbed)
    r = verify_linear_system_dim(2, 1)
    assert not r.passed
    assert r.params == {"n": 2, "d": 1, "space_dim": 10, "rank": 4, "dimension": 6}
    assert r.witness == {"reason": "parametrization component 3 violates 1 conditions"}


def test_linear_system_dim_negative_control_dimension(monkeypatch):
    # B gains u1^(2d+1), which does not vanish along the planes
    def perturbed(u, d):
        A, B = ab_form(u, d)
        return A, B + u[1] ** (2 * d + 1)
    monkeypatch.setattr(verify_mod, "ab_form", perturbed)
    r = verify_linear_system_dim(2, 1)
    assert not r.passed
    assert r.params == {"n": 2, "d": 1, "space_dim": 10, "rank": 9, "dimension": 1}
    assert r.witness == {"reason": "dimension 1 != 6"}


def test_linear_system_dim_negative_control_dependent_basis(monkeypatch):
    # with B = A the forms u_i*A, u_i*B span 2n + 1 dimensions, not 4n + 2;
    # counting the basis forms instead would pass with dimension 6
    monkeypatch.setattr(verify_mod, "ab_form", lambda u, d: (ab_form(u, d)[0],) * 2)
    r = verify_linear_system_dim(2, 1)
    assert not r.passed
    assert r.params == {"n": 2, "d": 1, "space_dim": 5, "rank": 4, "dimension": 1}
    assert r.witness == {"reason": "dimension 1 != 6"}


def test_linear_system_dim_evaluates_ab_form_once(monkeypatch):
    calls = []

    def counted(u, d):
        calls.append(d)
        return ab_form(u, d)
    monkeypatch.setattr(verify_mod, "ab_form", counted)
    assert verify_linear_system_dim(2, 1).passed and calls == [1]


# ---------------------------------------------------------------------------
# Galois symmetry and Cox grading


def test_galois_symmetry_grid():
    for n in (1, 2):
        for d in (1, 2):
            r = verify_galois_symmetry(n, d)
            assert r.passed, (n, d)
            rg = verify_galois_symmetry(n, d, generalized=True)
            assert rg.passed, (n, d)


def test_cox_grading_grid():
    for n, d in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        r = verify_cox_grading(n, d)
        assert r.passed, (n, d, r.witness)


def test_galois_negative_control_lopsided_form(monkeypatch):
    # a form whose S gains y0^(2d+1), which the swap moves to y1^(2d+1)
    def lopsided(y, d, a=None):
        S, D = sd_form(y, d, a)
        return S + y[0] ** (2 * d + 1), D
    monkeypatch.setattr(verify_mod, "sd_form", lopsided)
    for generalized in (False, True):
        r = verify_galois_symmetry(1, 1, generalized)
        assert not r.passed
        assert r.witness == {"S_residual": "-1*y0^3 + 1*y1^3",
                             "leading_term": str(((3,) + (0,) * (7 if generalized else 3),
                                                  Fraction(-1)))}


def test_cox_negative_control_residual(monkeypatch):
    # w+ times each strict transform keeps the three multidegrees equal,
    # (2d + 1, 1 - d, -d), but leaves the residual against (S, D)
    model = build_cox_model(1, 1)
    wp = MPoly.variable(model.ctx, model.S_hat.dom, "wp")
    shifted = build_cox_model(1, 1)
    shifted.S_hat, shifted.D_hat = wp * model.S_hat, wp * model.D_hat
    shifted.F_hat = wp.map_domain(QQXI, QQXI.from_rational) * model.F_hat
    shifted.expected_multidegree = (3, 0, -1)
    monkeypatch.setattr(verify_mod, "build_cox_model", lambda n, d: shifted)
    r = verify_cox_grading(1, 1)
    assert not r.passed
    assert r.params["multidegree"] == [3, 0, -1]
    assert list(r.witness) == ["S_residual", "leading_term"]


def test_cox_negative_control_wp_multiple():
    # multiplying S_hat by w+ shifts the grading: must be visibly detected
    model = build_cox_model(1, 1)
    wp = MPoly.variable(model.ctx, model.S_hat.dom, "wp")
    shifted = (wp * model.S_hat).multidegree(model.grading)
    d = 1
    assert shifted == (2 * d + 1, -d + 1, -d)
    assert shifted != model.expected_multidegree


# ---------------------------------------------------------------------------
# the charges of the registry


# the charges at (n, d) = (1, 1).  C(m - 1 + D, m - 1) dense monomials of
# the polynomial of degree D in m variables that the check builds: the
# membership certificate's g_3 at phibar's block pair (4, 4), the
# composites cr_inv(cr) (3, 4) and beta(alpha) (3, 6), composition_on_x's
# residuals of degree at most 5 in 6 variables, homogenized (7, 5), and the
# condition forms (3, 4).  For the BLOCK_SUMS checks, blocks^2 * m for the sums of the 2
# (S, D) blocks in m variables: the Galois residuals in 4 and, with
# coefficient variables, 8, and the Cox residuals in 6.  The SAMPLED
# roundtrips, 100 samples through (n + 1)(40 + 4 bit_length(d)) = 88 field
# operations.  line_factorization, the same certificate charge as
# membership
CHARGES_AT_1_1 = [
    ("line_factorization", 35), ("membership", 35), ("composition_cremona", 15),
    ("composition_alphabeta", 28), ("composition_on_x", 462), ("composition_roundtrip", 8800),
    ("composition_roundtrip_char2", 8800), ("linear_system_dim", 15), ("galois", 16),
    ("galois_generalized", 32), ("cox_grading", 24),
]
BLOCK_SUMS = {"galois", "galois_generalized", "cox_grading"}
SAMPLED = {"composition_roundtrip", "composition_roundtrip_char2"}


@pytest.mark.parametrize("name, cost", CHARGES_AT_1_1)
def test_checks_charge_their_largest_polynomial(monkeypatch, name, cost):
    assert CHECKS[name].run(1, 1, 0, cost).passed
    _refuse_builders(monkeypatch)
    costs = BLOCK_SUMS | SAMPLED
    wording = f"costs {cost}" if name in costs else f"has up to {cost} monomials"
    with pytest.raises(BudgetExceeded, match=rf"^{name}: .* {wording}, over budget {cost - 1}$"):
        CHECKS[name].run(1, 1, 0, cost - 1)


def test_every_check_is_charged():
    # singular_locus charges its own work, and every other check is charged
    # above
    assert set(CHECKS) == {name for name, _ in CHARGES_AT_1_1} | {"singular_locus"}


@pytest.mark.parametrize("name, n, d", [
    ("galois", 1000, 1000), ("galois_generalized", 1000, 1000), ("cox_grading", 1000, 1000),
    ("composition_alphabeta", 300, 1), ("composition_roundtrip", 1000, 1000),
    ("composition_roundtrip_char2", 1000, 1000), ("linear_system_dim", 50, 50),
])
def test_runaway_sizes_exit_4_at_once(no_builders, capsys, name, n, d):
    # each ran for over 13 s (most were stopped after 15 s) before it was
    # charged.  The roundtrips' charge within the --n/--d range is at most
    # 100 * 1001 * 80 field operations; one unit less refuses them
    budget = 100 * 1001 * 80 - 1 if name in SAMPLED else DEFAULT_BUDGET
    t0 = time.perf_counter()
    assert main(["verify", "--check", name, "--n", str(n), "--d", str(d),
                 "--budget", str(budget)]) == 4
    assert time.perf_counter() - t0 < 1
    assert f"budget exceeded: {name}: " in capsys.readouterr().err


@pytest.mark.parametrize("n, d, degree, nvars, cost", [
    (1, 1, 5, 7, 462), (20, 20, 41, 3, 903), (1000, 1000, 2001, 3, 2005003)])
def test_composition_on_x_charges_before_building(monkeypatch, capsys, n, d, degree, nvars,
                                                  cost):
    # the dense count of the cross minors refused (20, 20) at once.  The
    # certificate is charged from d alone, the larger of membership's charge
    # and 462 = C(11, 6) for its residuals of degree at most 5 in 6
    # variables.  Its exact charge admits it, and one unit less refuses it
    # before anything is built
    assert CHECKS["composition_on_x"].run(n, d, 0, cost).passed
    _refuse_builders(monkeypatch)
    argv = ["verify", "--check", "composition_on_x", "--n", str(n), "--d", str(d)]
    assert main(argv + ["--budget", str(cost - 1)]) == 4
    assert (f"composition_on_x: identity of degree {degree} in {nvars} variables has up to "
            f"{cost} monomials, over budget {cost - 1}") in capsys.readouterr().err


def test_composition_on_x_runs_past_the_expansion(capsys):
    # the cross minors were refused at (10, 10) and took 1.1 s at (5, 5)
    t0 = time.perf_counter()
    assert main(["verify", "--check", "composition_on_x", "--n", "10", "--d", "10"]) == 0
    assert time.perf_counter() - t0 < 1
    assert capsys.readouterr().out.startswith("[PASS] composition f=h.theta g=phibar "
                                              "modulo_degree=21 ")


@pytest.mark.parametrize("name", sorted(SAMPLED))
def test_roundtrips_run_at_the_largest_sizes(capsys, name):
    # the dense charge of their maps refused these already at (10, 10)
    t0 = time.perf_counter()
    assert main(["verify", "--check", name, "--n", "1000", "--d", "1000"]) == 0
    assert time.perf_counter() - t0 < 2
    assert capsys.readouterr().out.startswith("[PASS] ")


@pytest.mark.parametrize("name", sorted(SAMPLED))
def test_roundtrips_build_no_polynomial(monkeypatch, name):
    # the roundtrips evaluate the forms on arrays: no map is expanded,
    # composed or reduced into the count engines' term lists
    def refuse(*args, **kwargs):
        raise AssertionError("built a polynomial map")
    for module in (verify_mod, families_mod, mpoly_mod, count_mod):
        for attr in ("build_phibar", "build_theta", "build_h", "build_char_two_maps",
                     "compose", "reduce_poly"):
            monkeypatch.setattr(module, attr, refuse, raising=False)
    for n, d in [(1, 1), (2, 3), (3, 2)]:
        assert CHECKS[name].run(n, d, 42, DEFAULT_BUDGET).passed, (n, d)


@pytest.mark.parametrize("name", sorted(SAMPLED))
@pytest.mark.parametrize("n, d", [(1, 1), (1, 2), (2, 3), (3, 7), (8, 1000), (1000, 1)])
def test_roundtrip_charge_bounds_its_field_operations(monkeypatch, name, n, d):
    # the charge is an upper bound of the sums and products the forms
    # take, and within a factor 2 of them
    ops = []
    tables = kernels_mod.field_tables

    def counted(F):
        return tuple(lambda a, b, op=op: ops.append(1) or op(a, b) for op in tables(F))
    monkeypatch.setattr(kernels_mod, "field_tables", counted)
    CHECKS[name].run(n, d, 42, DEFAULT_BUDGET)
    # proportional_rows multiplies twice
    assert len(ops) - 2 <= _roundtrip_cost(n, d)[0] // 100 < 2 * (len(ops) - 2)


@pytest.mark.parametrize("name, n, d", [
    ("galois_generalized", 1, 30), ("cox_grading", 1, 40), ("galois", 8, 8)])
def test_block_charge_admits_small_sums(capsys, name, n, d):
    # the dense count refused these, though S, D and their Cox transforms
    # have 2(n + 1) terms
    assert main(["verify", "--check", name, "--n", str(n), "--d", str(d)]) == 0
    assert capsys.readouterr().out.startswith("[PASS] ")


# ---------------------------------------------------------------------------
# the full suite


def test_run_all_checks_passes_and_is_deterministic():
    records = run_all_checks(1, 1, seed=42)
    assert all(r.passed for r in records), [
        (r.check, r.witness) for r in records if not r.passed
    ]
    names = [r.check for r in records]
    assert "line_factorization" in names
    assert "membership" in names
    records2 = run_all_checks(1, 1, seed=42)
    assert [strip_timing(r.as_dict()) for r in records] == [
        strip_timing(r.as_dict()) for r in records2
    ]


def test_run_all_checks_n2_includes_singular_locus():
    records = run_all_checks(2, 1, seed=7)
    names = [r.check for r in records]
    assert "singular_locus" in names
    assert all(r.passed for r in records)
