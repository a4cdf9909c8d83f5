"""Closed-form loss families: spec values, identities, gradient checks."""

import math

import mpmath
import numpy as np
import pytest

import lossgeom as lg
from lossgeom.families import beta_gauge, psi_gauge
from lossgeom.geometry import numeric_supergradient_batch

from conftest import analytic_families, interior_points


# ---------------------------------------------------------------------------
# logarithmic loss
# ---------------------------------------------------------------------------
def test_log_uniform():
    loss = lg.log_loss(2)
    np.testing.assert_allclose(loss.loss([0.5, 0.5]), [math.log(2)] * 2, atol=1e-15)
    assert loss.rho([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-15)


def test_log_quarter():
    loss = lg.log_loss(2)
    np.testing.assert_allclose(
        loss.loss([0.25, 0.75]), [math.log(4), math.log(4 / 3)], atol=1e-15
    )


def test_log_degenerate():
    loss = lg.log_loss(2)
    l = loss.loss([1.0, 0.0])
    assert l[0] == 0.0 and l[1] == np.inf
    assert loss.rho([1.0, 0.0]) == 0.0


def _log_antipolar_mpmath(x):
    """50-digit root beta of sum_y exp(-x_y / beta) = 1, by bisection, with
    the smallest coordinate's term moved to the left as expm1 so that the
    equation stays resolvable when that coordinate is near zero."""
    with mpmath.workdps(50):
        xs = [mpmath.mpf(v) for v in x]
        k = xs.index(min(xs))

        def f(b):
            rest = mpmath.fsum(mpmath.exp(-v / b) for i, v in enumerate(xs) if i != k)
            return mpmath.expm1(-xs[k] / b) + rest

        lo, hi = mpmath.mpf("1e-6"), mpmath.mpf(10)
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
        return float((lo + hi) / 2)


@pytest.mark.parametrize("x", [(1e-300, 1.0), (1e-12, 1.0)])
def test_log_antipolar_near_zero_coordinate_matches_mpmath(x):
    res = lg.antipolar_bayes_risk(lg.log_loss(2), x)
    assert res.method == "closed_form"
    assert res.value == pytest.approx(_log_antipolar_mpmath(x), rel=1e-14)
    assert np.all(np.isfinite(res.minimizer))


# ---------------------------------------------------------------------------
# Brier loss
# ---------------------------------------------------------------------------
def test_brier_uniform():
    loss = lg.brier_loss(2)
    np.testing.assert_allclose(loss.loss([0.5, 0.5]), [0.5, 0.5], atol=1e-15)
    assert loss.rho([0.5, 0.5]) == pytest.approx(0.5, abs=1e-15)


def test_brier_degenerate():
    loss = lg.brier_loss(2)
    np.testing.assert_allclose(loss.loss([1.0, 0.0]), [0.0, 2.0], atol=1e-15)
    assert loss.rho([1.0, 0.0]) == pytest.approx(0.0, abs=1e-15)


def test_brier_formula_point():
    # oracle: 1 + ||p||^2 - 2 p_y at p = (0.4, 0.6)
    loss = lg.brier_loss(2)
    sq = 0.4**2 + 0.6**2
    np.testing.assert_allclose(
        loss.loss([0.4, 0.6]), [1 + sq - 0.8, 1 + sq - 1.2], atol=1e-15
    )
    np.testing.assert_allclose(loss.loss([0.4, 0.6]), [0.72, 0.32], atol=1e-15)


# ---------------------------------------------------------------------------
# misclassification loss
# ---------------------------------------------------------------------------
def test_zero_one_basic():
    loss = lg.zero_one_loss(2)
    np.testing.assert_allclose(loss.loss([0.7, 0.3]), [0.0, 1.0], atol=1e-15)
    assert loss.rho([0.7, 0.3]) == pytest.approx(0.3, abs=1e-15)


def test_zero_one_tie_splitting():
    loss = lg.zero_one_loss(2)
    np.testing.assert_allclose(loss.loss([0.5, 0.5]), [0.5, 0.5], atol=1e-15)


def test_zero_one_three_way_tie():
    loss = lg.zero_one_loss(3)
    p = np.full(3, 1.0 / 3.0)
    np.testing.assert_allclose(loss.loss(p), np.full(3, 2.0 / 3.0), atol=1e-12)
    assert loss.rho(p) == pytest.approx(2.0 / 3.0, abs=1e-15)


# ---------------------------------------------------------------------------
# concave-norm family
# ---------------------------------------------------------------------------
def test_cnorm_minus_one():
    loss = lg.cnorm_loss(-1.0, 2)
    # conjugate exponent 1/2: (sqrt(.5) + sqrt(.5))^2 = 2
    assert loss.rho([0.5, 0.5]) == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(loss.loss([0.5, 0.5]), [2.0, 2.0], atol=1e-12)
    assert lg.inner(loss.loss([0.5, 0.5]), [0.5, 0.5]) == pytest.approx(
        loss.rho([0.5, 0.5]), abs=1e-12
    )


def test_cnorm_minus_inf_is_constant():
    loss = lg.cnorm_loss(-np.inf, 2)
    np.testing.assert_allclose(loss.loss([0.3, 0.7]), [1.0, 1.0], atol=1e-15)


def test_cnorm_one_picks_minimum_coordinate():
    loss = lg.cnorm_loss(1.0, 2)
    np.testing.assert_allclose(loss.loss([0.7, 0.3]), [0.0, 1.0], atol=1e-15)
    assert loss.rho([0.7, 0.3]) == pytest.approx(0.3, abs=1e-15)


@pytest.mark.parametrize("a", [-3.0, -1.0, 0.5, 0.75])
def test_cnorm_rho_equals_conjugate_gauge(a):
    rng = np.random.default_rng(1)
    loss = lg.cnorm_loss(a, 2)
    for p in interior_points(2, 10, rng):
        assert loss.rho(p) == pytest.approx(
            float(beta_gauge(a / (a - 1.0), p)), rel=1e-14
        )


@pytest.mark.parametrize("a", [-3.0, -1.0, 0.5, 0.75])
def test_cnorm_strictly_proper_unique_minimizer(a):
    # strictness: the expected loss q -> <l(q); p> has its unique grid
    # minimizer at the grid point closest to p
    loss = lg.cnorm_loss(a, 2)
    grid = lg.simplex_grid(2, 101)
    p = np.array([0.37, 0.63])
    L = loss.loss(grid.points)
    exp_losses = L @ p
    k = int(np.argmin(exp_losses))
    closest = int(np.argmin(np.abs(grid.points[:, 0] - p[0])))
    assert k == closest
    others = np.delete(exp_losses, k)
    assert np.min(others) > exp_losses[k]


def test_cnorm_invalid_exponents():
    with pytest.raises(ValueError):
        lg.cnorm_loss(0.0, 2)
    with pytest.raises(ValueError):
        lg.cnorm_loss(1.5, 2)


# ---------------------------------------------------------------------------
# Cobb-Douglas loss
# ---------------------------------------------------------------------------
def test_cobb_douglas_boosting_values():
    loss = lg.cobb_douglas_loss([1.0, 1.0])
    np.testing.assert_allclose(loss.loss([0.5, 0.5]), [0.5, 0.5], atol=1e-15)
    expected = 0.5 * np.array([math.sqrt(3.0 / 7.0), math.sqrt(7.0 / 3.0)])
    np.testing.assert_allclose(loss.loss([0.7, 0.3]), expected, atol=1e-12)


def test_cobb_douglas_at_parameter_point():
    # at p = a the loss vector is uniform (level psi(a)/||a||_1)
    a = np.array([2.0, 1.0])
    loss = lg.cobb_douglas_loss(a)
    l = loss.loss(a)
    assert l[0] == pytest.approx(l[1], abs=1e-14)
    assert lg.inner(l, a / a.sum()) == pytest.approx(
        float(loss.rho(a / a.sum())), abs=1e-14
    )


def test_cobb_douglas_quotient_identity():
    # psi_a(p / a) = psi_a(p) / psi_a(a): the two equivalent ways of
    # writing the loss agree up to this identity, asserted rather than assumed
    rng = np.random.default_rng(2)
    for a in ([1.0, 1.0], [2.0, 1.0], [1.0, 2.0, 3.0]):
        a = np.array(a)
        w = a / a.sum()
        for p in interior_points(len(a), 5, rng):
            lhs = psi_gauge(w, p / a)
            rhs = psi_gauge(w, p) / psi_gauge(w, a)
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_cobb_douglas_requires_positive_parameters():
    with pytest.raises(ValueError):
        lg.cobb_douglas_loss([1.0, 0.0])


# ---------------------------------------------------------------------------
# norm losses
# ---------------------------------------------------------------------------
def test_norm_loss_alpha_two_uniform():
    loss = lg.norm_loss(2.0, 2)
    np.testing.assert_allclose(loss.loss([0.5, 0.5]), [1.0, 1.0], atol=1e-15)


def test_norm_loss_alpha_one_is_shifted_misclassification():
    loss = lg.norm_loss(1.0, 2)
    np.testing.assert_allclose(loss.loss([0.7, 0.3]), [0.5, 1.5], atol=1e-15)
    zo = lg.zero_one_loss(2)
    for p in lg.simplex_grid(2, 17).points:
        np.testing.assert_allclose(loss.loss(p), zo.loss(p) + 0.5, atol=1e-15)


def test_norm_loss_alpha_inf_is_constant_one():
    loss = lg.norm_loss(np.inf, 2)
    for p in lg.simplex_grid(2, 9).points:
        np.testing.assert_allclose(loss.loss(p), [1.0, 1.0], atol=0.0)


def test_norm_loss_alpha_below_one_rejected():
    with pytest.raises(ValueError):
        lg.norm_loss(0.9, 2)


# ---------------------------------------------------------------------------
# constant loss
# ---------------------------------------------------------------------------
def test_constant_loss_values():
    loss = lg.constant_loss(2)
    np.testing.assert_allclose(loss.loss([0.3, 0.7]), [1.0, 1.0], atol=0.0)
    assert loss.rho([2.0, 2.0]) == pytest.approx(4.0, abs=1e-15)
    rep = lg.check_properness(loss, lg.simplex_grid(2, 20))
    assert rep.passed and rep.worst_violation == 0.0


# ---------------------------------------------------------------------------
# family-wide invariants
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("n", [2, 3])
def test_every_family_is_proper_at_tight_tolerance(n):
    grid = lg.simplex_grid(n, 50)
    for loss in analytic_families(n):
        rep = lg.check_properness(loss, grid, tol=1e-9)
        assert rep.passed, f"{loss.name}: {rep}"


def test_analytic_maps_match_numeric_supergradients(rng):
    for n in (2, 3):
        P = interior_points(n, 30, rng)
        for loss in analytic_families(n):
            L = loss.loss(P)
            G = numeric_supergradient_batch(loss.bayes_risk, P)
            assert np.max(np.abs(L - G)) <= 1e-5, loss.name
