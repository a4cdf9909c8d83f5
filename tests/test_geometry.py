"""Core geometry: pairings, supergradients, grids, properness."""

import math

import numpy as np
import pytest

import lossgeom as lg
from lossgeom.geometry import numeric_supergradient

from conftest import analytic_families, interior_points


# ---------------------------------------------------------------------------
# extended-real pairing
# ---------------------------------------------------------------------------
def test_inner_zero_times_inf_convention():
    assert lg.inner([1.0, 0.0], [5.0, np.inf]) == 5.0


def test_inner_uniform_log_case():
    v = lg.inner([0.5, 0.5], [np.log(2), np.log(2)])
    assert v == pytest.approx(math.log(2), abs=1e-15)


def test_inner_direct_arithmetic():
    # oracle: plain arithmetic
    assert lg.inner([0.7, 0.3], [0.0, 1.0]) == pytest.approx(0.3, abs=1e-15)


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        lg.inner([1.0, 2.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# direction normalization
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "p,expected",
    [([2, 2], [0.5, 0.5]), ([3, 1], [0.75, 0.25]), ([0, 5], [0.0, 1.0])],
)
def test_normalize_direction(p, expected):
    np.testing.assert_allclose(lg.normalize_direction(p), expected, atol=1e-15)


def test_normalize_direction_zero_vector():
    with pytest.raises(ValueError):
        lg.normalize_direction([0.0, 0.0])


# ---------------------------------------------------------------------------
# numeric supergradients
# ---------------------------------------------------------------------------
def test_numeric_supergradient_log_uniform():
    loss = lg.log_loss(2)
    g = numeric_supergradient(loss.bayes_risk, [0.5, 0.5])
    np.testing.assert_allclose(g, [math.log(2)] * 2, atol=1e-6)


def test_numeric_supergradient_brier_uniform():
    loss = lg.brier_loss(2)
    g = numeric_supergradient(loss.bayes_risk, [0.5, 0.5])
    np.testing.assert_allclose(g, [0.5, 0.5], atol=1e-6)


def test_numeric_supergradient_cobb_douglas():
    # oracle: the analytic gradient of the weighted geometric mean
    loss = lg.cobb_douglas_loss([1.0, 1.0])
    p = np.array([0.5, 0.5])
    analytic = loss.loss(p)
    g = numeric_supergradient(loss.bayes_risk, p)
    np.testing.assert_allclose(g, analytic, atol=1e-6)
    np.testing.assert_allclose(analytic, [0.5, 0.5], atol=1e-12)


def test_numeric_supergradient_point_is_its_batch_row():
    rho = lg.log_loss(3).bayes_risk
    P = lg.simplex_grid(3, 4).points
    batch = numeric_supergradient(rho, P)
    assert batch.shape == P.shape
    for p, row in zip(P, batch):
        np.testing.assert_array_equal(numeric_supergradient(rho, p), row)


def test_numeric_supergradient_euler_consistency(rng):
    for loss in (lg.log_loss(3), lg.brier_loss(3)):
        for p in interior_points(3, 5, rng):
            g = numeric_supergradient(loss.bayes_risk, p)
            assert lg.inner(g, p) == pytest.approx(float(loss.rho(p)), abs=1e-12)


def test_numeric_supergradient_requires_interior():
    loss = lg.log_loss(2)
    with pytest.raises(ValueError):
        numeric_supergradient(loss.bayes_risk, [1.0, 0.0])


def test_numeric_supergradient_degenerate_pairing():
    flat = lg.BayesRisk(lambda p: 0.0 * p.sum(axis=-1), 2)
    with pytest.raises(ValueError):
        numeric_supergradient(flat, [0.5, 0.5])


def test_proper_loss_accepts_value_types():
    loss = lg.log_loss(2)
    p = np.array([0.25, 0.75])
    for q in ([0.25, 0.75], (0.25, 0.75)):
        np.testing.assert_array_equal(loss.loss(q), loss.loss(p))
        assert loss.rho(q) == loss.rho(p)
    assert loss.expected_loss(p, p) == pytest.approx(float(loss.rho(p)), abs=1e-15)


# ---------------------------------------------------------------------------
# simplex grids
# ---------------------------------------------------------------------------
def test_simplex_grid_two_outcomes():
    g = lg.simplex_grid(2, 3)
    eps = 1.0 / 30.0
    np.testing.assert_allclose(g.points[:, 0], [eps, 0.5, 1.0 - eps], atol=1e-15)
    np.testing.assert_allclose(g.points.sum(axis=1), 1.0, atol=1e-15)


def test_simplex_grid_three_outcomes_count():
    # oracle: compositions of 4 into 3 parts = C(6, 2) = 15
    g = lg.simplex_grid(3, 4)
    assert len(g) == 15
    assert np.all(g.points >= g.margin - 1e-15)
    np.testing.assert_allclose(g.points.sum(axis=1), 1.0, atol=1e-12)
    # lexicographic enumeration
    as_tuples = [tuple(row) for row in np.round(g.points, 12)]
    assert as_tuples == sorted(as_tuples)


def test_simplex_grid_resolution_too_small():
    with pytest.raises(ValueError):
        lg.simplex_grid(2, 1)


# ---------------------------------------------------------------------------
# properness verification
# ---------------------------------------------------------------------------
def test_check_properness_log():
    rep = lg.check_properness(lg.log_loss(2), lg.simplex_grid(2, 50), tol=1e-9)
    assert rep.passed
    assert rep.worst_violation <= 1e-9


def _bumped_log2():
    base = lg.log_loss(2)

    def bad_map(p):
        q = lg.normalize_direction(p)
        bump = 0.1 * (q[..., :1] > 0.5)
        return base.loss(q) + bump  # broken: bonus on one side only

    return lg.ProperLoss(
        bayes_risk=base.bayes_risk, loss_map=bad_map, name="bad", n=2
    )


def test_check_properness_detects_perturbation():
    rep = lg.check_properness(_bumped_log2(), lg.simplex_grid(2, 50))
    assert not rep.passed
    assert rep.worst_violation > 0


def test_check_properness_is_verify_alls_properness_check():
    bad, grid = _bumped_log2(), lg.simplex_grid(2, 50)
    rep = lg.check_properness(bad, grid)
    assert rep == lg.verify_all(bad, grid).checks[0]
    assert list(rep.witness) == ["p", "q"]
    assert str(rep) == f"properness             FAIL  worst {rep.worst_violation:.3e}"


def test_check_properness_fails_a_nan_loss():
    # l(p) is NaN in coordinate 0 near t = 0.5: its gaps are NaN, not the
    # inf - inf of an infinite loss, so the check fails as verify_all's does
    base = lg.log_loss(2)

    def nan_map(p):
        out = base.loss(p)
        q = lg.normalize_direction(p)
        out[..., 0] = np.where(np.abs(q[..., 0] - 0.5) < 0.01, np.nan, out[..., 0])
        return out

    loss = lg.ProperLoss(bayes_risk=base.bayes_risk, loss_map=nan_map, name="nan", n=2)
    grid = lg.simplex_grid(2, 25)
    rep = lg.check_properness(loss, grid)
    assert rep.passed is False and math.isnan(rep.worst_violation)
    suite = lg.verify_all(loss, grid).checks[0]
    assert (str(rep), rep.witness) == (str(suite), suite.witness)


def test_check_properness_constant_loss():
    rep = lg.check_properness(lg.constant_loss(2), lg.simplex_grid(2, 30))
    assert rep.passed
    assert rep.worst_violation == 0.0


# ---------------------------------------------------------------------------
# module invariants across shipped families
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("n", [2, 3])
def test_pairing_consistency_invariant(n):
    grid = lg.simplex_grid(n, 25)
    for loss in analytic_families(n):
        L = loss.loss(grid.points)
        rhos = np.asarray(loss.bayes_risk(grid.points))
        pair = np.einsum("ij,ij->i", L, grid.points)
        assert np.max(np.abs(pair - rhos)) <= 1e-9, loss.name


@pytest.mark.parametrize("n", [2, 3])
def test_zero_homogeneity_of_loss_maps(n):
    grid = lg.simplex_grid(n, 10)
    for loss in analytic_families(n):
        L = loss.loss(grid.points)
        for alpha in (0.5, 2.0, 10.0):
            La = loss.loss(alpha * grid.points)
            finite = np.isfinite(L)
            assert np.max(np.abs((La - L)[finite])) <= 1e-12, loss.name


@pytest.mark.parametrize("n", [2, 3])
def test_one_homogeneity_of_bayes_risks(n):
    grid = lg.simplex_grid(n, 10)
    for loss in analytic_families(n):
        rhos = np.asarray(loss.bayes_risk(grid.points))
        for alpha in (0.5, 2.0, 10.0):
            ra = np.asarray(loss.bayes_risk(alpha * grid.points))
            assert np.all(
                np.abs(ra - alpha * rhos) <= 1e-10 * (1.0 + alpha * np.abs(rhos))
            ), loss.name


@pytest.mark.parametrize("n", [2, 3])
def test_superadditivity_of_bayes_risks(n):
    grid = lg.simplex_grid(n, 12)
    P = grid.points
    for loss in analytic_families(n):
        r = np.asarray(loss.bayes_risk(P))
        sums = P[:, None, :] + P[None, :, :]
        rs = np.asarray(loss.bayes_risk(sums.reshape(-1, n))).reshape(len(P), len(P))
        assert np.max(r[:, None] + r[None, :] - rs) <= 1e-9, loss.name


@pytest.mark.parametrize("n", [2, 3])
def test_supergradient_inequality_on_grid_pairs(n):
    grid = lg.simplex_grid(n, 15)
    P = grid.points
    for loss in analytic_families(n):
        L = loss.loss(P)
        r = np.asarray(loss.bayes_risk(P))
        E = L @ P.T
        diag = np.einsum("ij,ij->i", L, P)
        viol = r[None, :] - r[:, None] - (E - diag[:, None])
        assert np.max(viol) <= 1e-9, loss.name


def test_bayes_risk_negative_cone_is_minus_inf():
    loss = lg.log_loss(2)
    assert loss.bayes_risk([-0.1, 0.5]) == -np.inf
