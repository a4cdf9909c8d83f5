"""Bregman regret, anti semi inner products, weight functions, verify suite."""

import json
import math

import numpy as np
import pytest

import lossgeom as lg
from lossgeom.divergence import (
    anti_sip,
    bregman,
    regret_report,
    verify_all,
    weight_function,
)

from conftest import interior_points


def _kl(p, q):
    p, q = np.asarray(p), np.asarray(q)
    return float(np.sum(np.where(p > 0, p * np.log(p / q), 0.0)))


# ---------------------------------------------------------------------------
# Bregman divergence
# ---------------------------------------------------------------------------
def test_bregman_zero_at_identical_points():
    assert bregman(lg.log_loss(2), [0.3, 0.7], [0.3, 0.7]) == pytest.approx(0.0, abs=1e-15)


def test_bregman_log_is_kl():
    val = bregman(lg.log_loss(2), [0.5, 0.5], [0.25, 0.75])
    assert val == pytest.approx(_kl([0.5, 0.5], [0.25, 0.75]), abs=1e-12)
    assert val == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-12)
    assert val == pytest.approx(0.143841, abs=1e-6)


def test_bregman_brier_is_squared_distance():
    val = bregman(lg.brier_loss(2), [0.4, 0.6], [0.6, 0.4])
    assert val == pytest.approx(0.08, abs=1e-12)


def test_bregman_matches_regret(rng):
    for loss in (lg.log_loss(3), lg.brier_loss(3), lg.cobb_douglas_loss([1, 1, 1])):
        for p, q in zip(interior_points(3, 6, rng), interior_points(3, 6, rng)):
            rep = regret_report(loss, p, q)
            assert rep.discrepancy <= 1e-10
            assert rep.bregman >= -1e-10


def test_bregman_infinite_loss_with_zero_weight():
    # q on the boundary: the p_y = 0 outcome contributes nothing even though
    # the log loss is infinite there
    loss = lg.log_loss(2)
    val = bregman(loss, [1.0, 0.0], [0.6, 0.4])
    assert np.isfinite(val)
    assert val == pytest.approx(-math.log(0.6), abs=1e-12)


# ---------------------------------------------------------------------------
# anti semi inner product
# ---------------------------------------------------------------------------
def test_anti_sip_diagonal_is_rho_squared():
    loss = lg.brier_loss(2)
    x = np.array([0.3, 0.7])
    assert anti_sip(loss, x, x) == pytest.approx(float(loss.rho(x)) ** 2, abs=1e-12)


def test_anti_sip_uniform_log_value():
    val = anti_sip(lg.log_loss(2), [0.25, 0.75], [0.5, 0.5])
    assert val == pytest.approx(math.log(2) ** 2, abs=1e-12)


def test_anti_sip_reverse_cauchy_schwarz_bulk(rng):
    # [y,x]^2 >= [x,x][y,y] over 10^4 random pairs per family, vectorized:
    # with [y,x] = rho(x)<l(x);y> the inequality reduces to <l(x);y> >= rho(y)
    count = 10_000
    for loss in (lg.log_loss(2), lg.brier_loss(2), lg.cobb_douglas_loss([1, 1])):
        X = rng.dirichlet([1.5, 1.5], count).clip(1e-4, None)
        Y = rng.dirichlet([1.5, 1.5], count).clip(1e-4, None)
        X /= X.sum(axis=1, keepdims=True)
        Y /= Y.sum(axis=1, keepdims=True)
        rx = np.asarray(loss.bayes_risk(X))
        ry = np.asarray(loss.bayes_risk(Y))
        cross = np.einsum("ij,ij->i", loss.loss(X), Y)
        lhs = (rx * cross) ** 2
        rhs = rx**2 * ry**2
        assert np.all(lhs >= rhs - 1e-10), loss.name


def test_anti_sip_scalar_matches_bulk_identity(rng):
    loss = lg.brier_loss(2)
    for y, x in zip(interior_points(2, 5, rng), interior_points(2, 5, rng)):
        lhs = anti_sip(loss, y, x) ** 2
        rhs = anti_sip(loss, x, x) * anti_sip(loss, y, y)
        assert lhs >= rhs - 1e-10


# ---------------------------------------------------------------------------
# weight functions
# ---------------------------------------------------------------------------
def test_weight_boosting_loss_at_half():
    loss = lg.cobb_douglas_loss([1.0, 1.0])
    assert weight_function(loss, 0.5) == pytest.approx(2.0, abs=1e-6)


def test_weight_log_loss():
    # oracle: second derivative of the binary entropy is -1/(t(1-t))
    loss = lg.log_loss(2)
    assert weight_function(loss, 0.5) == pytest.approx(4.0, abs=1e-5)
    assert weight_function(loss, 0.2) == pytest.approx(1.0 / (0.2 * 0.8), abs=1e-4)


def test_weight_brier_is_constant():
    loss = lg.brier_loss(2)
    for t in (0.15, 0.5, 0.85):
        assert weight_function(loss, t) == pytest.approx(4.0, abs=1e-5)


def test_weight_boosting_curve():
    loss = lg.cobb_douglas_loss([1.0, 1.0])
    for t in np.linspace(0.1, 0.9, 17):
        expected = 1.0 / (4.0 * (t * (1.0 - t)) ** 1.5)
        assert weight_function(loss, float(t)) == pytest.approx(expected, abs=1e-4)


def test_weight_function_domain_checks():
    with pytest.raises(ValueError):
        weight_function(lg.log_loss(3), 0.5)
    with pytest.raises(ValueError):
        weight_function(lg.log_loss(2), 1e-6)


@pytest.mark.parametrize("p1", [math.nan, math.inf, -0.5, 1.0])
def test_weight_function_needs_a_finite_p1_in_the_open_interval(p1):
    with pytest.raises(ValueError, match=r"p1 must be a finite number in \(0, 1\)"):
        weight_function(lg.log_loss(2), p1)


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------
def test_verify_all_log_passes():
    rep = verify_all(lg.log_loss(2))
    assert rep.passed, str(rep)
    names = {c.check_name for c in rep.checks}
    assert {
        "properness",
        "consistency",
        "one_homogeneity",
        "zero_homogeneity",
        "superadditivity",
        "supergradient",
        "bregman_nonnegative",
        "pseudo_inverse",
        "reverse_hoelder",
    } <= names


def _pseudo_inverse(rep):
    return next(c for c in rep.checks if c.check_name == "pseudo_inverse")


def test_verify_all_pseudo_inverse_is_one_check_for_every_chain():
    # normloss has no closed antipolar, yet its round trip meets the closed
    # chains' tolerance, with no point skipped
    check = _pseudo_inverse(verify_all(lg.norm_loss(1.5, 5), lg.simplex_grid(5, 10)))
    assert check.passed and check.tol == 1e-6 and check.witness is None


def test_verify_all_skips_pseudo_inverse_points_without_a_positive_loss():
    # at a = 0.999 the loss underflows to 0 on the boundary of the grid,
    # where the antipolar loss is not defined
    rep = verify_all(lg.cnorm_loss(0.999, 3), lg.simplex_grid(3, 10))
    assert rep.passed, str(rep)
    assert _pseudo_inverse(rep).witness == {"skipped": 30}


def test_verify_all_detects_corruption():
    base = lg.log_loss(2)

    def bad_map(p):
        q = lg.normalize_direction(p)
        return base.loss(q) + 0.1 * (q[..., :1] > 0.5)

    bad = lg.ProperLoss(
        bayes_risk=base.bayes_risk, loss_map=bad_map, name="corrupted", n=2
    )
    rep = verify_all(bad)
    assert not rep.passed
    failing = [c for c in rep.checks if c.passed is False]
    assert any(c.check_name == "properness" for c in failing)
    witness = [c for c in failing if c.check_name == "properness"][0].witness
    assert "p" in witness and "q" in witness


def test_verify_all_detects_zero_homogeneity_defect():
    # l(alpha p) = l(p) (1 + 1e-9 log alpha): a relative defect of 2.3e-9
    # at alpha = 10, on a loss whose entries exceed 1
    base = lg.log_loss(3)

    def drifting_map(p):
        scale = np.sum(p, axis=-1, keepdims=True)
        return base.loss(p) * (1.0 + 1e-9 * np.log(scale))

    bad = lg.ProperLoss(
        bayes_risk=base.bayes_risk, loss_map=drifting_map, name="drifting", n=3
    )
    rep = verify_all(bad, lg.simplex_grid(3, 10))
    check = [c for c in rep.checks if c.check_name == "zero_homogeneity"][0]
    assert check.passed is False
    assert check.worst_violation == pytest.approx(1e-9 * math.log(10.0), rel=1e-3)


def test_verify_all_constant_loss():
    rep = verify_all(lg.constant_loss(2))
    assert rep.passed, str(rep)
    bregman_check = [c for c in rep.checks if c.check_name == "bregman_nonnegative"][0]
    assert abs(bregman_check.worst_violation) <= 1e-15  # identically zero regret


@pytest.mark.parametrize("n", [2, 3])
def test_verify_all_every_family_resolution_25(n):
    grid = lg.simplex_grid(n, 25)
    families = [
        lg.log_loss(n),
        lg.brier_loss(n),
        lg.zero_one_loss(n),
        lg.cnorm_loss(-1.0, n),
        lg.cnorm_loss(0.75, n),
        lg.cobb_douglas_loss(np.ones(n)),
        lg.norm_loss(2.0, n),
        lg.constant_loss(n),
    ]
    for loss in families:
        rep = verify_all(loss, grid)
        assert rep.passed, f"{loss.name}\n{rep}"


def test_verify_report_is_json_serializable():
    rep = verify_all(lg.brier_loss(2))
    blob = json.dumps(rep.to_jsonable())
    parsed = json.loads(blob)
    assert parsed["pass"] is True
    assert all("check_name" in c for c in parsed["checks"])
