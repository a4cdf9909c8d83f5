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


def _check(rep, name):
    return next(c for c in rep.checks if c.check_name == name)


def test_verify_all_pseudo_inverse_is_one_check_for_every_chain():
    # normloss has no closed antipolar, yet its round trip meets the closed
    # chains' tolerance, with no point skipped
    check = _check(verify_all(lg.norm_loss(1.5, 5), lg.simplex_grid(5, 10)), "pseudo_inverse")
    assert check.passed and check.tol == 1e-6 and check.witness is None


def test_verify_all_skips_pseudo_inverse_points_without_a_positive_loss():
    # at a = 0.999 the loss underflows to 0 on the boundary of the grid,
    # where the antipolar loss is not defined
    rep = verify_all(lg.cnorm_loss(0.999, 3), lg.simplex_grid(3, 10))
    assert rep.passed, str(rep)
    assert _check(rep, "pseudo_inverse").witness == {"skipped": 30}


def test_pseudo_inverse_with_every_point_skipped_is_skipped():
    # at resolution 2 every grid point of cnorm:a=0.999 has a loss entry of
    # 0: with no point left the check shows nothing, and reports as skipped
    rep = verify_all(lg.cnorm_loss(0.999, 3), lg.simplex_grid(3, 2))
    check = _check(rep, "pseudo_inverse")
    assert (check.passed, check.worst_violation, check.witness) == (None, None, {"skipped": 6})
    assert str(check) == "pseudo_inverse         skipped"
    assert rep.passed


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


def _drifting_log3():
    # l(alpha p) = l(p) (1 + 1e-9 log alpha): a relative defect of 2.3e-9
    # at alpha = 10, on a loss whose entries exceed 1
    base = lg.log_loss(3)

    def drifting_map(p):
        scale = np.sum(p, axis=-1, keepdims=True)
        return base.loss(p) * (1.0 + 1e-9 * np.log(scale))

    return lg.ProperLoss(
        bayes_risk=base.bayes_risk, loss_map=drifting_map, name="drifting", n=3
    )


def test_verify_all_detects_zero_homogeneity_defect():
    grid = lg.simplex_grid(3, 10)
    check = _check(verify_all(_drifting_log3(), grid), "zero_homogeneity")
    assert check.passed is False
    assert check.worst_violation == pytest.approx(1e-9 * math.log(10.0), rel=1e-3)
    # the witness is the worst scale and the first grid point with a loss
    # entry above 1, where the whole relative drift shows
    first = int(np.argmax(np.max(lg.log_loss(3).loss(grid.points), axis=1) >= 1.0))
    assert check.witness == {"alpha": 10.0, "p": grid.points[first].tolist()}
    assert list(check.witness) == ["alpha", "p"]


@pytest.mark.parametrize("spec", ["zeroone:n=3", "const:n=3", "cnorm:a=1,n=3"])
def test_homogeneity_check_at_zero_has_no_witness(spec):
    loss = lg.build_loss(lg.parse_loss_spec(spec))
    rep = verify_all(loss, lg.simplex_grid(3, 10))
    exact = [
        c for c in rep.checks
        if c.check_name.endswith("_homogeneity") and c.worst_violation == 0.0
    ]
    assert "zero_homogeneity" in {c.check_name for c in exact}
    assert all(c.passed and c.witness is None for c in exact)


def _beats(value, best):
    # the first strictly larger value, a NaN above everything
    return value > best or (math.isnan(value) and not math.isnan(best))


def _loop_reference(loss, grid, seed=0):
    """The homogeneity and reverse Hoelder checks as loops over the scales
    and the samples, keeping the first strictly larger worst, a NaN first."""
    P = grid.points
    L, rho = loss.loss(P), np.asarray(loss.bayes_risk(P), dtype=np.float64)
    one = zero = (0.0, None)
    for alpha in (0.5, 2.0, 10.0):
        v = np.abs(np.asarray(loss.bayes_risk(alpha * P)) - alpha * rho) / (
            1.0 + alpha * np.abs(rho)
        )
        k = int(np.argmax(v))
        if _beats(v[k], one[0]):
            one = (float(v[k]), {"alpha": alpha, "p": P[k].tolist()})
    for alpha in (0.5, 2.0, 10.0):
        d = np.where(np.isfinite(L), loss.loss(alpha * P) - L, 0.0)
        v = np.abs(d) / np.maximum(1.0, np.abs(L))
        k = int(np.argmax(v.max(axis=1)))
        if _beats(v[k].max(), zero[0]):
            zero = (float(v[k].max()), {"alpha": alpha, "p": P[k].tolist()})
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(P), size=min(12, len(P)), replace=False)
    idx = idx[np.all(np.isfinite(L[idx]), axis=1)]
    X = L[idx] + rng.uniform(0.0, 0.5, size=(idx.size, loss.n))
    rh = (-np.inf, None)
    for x, value in zip(X, lg.antipolar_loss(loss).rho(X)):
        viol = float(np.max(value * rho - P @ x))
        if _beats(viol, rh[0]):
            rh = (viol, {"x": x.tolist()})
    return {"one_homogeneity": one, "zero_homogeneity": zero, "reverse_hoelder": rh}


def _nan_at_scale_2():
    # a Bayes risk that is NaN on the points of sum 2, as at the scale 2
    base = lg.log_loss(3)

    def rho(P):
        return np.where(np.isclose(np.sum(P, axis=-1), 2.0), np.nan, base.bayes_risk(P))

    return lg.ProperLoss(bayes_risk=rho, loss_map=base.loss_map, name="nan@2", n=3)


@pytest.mark.parametrize("make", [
    lambda: lg.log_loss(3),
    lambda: lg.brier_loss(4),
    lambda: lg.cnorm_loss(0.5, 3),
    lambda: lg.norm_loss(2.0, 3),
    lambda: lg.zero_one_loss(3),
    _drifting_log3,
    _nan_at_scale_2,
], ids=["log", "brier", "cnorm", "normloss", "zeroone", "drifting", "nan"])
def test_reduced_checks_equal_their_loops_bit_for_bit(make):
    loss = make()
    grid = lg.simplex_grid(loss.n, 9)
    reference = _loop_reference(loss, grid, seed=3)
    for c in verify_all(loss, grid, seed=3).checks:
        if c.check_name in reference:
            worst, witness = reference[c.check_name]
            assert c.worst_violation == worst or math.isnan(c.worst_violation) and math.isnan(worst)
            assert c.witness == witness, c.check_name


def test_nan_at_one_scale_fails_one_homogeneity():
    grid = lg.simplex_grid(3, 9)
    check = _check(verify_all(_nan_at_scale_2(), grid), "one_homogeneity")
    assert check.passed is False and math.isnan(check.worst_violation)
    assert check.witness == {"alpha": 2.0, "p": grid.points[0].tolist()}


_CHECK_NAMES = [
    "properness", "consistency", "one_homogeneity", "zero_homogeneity",
    "superadditivity", "supergradient", "bregman_nonnegative", "pseudo_inverse",
    "reverse_hoelder",
]


@pytest.mark.parametrize("spec, n, tol, expected", [
    ("log", 3, None, (1e-9, 1e-9, 1e-10, 1e-12, 1e-9, 1e-9, 1e-10, 1e-6, 1e-6)),
    ("log", 3, 1e-3, (1e-3, 1e-3, 1e-10, 1e-12, 1e-9, 1e-3, 1e-10, 1e-6, 1e-6)),
    ("msum:combiner=cnorm:a=1;parts=log,brier;mode=dual", 2, None,
     (1e-4,) * 7 + (None, None)),
], ids=["analytic", "analytic-tol", "numeric"])
def test_verify_all_check_order_and_tolerances(spec, n, tol, expected):
    loss = lg.build_loss(lg.parse_loss_spec(spec), n)
    rep = verify_all(loss, lg.simplex_grid(n, 10), tol=tol)
    assert [c.check_name for c in rep.checks] == _CHECK_NAMES
    assert tuple(c.tol for c in rep.checks) == expected


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


def test_verify_report_prints_one_line_per_check():
    rep = verify_all(lg.log_loss(3))
    lines = str(rep).split("\n")
    assert lines[0] == "verification of log:"
    assert lines[1:] == [
        f"  {name:<22} pass  worst {c.worst_violation:.3e}"
        for name, c in zip(_CHECK_NAMES, rep.checks)
    ]
    skipped = _check(verify_all(lg.zero_one_loss(3)), "pseudo_inverse")
    assert str(skipped) == "pseudo_inverse         skipped"


@pytest.mark.parametrize("tol", [math.inf, math.nan])
@pytest.mark.parametrize("verifier", [
    lambda loss, grid, tol: lg.check_properness(loss, grid, tol=tol),
    lambda loss, grid, tol: lg.check_pseudo_inverse(loss, grid, tol=tol),
    lambda loss, grid, tol: verify_all(loss, grid, tol=tol),
], ids=["properness", "pseudo_inverse", "verify_all"])
def test_verifiers_reject_a_tolerance_that_passes_any_loss(verifier, tol):
    with pytest.raises(ValueError, match="tol must be a finite number"):
        verifier(lg.log_loss(2), lg.simplex_grid(2, 5), tol)


def test_a_negative_tolerance_forces_a_failing_check():
    # the CLI's --tol -1 relies on it
    assert not lg.check_properness(lg.log_loss(2), lg.simplex_grid(2, 5), tol=-1.0).passed


def test_verify_report_is_json_serializable():
    rep = verify_all(lg.brier_loss(2))
    blob = json.dumps(rep.to_jsonable())
    parsed = json.loads(blob)
    assert parsed["pass"] is True
    assert all("check_name" in c for c in parsed["checks"])
