"""Closed-form loss families: spec values, identities, gradient checks."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lossgeom as lg
from lossgeom.families import _brier_antipolar_solve, beta_gauge, psi_gauge
from lossgeom.geometry import normalize_direction, numeric_supergradient

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


def _brier_ratio_and_kkt(x, f, q):
    """50-digit check of a Brier antipolar (f, q) at x: the ratio <x;q>/rho(q)
    (None at a vertex, where rho(q) = 0) and the residuals x_y - f l_y(q), in
    forms free of cancellation: with q normalized, rho(q) = sum q_y (1 - q_y)
    and l_y(q) = (1 - q_y)^2 + sum_{j != y} q_j^2, 1 - q_y = sum_{j != y} q_j.
    The ratio is pseudo-convex, so residuals that are 0 on the support of q
    and >= 0 off it certify the global minimum."""
    with mpmath.workdps(50):
        xs = [mpmath.mpf(float(v)) for v in x]
        s = mpmath.fsum(mpmath.mpf(float(v)) for v in q)
        qs = [mpmath.mpf(float(v)) / s for v in q]
        rest = [mpmath.fsum(qs[:y] + qs[y + 1:]) for y in range(len(qs))]
        sq = mpmath.fsum(v * v for v in qs)
        loss = [rest[y] ** 2 + sq - qs[y] ** 2 for y in range(len(qs))]
        rho = mpmath.fsum(a * b for a, b in zip(qs, rest))
        num = mpmath.fsum(a * b for a, b in zip(xs, qs))
        ratio = float(num / rho) if rho > 0 else None
        return ratio, [float(xs[y] - mpmath.mpf(float(f)) * loss[y]) for y in range(len(xs))]


def _assert_brier_antipolar_certified(x):
    f, q = _brier_antipolar_solve(np.asarray(x, dtype=np.float64))
    ratio, residual = _brier_ratio_and_kkt(x, f, q)
    if ratio is not None:
        assert ratio == pytest.approx(float(f), rel=1e-14, abs=0.0)
    tol = 1e-13 * max(x)
    for q_y, r_y in zip(q, residual):
        assert (abs(r_y) if q_y > 0 else -r_y) <= tol, (list(x), list(q), residual)
    assert q.min() >= 0.0 and q.sum() == pytest.approx(1.0, abs=1e-15)
    return float(f), q


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(data=st.data(), n=st.integers(2, 9), k=st.integers(-600, 600),
       noise=st.sampled_from([0.5, 1e-6, 1e-12, 0.0]))
def test_brier_antipolar_meets_kkt_in_50_digits(data, n, k, noise):
    # x = l(p) + noise with boundary zeros, at scale 2^k
    unit = st.floats(0.0, 1.0)
    p = np.array(data.draw(st.lists(unit, min_size=n, max_size=n)))
    p = p / p.sum() if p.sum() > 0 else np.full(n, 1.0 / n)
    x = lg.brier_loss(n).loss(p) + noise * np.array(data.draw(st.lists(unit, min_size=n, max_size=n)))
    x[np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))] = 0.0
    if not np.any(x > 0):
        x[0] = 1.0
    x = 2.0**k * x
    f, q = _assert_brier_antipolar_certified(x)
    f1, q1 = _brier_antipolar_solve(2.0**-k * x)  # exact, also where x is subnormal
    assert f == 2.0**k * f1 and np.array_equal(q, q1)


@pytest.mark.parametrize(
    "x", [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0), (2.0, 4.5e-12), (1.9447, 0.00589), (1e-300, 1.0)]
)
def test_brier_antipolar_two_outcomes_matches_mpmath(x):
    # at n = 2 the value is (sqrt(x_1) + sqrt(x_2))^2 / 2 and the loss
    # (sqrt(x_1) + sqrt(x_2)) / (2 sqrt(x_y)); the smaller root of the
    # quadratic gives 0.868 at (1.9447, 0.00589), where the value is 1.0823
    with mpmath.workdps(50):
        roots = [mpmath.sqrt(v) for v in x]
        value = float(sum(roots) ** 2 / 2)
        loss = [float(sum(roots) / (2 * v)) if v > 0 else None for v in roots]
    res = lg.antipolar_bayes_risk(lg.brier_loss(2), x)
    assert res.method == "closed_form"
    assert res.value == pytest.approx(value, rel=1e-15, abs=0.0)
    _assert_brier_antipolar_certified(x)
    if None not in loss:
        got = lg.antipolar_loss(lg.brier_loss(2)).loss(x)
        np.testing.assert_allclose(got, loss, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize(
    "x,value",
    [
        ((0.0, 1.0, 1.0), 0.5),
        # attained near q = (1 - 5.86e-7, 5.86e-7, 0, 0), where the numeric
        # solver's lower bound, 0.4119228630740913, passes the infimum
        ((2.8271908590617963e-13, 0.8238447608880684, 0.952548795189347, 1.0),
         0.4119228630585534),
        # coordinates within 1e-10 of 1: the values of the three largest
        # faces tie to a rounding error, and only the largest meets the KKT
        # conditions
        ((0.9989068726320776, 0.9997534733473276, 0.9999989691426503,
          0.9999999999769603, 0.9687651650760989, 0.959262639518254,
          0.9998494253243461, 0.003754903684067224, 1.0), None),
    ],
)
def test_brier_antipolar_fixed_points(x, value):
    f, _ = _assert_brier_antipolar_certified(x)
    if value is not None:
        assert f == pytest.approx(value, rel=1e-15, abs=0.0)


def test_brier_antipolar_limit_at_a_vertex():
    # the infimum 0.5 is reached only as q -> (1, 0, 0): the loss map is
    # undefined there, and the minimizer is that vertex, where x is least
    loss = lg.brier_loss(3)
    res = lg.antipolar_bayes_risk(loss, [0.0, 1.0, 1.0])
    assert res.value == 0.5 and res.method == "closed_form"
    assert res.minimizer[0] == pytest.approx(1.0, abs=1e-8)
    np.testing.assert_array_equal(res.minimizer, [1.0, 0.0, 0.0])
    assert res.certified_gap == 0.0
    with pytest.raises(ValueError, match="vertex"):
        lg.antipolar_loss(loss).loss([0.0, 1.0, 1.0])
    # two zeros: the value 0 is attained evenly on their face
    np.testing.assert_array_equal(_brier_antipolar_solve(np.array([0.0, 0.0, 1.0]))[1], [0.5, 0.5, 0.0])
    np.testing.assert_array_equal(lg.antipolar_loss(loss).loss([0.0, 0.0, 1.0]), [1.0, 1.0, 0.0])


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
# power-mean families against their per-family formulas
# ---------------------------------------------------------------------------
# Reference twins: each family's Bayes risk and loss map written out on its
# own, as before the five families shared one power mean.  The shared code
# must reproduce them bit for bit.
def _ref_tie_split(values, pick_max):
    ref = values.max(axis=-1, keepdims=True) if pick_max else values.min(
        axis=-1, keepdims=True
    )
    hit = np.abs(values - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))
    return hit / hit.sum(axis=-1, keepdims=True)


def _ref_norm(c, p):
    return np.power(np.sum(np.power(p, c), axis=-1), 1.0 / c)


def _ref_cnorm(a):
    """cnorm for a < 0: conjugate exponent c = a/(a-1) in (0, 1)."""
    c, expo = a / (a - 1.0), 1.0 / (a - 1.0)

    def loss(p):
        q = normalize_direction(p)
        ratio = q / _ref_norm(c, q)[..., None]
        with np.errstate(divide="ignore"):
            return np.where(ratio > 0, np.power(np.where(ratio > 0, ratio, 1.0), expo), np.inf)

    return (lambda p: _ref_norm(c, p)), loss


def _ref_normloss(alpha, n):
    if math.isinf(alpha):
        return (lambda p: p.sum(axis=-1)), (lambda p: np.ones_like(p))
    shift = 1.0 + n ** (-1.0 / alpha)
    if alpha == 1.0:
        return (
            lambda p: shift * p.sum(axis=-1) - p.max(axis=-1),
            lambda p: shift - _ref_tie_split(normalize_direction(p), True),
        )
    c = alpha / (alpha - 1.0)

    def loss(p):
        q = normalize_direction(p)
        return shift - np.power(q / _ref_norm(c, q)[..., None], c - 1.0)

    return (lambda p: shift * p.sum(axis=-1) - _ref_norm(c, p)), loss


_REFERENCE_TWINS = {
    "zeroone": (
        lg.zero_one_loss,
        lambda n: (
            lambda p: p.sum(axis=-1) - p.max(axis=-1),
            lambda p: 1.0 - _ref_tie_split(normalize_direction(p), True),
        ),
    ),
    "const": (
        lg.constant_loss,
        lambda n: ((lambda p: p.sum(axis=-1)), (lambda p: np.ones_like(p))),
    ),
    "cnorm:a=1": (
        lambda n: lg.cnorm_loss(1.0, n),
        lambda n: (
            lambda p: np.min(p, axis=-1),
            lambda p: _ref_tie_split(normalize_direction(p), False),
        ),
    ),
    **{
        f"cnorm:a={a}": (lambda n, a=a: lg.cnorm_loss(a, n), lambda n, a=a: _ref_cnorm(a))
        for a in (-3.0, -1.0, -0.25)
    },
    **{
        f"normloss:alpha={alpha}": (
            lambda n, alpha=alpha: lg.norm_loss(alpha, n),
            lambda n, alpha=alpha: _ref_normloss(alpha, n),
        )
        for alpha in (1.0, 1.5, 2.0, 3.0, math.inf)
    },
}


def _seeded_directions(n, rng):
    """Simplex points at scales 2^k, k in [-40, 40], with ties and zeros."""
    P = rng.dirichlet(np.ones(n), size=60)
    tied = P[:20]
    tied[:, 1] = tied[:, 0]  # a two-way tie, and an all-way tie in row 0
    tied[0] = 1.0 / n
    P[20:35, 0] = 0.0
    P[35:40, :-1] = 0.0  # vertices
    return P * 2.0 ** rng.integers(-40, 41, size=(60, 1)).astype(np.float64)


@pytest.mark.parametrize("family", sorted(_REFERENCE_TWINS))
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_power_mean_families_match_reference_twins_bit_for_bit(family, n):
    build, reference = _REFERENCE_TWINS[family]
    loss, (ref_rho, ref_loss) = build(n), reference(n)
    P = _seeded_directions(n, np.random.default_rng(n))
    assert np.asarray(loss.rho(P)).tobytes() == ref_rho(P).tobytes()
    assert loss.loss(P).tobytes() == ref_loss(P).tobytes()
    for p in P[::7]:  # one direction at a time
        assert np.float64(loss.rho(p)).tobytes() == np.float64(ref_rho(p)).tobytes()
        assert loss.loss(p).tobytes() == ref_loss(p).tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_norm_loss_alpha_inf_is_the_constant_loss_bit_for_bit(n):
    P = _seeded_directions(n, np.random.default_rng(10 + n))
    norm, const = lg.norm_loss(math.inf, n), lg.constant_loss(n)
    assert norm.rho(P).tobytes() == const.rho(P).tobytes()
    assert norm.loss(P).tobytes() == const.loss(P).tobytes()


def _cnorm_mpmath(a, p):
    """50-digit Bayes risk G_c(p) and loss (q_y / G_c(q))^e of cnorm at p,
    with the float exponents c = a/(a-1) and e = 1/(a-1) that the family
    computes.  A rounding error of e moves the loss by |e log(q_y / G_c(q))|
    eps relative, 3e-14 at e = -10 and q_y / G_c(q) = 1e28."""
    with mpmath.workdps(50):
        c, e = mpmath.mpf(a / (a - 1.0)), mpmath.mpf(1.0 / (a - 1.0))
        ps = [mpmath.mpf(float(v)) for v in p]
        gauge = lambda xs: mpmath.fsum(v**c for v in xs) ** (1 / c)
        s = mpmath.fsum(ps)
        q = [v / s for v in ps]
        return float(gauge(ps)), [float((v / gauge(q)) ** e) for v in q]


@pytest.mark.parametrize("a", [0.5, 0.75, 0.9, 0.99, 0.999, 0.9999])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_cnorm_negative_gauge_exponent_matches_mpmath(a, n):
    # c = a/(a-1) reaches -9999 here: x^c overflows for any x < 1 unless the
    # row minimum is factored out.  The loss map raises the ratio q_y/G_c(q)
    # to e = 1/(a-1), which multiplies its rounding error by |e|.
    rng = np.random.default_rng(int(1e4 * a) + n)
    e = 1.0 / (a - 1.0)
    loss = lg.cnorm_loss(a, n)
    eps = np.finfo(np.float64).eps
    for k in range(12):
        p = 10.0 ** rng.uniform(-300.0 if k % 2 else -3.0, 0.0, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho, l = float(loss.rho(p)), loss.loss(p)
        want_rho, want_l = _cnorm_mpmath(a, p)
        assert rho == pytest.approx(want_rho, rel=4 * eps, abs=0.0)
        np.testing.assert_allclose(l, want_l, rtol=4 * (abs(e) + 2) * eps, atol=0.0)


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
            G = numeric_supergradient(loss.bayes_risk, P)
            assert np.max(np.abs(L - G)) <= 1e-5, loss.name
