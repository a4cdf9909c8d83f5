"""Antipolar Bayes risks and losses, substitution, the canonical link."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import lossgeom as lg
from lossgeom import divergence, duality
from lossgeom.duality import (
    antigauge,
    antipolar_bayes_risk,
    antipolar_loss,
    canonical_link_composite,
    check_pseudo_inverse,
    substitute,
)
from lossgeom.families import _brier_antipolar_solve
from conftest import (
    analytic_families,
    brier_antipolar_value_2d,
    interior_points,
    strictly_proper_families,
)

# frozen from the two-outcome closed form at p1 = 3/4: (2 + sqrt(3)) / 4,
# reproduced below by the grid-minimization oracle
BRIER_APOLAR_AT_34 = 0.9330127018922193


def _grid_ratio_min(loss, x, resolution=200001):
    """Brute-force oracle: min over a dense simplex grid of <x;q>/rho(q)."""
    t = np.linspace(1e-9, 1.0 - 1e-9, resolution)
    Q = np.column_stack([t, 1.0 - t])
    num = Q @ np.asarray(x, dtype=float)
    den = np.asarray(loss.bayes_risk(Q))
    return float(np.min(num / den))


# ---------------------------------------------------------------------------
# antipolar Bayes risk values
# ---------------------------------------------------------------------------
def test_brier_antipolar_uniform_limit():
    loss = lg.brier_loss(2)
    res = antipolar_bayes_risk(loss, [0.5, 0.5])
    # oracle: inf over q of 0.5 / (1 - ||q||^2) = 1 at the uniform q
    assert _grid_ratio_min(loss, [0.5, 0.5], 20001) == pytest.approx(1.0, abs=1e-7)
    assert res.value == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(res.minimizer, [0.5, 0.5], atol=1e-6)


def test_brier_antipolar_closed_form_point():
    loss = lg.brier_loss(2)
    res = antipolar_bayes_risk(loss, [0.75, 0.25])
    oracle = _grid_ratio_min(loss, [0.75, 0.25])
    assert res.method == "closed_form"
    assert res.value == pytest.approx(oracle, abs=1e-8)
    assert res.value == pytest.approx(BRIER_APOLAR_AT_34, abs=1e-12)
    assert res.value == pytest.approx((2.0 + math.sqrt(3.0)) / 4.0, abs=1e-12)


def test_zero_one_antipolar_value():
    loss = lg.zero_one_loss(2)
    res = antipolar_bayes_risk(loss, [0.3, 0.7])
    # oracle: <x;q> >= min(q) * ||x||_1, attained at the uniform direction
    assert _grid_ratio_min(loss, [0.3, 0.7], 20001) == pytest.approx(1.0, abs=1e-6)
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.method == "closed_form"
    np.testing.assert_allclose(res.minimizer, [0.5, 0.5], atol=1e-6)


def test_antipolar_rejects_zero_and_negative():
    loss = lg.log_loss(2)
    with pytest.raises(ValueError):
        antipolar_bayes_risk(loss, [0.0, 0.0])
    with pytest.raises(ValueError):
        antipolar_bayes_risk(loss, [-1.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        antipolar_bayes_risk(loss, [np.inf, 1.0])


# ---------------------------------------------------------------------------
# antipolar losses: closed-form pairings
# ---------------------------------------------------------------------------
def test_cnorm_antipolar_is_conjugate_exponent():
    apolar = antipolar_loss(lg.cnorm_loss(0.75, 2))
    partner = lg.cnorm_loss(-3.0, 2)
    assert apolar.name == partner.name
    for p in lg.simplex_grid(2, 9).points:
        np.testing.assert_allclose(apolar.loss(p), partner.loss(p), atol=1e-12)


def test_cobb_douglas_antipolar_is_doubled_loss():
    loss = lg.cobb_douglas_loss([1.0, 1.0])
    apolar = antipolar_loss(loss)
    for p in lg.simplex_grid(2, 9).points:
        np.testing.assert_allclose(apolar.loss(p), 2.0 * loss.loss(p), atol=1e-12)


def test_zero_one_antipolar_is_constant_loss():
    apolar = antipolar_loss(lg.zero_one_loss(2))
    assert apolar.name == "const"
    np.testing.assert_allclose(apolar.loss([0.3, 0.7]), [1.0, 1.0], atol=0.0)


@pytest.mark.parametrize("n", [2, 3])
def test_antipolar_loss_agrees_with_antipolar_bayes_risk(n):
    # the antipolar loss's Bayes risk, and its loss vector paired with x, are
    # the antipolar Bayes risk at x, closed form or not, scaled or not
    from lossgeom.calculus import scale_translate

    rng = np.random.default_rng(n)
    for base in analytic_families(n):
        for loss in (base, scale_translate(base, 2.0)):
            apolar = antipolar_loss(loss)
            P = interior_points(n, 2, rng)
            for x in [np.ones(n), *(loss.loss(P) + rng.uniform(0.0, 0.5, P.shape))]:
                value = antipolar_bayes_risk(loss, x).value
                assert float(apolar.rho(x)) == pytest.approx(value, rel=1e-9), loss.name
                assert lg.inner(apolar.loss(x), x) == pytest.approx(value, rel=1e-9), loss.name


def test_log_antipolar_risk_matches_numeric():
    loss = lg.log_loss(2)
    rng = np.random.default_rng(3)
    for p in interior_points(2, 6, rng):
        x = loss.loss(p) + rng.uniform(0.0, 1.0, 2)
        closed = antipolar_bayes_risk(loss, x, method="closed_form").value
        numeric = antipolar_bayes_risk(loss, x, method="numeric").value
        assert closed == pytest.approx(numeric, abs=1e-9)


# ---------------------------------------------------------------------------
# pseudo-inverse property
# ---------------------------------------------------------------------------
def test_pseudo_inverse_log_closed_chain():
    rep = check_pseudo_inverse(lg.log_loss(2), lg.simplex_grid(2, 50), tol=1e-6)
    assert rep.passed, str(rep)


def test_pseudo_inverse_cnorm_pairing():
    rep = check_pseudo_inverse(lg.cnorm_loss(-1.0, 2), lg.simplex_grid(2, 50), tol=1e-8)
    assert rep.passed, str(rep)


@pytest.mark.parametrize("spec", ["log:n=3", "normloss:alpha=2,n=3", "cnorm:a=0.999,n=3"])
def test_pseudo_inverse_check_is_verify_alls_entry(spec):
    # cnorm at a = 0.999 skips the grid points where its loss underflows to 0
    loss = lg.build_loss(lg.parse_loss_spec(spec))
    grid = lg.simplex_grid(3, 10)
    entry = next(
        c for c in lg.verify_all(loss, grid).to_jsonable()["checks"]
        if c["check_name"] == "pseudo_inverse"
    )
    idx = divergence._pair_subsample(len(grid), 50)
    sub = lg.SimplexGrid(grid.points[idx], 3, grid.resolution, grid.margin)
    assert check_pseudo_inverse(loss, sub).to_jsonable() == entry


def test_pseudo_inverse_brier_numeric_chain():
    grid = lg.simplex_grid(2, 30)
    away = grid.points[np.abs(grid.points[:, 0] - 0.5) > 0.05]
    sub = lg.SimplexGrid(away, 2, grid.resolution, grid.margin)
    rep = check_pseudo_inverse(lg.brier_loss(2), sub, tol=1e-3)
    assert rep.passed, str(rep)


# ---------------------------------------------------------------------------
# substitution function
# ---------------------------------------------------------------------------
def test_substitute_dominates():
    loss = lg.log_loss(2)
    x = loss.loss([0.5, 0.5]) + np.array([0.1, 0.0])
    p = substitute(loss, x)
    assert np.all(loss.loss(p) <= x + 1e-6)


def test_substitute_boundary_fixed_point():
    loss = lg.log_loss(2)
    q = np.array([0.3, 0.7])
    p = substitute(loss, loss.loss(q))
    np.testing.assert_allclose(p, q, atol=1e-9)


@pytest.mark.parametrize(
    "loss,x,compare",
    [
        (lg.brier_loss(2), [0.0, 1.0], True),
        (lg.brier_loss(3), [0.0, 1.0, 1.0], True),
        (lg.brier_loss(3), [0.0, 0.0, 1.0], False),
        (lg.cnorm_loss(0.5, 2), [0.0, 1.0], True),
        (lg.cnorm_loss(0.5, 3), [0.0, 1.0, 1.0], True),
        (lg.cnorm_loss(-1.0, 2), [0.0, 1.0], True),
        (lg.cobb_douglas_loss([1.0, 2.0]), [0.0, 1.0], True),
        (lg.cobb_douglas_loss([1.0, 1.0]), [0.0, 1.0], True),
        (lg.cobb_douglas_loss([1.0, 2.0, 3.0]), [0.0, 0.0, 1.0], False),
        # log's numeric solve loses its digits at a zero coordinate
        (lg.log_loss(2), [0.0, 1.0], False),
        (lg.log_loss(3), [0.0, 0.0, 1.0], False),
    ],
    ids=lambda v: getattr(v, "name", None),
)
def test_closed_form_antipolar_at_the_boundary(loss, x, compare):
    # where the closed-form loss map raises or is infinite, the infimum is a
    # limit on the face where x is least: its uniform point, with gap 0
    res = antipolar_bayes_risk(loss, x)
    least = np.asarray(x) == min(x)
    assert res.method == "closed_form" and res.certified_gap == 0.0
    assert np.all(res.minimizer >= 0) and res.minimizer.sum() == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_array_equal(res.minimizer > 0, least)
    if compare:
        q = duality._minimize_ratio(loss, np.array([x], dtype=float))[1][0]
        np.testing.assert_allclose(res.minimizer, q, atol=1e-6)


def test_substitute_rejects_subboundary_point():
    with pytest.raises(ValueError):
        substitute(lg.log_loss(2), [0.01, 0.01])


@pytest.mark.parametrize("tol", [float("nan"), float("inf")])
def test_substitute_rejects_a_non_finite_tolerance(tol):
    # l(1/3, 1/3, 1/3) = (2/3, 2/3, 2/3) does not dominate x, which a NaN or
    # infinite tolerance would let through
    with pytest.raises(ValueError, match="tol must be a finite number"):
        substitute(lg.zero_one_loss(3), [0.1, 1.2, 1.1], tol=tol)


# ---------------------------------------------------------------------------
# canonical link
# ---------------------------------------------------------------------------
def test_canonical_link_fixed_points():
    loss = lg.log_loss(2)
    link = canonical_link_composite(loss)
    x = np.array([math.log(2), math.log(2)])
    np.testing.assert_allclose(link(x), x, atol=1e-9)
    np.testing.assert_allclose(link(2.0 * x), x, atol=1e-9)


def test_canonical_link_quasi_convex_segments(rng):
    loss = lg.brier_loss(2)
    link = canonical_link_composite(loss)
    lam = np.linspace(0.0, 1.0, 13)
    for _ in range(25):
        t1, t2 = rng.uniform(0.1, 0.9, 2)
        x1 = loss.loss([t1, 1 - t1]) + rng.uniform(0.0, 0.5, 2)
        x2 = loss.loss([t2, 1 - t2]) + rng.uniform(0.0, 0.5, 2)
        cap = np.maximum(link(x1), link(x2))
        for t in lam[1:-1]:
            mid = link(t * x1 + (1 - t) * x2)
            assert np.max(mid - cap) <= 1e-8


# ---------------------------------------------------------------------------
# antigauge
# ---------------------------------------------------------------------------
def test_antigauge_log_boundary_scaling():
    loss = lg.log_loss(2)
    x = np.full(2, math.log(2))
    assert antigauge(loss, x) == pytest.approx(1.0, abs=1e-10)
    assert antigauge(loss, 2.0 * x) == pytest.approx(2.0, abs=1e-10)


def test_antigauge_zero_one_uniform_three_outcomes():
    loss = lg.zero_one_loss(3)
    # oracle: bisection on the membership test; the resolution is a multiple
    # of 3 so the lattice contains the binding (uniform) direction exactly
    bis = antigauge(loss, np.ones(3), method="bisection", grid_resolution=81)
    sup = antigauge(loss, np.ones(3), method="support")
    assert sup == pytest.approx(1.5, abs=1e-9)
    assert bis == pytest.approx(1.5, abs=2e-3)


def test_antigauge_methods_cross_check():
    loss = lg.brier_loss(2)
    x = loss.loss([0.3, 0.7]) * 1.7
    sup = antigauge(loss, x, method="support")
    bis = antigauge(loss, x, method="bisection", grid_resolution=400)
    assert sup == pytest.approx(1.7, abs=1e-9)
    assert bis == pytest.approx(sup, abs=1e-3)


@pytest.mark.parametrize("scale", [1e13, 1e-13])
def test_antigauge_bisection_at_extreme_scales(scale):
    # the grid bound is 1-homogeneous in x, and above the support value by
    # the grid's accuracy
    loss = lg.log_loss(3)
    x = np.array([1.0, 2.0, 3.0])
    bis = antigauge(loss, scale * x, method="bisection")
    assert bis == pytest.approx(scale * antigauge(loss, x, method="bisection"), rel=1e-12)
    sup = antigauge(loss, scale * x, method="support")
    assert sup <= bis <= sup * (1.0 + 1e-3)


# ---------------------------------------------------------------------------
# inequalities and covariance laws
# ---------------------------------------------------------------------------
def test_reverse_hoelder_inequality(rng):
    grid = lg.simplex_grid(2, 25).points
    for loss in strictly_proper_families(2):
        rhos = np.asarray(loss.bayes_risk(grid))
        for _ in range(8):
            t = rng.uniform(0.1, 0.9)
            x = loss.loss([t, 1 - t]) + rng.uniform(0.0, 1.0, 2)
            val = antipolar_bayes_risk(loss, x).value
            assert np.max(val * rhos - grid @ x) <= 1e-8, loss.name


def test_functional_bipolarity_closed_pairs():
    # antipolar of the antipolar reproduces the Bayes risk (exponent pairing)
    loss = lg.cnorm_loss(-1.0, 2)
    apolar = antipolar_loss(loss)
    back = antipolar_loss(apolar)
    for p in lg.simplex_grid(2, 15).points:
        assert float(back.rho(p)) == pytest.approx(float(loss.rho(p)), rel=1e-9)


def test_functional_bipolarity_numeric():
    loss = lg.brier_loss(2)
    apolar = antipolar_loss(loss)
    for t in (0.15, 0.3, 0.45, 0.6, 0.85):
        p = np.array([t, 1.0 - t])
        back = antipolar_bayes_risk(apolar, p, method="numeric").value
        assert back == pytest.approx(float(loss.rho(p)), abs=1e-4)


def test_numeric_antipolar_links_back_to_its_loss(monkeypatch):
    # bipolar theorem: the antipolar of the numeric antipolar is the loss
    # itself, with no nested solve
    loss = lg.norm_loss(2.0, 3)
    apolar = antipolar_loss(loss)

    def no_solve(*args, **kwargs):
        raise AssertionError("unexpected numeric antipolar solve")

    monkeypatch.setattr(duality, "_minimize_ratio", no_solve)
    assert antipolar_loss(apolar) is loss
    p = np.array([0.2, 0.3, 0.5])
    res = antipolar_bayes_risk(apolar, p)
    assert (res.method, res.certified_gap) == ("closed_form", 0.0)
    assert res.value == float(loss.rho(p))


def test_antipolar_scaling_covariance():
    from lossgeom.calculus import scale_translate

    loss = lg.brier_loss(2)
    scaled = scale_translate(loss, 3.0)
    for t in (0.2, 0.35, 0.7):
        x = np.array([t, 1.3 - t])
        base = antipolar_bayes_risk(loss, x, method="numeric").value
        third = antipolar_bayes_risk(scaled, x, method="numeric").value
        assert third == pytest.approx(base / 3.0, abs=1e-9)


def test_certified_gap_nonnegative(rng):
    for loss in (lg.brier_loss(3), lg.log_loss(3)):
        for p in interior_points(3, 3, rng):
            x = loss.loss(p) + rng.uniform(0.0, 0.5, 3)
            res = antipolar_bayes_risk(loss, x, method="numeric")
            assert res.certified_gap >= 0.0
            assert res.value >= 0.0
            assert res.minimizer.min() >= 0.0
            assert res.minimizer.sum() == pytest.approx(1.0, abs=1e-9)


def test_brier_closed_form_vs_explicit_formula():
    # independent check of the closed-form curve against the variational oracle
    loss = lg.brier_loss(2)
    for t in np.linspace(0.06, 0.44, 9):
        closed = float(brier_antipolar_value_2d(t))
        oracle = _grid_ratio_min(loss, [t, 1.0 - t])
        assert closed == pytest.approx(oracle, abs=1e-8)


# ---------------------------------------------------------------------------
# the batched numeric solver
# ---------------------------------------------------------------------------
SOLVER_SPECS = ("brier", "normloss:alpha=2", "normloss:alpha=1", "zeroone", "cnorm:a=1")


def _closed_lattice(n, resolution):
    """Every point k / resolution of the closed n-simplex, boundary included."""
    heads = np.indices((resolution + 1,) * (n - 1)).reshape(n - 1, -1).T
    heads = heads[heads.sum(axis=1) <= resolution]
    K = np.column_stack([heads, resolution - heads.sum(axis=1)])
    return K / resolution


def _lattice_min(loss, X, lattice):
    """Brute-force oracle: min over the lattice of <x;q>/rho(q), per row of X."""
    den = np.asarray(loss.bayes_risk(lattice))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(den > 0, (X @ lattice.T) / den, np.inf)
    return ratios.min(axis=1)


def _queries(loss, count, seed):
    rng = np.random.default_rng(seed)
    P = rng.dirichlet(np.ones(loss.n), size=count)
    return loss.loss(P) + rng.uniform(0.0, 0.5, size=(count, loss.n))


@pytest.mark.parametrize("n,resolution", [(3, 600), (4, 100)])
@pytest.mark.parametrize("spec", SOLVER_SPECS)
def test_solver_reaches_closed_lattice_minimum(spec, n, resolution):
    loss = lg.build_loss(lg.parse_loss_spec(spec), n)
    X = _queries(loss, 20, seed=n)
    _assert_certified_against_lattice(loss, X, resolution)


def _assert_certified_against_lattice(loss, X, resolution):
    """The values reach the closed-lattice minimum, and each value minus its
    gap is a lower bound on it: 0 <= gap <= 1e-11 * value."""
    values, minimizers, gaps = duality._minimize_ratio(loss, X)
    best = _lattice_min(loss, X, _closed_lattice(loss.n, resolution))
    assert np.all(values <= best * (1.0 + 1e-9)), np.max(values / best - 1.0)
    assert np.all((gaps >= 0.0) & (gaps <= 1e-11 * values)), np.max(gaps / values)
    assert np.all(values - gaps <= best * (1.0 + 1e-15)), np.max((values - gaps) / best - 1.0)
    np.testing.assert_allclose(minimizers.sum(axis=1), 1.0, atol=1e-12)
    assert minimizers.min() >= 0.0


@pytest.mark.parametrize("n,resolution,seed", [(4, 60, 101), (5, 30, 102)])
@pytest.mark.parametrize("spec", SOLVER_SPECS)
def test_solver_reaches_lattice_minimum_on_three_way_ties(spec, n, resolution, seed):
    # these seeds hold minimizers where three or more coordinates tie, which
    # a local search that moves mass between two coordinates misses
    loss = lg.build_loss(lg.parse_loss_spec(spec), n)
    _assert_certified_against_lattice(loss, _queries(loss, 40, seed=seed), resolution)


@pytest.mark.parametrize("spec", ["brier", "zeroone", "normloss:alpha=1"])
def test_solver_reaches_lattice_minimum_at_six_outcomes(spec):
    loss = lg.build_loss(lg.parse_loss_spec(spec), 6)
    _assert_certified_against_lattice(loss, _queries(loss, 10, seed=6), 12)


def test_solver_rejects_ten_outcomes():
    loss = lg.brier_loss(10)
    with pytest.raises(ValueError):
        duality._minimize_ratio(loss, np.ones((1, 10)))


def test_solver_zero_one_three_way_tie():
    loss = lg.zero_one_loss(5)
    x = np.array([0.06702084862358237, 1.2015564932235647, 1.1017276203380748,
                  1.1311566702209248, 1.3751823363150262])
    res = antipolar_bayes_risk(loss, x)
    # attained at (1/3, 0, 1/3, 1/3, 0): (x_0 + x_2 + x_3) / 3 / (1 - 1/3)
    assert res.value == pytest.approx(1.1499525695912907, rel=1e-11)
    assert 0.0 <= res.certified_gap <= 1e-11 * res.value
    np.testing.assert_allclose(res.minimizer, [1 / 3, 0, 1 / 3, 1 / 3, 0], atol=1e-9)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize(
    "spec", ["brier", "normloss:alpha=2", "normloss:alpha=3", "log", "cnorm:a=0.5", "cnorm:a=-1"]
)
def test_solver_minimizer_accuracy(spec, n, rng):
    # at x = c l(p) the ratio is least at q = p, with value c, for a strictly
    # proper loss: x = f l(q) is the stationarity condition on the cone
    loss = lg.build_loss(lg.parse_loss_spec(spec), n)
    P = interior_points(n, 12, rng, margin=0.05)
    c = rng.uniform(0.5, 2.0, len(P))
    values, minimizers, _ = duality._minimize_ratio(loss, c[:, None] * loss.loss(P))
    assert np.max(np.abs(minimizers - P)) <= 1e-12
    np.testing.assert_allclose(values, c, rtol=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_solver_minimizers_on_faces(n):
    # seeded Brier queries whose minimizers lie on a face: the numeric solve
    # meets the closed form, zero coordinates included
    loss = lg.brier_loss(n)
    X = _queries(loss, 200, seed=3)
    values, minimizers, _ = duality._minimize_ratio(loss, X)
    closed_values, closed = _brier_antipolar_solve(X)
    assert np.sum(np.any(closed == 0, axis=1)) >= 2
    assert np.array_equal(minimizers == 0, closed == 0)
    assert np.max(np.abs(minimizers - closed)) <= 1e-12
    np.testing.assert_allclose(values, closed_values, rtol=1e-14)


@pytest.mark.parametrize("scale", [2.0 ** -600, 2.0 ** 600])
@pytest.mark.parametrize("spec", ["brier:n=2", "normloss:alpha=1,n=3"])
def test_solver_is_homogeneous_at_extreme_scales(spec, scale):
    # a power of 2 scales exactly, so the rows match bit for bit
    loss = lg.build_loss(lg.parse_loss_spec(spec))
    X = _queries(loss, 4, seed=12)
    values, minimizers, gaps = duality._minimize_ratio(loss, X)
    scaled = duality._minimize_ratio(loss, scale * X)
    for got, want in zip(scaled, (scale * values, minimizers, scale * gaps)):
        np.testing.assert_array_equal(got, want)


# twice the Brier loss, through the numeric solver; at NEAR_VERTEX the part
# risks of the solver's points can all round to 0
MSUM_BRIERS = "msum:combiner=const;parts=brier:n=3,brier:n=3"
NEAR_VERTEX = [2.6696168458114482e-14, 0.6933823555256008, 0.5618132230617171]


def test_solver_near_a_vertex_of_an_msum():
    loss = lg.build_loss(lg.parse_loss_spec(MSUM_BRIERS))
    res = antipolar_bayes_risk(loss, NEAR_VERTEX)
    truth = antipolar_bayes_risk(lg.brier_loss(3), NEAR_VERTEX).value / 2.0
    assert res.value == pytest.approx(truth, rel=1e-9)


def test_solver_claims_no_bound_where_the_loss_loses_precision():
    # the infimum 0.5 is reached only as q -> (1, 0, 0), where the Brier
    # terms 1 - |q|^2 cancel; a bound read off them passes the infimum
    values, _, gaps = duality._minimize_ratio(lg.brier_loss(3), np.array([[0.0, 1.0, 1.0]]))
    assert values[0] == pytest.approx(0.5, abs=1e-7)
    assert values[0] - gaps[0] <= 0.5


@pytest.mark.parametrize(
    "spec", ["brier:n=3", "zeroone:n=3", "log:n=2", "normloss:alpha=2,n=3", MSUM_BRIERS]
)
def test_solver_rows_do_not_depend_on_their_batch(spec):
    loss = lg.build_loss(lg.parse_loss_spec(spec))
    X = _queries(loss, duality._CHUNK + 5, seed=7)  # spans a chunk boundary
    if spec == MSUM_BRIERS:
        X[5] = NEAR_VERTEX
    batch = duality._minimize_ratio(loss, X)
    for i, x in enumerate(X):
        alone = duality._minimize_ratio(loss, x[None, :])
        for got, want in zip(batch, alone):
            assert np.array_equal(got[i], want[0])


def test_solver_memory_does_not_grow_with_the_batch():
    loss = lg.brier_loss(3)
    X = _queries(loss, 256, seed=11)
    tracemalloc.start()
    try:
        duality._minimize_ratio(loss, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, peak / 2**20


def test_zero_one_ridge_minimizer_on_the_face():
    # the minimizer (0, 1/2, 1/2) lies on a face and a tie, which cuts and
    # descent only approach; the final snap reaches it exactly
    loss = lg.zero_one_loss(3)
    x = np.array([1.445137176002396, 0.11357879676668986, 1.3115935723430212])
    res = antipolar_bayes_risk(loss, x)
    assert res.value == pytest.approx(1.4251723691097111, rel=1e-15)
    np.testing.assert_allclose(res.minimizer, [0.0, 0.5, 0.5], atol=1e-15)
    assert 0.0 <= res.certified_gap <= 1e-11 * res.value
    assert res.value - res.certified_gap <= 1.4251723691097111 * (1.0 + 1e-15)


@pytest.fixture
def count_solves(monkeypatch):
    calls = []
    solve = duality._minimize_ratio

    def counted(loss, X):
        calls.append(np.asarray(X).shape[0])
        return solve(loss, X)

    monkeypatch.setattr(duality, "_minimize_ratio", counted)
    return calls


@pytest.mark.parametrize("spec", ["brier:n=3", "normloss:alpha=2,n=3", "brier:n=2"])
def test_substitute_solves_once(count_solves, spec):
    # the Brier antipolar is closed form: it makes no numeric solve
    loss = lg.build_loss(lg.parse_loss_spec(spec))
    x = _queries(loss, 1, seed=3)[0]
    p = substitute(loss, x)
    assert count_solves == ([] if spec.startswith("brier") else [1])
    assert np.all(loss.loss(p) <= x + 1e-6)


@pytest.mark.parametrize("spec", ["normloss:alpha=2,n=3", "normloss:alpha=3,n=4"])
def test_substitute_dominates_to_rounding_on_numeric_antipolars(spec, rng):
    # on the boundary x = l(p) only an exact minimizer dominates x to 1e-12
    loss = lg.build_loss(lg.parse_loss_spec(spec))
    for x in loss.loss(interior_points(loss.n, 8, rng)):
        assert np.all(loss.loss(substitute(loss, x, tol=1e-12)) <= x + 1e-12)


def test_cli_antipolar_solves_once(count_solves, capsys):
    from lossgeom.cli import main

    for spec, solves in (("brier:n=3", []), ("normloss:alpha=2,n=3", [1])):
        loss = lg.build_loss(lg.parse_loss_spec(spec))
        x = _queries(loss, 1, seed=5)[0]
        code = main(["antipolar", "--loss", spec,
                     "--x=" + ",".join(repr(float(v)) for v in x)])
        assert code == 0
        assert count_solves == solves
        out = json.loads(capsys.readouterr().out)
        q = np.array(out["minimizer"])
        if solves:  # the numeric vector is read off the solve's minimizer
            np.testing.assert_array_equal(out["antipolar_loss_vector"], q / loss.rho(q))


def test_antipolar_loss_solves_each_batch_once(count_solves):
    for spec, solves in (("brier:n=3", []), ("normloss:alpha=2,n=3", [4, 4])):
        loss = lg.build_loss(lg.parse_loss_spec(spec))
        apolar = antipolar_loss(loss)
        X = _queries(loss, 4, seed=9)
        apolar.rho(X)
        apolar.loss(X)
        assert count_solves == solves
