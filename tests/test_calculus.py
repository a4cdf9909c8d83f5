"""Composition (direct and dual), affine transforms, normalization, shifting."""

import json
import math
import sys
import threading

import numpy as np
import pytest

import lossgeom as lg
from lossgeom import calculus
from lossgeom.calculus import (
    MSumSpec,
    dual_msum,
    msum,
    normalize_canonical,
    scale_translate,
    shift_maximum,
)
from lossgeom.cli import main
from lossgeom.divergence import verify_all
from lossgeom.duality import antipolar_bayes_risk
from lossgeom.families import beta_gauge
from lossgeom.geometry import numeric_supergradient


# ---------------------------------------------------------------------------
# direct composition
# ---------------------------------------------------------------------------
def test_msum_constant_combiner_is_sum_of_losses():
    log2, br2 = lg.log_loss(2), lg.brier_loss(2)
    combined = msum(MSumSpec(lg.constant_loss(2), (log2, br2)))
    for p in lg.simplex_grid(2, 25).points:
        np.testing.assert_allclose(
            combined.loss(p), log2.loss(p) + br2.loss(p), atol=1e-12
        )
        assert float(combined.rho(p)) == pytest.approx(
            float(log2.rho(p)) + float(br2.rho(p)), abs=1e-12
        )


def test_msum_loss_where_every_part_risk_vanishes(capsys):
    # at a vertex each Brier risk is 0, yet each loss is finite: 2 (0, 2, 2)
    br3 = lg.brier_loss(3)
    combined = msum(MSumSpec(lg.constant_loss(2), (br3, br3)))
    np.testing.assert_array_equal(combined.loss([1.0, 0.0, 0.0]), [0.0, 4.0, 4.0])
    assert main(["eval", "--loss", "msum:combiner=const;parts=brier,brier", "--p=1,0,0"]) == 0
    assert json.loads(capsys.readouterr().out)["loss_vector"] == [0.0, 4.0, 4.0]


def test_msum_min_combiner_of_equal_parts():
    log2 = lg.log_loss(2)
    combined = msum(MSumSpec(lg.zero_one_loss(2), (log2, lg.log_loss(2))))
    p = np.array([0.3, 0.7])
    np.testing.assert_allclose(combined.loss(p), log2.loss(p), atol=1e-12)
    assert float(combined.rho(p)) == pytest.approx(float(log2.rho(p)), abs=1e-14)


def test_msum_concave_norm_combiner_value():
    # oracle: compose the analytic formulas directly
    log2, br2 = lg.log_loss(2), lg.brier_loss(2)
    combined = msum(MSumSpec(lg.cnorm_loss(0.5, 2), (log2, br2)))
    u = np.array([0.5, 0.5])
    oracle = float(beta_gauge(-1.0, np.array([math.log(2.0), 0.5])))
    assert float(combined.rho(u)) == pytest.approx(oracle, abs=1e-14)
    assert lg.inner(combined.loss(u), u) == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_msum_outputs_are_proper(n):
    grid = lg.simplex_grid(n, 40)
    combos = [
        MSumSpec(lg.constant_loss(2), (lg.log_loss(n), lg.brier_loss(n))),
        MSumSpec(lg.zero_one_loss(2), (lg.log_loss(n), lg.brier_loss(n))),
        MSumSpec(lg.cnorm_loss(0.5, 2), (lg.log_loss(n), lg.brier_loss(n))),
    ]
    for spec in combos:
        loss = msum(spec)
        rep = lg.check_properness(loss, grid, tol=1e-9)
        assert rep.passed, f"{loss.name}: {rep}"


def test_msum_bayes_risk_homogeneous_and_superadditive():
    loss = msum(MSumSpec(lg.cnorm_loss(0.5, 2), (lg.log_loss(2), lg.brier_loss(2))))
    P = lg.simplex_grid(2, 12).points
    r = np.asarray(loss.bayes_risk(P))
    for alpha in (0.5, 2.0):
        np.testing.assert_allclose(
            np.asarray(loss.bayes_risk(alpha * P)), alpha * r, rtol=1e-12
        )
    sums = P[:, None, :] + P[None, :, :]
    rs = np.asarray(loss.bayes_risk(sums.reshape(-1, 2))).reshape(len(P), len(P))
    assert np.max(r[:, None] + r[None, :] - rs) <= 1e-9


def test_msum_dimension_mismatch():
    with pytest.raises(ValueError):
        MSumSpec(lg.constant_loss(3), (lg.log_loss(2), lg.brier_loss(2)))
    with pytest.raises(ValueError):
        MSumSpec(lg.constant_loss(2), (lg.log_loss(2), lg.brier_loss(3)))


# ---------------------------------------------------------------------------
# dual composition
# ---------------------------------------------------------------------------
def test_dual_msum_min_combiner_halves_log():
    log2 = lg.log_loss(2)
    dual = dual_msum(MSumSpec(lg.zero_one_loss(2), (log2, lg.log_loss(2)), mode="dual"))
    for p in ([0.3, 0.7], [0.5, 0.5], [0.8, 0.2]):
        assert float(dual.rho(p)) == pytest.approx(
            0.5 * float(log2.rho(p)), abs=1e-5
        )


def test_dual_msum_min_combiner_halves_brier():
    br = lg.brier_loss(2)
    dual = dual_msum(MSumSpec(lg.zero_one_loss(2), (br, lg.brier_loss(2)), mode="dual"))
    p = np.array([0.4, 0.6])
    assert float(dual.rho(p)) == pytest.approx(0.5 * float(br.rho(p)), abs=1e-5)


def test_dual_msum_sum_combiner_matches_splitting_grid():
    # oracle: brute force over a dense grid of coordinatewise splittings
    log2, br2 = lg.log_loss(2), lg.brier_loss(2)
    dual = dual_msum(MSumSpec(lg.constant_loss(2), (log2, br2), mode="dual"))
    p = np.array([0.3, 0.7])
    T1, T2 = np.meshgrid(np.linspace(0, 1, 201), np.linspace(0, 1, 201))
    a1 = np.stack([T1 * p[0], T2 * p[1]], axis=-1)
    oracle = float(np.max(np.asarray(log2.bayes_risk(a1)) + np.asarray(br2.bayes_risk(p - a1))))
    assert float(dual.rho(p)) == pytest.approx(oracle, abs=1e-6)
    assert float(dual.rho(p)) >= oracle - 1e-12  # sup never below a feasible value


@pytest.mark.parametrize("n", [2, 3])
def test_dual_msum_outputs_are_proper(n):
    grid = lg.simplex_grid(n, 25)
    dual = dual_msum(
        MSumSpec(lg.zero_one_loss(2), (lg.log_loss(n), lg.log_loss(n)), mode="dual")
    )
    rep = lg.check_properness(dual, grid, tol=1e-4)
    assert rep.passed, str(rep)


def test_dual_msum_budget_guard():
    with pytest.raises(ValueError):
        dual_msum(
            MSumSpec(
                lg.constant_loss(3),
                (lg.log_loss(5), lg.log_loss(5), lg.log_loss(5)),
                mode="dual",
            )
        )


def test_dual_msum_three_parts():
    # m = 3, n = 2: budget 4; min combiner splits the mass three ways
    log2 = lg.log_loss(2)
    combiner = lg.cnorm_loss(1.0, 3)  # Bayes risk = coordinate minimum
    dual = dual_msum(
        MSumSpec(combiner, (log2, lg.log_loss(2), lg.log_loss(2)), mode="dual")
    )
    p = np.array([0.4, 0.6])
    assert float(dual.rho(p)) == pytest.approx(float(log2.rho(p)) / 3.0, abs=1e-4)


@pytest.mark.parametrize(
    "spec,n",
    [
        ("msum:combiner=const;parts=log,brier,brier;mode=dual", 2),
        ("msum:combiner=cnorm:a=1;parts=brier,log,brier;mode=dual", 2),
        ("msum:combiner=cnorm:a=0.5;parts=log,brier,log;mode=dual", 3),
    ],
)
def test_dual_msum_loss_map_with_three_parts(spec, n):
    # the loss map carries the splitting's weights across every part: it is
    # proper, the Bayes risk's gradient, and pairs with p to rho(p)
    dual = lg.loss_from_text(spec, n)
    grid = lg.simplex_grid(n, 4 if n == 2 else 3)
    P = grid.points
    fd = numeric_supergradient(dual.bayes_risk, P)  # its last solve is at P,
    L = dual.loss(P)  # which the loss map, properness and rho then share
    assert lg.check_properness(dual, grid).worst_violation <= 1e-9
    assert np.max(np.abs(L - fd)) <= 1e-5
    np.testing.assert_allclose(np.sum(L * P, axis=1), dual.rho(P), rtol=1e-12, atol=0.0)


def _splitting_brute(combiner, parts, p, coarse=200, fine=40, levels=8):
    """sup over splittings p = a1 + a2 of combiner(rho1(a1), rho2(a2)), n = 2.

    a1 = (s p_0, t p_1) over a grid of (s, t) in [0, 1]^2; each level lays a
    finer grid over the two cells on every side of the best point so far.
    Every grid value is feasible, so the result is a lower bound; for smooth
    combiners the concave objective makes it converge to the supremum.
    """

    def value(s, t):
        S, T = np.meshgrid(s, t, indexing="ij")
        a1 = np.stack([S * p[0], T * p[1]], axis=-1)
        risks = np.stack(
            [parts[0].bayes_risk(a1), parts[1].bayes_risk(p - a1)], axis=-1
        )
        return np.asarray(combiner.bayes_risk(np.maximum(risks, 0.0)))

    s = t = np.linspace(0.0, 1.0, coarse + 1)
    h = 1.0 / coarse
    best = -np.inf
    for _ in range(levels):
        V = value(s, t)
        i, j = np.unravel_index(int(np.argmax(V)), V.shape)
        best = max(best, float(V[i, j]))
        s = np.clip(np.linspace(s[i] - 2 * h, s[i] + 2 * h, fine + 1), 0.0, 1.0)
        t = np.clip(np.linspace(t[j] - 2 * h, t[j] + 2 * h, fine + 1), 0.0, 1.0)
        h = 4 * h / fine
    return best


_SPLIT_POINTS = np.vstack(
    [lg.simplex_grid(2, 41).points, [[0.439, 0.561], [0.56, 0.44], [0.01, 0.99]]]
)


@pytest.mark.parametrize(
    "combiner, smooth",
    [
        (lg.constant_loss(2), True),  # sum
        (lg.cnorm_loss(0.5, 2), True),  # harmonic mean
        (lg.cnorm_loss(1.0, 2), False),  # minimum
        (lg.zero_one_loss(2), False),
    ],
    ids=["sum", "harmonic", "minimum", "zeroone"],
)
def test_dual_msum_matches_brute_force_splitting(combiner, smooth):
    parts = (lg.log_loss(2), lg.brier_loss(2))
    dual = dual_msum(MSumSpec(combiner, parts, mode="dual"))
    P = _SPLIT_POINTS
    rho = np.asarray(dual.rho(P))
    brute = np.array([_splitting_brute(combiner, parts, p) for p in P])
    if smooth:
        np.testing.assert_allclose(rho, brute, rtol=1e-9, atol=0.0)
    else:
        # on a ridge the grid search only bounds the supremum from below; the
        # solver may sit below the supremum by its certified gap (1e-12)
        assert np.all(rho >= brute * (1.0 - 1e-12))
    L = dual.loss(P)
    fd = numeric_supergradient(dual.bayes_risk, P)
    assert np.max(np.abs(L - fd)) <= 1e-5
    np.testing.assert_allclose(np.sum(L * P, axis=1), rho, rtol=1e-12, atol=0.0)


def test_dual_msum_rows_do_not_depend_on_their_batch():
    dual = dual_msum(
        MSumSpec(lg.cnorm_loss(1.0, 2), (lg.log_loss(2), lg.brier_loss(2)), mode="dual")
    )
    t = np.array(
        [
            0.02262896016334217, 0.8431081055240666, 0.052242152293245775,
            0.7204692285727463, 0.18862939577845664, 0.848651765455891,
            0.539802771439128, 0.3077234149158894,
        ]
    )
    P = np.column_stack([t, 1.0 - t])
    rho, L = np.asarray(dual.rho(P)), dual.loss(P)
    for k, p in enumerate(P):
        assert np.array_equal(dual.rho(p), rho[k])
        assert np.array_equal(dual.loss(p), L[k])
    # each row is solved at p / max(p): a power-of-two scale leaves it
    # bit-identical, other scales move it by the solver's accuracy
    for alpha in (0.5, 2.0):
        assert np.array_equal(dual.loss(alpha * P), L)
    np.testing.assert_allclose(dual.loss(10.0 * P), L, rtol=0.0, atol=1e-6)


@pytest.mark.parametrize(
    "combiner", [lg.constant_loss(2), lg.cnorm_loss(1.0, 2), lg.cnorm_loss(0.5, 2)]
)
def test_dual_msum_does_not_depend_on_part_order(combiner):
    # under the sum combiner the brier part holds nothing at (0.5, 0.5): the
    # loss must come from the parts that hold each outcome
    P = np.vstack([lg.simplex_grid(2, 9).points, [[0.01, 0.99]]])
    log_first = dual_msum(MSumSpec(combiner, (lg.log_loss(2), lg.brier_loss(2)), mode="dual"))
    brier_first = dual_msum(MSumSpec(combiner, (lg.brier_loss(2), lg.log_loss(2)), mode="dual"))
    np.testing.assert_allclose(brier_first.rho(P), log_first.rho(P), rtol=1e-11, atol=0.0)
    np.testing.assert_allclose(brier_first.loss(P), log_first.loss(P), rtol=0.0, atol=1e-6)


def test_dual_msum_loss_needs_interior_points():
    dual = dual_msum(
        MSumSpec(lg.cnorm_loss(0.5, 2), (lg.log_loss(2), lg.brier_loss(2)), mode="dual")
    )
    with pytest.raises(ValueError):
        dual.loss([1.0, 0.0])
    assert float(dual.rho([0.0, 0.0])) == 0.0


# ---------------------------------------------------------------------------
# one splitting solve per batch: rho and the loss map share it
# ---------------------------------------------------------------------------
_HARMONIC_DUAL = "msum:combiner=cnorm:a=0.5;parts=log,brier;mode=dual"


@pytest.fixture
def solves(monkeypatch):
    """Count the certified splitting solves."""
    calls = []
    solve = calculus._solve_splitting

    def counted(combiner, parts, P):
        calls.append(P.shape[0])
        return solve(combiner, parts, P)

    monkeypatch.setattr(calculus, "_solve_splitting", counted)
    return calls


def _harmonic_dual(n=2):
    return lg.build_loss(lg.parse_loss_spec(_HARMONIC_DUAL), n)


def test_compose_cli_solves_once(solves, capsys):
    assert main(["compose", "--loss", _HARMONIC_DUAL, "--p=0.255,0.745"]) == 0
    capsys.readouterr()
    assert len(solves) == 1


@pytest.mark.parametrize("order", [("rho", "loss"), ("loss", "rho")], ids="-".join)
def test_rho_and_loss_at_one_point_solve_once(solves, order):
    dual, p = _harmonic_dual(), np.array([0.255, 0.745])
    for kind in order:
        getattr(dual, kind)(p)
    assert len(solves) == 1


def test_verify_all_dual_msum_solves_at_most_five_times(solves):
    dual = _harmonic_dual(3)
    rep = verify_all(dual, lg.simplex_grid(3, 12))
    assert rep.passed
    assert len(solves) <= 5


def _same(a, b):
    return np.array_equal(np.asarray(a), np.asarray(b))


def test_remembered_batch_never_serves_a_stale_answer():
    rng = np.random.default_rng(1301)
    P1, P2 = rng.uniform(0.05, 1.0, (6, 2)), rng.uniform(0.05, 1.0, (4, 2))
    dual = _harmonic_dual()
    for kind, P in [("rho", P1), ("loss", P2), ("rho", P1), ("loss", P1),
                    ("rho", P2), ("loss", P1[:3]), ("rho", P1)]:
        assert _same(getattr(dual, kind)(P), getattr(_harmonic_dual(), kind)(P))


def test_one_ulp_triggers_a_new_solve(solves):
    dual, P = _harmonic_dual(), np.array([[0.3, 0.7], [0.6, 0.4]])
    dual.rho(P)
    moved = P.copy()
    moved[1, 1] = np.nextafter(moved[1, 1], 1.0)
    got = dual.loss(moved)
    assert len(solves) == 2
    assert _same(got, _harmonic_dual().loss(moved))


def test_changing_a_returned_array_changes_no_later_result():
    dual, P = _harmonic_dual(), np.array([[0.3, 0.7], [0.6, 0.4]])
    fresh = _harmonic_dual()
    rho, L = np.asarray(dual.rho(P)), dual.loss(P)
    rho[:], L[:] = -1.0, -1.0
    assert _same(dual.rho(P), fresh.rho(P))
    assert _same(dual.loss(P), fresh.loss(P))


def test_threads_sharing_one_dual_msum_get_their_own_batches(monkeypatch):
    # a fast stand-in solve whose value names its batch, so that many hits
    # and replacements of the remembered batch interleave across threads
    def solve(combiner, parts, Q):
        (B, n), m = Q.shape, len(parts)
        return Q @ np.arange(1.0, n + 1), *np.zeros((2, B, m, n)), np.zeros((B, m))

    monkeypatch.setattr(calculus, "_solve_splitting", solve)
    points = [np.array([0.3, 0.7]), np.array([0.6, 0.4])]
    want = [float(p.max() * solve(None, (), (p / p.max())[None])[0][0]) for p in points]
    dual, wrong = _harmonic_dual(), []

    def work(k):
        for r in range(2000):
            j = (k + r // 3) % 2  # runs of three, so that calls hit
            if dual.rho(points[j]) != want[j]:
                wrong.append((k, r))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_only_the_last_batch_is_retained(solves):
    dual = _harmonic_dual(4)
    grid = lg.simplex_grid(4, 12).points
    assert grid.shape == (455, 4)
    dual.rho(grid)
    p = np.array([0.1, 0.2, 0.3, 0.4])
    dual.rho(p)
    dual.loss(p)
    assert solves == [455, 1]

    def cell(fn, name):
        return fn.__closure__[fn.__code__.co_freevars.index(name)].cell_contents

    last = cell(cell(dual.bayes_risk.fn, "solve"), "last")
    assert last[0] == (1, 4)


# ---------------------------------------------------------------------------
# composition duality at desk scale
# ---------------------------------------------------------------------------
def test_direct_antipolar_matches_dual_of_antipolars():
    # direct composition of two concave-norm losses through the constant
    # combiner; its antipolar Bayes risk must equal the dual composition of
    # the antipolar risks through the combiner's antipolar (min)
    parts = (lg.cnorm_loss(-1.0, 2), lg.cnorm_loss(0.75, 2))
    direct = msum(MSumSpec(lg.constant_loss(2), parts))
    dual_of_apolars = dual_msum(
        MSumSpec(
            lg.cnorm_loss(1.0, 2),  # antipolar of the constant combiner
            (lg.cnorm_loss(0.5, 2), lg.cnorm_loss(-3.0, 2)),  # exponent partners
            mode="dual",
        )
    )
    for p in lg.simplex_grid(2, 50).points:
        lhs = antipolar_bayes_risk(direct, p, method="numeric").value
        rhs = float(dual_of_apolars.rho(p))
        assert lhs == pytest.approx(rhs, abs=1e-3), p


# ---------------------------------------------------------------------------
# scale / translate
# ---------------------------------------------------------------------------
def test_scale_translate_identity():
    log2 = lg.log_loss(2)
    same = scale_translate(log2, 1.0, [0.0, 0.0])
    p = np.array([0.3, 0.7])
    np.testing.assert_allclose(same.loss(p), log2.loss(p), atol=0.0)
    assert float(same.rho(p)) == float(log2.rho(p))


def test_scale_translate_arithmetic():
    br = lg.brier_loss(2)
    out = scale_translate(br, 2.0, [1.0, 1.0])
    np.testing.assert_allclose(out.loss([0.5, 0.5]), [2.0, 2.0], atol=1e-15)
    # rho' = 2 rho + <t, p>
    assert float(out.rho([0.5, 0.5])) == pytest.approx(2.0 * 0.5 + 1.0, abs=1e-15)


def test_scale_translate_preserves_properness():
    out = scale_translate(lg.brier_loss(2), 2.0, [1.0, 0.25])
    rep = lg.check_properness(out, lg.simplex_grid(2, 40), tol=1e-9)
    assert rep.passed


def test_scale_translate_keeps_the_maximizer_only_under_an_exactly_uniform_shift():
    log2 = lg.log_loss(2)
    assert scale_translate(log2, 2.0, [0.5, 0.5]).maximizer is log2.maximizer
    # t = (1, 1.00001) moves the peak to p1 = 1 / (1 + e^1e-5)
    out = scale_translate(log2, 1.0, [1.0, 1.00001])
    assert out.maximizer is None
    normalized, _, p_star = normalize_canonical(out)
    p1 = 1.0 / (1.0 + math.exp(1e-5))
    np.testing.assert_allclose(p_star, [p1, 1.0 - p1], atol=1e-12)
    assert float(normalized.rho(p_star)) == pytest.approx(1.0, abs=1e-14)


def test_scale_translate_validation():
    with pytest.raises(ValueError):
        scale_translate(lg.log_loss(2), 0.0)
    with pytest.raises(ValueError):
        scale_translate(lg.log_loss(2), 1.0, [-0.5, 0.0])


# ---------------------------------------------------------------------------
# canonical normalization
# ---------------------------------------------------------------------------
def test_normalize_log_two_outcomes():
    _, c, p_star = normalize_canonical(lg.log_loss(2))
    assert c == pytest.approx(1.0 / math.log(2), abs=1e-12)
    np.testing.assert_allclose(p_star, [0.5, 0.5], atol=1e-9)


def test_normalize_brier_three_outcomes():
    _, c, _ = normalize_canonical(lg.brier_loss(3))
    assert c == pytest.approx(1.5, abs=1e-10)


def test_normalize_cnorm():
    _, c, _ = normalize_canonical(lg.cnorm_loss(-1.0, 2))
    assert c == pytest.approx(0.5, abs=1e-12)


def test_normalized_loss_attains_one():
    for loss in (lg.log_loss(2), lg.brier_loss(3), lg.cobb_douglas_loss([2.0, 1.0])):
        normalized, _, p_star = normalize_canonical(loss)
        assert float(normalized.rho(p_star)) == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# shifting the maximum
# ---------------------------------------------------------------------------
def test_shift_maximum_log_quarter():
    shifted = shift_maximum(lg.log_loss(2), [0.25, 0.75])
    grid = lg.simplex_grid(2, 400)
    vals = np.asarray(shifted.bayes_risk(grid.points))
    argmax = grid.points[int(np.argmax(vals))]
    spacing = (1.0 - 2 * grid.margin) / (len(grid) - 1)
    assert abs(argmax[0] - 0.25) <= spacing
    np.testing.assert_allclose(shifted.loss([0.25, 0.75]), [1.0, 1.0], atol=1e-12)


def test_shift_maximum_noop_at_current_maximizer():
    loss = lg.log_loss(2)
    shifted = shift_maximum(loss, [0.5, 0.5])
    grid = lg.simplex_grid(2, 200)
    vals = np.asarray(shifted.bayes_risk(grid.points))
    argmax = grid.points[int(np.argmax(vals))]
    assert abs(argmax[0] - 0.5) <= 0.01
    # the true peak sits at p0 itself, above every grid value
    peak = float(shifted.rho([0.5, 0.5]))
    assert peak == pytest.approx(1.0, abs=1e-12)
    assert peak >= float(np.max(vals)) - 1e-12
    assert peak - float(np.max(vals)) <= 1e-4
    # the loss vector at the unchanged maximizer is exactly uniform
    np.testing.assert_allclose(shifted.loss([0.5, 0.5]), [1.0, 1.0], atol=1e-12)


def test_shift_maximum_brier_and_properness():
    shifted = shift_maximum(lg.brier_loss(2), [0.6, 0.4])
    np.testing.assert_allclose(shifted.loss([0.6, 0.4]), [1.0, 1.0], atol=1e-12)
    grid = lg.simplex_grid(2, 200)
    vals = np.asarray(shifted.bayes_risk(grid.points))
    argmax = grid.points[int(np.argmax(vals))]
    assert abs(argmax[0] - 0.6) <= 0.006
    assert lg.check_properness(shifted, lg.simplex_grid(2, 50), 1e-9).passed


def test_shift_maximum_argmax_invariant_under_rescaling():
    shifted = shift_maximum(lg.log_loss(2), [0.3, 0.7])
    rescaled = scale_translate(shifted, 7.5)
    grid = lg.simplex_grid(2, 300)
    a1 = grid.points[int(np.argmax(np.asarray(shifted.bayes_risk(grid.points))))]
    a2 = grid.points[int(np.argmax(np.asarray(rescaled.bayes_risk(grid.points))))]
    np.testing.assert_allclose(a1, a2, atol=0.0)
    assert abs(a1[0] - 0.3) <= 0.005


def test_shift_maximum_user_constant():
    shifted = shift_maximum(lg.log_loss(2), [0.25, 0.75], c=1.0 / 3.0)
    l0 = shifted.loss([0.25, 0.75])
    assert l0[0] == pytest.approx(l0[1], abs=1e-12)  # still uniform at p0
    grid = lg.simplex_grid(2, 300)
    vals = np.asarray(shifted.bayes_risk(grid.points))
    argmax = grid.points[int(np.argmax(vals))]
    assert abs(argmax[0] - 0.25) <= 0.005


def test_shift_maximum_validation():
    with pytest.raises(ValueError):
        shift_maximum(lg.zero_one_loss(2), [0.3, 0.7])  # not strictly proper
    with pytest.raises(ValueError):
        shift_maximum(lg.log_loss(2), [0.0, 1.0])  # boundary target
