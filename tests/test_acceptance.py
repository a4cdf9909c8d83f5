"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Scale: n in {2, 3, 4}, grids <= 10^4 points per check.
"""

import math

import numpy as np

import lossgeom as lg
from lossgeom.calculus import (
    MSumSpec,
    dual_msum,
    msum,
    normalize_canonical,
    shift_maximum,
)
from lossgeom.divergence import bregman, weight_function
from lossgeom.duality import (
    antigauge,
    antipolar_bayes_risk,
    antipolar_loss,
    canonical_link_composite,
    check_pseudo_inverse,
    substitute,
)
from lossgeom.families import beta_gauge, psi_gauge

from conftest import brier_antipolar_value_2d, interior_points


def report(k: int, label: str, ok: bool, detail: str = "") -> bool:
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {k:>2} {label}: {state} {detail}".rstrip())
    return ok


def _families(n):
    return [
        lg.log_loss(n),
        lg.brier_loss(n),
        lg.zero_one_loss(n),
        lg.cnorm_loss(-3.0, n),
        lg.cnorm_loss(-1.0, n),
        lg.cnorm_loss(0.5, n),
        lg.cnorm_loss(0.75, n),
        lg.cobb_douglas_loss(np.ones(n)),
        lg.norm_loss(1.0, n),
        lg.norm_loss(2.0, n),
        lg.norm_loss(np.inf, n),
        lg.constant_loss(n),
    ]


# ---------------------------------------------------------------------------
# 1. properness of every family and composition
# ---------------------------------------------------------------------------
def test_criterion_01_properness():
    worst_analytic = -np.inf
    worst_numeric = -np.inf
    ok = True
    for n in (2, 3):
        grid = lg.simplex_grid(n, 50)
        for loss in _families(n):
            rep = lg.check_properness(loss, grid, tol=1e-9)
            worst_analytic = max(worst_analytic, rep.worst_violation)
            ok &= rep.passed
        direct = [
            MSumSpec(lg.constant_loss(2), (lg.log_loss(n), lg.brier_loss(n))),
            MSumSpec(lg.zero_one_loss(2), (lg.log_loss(n), lg.log_loss(n))),
            MSumSpec(lg.cnorm_loss(0.5, 2), (lg.log_loss(n), lg.brier_loss(n))),
        ]
        for spec in direct:
            rep = lg.check_properness(msum(spec), grid, tol=1e-9)
            worst_analytic = max(worst_analytic, rep.worst_violation)
            ok &= rep.passed
    dual_specs = [
        (2, MSumSpec(lg.zero_one_loss(2), (lg.log_loss(2), lg.log_loss(2)), mode="dual")),
        (2, MSumSpec(lg.zero_one_loss(2), (lg.brier_loss(2), lg.brier_loss(2)), mode="dual")),
        (2, MSumSpec(lg.constant_loss(2), (lg.log_loss(2), lg.brier_loss(2)), mode="dual")),
        (3, MSumSpec(lg.zero_one_loss(2), (lg.log_loss(3), lg.log_loss(3)), mode="dual")),
    ]
    for n, spec in dual_specs:
        rep = lg.check_properness(dual_msum(spec), lg.simplex_grid(n, 50), tol=1e-4)
        worst_numeric = max(worst_numeric, rep.worst_violation)
        ok &= rep.passed
    assert report(
        1, "properness",
        ok,
        f"worst analytic {worst_analytic:.2e} (tol 1e-9), "
        f"worst numeric {worst_numeric:.2e} (tol 1e-4)",
    )


# ---------------------------------------------------------------------------
# 2. analytic loss maps vs finite-difference supergradients
# ---------------------------------------------------------------------------
def test_criterion_02_gradient_consistency():
    from lossgeom.geometry import numeric_supergradient

    rng = np.random.default_rng(42)
    worst = 0.0
    for n in (2, 3):
        P = interior_points(n, 100, rng)  # 100 points at each of two dims
        for loss in _families(n):
            L = loss.loss(P)
            G = numeric_supergradient(loss.bayes_risk, P)
            worst = max(worst, float(np.max(np.abs(L - G))))
    assert report(2, "gradient consistency", worst <= 1e-5, f"worst {worst:.2e} (tol 1e-5)")


# ---------------------------------------------------------------------------
# 3. antipolar pairings
# ---------------------------------------------------------------------------
def test_criterion_03_antipolar_pairings():
    ok = True
    details = []

    # concave-norm exponent pairing, fully numeric vs the conjugate gauge
    worst = 0.0
    for a in (-3.0, -1.0, 0.5, 0.75):
        for n, count in ((2, 12), (3, 4)):
            loss = lg.cnorm_loss(a, n)
            rng = np.random.default_rng(7)
            for x in interior_points(n, count, rng) * 1.3:
                numeric = antipolar_bayes_risk(loss, x, method="numeric").value
                closed = float(beta_gauge(a, x))
                worst = max(worst, abs(numeric - closed))
    ok &= worst <= 1e-4
    details.append(f"cnorm {worst:.2e}/1e-4")

    # Cobb-Douglas self-polar factor
    worst = 0.0
    for a in ([1.0, 1.0], [2.0, 1.0]):
        a = np.array(a)
        loss = lg.cobb_douglas_loss(a)
        factor = float(a.sum() / psi_gauge(a / a.sum(), a))
        rng = np.random.default_rng(11)
        for x in interior_points(2, 6, rng):
            numeric = antipolar_bayes_risk(loss, x, method="numeric").value
            recovered = numeric / float(psi_gauge(a / a.sum(), x))
            worst = max(worst, abs(recovered - factor))
    ok &= worst <= 1e-6
    details.append(f"cd factor {worst:.2e}/1e-6")

    # Brier two-outcome closed form
    loss = lg.brier_loss(2)
    worst = 0.0
    ts = np.concatenate([np.arange(0.05, 0.451, 0.025), np.arange(0.55, 0.951, 0.025)])
    for t in ts:
        x = np.array([t, 1.0 - t])
        numeric = antipolar_bayes_risk(loss, x, method="numeric").value
        closed = float(brier_antipolar_value_2d(t))
        worst = max(worst, abs(numeric - closed))
    uniform = antipolar_bayes_risk(loss, [0.5, 0.5]).value
    ok &= worst <= 1e-5 and abs(uniform - 1.0) <= 1e-9
    details.append(f"brier {worst:.2e}/1e-5, uniform err {abs(uniform-1.0):.1e}")

    assert report(3, "antipolar pairings", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 4. pseudo-inverse round trips
# ---------------------------------------------------------------------------
def test_criterion_04_pseudo_inverse():
    # every chain at one tolerance, whether its antipolar is closed form or,
    # as for normloss, numeric
    chains = [
        lg.log_loss(2),
        lg.log_loss(3),
        lg.cnorm_loss(-1.0, 2),
        lg.cnorm_loss(0.75, 2),
        lg.cnorm_loss(-1.0, 3),
        lg.cobb_douglas_loss([1.0, 1.0]),
        lg.cobb_douglas_loss([2.0, 1.0]),
        lg.brier_loss(2),
        lg.norm_loss(2.0, 2),
    ]
    ok = True
    worst = 0.0
    for loss in chains:
        grid = lg.simplex_grid(loss.n, 100 if loss.n == 2 else 13)
        rep = check_pseudo_inverse(loss, grid, tol=1e-8)
        worst = max(worst, rep.worst_violation)
        ok &= rep.passed
    assert report(4, "pseudo-inverse", ok, f"worst {worst:.2e}/1e-8")


# ---------------------------------------------------------------------------
# 5. canonical normalization coefficients
# ---------------------------------------------------------------------------
def test_criterion_05_normalization():
    ok = True
    worst = 0.0

    def expect(loss, target, numeric_too=True):
        nonlocal ok, worst
        _, c, _ = normalize_canonical(loss)
        err = abs(c - target)
        if numeric_too:
            num = antipolar_bayes_risk(loss, np.ones(loss.n), method="numeric").value
            err = max(err, abs(num - target))
        worst = max(worst, err)
        ok &= err <= 1e-8

    for n in (2, 3, 4):
        expect(lg.log_loss(n), 1.0 / math.log(n))
        expect(lg.brier_loss(n), n / (n - 1.0))
        for a in (-3.0, -1.0, 0.5, 0.75):
            expect(lg.cnorm_loss(a, n), n ** (1.0 / a))
        a = np.ones(n)
        expect(lg.cobb_douglas_loss(a), float(a.sum() / psi_gauge(a / a.sum(), a)))
        a = np.array([2.0] + [1.0] * (n - 1))
        expect(lg.cobb_douglas_loss(a), float(a.sum() / psi_gauge(a / a.sum(), a)))

    # misclassification: the computed antigauge is n/(n-1), i.e. 2 at n = 2
    # and 3/2 at n = 3; the often-quoted constant n agrees only at n = 2, so
    # the computed value is what gets asserted
    _, c2, _ = normalize_canonical(lg.zero_one_loss(2))
    _, c3, _ = normalize_canonical(lg.zero_one_loss(3))
    ok &= abs(c2 - 2.0) <= 1e-8 and abs(c3 - 1.5) <= 1e-8
    worst = max(worst, abs(c2 - 2.0), abs(c3 - 1.5))

    # normalized Bayes risk peaks at 1 on a resolution-200 grid, at the
    # direction of the antipolar loss of the all-ones vector
    argmax_ok = True
    for n in (2, 3, 4):
        grid = lg.simplex_grid(n, 200)
        spacing = 1.0 / 200.0
        for loss in (
            lg.log_loss(n),
            lg.brier_loss(n),
            lg.cnorm_loss(-1.0, n),
            lg.cobb_douglas_loss(np.array([2.0] + [1.0] * (n - 1))),
        ):
            normalized, c, p_star = normalize_canonical(loss)
            vals = np.asarray(normalized.bayes_risk(grid.points))
            peak = float(np.max(vals))
            argmax = grid.points[int(np.argmax(vals))]
            ok &= abs(float(normalized.rho(p_star)) - 1.0) <= 1e-6
            argmax_ok &= bool(np.max(np.abs(argmax - p_star)) <= 1.5 * spacing)
            ok &= peak <= 1.0 + 1e-6
    ok &= argmax_ok

    assert report(
        5, "normalization",
        ok,
        f"worst coefficient err {worst:.2e}/1e-8, grid argmax ok {argmax_ok}",
    )


# ---------------------------------------------------------------------------
# 6. shifting the maximum
# ---------------------------------------------------------------------------
def test_criterion_06_shift_maximum():
    ok = True
    worst_unit = 0.0
    grid = lg.simplex_grid(2, 200)
    spacing = (1.0 - 2 * grid.margin) / (len(grid) - 1)
    proper_grid = lg.simplex_grid(2, 50)
    for base in (lg.log_loss(2), lg.brier_loss(2)):
        for p0 in ([0.25, 0.75], [0.6, 0.4]):
            shifted = shift_maximum(base, p0)
            unit_err = float(np.max(np.abs(shifted.loss(p0) - 1.0)))
            worst_unit = max(worst_unit, unit_err)
            ok &= unit_err <= 1e-10
            vals = np.asarray(shifted.bayes_risk(grid.points))
            argmax = grid.points[int(np.argmax(vals))]
            ok &= abs(argmax[0] - p0[0]) <= spacing + 1e-12
            ok &= lg.check_properness(shifted, proper_grid, tol=1e-9).passed
    assert report(
        6, "shift maximum", ok, f"worst unit-vector err {worst_unit:.2e}/1e-10"
    )


# ---------------------------------------------------------------------------
# 7. composition identities
# ---------------------------------------------------------------------------
def test_criterion_07_composition_identities():
    log2, br2 = lg.log_loss(2), lg.brier_loss(2)
    combined = msum(MSumSpec(lg.constant_loss(2), (log2, br2)))
    grid = lg.simplex_grid(2, 50)
    L = combined.loss(grid.points)
    expected = log2.loss(grid.points) + br2.loss(grid.points)
    sum_err = float(np.max(np.abs(L - expected)))
    ok = sum_err <= 1e-12

    worst_half = 0.0
    test_points = {2: [[0.3, 0.7], [0.5, 0.5], [0.85, 0.15]], 3: [[0.2, 0.3, 0.5]]}
    for n in (2, 3):
        fams = [
            lg.log_loss(n),
            lg.brier_loss(n),
            lg.zero_one_loss(n),
            lg.cnorm_loss(-1.0, n),
            lg.cobb_douglas_loss(np.ones(n)),
            lg.norm_loss(2.0, n),
            lg.constant_loss(n),
        ] if n == 2 else [lg.log_loss(n), lg.brier_loss(n)]
        for loss in fams:
            dual = dual_msum(
                MSumSpec(lg.zero_one_loss(2), (loss, loss), mode="dual")
            )
            for p in test_points[n]:
                err = abs(float(dual.rho(p)) - 0.5 * float(loss.rho(p)))
                worst_half = max(worst_half, err)
    ok &= worst_half <= 1e-5
    assert report(
        7, "composition identities",
        ok,
        f"sum err {sum_err:.2e}/1e-12, halving err {worst_half:.2e}/1e-5",
    )


# ---------------------------------------------------------------------------
# 8. composition duality
# ---------------------------------------------------------------------------
def test_criterion_08_composition_duality():
    parts = (lg.cnorm_loss(-1.0, 2), lg.cnorm_loss(0.75, 2))
    direct = msum(MSumSpec(lg.constant_loss(2), parts))
    dual_of_apolars = dual_msum(
        MSumSpec(
            lg.cnorm_loss(1.0, 2),  # antipolar of the constant combiner
            (lg.cnorm_loss(0.5, 2), lg.cnorm_loss(-3.0, 2)),  # exponent partners
            mode="dual",
        )
    )
    grid = lg.simplex_grid(2, 50)
    rhs = np.asarray(dual_of_apolars.bayes_risk(grid.points))
    worst = 0.0
    for q, r in zip(grid.points, rhs):
        lhs = antipolar_bayes_risk(direct, q, method="numeric").value
        worst = max(worst, abs(lhs - float(r)))
    assert report(8, "composition duality", worst <= 1e-3, f"worst {worst:.2e}/1e-3")


# ---------------------------------------------------------------------------
# 9. substitution dominance and canonical-link quasi-convexity
# ---------------------------------------------------------------------------
def test_criterion_09_substitution():
    rng = np.random.default_rng(2024)
    ok = True
    worst_dom = -np.inf
    strictly_proper = [
        lg.log_loss(2),
        lg.brier_loss(2),
        lg.cnorm_loss(-1.0, 2),
        lg.cnorm_loss(0.75, 2),
        lg.cobb_douglas_loss([1.0, 1.0]),
        lg.norm_loss(2.0, 2),
    ]
    for loss in strictly_proper:
        apolar = antipolar_loss(loss)
        for i in range(500):
            t = rng.uniform(0.05, 0.95)
            x = loss.loss([t, 1.0 - t]) + rng.uniform(0.0, 1.0, 2)
            if i % 25 == 0:
                p = substitute(loss, x)  # full path incl. membership check
            else:
                p = lg.normalize_direction(apolar.loss(x))
            excess = float(np.max(loss.loss(p) - x))
            worst_dom = max(worst_dom, excess)
            ok &= excess <= 1e-6

    worst_qc = -np.inf
    lam = np.linspace(0.0, 1.0, 9)
    for loss in (lg.log_loss(2), lg.brier_loss(2)):
        link = canonical_link_composite(loss)
        for _ in range(100):
            t1, t2 = rng.uniform(0.1, 0.9, 2)
            x1 = loss.loss([t1, 1 - t1]) + rng.uniform(0.0, 0.5, 2)
            x2 = loss.loss([t2, 1 - t2]) + rng.uniform(0.0, 0.5, 2)
            cap = np.maximum(link(x1), link(x2))
            for t in lam[1:-1]:
                mid = link(t * x1 + (1 - t) * x2)
                worst_qc = max(worst_qc, float(np.max(mid - cap)))
    ok &= worst_qc <= 1e-8
    assert report(
        9, "substitution",
        ok,
        f"dominance excess {worst_dom:.2e}/1e-6, quasi-convexity {worst_qc:.2e}/1e-8",
    )


# ---------------------------------------------------------------------------
# 10. divergence identities
# ---------------------------------------------------------------------------
def test_criterion_10_divergences():
    rng = np.random.default_rng(5)
    log2, br2 = lg.log_loss(2), lg.brier_loss(2)
    worst_kl = 0.0
    worst_sq = 0.0
    for _ in range(100):
        p = rng.dirichlet([2, 2])
        q = rng.dirichlet([2, 2])
        p = np.clip(p, 0.01, 0.99); p /= p.sum()
        q = np.clip(q, 0.01, 0.99); q /= q.sum()
        kl = float(np.sum(p * np.log(p / q)))
        worst_kl = max(worst_kl, abs(bregman(log2, p, q) - kl))
        worst_sq = max(worst_sq, abs(bregman(br2, p, q) - float(np.sum((p - q) ** 2))))
    boosting = lg.cobb_douglas_loss([1.0, 1.0])
    worst_w = 0.0
    for t in np.linspace(0.1, 0.9, 33):
        expected = 1.0 / (4.0 * (t * (1.0 - t)) ** 1.5)
        worst_w = max(worst_w, abs(weight_function(boosting, float(t)) - expected))
    ok = worst_kl <= 1e-10 and worst_sq <= 1e-10 and worst_w <= 1e-4
    assert report(
        10, "divergences",
        ok,
        f"KL {worst_kl:.2e}/1e-10, sqdist {worst_sq:.2e}/1e-10, weight {worst_w:.2e}/1e-4",
    )


# ---------------------------------------------------------------------------
# 11. norm-loss endpoints and uniform boundary membership
# ---------------------------------------------------------------------------
def test_criterion_11_norm_loss_endpoints():
    grid = lg.simplex_grid(2, 50)
    l1 = lg.norm_loss(1.0, 2)
    zo = lg.zero_one_loss(2)
    exact_one = float(
        np.max(np.abs(l1.loss(grid.points) - (zo.loss(grid.points) + 0.5)))
    )
    linf = lg.norm_loss(np.inf, 2)
    exact_inf = float(np.max(np.abs(linf.loss(grid.points) - 1.0)))

    worst_gauge = 0.0
    for n in (2, 3):
        for alpha in (1.0, 1.5, 2.0, 3.0, np.inf):
            val = antigauge(lg.norm_loss(alpha, n), np.ones(n))
            worst_gauge = max(worst_gauge, abs(val - 1.0))
    ok = exact_one == 0.0 and exact_inf == 0.0 and worst_gauge <= 1e-8
    assert report(
        11, "norm-loss endpoints",
        ok,
        f"alpha=1 err {exact_one:.1e} (exact), alpha=inf err {exact_inf:.1e} (exact), "
        f"uniform antigauge err {worst_gauge:.2e}/1e-8",
    )
