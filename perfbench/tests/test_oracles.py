"""Tests of the benchmark's oracles against identities the mathematics fixes.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracles as O  # noqa: E402

Q3 = O.lattice(3, 600)


def test_lattice_enumerates_the_closed_simplex():
    Q = O.lattice(4, 25)
    assert Q.shape == (math.comb(28, 3), 4)
    assert np.allclose(Q.sum(axis=1), 1.0)
    assert Q.min() == 0.0 and Q.max() == 1.0
    assert len(np.unique(Q, axis=0)) == len(Q)


@pytest.mark.parametrize("x", [(0.9, 1.4, 2.1), (0.3, 0.3, 0.3), (2.5, 0.7, 1.1)])
def test_log_antipolar_is_the_root_of_the_exponential_sum(x):
    # rho^(x) for the log loss solves sum_y exp(-x_y / beta) = 1
    with mpmath.workdps(50):
        f = lambda b: sum(mpmath.exp(-mpmath.mpf(v) / b) for v in x) - 1
        beta = mpmath.findroot(f, (mpmath.mpf("0.01"), mpmath.mpf(sum(x))),
                               solver="anderson")
        assert abs(f(beta)) < mpmath.mpf(10) ** -40
    best = O.antipolar_lattice_min(O.risk_log, np.array(x), Q3)
    assert best >= float(beta) * (1 - 1e-12)  # a lattice never beats the infimum
    assert best <= float(beta) * (1 + 1e-4)


@pytest.mark.parametrize("a", [-2.0, -0.5, 0.5])
def test_cnorm_antipolar_pairs_exponents(a):
    # the antipolar of the power mean with exponent c = a/(a-1) is the power
    # mean with exponent a: 1/a + 1/c = 1
    c = a / (a - 1.0)
    assert 1.0 / a + 1.0 / c == pytest.approx(1.0)
    x = np.array([0.8, 1.7, 1.2])
    want = np.sum(x**a) ** (1.0 / a)
    best = O.antipolar_lattice_min(lambda q: O.risk_cnorm(a, q), x, Q3)
    assert best >= want * (1 - 1e-12)
    assert best <= want * (1 + 1e-4)


@pytest.mark.parametrize("risk", [O.risk_log, O.risk_brier])
@pytest.mark.parametrize("t", [0.01, 0.3, 0.75])
def test_dual_msum_of_equal_parts(risk, t):
    # splitting p into equal halves is optimal: the sum combiner recovers
    # rho(p) (superadditivity), the minimum combiner rho(p)/2
    p = np.array([t, 1.0 - t])
    rho = float(risk(p))
    total = O.dual_msum_brute(lambda r1, r2: r1 + r2, risk, risk, p)
    assert total == pytest.approx(rho, rel=1e-12)
    assert O.dual_msum_brute(O.combiner_min, risk, risk, p) == pytest.approx(rho / 2, rel=1e-12)


def test_dual_msum_brute_is_a_lower_bound_that_converges():
    p = np.array([0.3, 0.7])
    coarse = O.dual_msum_brute(O.combiner_harmonic, O.risk_log, O.risk_brier, p,
                               coarse=50, levels=1)
    fine = O.dual_msum_brute(O.combiner_harmonic, O.risk_log, O.risk_brier, p)
    assert coarse <= fine
    assert fine == pytest.approx(coarse, rel=1e-3)


LOSSES = [
    ("log", O.risk_log, O.loss_log),
    ("brier", O.risk_brier, O.loss_brier),
    ("normloss2", O.risk_normloss2, O.loss_normloss2),
    ("zeroone", O.risk_zeroone, O.loss_zeroone),
    ("cnorm", lambda p: O.risk_cnorm(-1.5, p), lambda p: O.loss_cnorm(-1.5, p)),
    ("cnorm+", lambda p: O.risk_cnorm(0.4, p), lambda p: O.loss_cnorm(0.4, p)),
    ("cd", lambda p: O.risk_cd([1, 2, 3], p), lambda p: O.loss_cd([1, 2, 3], p)),
]


@pytest.mark.parametrize("name,risk,loss", LOSSES, ids=[l[0] for l in LOSSES])
def test_loss_maps_are_gradients_of_the_risks(name, risk, loss):
    p = np.array([0.2, 0.35, 0.45])
    assert np.dot(loss(p), p) == pytest.approx(risk(p), rel=1e-12)
    h = 1e-6
    grad = [(risk(p + h * e) - risk(p - h * e)) / (2 * h) for e in np.eye(3)]
    assert np.allclose(loss(p), grad, rtol=1e-6, atol=1e-8)


def test_properness_violation_separates_proper_from_improper():
    P = O.lattice(3, 20)[::3] * 0.97 + 0.01
    assert O.properness_violation(P, O.loss_brier(P)) <= 1e-12
    # predicting the reversed direction is no longer proper
    assert O.properness_violation(P, O.loss_brier(P[:, ::-1])) > 0.1
