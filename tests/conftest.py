import numpy as np
import pytest

import lossgeom as lg


def interior_points(n: int, count: int, rng, margin: float = 0.02, tie_gap: float = 1e-3):
    """Random strictly-interior simplex points with distinct coordinates.

    The tie gap keeps points away from argmax/argmin ties so losses with
    tie-splitting kinks are differentiable at every sampled point.
    """
    out = []
    while len(out) < count:
        p = rng.dirichlet(np.ones(n))
        if p.min() < margin:
            continue
        if np.min(np.diff(np.sort(p))) < tie_gap:
            continue
        out.append(p)
    return np.array(out)


def analytic_families(n: int):
    """Every shipped closed-form family at dimension n."""
    fams = [
        lg.log_loss(n),
        lg.brier_loss(n),
        lg.zero_one_loss(n),
        lg.cnorm_loss(-1.0, n),
        lg.cnorm_loss(0.75, n),
        lg.norm_loss(2.0, n),
        lg.constant_loss(n),
        lg.cobb_douglas_loss(np.ones(n)),
    ]
    return fams


def brier_antipolar_value_2d(t):
    """Reference antipolar Bayes risk of the two-outcome Brier loss at
    (t, 1 - t), from the explicit two-outcome formula; a 0/0 form at
    t in {0, 1/2, 1}, where NaN is returned."""
    t = np.asarray(t, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        root = np.sqrt(t * (1.0 - t))
        val = (2.0 * t - 1.0) ** 2 * root / (4.0 * t**2 + 2.0 * root - 4.0 * t)
    bad = (np.abs(t - 0.5) < 1e-6) | (t < 1e-6) | (t > 1.0 - 1e-6)
    return np.where(bad, np.nan, val)


def strictly_proper_families(n: int):
    return [f for f in analytic_families(n) if f.strictly_proper]


@pytest.fixture
def rng():
    return np.random.default_rng(0)
