"""Regret and Bregman machinery, the anti semi inner product, binary weight
functions, and the consolidated property-verification suite.

For a proper loss the regret L(p, q) - rho(p) collapses to the pairing
B(p, q) = <l(q) - l(p); p>, the Bregman divergence of -rho; the anti semi
inner product [y, x] = rho(x) * <l(x); y> satisfies a reverse Cauchy-Schwarz
inequality, which is properness in disguise.

Every check of ``verify_all`` is a ``geometry.CheckResult``, as in the other
verifiers: it passes when its worst violation is at most its tolerance (a
NaN fails), and a NaN or infinite ``tol`` raises ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import worst_properness_violation
from .duality import antipolar_loss, check_pseudo_inverse
from .geometry import (
    CheckResult,
    ProperLoss,
    SimplexGrid,
    _check,
    _coerce,
    _finite_tol,
    inner,
    simplex_grid,
)

__all__ = [
    "RegretReport",
    "CheckResult",
    "SuiteReport",
    "bregman",
    "regret_report",
    "anti_sip",
    "weight_function",
    "verify_all",
]


# ---------------------------------------------------------------------------
# Bregman divergence / regret
# ---------------------------------------------------------------------------
def bregman(loss: ProperLoss, p, q) -> float:
    """B(p, q) = <l(q) - l(p); p>, the regret of predicting q under truth p.

    Outcomes with p_y = 0 contribute nothing even when the loss entries are
    infinite there (0 * inf = 0); nonnegative for proper losses, zero at
    p = q.
    """
    pa = _coerce(p, loss.n)
    return inner(loss.loss(q) - loss.loss(pa), pa)


@dataclass(frozen=True)
class RegretReport:
    p: np.ndarray
    q: np.ndarray
    regret: float  # L(p, q) - rho(p)
    bregman: float  # <l(q) - l(p); p>
    discrepancy: float  # |regret - bregman|


def regret_report(loss: ProperLoss, p, q) -> RegretReport:
    """Regret computed two ways (definition vs. pairing) with their gap."""
    pa = _coerce(p, loss.n)
    qa = _coerce(q, loss.n)
    reg = loss.expected_loss(pa, qa) - loss.rho(pa)
    b = bregman(loss, pa, qa)
    return RegretReport(
        p=pa.copy(), q=qa.copy(), regret=float(reg), bregman=float(b),
        discrepancy=float(abs(reg - b)),
    )


def anti_sip(loss: ProperLoss, y, x) -> float:
    """Anti semi inner product [y, x] = rho(x) * <l(x); y>.

    Satisfies the reverse Cauchy-Schwarz inequality
    [y, x]^2 >= [x, x] * [y, y] with [x, x] = rho(x)^2.
    """
    ya = _coerce(y, loss.n)
    xa = _coerce(x, loss.n)
    return float(loss.rho(xa)) * inner(loss.loss(xa), ya)


def weight_function(loss: ProperLoss, p1: float, h: float = 1e-4) -> float:
    """Binary weight function -d^2/dt^2 rho(t, 1-t) at t = p1.

    Second central difference with one step of Richardson extrapolation.
    Only defined for two-outcome losses, away from the endpoints.
    """
    if loss.n != 2:
        raise ValueError("weight functions are defined for two-outcome losses")
    if not 0.0 < p1 < 1.0:  # NaN fails this too
        raise ValueError(f"p1 must be a finite number in (0, 1), got {p1!r}")
    if not (2 * h < p1 < 1.0 - 2 * h):
        raise ValueError("evaluation point too close to {0, 1}")

    def f(t):
        return loss.rho(np.array([t, 1.0 - t]))

    def second(hh):
        return (f(p1 + hh) - 2.0 * f(p1) + f(p1 - hh)) / (hh * hh)

    d2 = (4.0 * second(h / 2.0) - second(h)) / 3.0
    return -float(d2)


# ---------------------------------------------------------------------------
# consolidated verification suite
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SuiteReport:
    loss_name: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.passed is not None)

    def to_jsonable(self) -> dict:
        return {
            "loss": self.loss_name,
            "pass": self.passed,
            "checks": [c.to_jsonable() for c in self.checks],
        }

    def __str__(self) -> str:
        return "\n".join([f"verification of {self.loss_name}:"] + [f"  {c}" for c in self.checks])


def _pair_subsample(G: int, limit: int) -> np.ndarray:
    # every k-th grid point, k the smallest stride that keeps at most limit
    return np.arange(0, G, int(np.ceil(G / limit)))


# each check's tolerance for an (analytic, numeric) loss, None for the base
# tolerance: ``tol`` if given, else 1e-9 and 1e-4 (reverse Hoelder is skipped
# for numeric losses, and pseudo_inverse reports its own)
_TOLERANCES = {
    "properness": (None, None),
    "consistency": (None, None),
    "one_homogeneity": (1e-10, 1e-4),
    "zero_homogeneity": (1e-12, None),
    "superadditivity": (1e-9, None),
    "supergradient": (None, None),
    "bregman_nonnegative": (1e-10, None),
    "reverse_hoelder": (1e-6, None),
}


def _worst(viol: np.ndarray, floor: float | None = None) -> tuple:
    """``(worst, *index)`` of the first largest entry of ``viol``, NaN ranked
    first as by np.argmax, so that a NaN fails every check.  Given a floor, a
    worst not above the floor is the floor itself, with no index."""
    if floor is not None and (not viol.size or np.max(viol) <= floor):
        return (floor,)
    k = np.unravel_index(int(np.argmax(viol)), viol.shape)
    return (float(viol[k]), *map(int, k))


def verify_all(
    loss: ProperLoss,
    grid: SimplexGrid | None = None,
    tol: float | None = None,
    seed: int = 0,
) -> SuiteReport:
    """Run the full property suite for one loss on a simplex grid.

    Checks, in report order: grid-pair properness, pairing consistency
    <l(p),p> = rho(p), 1-homogeneity of the Bayes risk and 0-homogeneity of
    the loss map at the scales 0.5, 2 and 10, superadditivity, the
    supergradient inequality, Bregman nonnegativity, the pseudo-inverse round
    trip (strictly proper losses; 50 points at 1e-6, counting those skipped
    for a loss vector not finite and > 0) and the reverse Hoelder inequality
    at sampled superprediction points.  Each other check reduces one array of
    violations with ``_worst`` and names a witness at its worst entry (none
    for a homogeneity worst of 0).  ``tol`` sets ``_TOLERANCES``' base; it
    must be finite.
    """
    if grid is None:
        grid = simplex_grid(loss.n, 25)
    numeric = int(not loss.analytic)  # column of the (analytic, numeric) pairs
    base = _finite_tol(tol) if tol is not None else (1e-9, 1e-4)[numeric]
    tols = {c: base if t[numeric] is None else t[numeric] for c, t in _TOLERANCES.items()}
    P = grid.points
    G = P.shape[0]

    def check(name, found, **named):
        return _check(name, found, tols[name], **named)

    def skip(name, reason):
        return CheckResult(name, None, None, f"skipped: {reason}", None)

    L = loss.loss(P)
    rho_vals = np.asarray(loss.bayes_risk(P), dtype=np.float64)
    # properness, the supergradient inequality rho(q) <= rho(p) + <l(p); q - p>
    # and Bregman nonnegativity <l(q); p> - <l(p); p> >= 0, in one pair scan
    scan = worst_properness_violation(L, P, rho_vals)
    consistency = np.abs(np.einsum("ij,ij->i", L, P) - rho_vals)
    checks = [
        check("properness", scan.properness, p=P, q=P),
        check("consistency", _worst(consistency), p=P),
    ]

    # one Bayes risk call, then one loss map call, per scale: the dual M-sum's
    # remembered solve then serves 0.5 and 2.  The loss map's defect is
    # relative to entries above 1: rounding moves an entry of 5e3 by > 1e-12
    A = np.array([[0.5], [2.0], [10.0]])  # the scales, one per row
    AP = A[:, :, None] * P
    R = np.stack([np.asarray(loss.bayes_risk(Q)) for Q in AP])
    one = np.abs(R - A * rho_vals) / (1.0 + A * np.abs(rho_vals))
    drift = np.stack([loss.loss(Q) for Q in AP]) - L
    zero = np.abs(np.where(np.isfinite(L), drift, 0.0)) / np.maximum(1.0, np.abs(L))
    checks += [
        check("one_homogeneity", _worst(one, 0.0), alpha=A[:, 0], p=P),
        check("zero_homogeneity", _worst(zero, 0.0), alpha=A[:, 0], p=P),
    ]

    # superadditivity on (subsampled) grid pairs; numeric pipelines price
    # every rho evaluation as an inner optimization, so they get fewer pairs
    idx = _pair_subsample(G, (700, 60)[numeric])
    Ps, rs = P[idx], rho_vals[idx]
    sums = (Ps[:, None, :] + Ps[None, :, :]).reshape(-1, loss.n)
    rho_sum = np.asarray(loss.bayes_risk(sums), dtype=np.float64).reshape(idx.size, idx.size)
    checks += [
        check("superadditivity", _worst(rs[:, None] + rs[None, :] - rho_sum), p=Ps, q=Ps),
        check("supergradient", scan.supergradient, p=P, q=P),
        check("bregman_nonnegative", scan.bregman, p=P, q=P),
    ]

    # pseudo-inverse round trip (needs unique supergradients)
    if loss.strictly_proper:
        sub = SimplexGrid(P[_pair_subsample(G, 50)], loss.n, grid.resolution, grid.margin)
        checks.append(check_pseudo_inverse(loss, sub))
    else:
        checks.append(skip("pseudo_inverse", "not strictly proper"))

    # reverse Hoelder on sampled superprediction points, whose antipolars are
    # solved as one batch; a sample costs a full antipolar minimization, so
    # this check only runs when rho itself is closed form
    if not numeric:
        rng = np.random.default_rng(seed)
        sample_idx = rng.choice(G, size=min(12, G), replace=False)
        sample_idx = sample_idx[np.all(np.isfinite(L[sample_idx]), axis=1)]
        X = L[sample_idx] + rng.uniform(0.0, 0.5, size=(sample_idx.size, loss.n))
        # one matrix-vector product per sample, each rounded as P @ x is
        PX = np.matmul(P, X[:, :, None])[..., 0]
        gap = antipolar_loss(loss).rho(X)[:, None] * rho_vals - PX
        checks.append(check("reverse_hoelder", _worst(gap, -np.inf), x=X))
    else:
        checks.append(skip("reverse_hoelder", "Bayes risk is itself numeric"))
    return SuiteReport(loss_name=loss.name, checks=checks)
