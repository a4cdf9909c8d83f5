"""Regret and Bregman machinery, the anti semi inner product, binary weight
functions, and the consolidated property-verification suite.

For a proper loss the regret L(p, q) - rho(p) collapses to the pairing
B(p, q) = <l(q) - l(p); p>, the Bregman divergence of -rho; the anti semi
inner product [y, x] = rho(x) * <l(x); y> satisfies a reverse Cauchy-Schwarz
inequality, which is properness in disguise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ._kernels import worst_properness_violation
from .duality import antipolar_loss, check_pseudo_inverse
from .geometry import (
    ProperLoss,
    SimplexGrid,
    _coerce,
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
class CheckResult:
    check_name: str
    passed: bool | None  # None = skipped
    worst_violation: float | None
    witness: Any
    tol: float | None

    def to_jsonable(self) -> dict:
        return {
            "check_name": self.check_name,
            "pass": self.passed,
            "worst_violation": self.worst_violation,
            "witness": self.witness,
            "tol": self.tol,
        }


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
        lines = [f"verification of {self.loss_name}:"]
        for c in self.checks:
            if c.passed is None:
                lines.append(f"  {c.check_name:<22} skipped")
            else:
                state = "pass" if c.passed else "FAIL"
                lines.append(
                    f"  {c.check_name:<22} {state}  worst {c.worst_violation:.3e}"
                )
        return "\n".join(lines)


def _pair_subsample(G: int, limit: int = 700) -> np.ndarray:
    if G <= limit:
        return np.arange(G)
    stride = int(np.ceil(G / limit))
    return np.arange(0, G, stride)


def verify_all(
    loss: ProperLoss,
    grid: SimplexGrid | None = None,
    tol: float | None = None,
    seed: int = 0,
) -> SuiteReport:
    """Run the full property suite for one loss on a simplex grid.

    Checks: grid-pair properness, pairing consistency <l(p),p> = rho(p),
    1-homogeneity of the Bayes risk, 0-homogeneity of the loss map,
    superadditivity, the supergradient inequality, Bregman nonnegativity,
    the pseudo-inverse round trip (strictly proper losses only) and the
    reverse Hoelder inequality on sampled superprediction points.

    ``tol`` scales the main properness/consistency thresholds; the default
    is 1e-9 for analytic losses and 1e-4 for numeric pipelines.
    """
    if grid is None:
        grid = simplex_grid(loss.n, 25)
    base_tol = tol if tol is not None else (1e-9 if loss.analytic else 1e-4)
    tight = 1e-10 if loss.analytic else 1e-4
    P = grid.points
    G = P.shape[0]
    checks: list[CheckResult] = []

    L = loss.loss(P)
    rho_vals = np.asarray(loss.bayes_risk(P), dtype=np.float64)
    diag = np.einsum("ij,ij->i", L, P)

    # properness, supergradient inequality and Bregman nonnegativity over all
    # grid pairs, in one scan
    scan = worst_properness_violation(L, P, rho_vals)
    worst, wi, wj = scan.properness
    checks.append(
        CheckResult(
            "properness", bool(worst <= base_tol), float(worst),
            {"p": P[wi].tolist(), "q": P[wj].tolist()}, base_tol,
        )
    )

    # pairing consistency
    cons = np.abs(diag - rho_vals)
    k = int(np.argmax(cons))
    checks.append(
        CheckResult(
            "consistency", bool(cons[k] <= base_tol), float(cons[k]),
            {"p": P[k].tolist()}, base_tol,
        )
    )

    # 1-homogeneity of the Bayes risk
    worst_h = 0.0
    wit_h = None
    for alpha in (0.5, 2.0, 10.0):
        v = np.abs(
            np.asarray(loss.bayes_risk(alpha * P)) - alpha * rho_vals
        ) / (1.0 + alpha * np.abs(rho_vals))
        k = int(np.argmax(v))
        if v[k] > worst_h:
            worst_h, wit_h = float(v[k]), {"alpha": alpha, "p": P[k].tolist()}
    checks.append(
        CheckResult("one_homogeneity", bool(worst_h <= tight), worst_h, wit_h, tight)
    )

    # 0-homogeneity of the loss map, relative to entries above 1: rounding
    # alone moves an entry of 5e3 by more than 1e-12
    worst_z = 0.0
    wit_z = None
    for alpha in (0.5, 2.0, 10.0):
        La = loss.loss(alpha * P)
        finite = np.isfinite(L)
        v = np.abs(np.where(finite, La - L, 0.0)) / np.maximum(1.0, np.abs(L))
        k = int(np.argmax(v.max(axis=1)))
        if float(v[k].max()) > worst_z:
            worst_z = float(v[k].max())
            wit_z = {"alpha": alpha, "p": P[k].tolist()}
    zh_tol = 1e-12 if loss.analytic else base_tol
    checks.append(
        CheckResult("zero_homogeneity", bool(worst_z <= zh_tol), worst_z, wit_z, zh_tol)
    )

    # superadditivity on (subsampled) grid pairs; numeric pipelines price
    # every rho evaluation as an inner optimization, so they get fewer pairs
    idx = _pair_subsample(G, 700 if loss.analytic else 60)
    Ps = P[idx]
    rs = rho_vals[idx]
    sums = Ps[:, None, :] + Ps[None, :, :]
    rho_sum = np.asarray(
        loss.bayes_risk(sums.reshape(-1, loss.n)), dtype=np.float64
    ).reshape(len(idx), len(idx))
    sup_viol = rs[:, None] + rs[None, :] - rho_sum
    k = int(np.argmax(sup_viol))
    ki, kj = divmod(k, len(idx))
    sup_tol = 1e-9 if loss.analytic else base_tol
    checks.append(
        CheckResult(
            "superadditivity", bool(sup_viol[ki, kj] <= sup_tol),
            float(sup_viol[ki, kj]),
            {"p": Ps[ki].tolist(), "q": Ps[kj].tolist()}, sup_tol,
        )
    )

    # supergradient inequality rho(q) <= rho(p) + <l(p); q - p>
    worst, ki, kj = scan.supergradient
    checks.append(
        CheckResult(
            "supergradient", bool(worst <= base_tol), worst,
            {"p": P[ki].tolist(), "q": P[kj].tolist()}, base_tol,
        )
    )

    # Bregman nonnegativity B(p, q) = <l(q); p> - <l(p); p> >= 0
    worst, ki, kj = scan.bregman
    br_tol = 1e-10 if loss.analytic else base_tol
    checks.append(
        CheckResult(
            "bregman_nonnegative", bool(worst <= br_tol), worst,
            {"p": P[ki].tolist(), "q": P[kj].tolist()}, br_tol,
        )
    )

    # pseudo-inverse round trip (needs unique supergradients); chains whose
    # antipolar is numeric pay a minimization per point, so they get fewer
    closed_chain = loss.antipolar is not None
    if loss.strictly_proper:
        sub = P[_pair_subsample(G, 50 if closed_chain else 12)]
        sub_grid = SimplexGrid(sub, loss.n, grid.resolution, grid.margin)
        pi_tol = 1e-6 if closed_chain else 1e-3
        rep = check_pseudo_inverse(loss, sub_grid, pi_tol)
        checks.append(
            CheckResult(
                "pseudo_inverse", rep.passed,
                max(rep.worst_loss_error, rep.worst_direction_error),
                None, pi_tol,
            )
        )
    else:
        checks.append(CheckResult("pseudo_inverse", None, None, "skipped: not strictly proper", None))

    # reverse Hoelder on sampled superprediction points, whose antipolars are
    # solved as one batch; a sample costs a full antipolar minimization, so
    # this check only runs when rho itself is closed form
    if loss.analytic:
        rng = np.random.default_rng(seed)
        sample_idx = rng.choice(G, size=min(12, G), replace=False)
        sample_idx = sample_idx[np.all(np.isfinite(L[sample_idx]), axis=1)]
        X = L[sample_idx] + rng.uniform(0.0, 0.5, size=(sample_idx.size, loss.n))
        worst_rh = -np.inf
        wit_rh = None
        rh_tol = 1e-6
        for x, apolar_val in zip(X, antipolar_loss(loss).rho(X)):
            viol = float(np.max(apolar_val * rho_vals - P @ x))
            if viol > worst_rh:
                worst_rh, wit_rh = viol, {"x": x.tolist()}
        checks.append(
            CheckResult(
                "reverse_hoelder", bool(worst_rh <= rh_tol), float(worst_rh),
                wit_rh, rh_tol,
            )
        )
    else:
        checks.append(
            CheckResult(
                "reverse_hoelder", None, None,
                "skipped: Bayes risk is itself numeric", None,
            )
        )

    return SuiteReport(loss_name=loss.name, checks=checks)
