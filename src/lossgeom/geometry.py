"""Core geometry: extended-real vector arithmetic on the nonnegative cone,
1-homogeneous Bayes risks, 0-homogeneous loss maps, numeric supergradients,
simplex grids and the grid-pair properness verifier.

Conventions used throughout the package:

* probability directions live in the nonnegative orthant; a Bayes risk is a
  superlinear (concave, 1-homogeneous) function of the direction and returns
  -inf outside the orthant;
* a loss map is a 0-homogeneous selection of the superdifferential of its
  Bayes risk, with values in [0, +inf]^n;
* 0 * inf = 0 in every pairing of losses with probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._kernels import compositions, worst_properness_violation

__all__ = [
    "BayesRisk",
    "ProperLoss",
    "SimplexGrid",
    "PropernessReport",
    "inner",
    "normalize_direction",
    "numeric_supergradient",
    "numeric_supergradient_batch",
    "simplex_grid",
    "check_properness",
]


# ---------------------------------------------------------------------------
# array coercion and the JSON form of vectors
# ---------------------------------------------------------------------------
def vector_to_jsonable(a: np.ndarray) -> list:
    """JSON array of numbers, with "inf" standing in for +inf."""
    return ["inf" if math.isinf(v) else float(v) for v in np.asarray(a)]


def _coerce(x, n: int | None = None) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if n is not None and a.shape[-1] != n:
        raise ValueError(f"dimension mismatch: expected {n}, got {a.shape[-1]}")
    return a


# ---------------------------------------------------------------------------
# extended-real pairing, direction normalization
# ---------------------------------------------------------------------------
def inner(x, y) -> float:
    """Natural pairing sum_y x_y * y_y with the convention 0 * inf = 0."""
    xa = _coerce(x)
    ya = _coerce(y)
    if xa.shape[-1] != ya.shape[-1]:
        raise ValueError(
            f"dimension mismatch: {xa.shape[-1]} vs {ya.shape[-1]}"
        )
    with np.errstate(invalid="ignore"):
        prod = np.where((xa == 0.0) | (ya == 0.0), 0.0, xa * ya)
    return float(np.sum(prod, axis=-1)) if prod.ndim == 1 else np.sum(prod, axis=-1)


def normalize_direction(p, n: int | None = None) -> np.ndarray:
    """p / ||p||_1.  Errors on the zero vector; supports batches (..., n)."""
    a = _coerce(p, n)
    s = a.sum(axis=-1, keepdims=True)
    if np.any(s <= 0):
        raise ValueError("cannot normalize the zero (or negative-mass) vector")
    return a / s


# ---------------------------------------------------------------------------
# Bayes risks and proper losses
# ---------------------------------------------------------------------------
class BayesRisk:
    """A 1-homogeneous superlinear function of nonnegative directions.

    ``fn`` must be vectorized over leading axes: given shape (..., n) it
    returns shape (...).  Outside the nonnegative orthant the value is -inf.
    """

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], n: int):
        if n < 2:
            raise ValueError("dimension must be >= 2")
        self.fn = fn
        self.n = n

    def __call__(self, p):
        a = _coerce(p, self.n)
        vals = np.asarray(self.fn(np.maximum(a, 0.0)), dtype=np.float64)
        neg = np.any(a < 0, axis=-1)
        if np.any(neg):
            vals = np.where(neg, -np.inf, vals)
        if vals.ndim == 0:
            return float(vals)
        return vals


@dataclass(frozen=True, eq=False)
class ProperLoss:
    """A Bayes risk paired with a 0-homogeneous supergradient loss map.

    ``loss_map`` is vectorized: (..., n) -> (..., n); it may return +inf
    entries (unbounded losses at the simplex boundary).

    ``antipolar`` builds the exact antipolar loss, whose Bayes risk is
    inf_q <x;q>/rho(q) everywhere; None when that is only known numerically.
    """

    bayes_risk: BayesRisk
    loss_map: Callable[[np.ndarray], np.ndarray]
    name: str
    n: int
    strictly_proper: bool = False
    analytic: bool = True
    maximizer: np.ndarray | None = None
    antipolar: Callable[[], "ProperLoss"] | None = None

    def loss(self, p) -> np.ndarray:
        """Loss vector l(p) (0-homogeneous in p)."""
        a = _coerce(p, self.n)
        if np.any(a < 0):
            raise ValueError("loss maps are defined on the nonnegative cone")
        if np.any(a.sum(axis=-1) <= 0):
            raise ValueError("degenerate direction p = 0")
        return np.asarray(self.loss_map(a), dtype=np.float64)

    def rho(self, p):
        """Conditional Bayes risk at p (1-homogeneous)."""
        return self.bayes_risk(p)

    def expected_loss(self, p, q) -> float:
        """L(p, q) = <l(q); p>: expected loss of predicting q under truth p."""
        return inner(self.loss(q), _coerce(p, self.n))


# ---------------------------------------------------------------------------
# numeric supergradients
# ---------------------------------------------------------------------------
def numeric_supergradient(rho: BayesRisk, p, h: float | None = None) -> np.ndarray:
    """Central-difference supergradient of a Bayes risk, Euler-repaired.

    After differencing, the gradient g is rescaled by rho(p) / <g, p> so the
    1-homogeneity identity <g, p> = rho(p) holds exactly, then clamped to be
    nonnegative.  Requires p strictly positive and rho finite near p.
    """
    a = _coerce(p, rho.n)
    if a.ndim != 1:
        return numeric_supergradient_batch(rho, a, h)
    return numeric_supergradient_batch(rho, a[None, :], h)[0]


def numeric_supergradient_batch(
    rho: BayesRisk, P: np.ndarray, h: float | None = None
) -> np.ndarray:
    """Vectorized ``numeric_supergradient`` over a (G, n) batch of points."""
    P = np.asarray(P, dtype=np.float64)
    G, n = P.shape
    if np.any(P <= 0):
        raise ValueError("numeric supergradients require strictly positive points")
    if h is None:
        steps = 1e-6 * np.maximum(1.0, np.max(P, axis=1))
    else:
        steps = np.full(G, float(h))
    eye = np.eye(n)
    plus = P[:, None, :] + steps[:, None, None] * eye[None, :, :]
    minus = P[:, None, :] - steps[:, None, None] * eye[None, :, :]
    stacked = np.concatenate([plus, minus], axis=1).reshape(G * 2 * n, n)
    vals = np.asarray(rho(stacked), dtype=np.float64).reshape(G, 2 * n)
    if not np.all(np.isfinite(vals)):
        raise ValueError("Bayes risk is not finite near the requested point")
    g = (vals[:, :n] - vals[:, n:]) / (2.0 * steps[:, None])
    g = np.maximum(g, 0.0)
    base = np.asarray(rho(P), dtype=np.float64)
    pairing = np.einsum("ij,ij->i", g, P)
    if np.any(pairing <= 0):
        raise ValueError("degenerate supergradient: <g, p> <= 0")
    g = g * (base / pairing)[:, None]
    return g


# ---------------------------------------------------------------------------
# simplex grids
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SimplexGrid:
    """Deterministic strictly-interior sample of the n-simplex."""

    points: np.ndarray  # (G, n), rows sum to 1, all entries >= margin
    n: int
    resolution: int
    margin: float

    def __len__(self) -> int:
        return self.points.shape[0]

    def __iter__(self):
        return iter(self.points)


def simplex_grid(n: int, resolution: int) -> SimplexGrid:
    """Interior lattice of the n-simplex with margin 1/(10*resolution).

    For n = 2 the grid is ``resolution`` evenly spaced points with first
    coordinate running from the margin to 1 - margin.  For n >= 3 it is the
    full composition lattice at the given resolution, mixed toward the
    barycenter just enough to hold every coordinate >= margin; enumeration is
    lexicographic.
    """
    if n < 2:
        raise ValueError("dimension must be >= 2")
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    eps = 1.0 / (10.0 * resolution)
    if n == 2:
        t = np.linspace(eps, 1.0 - eps, resolution)
        pts = np.column_stack([t, 1.0 - t])
    else:
        lattice = compositions(resolution, n).astype(np.float64) / resolution
        pts = (1.0 - n * eps) * lattice + eps
    pts.setflags(write=False)
    return SimplexGrid(points=pts, n=n, resolution=resolution, margin=eps)


# ---------------------------------------------------------------------------
# properness verification
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PropernessReport:
    passed: bool
    worst_violation: float
    witness: tuple[int, int]  # grid indices (i, j): p = points[i], q = points[j]
    tol: float

    def __str__(self) -> str:
        state = "pass" if self.passed else "FAIL"
        return (
            f"properness {state}: worst violation {self.worst_violation:.3e} "
            f"(tol {self.tol:.1e}) at pair {self.witness}"
        )


def check_properness(loss: ProperLoss, grid: SimplexGrid, tol: float = 1e-9) -> PropernessReport:
    """Verify <l(q); q> <= <l(p); q> + tol over all grid pairs (p, q).

    The returned report carries the worst signed violation (values <= 0 mean
    no violation was found) and the witness pair indices.
    """
    P = grid.points
    if np.any(P <= 0):
        raise ValueError("properness grids must be strictly interior")
    L = loss.loss(P)
    worst, i, j = worst_properness_violation(L, P).properness
    return PropernessReport(
        passed=bool(worst <= tol),
        worst_violation=float(worst),
        witness=(i, j),
        tol=tol,
    )
