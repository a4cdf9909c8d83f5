"""Antipolar (inverse) losses, the substitution function and the canonical
link.

The antipolar Bayes risk of a loss with Bayes risk rho is

    rho^(x) = inf_{q != 0} <x; q> / rho(q),

the concave-gauge polar.  Where the loss's ``antipolar`` builds the exact
antipolar loss, its Bayes risk and loss map are used; otherwise the infimum
is taken numerically over the simplex, for up to nine outcomes, by one
solver batched over queries.  The ratio is quasi-convex, so an ellipsoid
method cutting with the loss map (the one the dual M-sum of ``calculus``
runs) locates its minimum and proves a lower bound, which each result
carries as its certificate; descent and a snap onto ties refine the
minimizer.  Each query is solved once: the antipolar loss map,
``substitute`` and the CLI read their selection off it.

The attained minimizer q* doubles as the supergradient of rho^ at x via the
envelope identity  d rho^(x) = q* / rho(q*),  which is how numeric antipolar
loss maps are evaluated.  Where a closed-form loss map is undefined (an
infimum reached only in the limit at a vertex), the numeric solve locates
the minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    BayesRisk,
    ProperLoss,
    SimplexGrid,
    _coerce,
    normalize_direction,
    simplex_grid,
)

__all__ = [
    "AntipolarResult",
    "PseudoInverseReport",
    "antipolar_bayes_risk",
    "antipolar_loss",
    "antigauge",
    "substitute",
    "canonical_link_composite",
    "check_pseudo_inverse",
]

_MAX_FREE = 8  # free coordinates of one ellipsoid solve, here and in the dual M-sum


# ---------------------------------------------------------------------------
# the ellipsoid method, batched over rows
# ---------------------------------------------------------------------------
def _ellipsoid(B: int, m: int, k: int, rtol: float, cut) -> None:
    """Deep-cut ellipsoid method on B rows over a product of k simplices
    with m vertices each, whose points are (m, k) arrays, flattened, with
    columns in the simplices.  E = {c + J u : |u| <= 1} starts as the ball
    about the barycentre through the farthest vertices, in the affine span
    (d = k (m - 1) dimensions).  ``cut(rows, C, J)`` takes the rows whose
    centres have every coordinate > 0, with those centres and factors, and
    returns h = J^T a, the depths of cuts that keep <a, z - c> <= -depth,
    and which of the rows are done.  Any other centre is cut by the normal
    of its most violated (or touching) constraint, to the depth -min c,
    since loss vectors may be infinite there.  A row stops when done or
    after a number of cuts set by rtol and d.  Depths over |h| are clipped
    to [-1/d, 0.999]: at -1/d E stays as it is, and a cut deeper than 1
    keeps nothing of E, which the caller's bounds certify.  Updating the
    factor J keeps J J^T positive definite."""
    d = k * (m - 1)
    # J maps the first m - 1 coordinates of every column; the last takes the rest
    J = math.sqrt(k * (m * m - m - 1)) / m * np.vstack([np.eye(d), -np.tile(np.eye(k), m - 1)])
    C, J = np.full((B, m * k), 1.0 / m), np.tile(J, (B, 1, 1))
    # E keeps its axes across a cut and scales them by perp, and its axis
    # along the cut by d (1 - alpha) / (d + 1); at d = 1 there are no others
    perp_0 = d / math.sqrt(d * d - 1.0) if d > 1 else 0.0
    rows = np.arange(B)  # the rows still cutting, whose state C and J hold
    for _ in range(4 * d * (d + 1) * math.ceil(math.log(1.0 / rtol))):
        r = np.arange(rows.size)
        worst = np.argmin(C, axis=1)
        low = C[r, worst]
        h, depth, done = -J[r, worst], -low, np.zeros(rows.size, dtype=bool)
        ins = np.flatnonzero(low > 0)
        if ins.size:
            h[ins], depth[ins], done[ins] = cut(rows[ins], C[ins], J[ins])
        # |h| = 0 only at a stationary centre, which cut settles; sums of
        # products (no fused multiply-add) keep a symmetric problem exactly
        # symmetric, so E never stretches along an axis that no cut sees
        nh = np.maximum(np.sqrt((h * h).sum(axis=1)), 1e-300)
        hh = h / nh[:, None]
        alpha = np.minimum(np.maximum(depth / nh, -1.0 / d), 0.999)
        b = (J * hh[:, None, :]).sum(axis=2)
        C = C - b * ((1.0 + d * alpha) / (d + 1.0))[:, None]
        along = d / (d + 1.0) * (1.0 - alpha)
        perp = perp_0 * np.sqrt(1.0 - alpha * alpha)
        J = perp[:, None, None] * J + ((along - perp)[:, None] * b)[:, :, None] * hh[:, None, :]
        if done.any():
            rows, C, J = rows[~done], C[~done], J[~done]
            if rows.size == 0:
                break


@dataclass(frozen=True)
class AntipolarResult:
    """Value and attaining direction of the antipolar Bayes risk at x."""

    value: float
    minimizer: np.ndarray  # point of the closed simplex
    method: str  # "closed_form" | "numeric"
    certified_gap: float  # value minus a proven lower bound on the infimum


# ---------------------------------------------------------------------------
# numeric minimization of q -> <x;q>/rho(q), batched over queries x
# ---------------------------------------------------------------------------
_CHUNK = 32  # queries solved together; bounds the solver's memory for any B
# relative gap at which a row stops cutting: 1e-11, less the 1e-12 by which a
# value read off a loss map that splits a tie can undershoot one read off rho
_STOP = 9e-12
_STEPS = 0.5 ** np.arange(30)  # backtracking step sizes, tried as one block
_SNAP = 1e-9  # closeness at which coordinates are snapped to a face or a tie


def _ratio(loss: ProperLoss, X: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """<x;q>/rho(q), +inf where rho(q) <= 0, for each query row x of X (R, n)
    against one block of points per query, Q (R, M, n)."""
    den = np.reshape(loss.bayes_risk(Q.reshape(-1, loss.n)), Q.shape[:-1])
    num = (X[:, None, :] * Q).sum(axis=-1)
    return np.divide(num, den, out=np.full(num.shape, np.inf), where=den > 0)


def _project_rows_simplex(V: np.ndarray) -> np.ndarray:
    """Project each row of V onto the simplex {x >= 0, sum x = 1} (Euclidean)."""
    B, m = V.shape
    U = np.sort(V, axis=1)[:, ::-1]
    css = np.cumsum(U, axis=1) - 1.0
    k = np.arange(1, m + 1)
    cond = U - css / k > 0
    rho_idx = m - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(B), rho_idx] / (rho_idx + 1)
    return np.maximum(V - theta[:, None], 0.0)


def _cut_ratio(loss: ProperLoss, X: np.ndarray):
    """Cutting planes for min <x;q>/rho(q) over the simplex, for each row x of
    X (B, n); returns the best centres (B, n) and proven lower bounds (B,).

    A centre c inside the simplex is cut by g = x - t l(c), t the best value
    so far: as rho(q) <= <l(c), q> for every q, each q with <x;q>/rho(q) < t
    has <g, q> < 0, kinks or not, so the cut keeps every better point (the
    ratio is quasi-convex).  Its depth is <g, c>, which is not 0 where l
    splits a tie and <l(c), c> misses rho(c).  At each such centre two
    bounds hold for every q:
      * over E, <g, q> >= <g, c> - |J^T g| and <x;q> >= s, s the larger of
        min_y x_y and <x, c> - |J^T x|, so the ratio is at least
        t / (1 + max(|J^T g| - <g, c>, 0) / s);
      * <x;q>/rho(q) >= <x;q>/<l(c), q> >= min_y x_y / l_y(c).
    Values are read as <x;c>/<l(c), c>, one loss-map call per cut."""
    B, n = X.shape
    best, lower, best_Q = np.full(B, np.inf), np.zeros(B), np.full((B, n), 1.0 / n)

    def cut(rows, Q, J):
        x = X[rows]
        L = loss.loss_map(Q)
        num = (x * Q).sum(axis=1)
        val, prev = num / (L * Q).sum(axis=1), best[rows]
        better = val < prev
        best[rows] = t = np.minimum(val, prev)
        best_Q[rows[better]] = Q[better]
        g = x - t[:, None] * L
        depth = (g * Q).sum(axis=1)
        H = np.stack([g, x], axis=1) @ J  # J^T g, J^T x
        spread = np.sqrt((H * H).sum(axis=2))
        s = np.maximum(x.min(axis=1), num - spread[:, 1])
        by_level = t / (1.0 + np.maximum(spread[:, 0] - depth, 0.0) / s)
        by_vector = np.fmin.reduce(x / L, axis=1)
        lower[rows] = bound = np.fmax(lower[rows], np.fmax(by_level, by_vector))
        return H[:, 0], depth, t - bound <= _STOP * t

    with np.errstate(divide="ignore", invalid="ignore"):
        _ellipsoid(B, n, 1, _STOP, cut)
    return best_Q, lower


def _descend(loss: ProperLoss, X: np.ndarray, Q: np.ndarray, V: np.ndarray) -> None:
    """Projected gradient descent on the simplex from each row of Q (values
    V), in place.  A row takes the first of its backtracking steps that
    improves by more than 1e-15, and stops when none does, when the step is
    shorter than 1e-13 or when its gradient is not finite."""
    n = Q.shape[1]
    live = np.isfinite(V)
    for _ in range(300):
        if not np.any(live):
            break
        idx = np.flatnonzero(live)
        q = Q[idx]
        r = loss.bayes_risk(q)
        with np.errstate(divide="ignore", invalid="ignore"):
            grad = (X[idx] - V[idx, None] * loss.loss(q)) / r[:, None]
        ok = (r > 0) & np.all(np.isfinite(grad), axis=1)
        live[idx[~ok]] = False
        idx, q, grad = idx[ok], q[ok], grad[ok]
        C = (q[:, None, :] - _STEPS[:, None] * grad[:, None, :]).reshape(-1, n)
        C = _project_rows_simplex(C)
        C = np.maximum(C, 1e-14).reshape(idx.size, _STEPS.size, n)
        C /= C.sum(axis=-1, keepdims=True)
        cv = _ratio(loss, X[idx], C)
        better = cv < V[idx, None] - 1e-15
        rows, k = np.arange(idx.size), np.argmax(better, axis=1)
        moved = better[rows, k]
        settled = np.max(np.abs(C[rows, k] - q), axis=1) < 1e-13
        Q[idx[moved]], V[idx[moved]] = C[rows, k][moved], cv[rows, k][moved]
        live[idx[~moved | settled]] = False


def _minimize_ratio(loss: ProperLoss, X: np.ndarray):
    """Minimize <x;q>/rho(q) over the simplex for each row x of X (B, n);
    returns per-row values (B,), minimizers (B, n) and certified gaps (B,),
    each the value minus a proven lower bound.  Rows are solved in chunks of
    ``_CHUNK``, and a row's result does not depend on the other rows."""
    n = loss.n
    if n - 1 > _MAX_FREE:
        raise ValueError(
            f"numeric antipolar supports dimensions 2..{_MAX_FREE + 1}, got {n}"
        )
    X = np.asarray(X, dtype=np.float64).reshape(-1, n)
    out = (np.empty(X.shape[0]), np.empty(X.shape), np.empty(X.shape[0]))
    for start in range(0, X.shape[0], _CHUNK):
        # the ratio is 1-homogeneous in x, so each row is solved at x / max(x)
        # and no scale overflows or underflows
        scale = X[start:start + _CHUNK].max(axis=1)
        scale[scale <= 0] = 1.0
        Xc = X[start:start + _CHUNK] / scale[:, None]
        q, lower = _cut_ratio(loss, Xc)
        v = _ratio(loss, Xc, q[:, None])[:, 0]
        _descend(loss, Xc, q, v)
        # kinked minimizers, such as the tie ridges of argmax losses, lie on
        # faces and ties that cuts and descent only approach: where no worse,
        # coordinates within _SNAP of 0 or of each other are snapped there
        S = np.where(q <= _SNAP * q.max(axis=1, keepdims=True), 0.0, q)
        near = np.abs(S[:, :, None] - S[:, None, :]) <= _SNAP
        S = np.sum(near * S[:, None, :], axis=2) / np.sum(near, axis=2)
        S /= S.sum(axis=1, keepdims=True)
        sv = _ratio(loss, Xc, S[:, None])[:, 0]
        keep = sv <= v
        q[keep], v[keep] = S[keep], sv[keep]
        # a bound that meets the value can pass it by a rounding error; one
        # past it by more was read off values that lost their precision (in
        # the cancellation near a vertex), so it is dropped for the bound 0
        gap = v - lower
        gap = np.where(gap >= -1e-15 * v, np.maximum(gap, 0.0), v)
        for dest, part in zip(out, (v * scale, q, gap * scale)):
            dest[start:start + Xc.shape[0]] = part
    return out


# ---------------------------------------------------------------------------
# antipolar Bayes risk
# ---------------------------------------------------------------------------
def antipolar_bayes_risk(loss: ProperLoss, x, method: str = "auto") -> AntipolarResult:
    """Evaluate rho^(x) = inf_q <x;q>/rho(q) with the attaining direction.

    ``method='auto'`` uses the loss's closed-form antipolar when it has one,
    ``'closed_form'`` requires one, ``'numeric'`` forces minimization.  A
    numeric ``certified_gap`` is the value minus a proven lower bound on the
    infimum: at most 1e-11 of the value, or all of it where the loss lost
    the precision a bound needs (an infimum reached only in the limit at a
    vertex).  A closed form's is 0, or, where its loss map is undefined and
    the minimizer was located numerically, its mismatch against that solve.
    """
    xa = _coerce(x, loss.n)
    if not np.all(np.isfinite(xa)):
        raise ValueError("antipolar argument must be finite")
    if np.any(xa < 0) or not np.any(xa > 0):
        raise ValueError("antipolar argument must be nonnegative and nonzero")
    if method not in ("auto", "closed_form", "numeric"):
        raise ValueError(f"unknown method {method!r}")
    if method == "closed_form" and loss.antipolar is None:
        raise ValueError(f"{loss.name} has no closed-form antipolar")

    if method != "numeric" and loss.antipolar is not None:
        apolar = loss.antipolar()
        val = float(apolar.rho(xa))
        try:
            return AntipolarResult(val, normalize_direction(apolar.loss(xa)), "closed_form", 0.0)
        except ValueError:
            pass  # boundary point: the infimum is a limit, locate numerically
        num_vals, q, _ = _minimize_ratio(loss, xa[None, :])
        return AntipolarResult(val, q[0], "closed_form", abs(val - float(num_vals[0])))

    vals, q, gaps = _minimize_ratio(loss, xa[None, :])
    return AntipolarResult(float(vals[0]), q[0], "numeric", float(gaps[0]))


def antipolar_loss(loss: ProperLoss) -> ProperLoss:
    """The antipolar (inverse) loss as a full ProperLoss.

    The loss's closed-form antipolar where it has one.  Otherwise the Bayes
    risk is the numeric minimization of ``antipolar_bayes_risk`` and the loss
    map is the envelope supergradient q*/rho(q*) at the attained minimizer;
    for non-strictly-proper losses the supergradient at kink points is one
    representative selection.
    """
    if loss.antipolar is not None:
        return loss.antipolar()

    n = loss.n

    def rho_fn(P):
        P = np.asarray(P, dtype=np.float64)
        return _minimize_ratio(loss, P.reshape(-1, n))[0].reshape(P.shape[:-1])

    def map_fn(P):
        P = np.asarray(P, dtype=np.float64)
        Q = _minimize_ratio(loss, P)[1]
        return (Q / loss.bayes_risk(Q)[:, None]).reshape(P.shape)

    return ProperLoss(
        bayes_risk=BayesRisk(rho_fn, n),
        loss_map=map_fn,
        name=f"{loss.name}^",
        n=n,
        strictly_proper=loss.strictly_proper,
        analytic=False,
    )


def _antipolar_loss_vector(loss: ProperLoss, x, result: AntipolarResult):
    """``antipolar_loss(loss).loss(x)``, with a numeric selection read off the
    minimizer of the antipolar solve ``result`` at x instead of solving again."""
    if loss.antipolar is not None:
        return loss.antipolar().loss(x)
    return result.minimizer / float(loss.bayes_risk(result.minimizer))


# ---------------------------------------------------------------------------
# antigauge of the superprediction set
# ---------------------------------------------------------------------------
def antigauge(
    loss: ProperLoss,
    x,
    method: str = "support",
    grid_resolution: int = 60,
) -> float:
    """sup{lambda > 0 : x/lambda stays in the superprediction set}.

    ``method='support'`` evaluates it as the antipolar Bayes risk at x
    (gauge/support duality; exact up to the antipolar solver).
    ``method='bisection'`` brackets lambda with a grid membership test
    min_q (<x/lambda; q> - rho(q)) >= 0; its accuracy is limited by the
    membership grid, so it serves as an independent cross-check.
    """
    xa = _coerce(x, loss.n)
    if method == "support":
        return antipolar_bayes_risk(loss, xa).value
    if method != "bisection":
        raise ValueError(f"unknown method {method!r}")
    grid = simplex_grid(loss.n, grid_resolution).points
    rho_vals = np.asarray(loss.bayes_risk(grid))

    def member(lam: float) -> bool:
        return bool(np.all(grid @ (xa / lam) - rho_vals >= -1e-12))

    lo, hi = 1e-12, 1.0
    while member(hi):
        hi *= 2.0
        if hi > 1e12:
            break
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if member(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# substitution and the canonical link
# ---------------------------------------------------------------------------
def substitute(loss: ProperLoss, x, tol: float = 1e-6) -> np.ndarray:
    """Map a superprediction point x to a prediction p with l(p) <= x + tol.

    x must lie in the superprediction set (antigauge >= 1 up to a relative
    1e-8 slack).  The prediction is the direction of the antipolar loss at
    x; componentwise dominance is verified before returning.
    """
    xa = _coerce(x, loss.n)
    result = antipolar_bayes_risk(loss, xa)
    beta = result.value
    if beta < 1.0 - 1e-8 * max(1.0, abs(beta)):
        raise ValueError(
            f"x is not a superprediction point (antigauge {beta:.6g} < 1)"
        )
    p = normalize_direction(_antipolar_loss_vector(loss, xa, result))
    lp = loss.loss(p)
    worst = float(np.max(lp - xa))
    if worst > tol:
        raise ValueError(
            f"substitution failed componentwise dominance by {worst:.3e} "
            f"(loss {loss.name}; selection may be non-unique)"
        )
    return p


def canonical_link_composite(loss: ProperLoss):
    """The canonical-link reparametrization x -> l(l^(x)).

    Maps any superprediction point to the boundary point below it on the
    same ray; its partial losses are quasi-convex.
    """
    apolar = antipolar_loss(loss)

    def composite(x):
        xa = _coerce(x, loss.n)
        return loss.loss(apolar.loss(xa))

    return composite


# ---------------------------------------------------------------------------
# pseudo-inverse verification
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PseudoInverseReport:
    passed: bool
    worst_loss_error: float  # max ||l(p) - (l o l^ o l)(p)||_inf
    worst_direction_error: float  # max ||dir(l^(l(p))) - dir(p)||_inf
    tol: float

    def __str__(self) -> str:
        state = "pass" if self.passed else "FAIL"
        return (
            f"pseudo-inverse {state}: loss error {self.worst_loss_error:.3e}, "
            f"direction error {self.worst_direction_error:.3e} (tol {self.tol:.1e})"
        )


def check_pseudo_inverse(
    loss: ProperLoss, grid: SimplexGrid, tol: float = 1e-6
) -> PseudoInverseReport:
    """Verify l = l o l^ o l and dir(l^ o l) = dir on the grid.

    Meaningful for strictly proper losses (unique supergradients); at kink
    points of non-strictly-proper losses the chain depends on the selection.
    """
    lx = loss.loss(grid.points)
    back = antipolar_loss(loss).loss(lx)
    loss_err = np.where(np.isfinite(lx), np.abs(loss.loss(back) - lx), 0.0)
    dir_err = np.abs(normalize_direction(back) - normalize_direction(grid.points))
    worst_loss, worst_dir = (float(np.max(e, initial=0.0)) for e in (loss_err, dir_err))
    return PseudoInverseReport(
        passed=bool(worst_loss <= tol and worst_dir <= tol),
        worst_loss_error=worst_loss,
        worst_direction_error=worst_dir,
        tol=tol,
    )
