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
carries as its certificate; a snap onto faces and ties and a Newton solve
of the KKT system refine the minimizer.  Each query is solved once: the
antipolar loss map, ``substitute`` and the CLI read their selection off it.

The attained minimizer q* doubles as the supergradient of rho^ at x via the
envelope identity  d rho^(x) = q* / rho(q*),  which is how numeric antipolar
loss maps are evaluated.  Where a closed-form loss map is undefined or
infinite at x (an infimum reached only in the limit on the face where x is
least), the minimizer is the uniform point of that face.

``check_pseudo_inverse`` verifies the round trip l o l^ o l = l and reports
it as a ``geometry.CheckResult``, the entry ``verify_all`` lists for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    BayesRisk,
    CheckResult,
    ProperLoss,
    SimplexGrid,
    _coerce,
    _finite_tol,
    normalize_direction,
    simplex_grid,
)

__all__ = [
    "AntipolarResult",
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
_NEWTON_STEPS = 12  # cap on the Newton steps of one row
_H = 2.0 ** -26  # forward-difference step in log q
_SNAP = 1e-9  # closeness at which coordinates are snapped to a face or a tie


def _ratio(loss: ProperLoss, X: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """<x;q>/rho(q) for the rows x of X and q of Q (B, n), +inf where rho(q) <= 0."""
    den, num = loss.bayes_risk(Q), (X * Q).sum(axis=1)
    return np.divide(num, den, out=np.full(num.shape, np.inf), where=den > 0)


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


def _newton(loss: ProperLoss, X: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Newton's method on the KKT system of min <x;q>/rho(q) from each row of
    Q (B, n) over its support F: r(z) = 0 in z = log q_F, r_y = log(l_y(q) /
    x_y) less its value at the largest q_y, whose z stays put, with a forward-
    difference Jacobian from one loss-map call per step.  A row stops when its
    residual stops halving, or after _NEWTON_STEPS steps, at the last point
    whose residual halved.  It is not evaluated where F has one point, x = 0
    on F or rho <= 0, nor on a face for a numeric loss (the dual M-sum's)."""
    F, n = Q > 0, Q.shape[1]
    out, res = Q.copy(), np.full(Q.shape[0], np.inf)
    live = (F.sum(axis=1) >= 2) & np.all(X > 0, axis=1, where=F) & (loss.analytic | F.all(axis=1))
    Z, logx = np.log(Q), np.log(np.where(F, X, 1.0))  # Z = -inf off F
    shifts = np.vstack([np.zeros(n), _H * np.eye(n)])  # the point and its n neighbours
    for _ in range(_NEWTON_STEPS):
        idx = np.flatnonzero(live)
        if idx.size:
            z = Z[idx] - Z[idx].max(axis=1, keepdims=True)
            P = np.exp(z[:, None, :] + shifts)
            P /= P.sum(axis=2, keepdims=True)  # (b, n + 1, n)
            ok = loss.bayes_risk(P[:, 0]) > 0
            live[idx[~ok]] = False
            idx, P, ref = idx[ok], P[ok], np.argmax(z[ok], axis=1)
        if idx.size == 0:
            break
        R = np.log(loss.loss_map(P.reshape(-1, n)).reshape(P.shape)) - logx[idx, None, :]
        R = np.where(F[idx, None, :], R - np.take_along_axis(R, ref[:, None, None], axis=2), 0.0)
        norm = np.max(np.abs(R[:, 0]), axis=1)
        halved = norm < 0.5 * res[idx]  # False where the residual is not finite
        out[idx[halved]], res[idx] = P[halved, 0], norm
        J = np.swapaxes(R[:, 1:] - R[:, :1], 1, 2) / _H  # J[y, j] = d r_y / d z_j
        J[np.arange(idx.size), :, ref] = 0.0
        live[idx] = go = halved & np.all(np.isfinite(J), axis=(1, 2))
        Z[idx[go]] -= np.sum(np.linalg.pinv(J[go]) * R[go, None, 0], axis=2)
    return out


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
        v = _ratio(loss, Xc, q)
        # kinked minimizers, such as the tie ridges of argmax losses, lie on
        # faces and ties that cuts only approach: where no worse,
        # coordinates within _SNAP of 0 or of each other are snapped there
        S = np.where(q <= _SNAP * q.max(axis=1, keepdims=True), 0.0, q)
        near = np.abs(S[:, :, None] - S[:, None, :]) <= _SNAP
        S = np.sum(near * S[:, None, :], axis=2) / np.sum(near, axis=2)
        S /= S.sum(axis=1, keepdims=True)
        sv = _ratio(loss, Xc, S)
        keep = sv <= v
        q[keep], v[keep] = S[keep], sv[keep]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            N = _newton(loss, Xc, q)
        nv = _ratio(loss, Xc, N)
        keep = nv <= v * (1.0 + 1e-15)  # the ratio is flat: no worse up to rounding
        q[keep], v[keep] = N[keep], nv[keep]
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
    vertex).  A closed form's is 0, and its minimizer is the direction of
    the antipolar loss at x.  Where that loss raises or has an infinite
    entry, the infimum is a limit on the face where x is least (x vanishes
    there, or Brier's minimizer rounds to that vertex), and the minimizer is
    the uniform point of that face.
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
            q = apolar.loss(xa)
        except ValueError:
            q = None
        if q is None or not np.all(np.isfinite(q)):
            # the infimum is a limit on the face where x is least
            q = (xa == xa.min()).astype(np.float64)
        return AntipolarResult(val, normalize_direction(q), "closed_form", 0.0)

    vals, q, gaps = _minimize_ratio(loss, xa[None, :])
    return AntipolarResult(float(vals[0]), q[0], "numeric", float(gaps[0]))


def antipolar_loss(loss: ProperLoss) -> ProperLoss:
    """The antipolar (inverse) loss as a full ProperLoss.

    The loss's closed-form antipolar where it has one.  Otherwise the Bayes
    risk is the numeric minimization of ``antipolar_bayes_risk`` and the loss
    map is the envelope supergradient q*/rho(q*) at the attained minimizer;
    for non-strictly-proper losses the supergradient at kink points is one
    representative selection.  Either way the result's antipolar leads back
    to the loss (the bipolar theorem); a numeric one's is the loss itself.
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
        antipolar=lambda: loss,
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
    ``method='bisection'`` returns the largest lambda that passes the grid
    membership test min_q (<x/lambda; q> - rho(q)) >= 0, which a bisection
    would converge to: the minimum of <x; q>/rho(q) over the points q of
    ``simplex_grid(n, grid_resolution)`` with rho(q) > 0.  It is an upper
    bound whose accuracy is limited by the grid, so it serves as an
    independent cross-check.
    """
    xa = _coerce(x, loss.n)
    if method == "support":
        return antipolar_bayes_risk(loss, xa).value
    if method != "bisection":
        raise ValueError(f"unknown method {method!r}")
    grid = simplex_grid(loss.n, grid_resolution).points
    rho_vals = np.asarray(loss.bayes_risk(grid))
    pos = rho_vals > 0
    return float(np.min((grid[pos] @ xa) / rho_vals[pos], initial=np.inf))


# ---------------------------------------------------------------------------
# substitution and the canonical link
# ---------------------------------------------------------------------------
def substitute(loss: ProperLoss, x, tol: float = 1e-6) -> np.ndarray:
    """Map a superprediction point x to a prediction p with l(p) <= x + tol.

    x must lie in the superprediction set (antigauge >= 1 up to a relative
    1e-8 slack).  The prediction is the minimizer of the antipolar solve at
    x, the direction of the antipolar loss there; componentwise dominance is
    verified before returning.
    """
    _finite_tol(tol)
    xa = _coerce(x, loss.n)
    result = antipolar_bayes_risk(loss, xa)
    beta = result.value
    if beta < 1.0 - 1e-8 * max(1.0, abs(beta)):
        raise ValueError(
            f"x is not a superprediction point (antigauge {beta:.6g} < 1)"
        )
    p = result.minimizer
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
def check_pseudo_inverse(loss: ProperLoss, grid: SimplexGrid, tol: float = 1e-6) -> CheckResult:
    """Verify l = l o l^ o l and dir(l^ o l) = dir on the grid, at the points
    whose loss vector is finite and > 0, where the antipolar loss is defined.

    The worst is the larger of the loss and direction errors, NaN if either
    is; the witness ``{"skipped": k}`` counts the other points, if any.  With
    no point left the check is skipped (``passed`` None).  Meaningful for
    strictly proper losses (unique supergradients); at kink points of
    non-strictly-proper losses the chain depends on the selection.
    """
    _finite_tol(tol)
    lx = loss.loss(grid.points)
    ok = np.all(np.isfinite(lx) & (lx > 0), axis=1)
    skipped = int(ok.size - np.count_nonzero(ok))
    witness = {"skipped": skipped} if skipped else None
    if not ok.any():
        return CheckResult("pseudo_inverse", None, None, witness, None)
    lx, points = lx[ok], grid.points[ok]
    back = antipolar_loss(loss).loss(lx)
    loss_err = np.abs(loss.loss(back) - lx)
    dir_err = np.abs(normalize_direction(back) - normalize_direction(points))
    worst = float(np.maximum(np.max(loss_err), np.max(dir_err)))  # NaN if either is
    return CheckResult("pseudo_inverse", bool(worst <= tol), worst, witness, tol)
