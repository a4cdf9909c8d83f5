"""Antipolar (inverse) losses, the substitution function and the canonical
link.

The antipolar Bayes risk of a loss with Bayes risk rho is

    rho^(x) = inf_{q != 0} <x; q> / rho(q),

the concave-gauge polar.  Closed forms are used when the loss carries a
hint; otherwise the infimum is taken numerically over the simplex by one
solver batched over queries: golden-section for n = 2; for 3 <= n <= 5,
projected descent from the best points of a seed grid, then a pattern
polish whose face moves (one coordinate set to 0) reach minimizers on a
face of the simplex.  The objective is quasi-convex, so local search from a
dense seed grid suffices at this scale, and each result is cross-checked
against a verification grid.  Each query is solved once: the antipolar loss
map, ``substitute`` and the CLI read their selection off that minimizer.

The attained minimizer q* doubles as the supergradient of rho^ at x via the
envelope identity  d rho^(x) = q* / rho(q*),  which is how numeric antipolar
loss maps are evaluated.
"""

from __future__ import annotations

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

_MAX_NUMERIC_DIM = 5


# ---------------------------------------------------------------------------
# row-wise simplex searches
# ---------------------------------------------------------------------------
def _project_rows_capped_simplex(V: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Project each row of V onto {x >= 0, sum x = s_row} (Euclidean)."""
    B, m = V.shape
    U = np.sort(V, axis=1)[:, ::-1]
    css = np.cumsum(U, axis=1) - s[:, None]
    k = np.arange(1, m + 1)
    cond = U - css / k > 0
    rho_idx = m - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(B), rho_idx] / (rho_idx + 1)
    return np.maximum(V - theta[:, None], 0.0)


def _golden_max_rows(f, lo: np.ndarray, hi: np.ndarray, iters: int):
    """Row-wise golden-section maximization over [lo, hi]; one f call per
    iteration, f maps a (B,) probe vector to (B,) values."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo.copy(), hi.copy()
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        left = fc >= fd  # maximum lies in [a, d]
        a, b = np.where(left, a, c), np.where(left, d, b)
        w = invphi * (b - a)
        probe = np.where(left, b - w, a + w)
        fp = f(probe)
        c, d = np.where(left, probe, d), np.where(left, c, probe)
        fc, fd = np.where(left, fp, fd), np.where(left, fc, fp)
    t = np.where(fc >= fd, c, d)
    return t, np.maximum(fc, fd)


@dataclass(frozen=True)
class AntipolarResult:
    """Value and attaining direction of the antipolar Bayes risk at x."""

    value: float
    minimizer: np.ndarray  # point of the closed simplex
    method: str  # "closed_form" | "numeric"
    certified_gap: float  # excess of the solver value over the best grid value


# ---------------------------------------------------------------------------
# numeric minimization of q -> <x;q>/rho(q), batched over queries x
# ---------------------------------------------------------------------------
_CHUNK = 32  # queries solved together; bounds the solver's memory for any B
_STARTS = 20  # descent starts per query, the best seeds of the seed grid
_STEPS = 0.5 ** np.arange(30)  # backtracking step sizes, tried as one block


def _ratio(loss: ProperLoss, X: np.ndarray, Q: np.ndarray, den=None) -> np.ndarray:
    """<x;q>/rho(q), +inf where rho(q) <= 0, for each query row x of X (R, n)
    against one block of points per query, Q (R, M, n), or one shared set
    Q (G, n) whose Bayes risks ``den`` the caller passes."""
    if den is None:
        den = np.reshape(loss.bayes_risk(Q.reshape(-1, loss.n)), Q.shape[:-1])
    num = (X[:, None, :] * Q).sum(axis=-1)
    return np.divide(num, den, out=np.full(num.shape, np.inf), where=den > 0)


def _descend(loss: ProperLoss, X: np.ndarray, Q: np.ndarray, V: np.ndarray,
             iters: int = 300) -> None:
    """Projected gradient descent on the simplex from each row of Q (values
    V), in place.  A row takes the first of its backtracking steps that
    improves by more than 1e-15, and stops when none does, when the step is
    shorter than 1e-13 or when its gradient is not finite."""
    n = Q.shape[1]
    live = np.isfinite(V)
    for _ in range(iters):
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
        C = _project_rows_capped_simplex(C, np.ones(C.shape[0]))
        C = np.maximum(C, 1e-14).reshape(idx.size, _STEPS.size, n)
        C /= C.sum(axis=-1, keepdims=True)
        cv = _ratio(loss, X[idx], C)
        better = cv < V[idx, None] - 1e-15
        rows, k = np.arange(idx.size), np.argmax(better, axis=1)
        moved = better[rows, k]
        settled = np.max(np.abs(C[rows, k] - q), axis=1) < 1e-13
        Q[idx[moved]], V[idx[moved]] = C[rows, k][moved], cv[rows, k][moved]
        live[idx[~moved | settled]] = False


def _polish(loss: ProperLoss, X: np.ndarray, Q: np.ndarray, V: np.ndarray) -> None:
    """Pattern search on the simplex from each row of Q (values V), in place.

    A sweep tries every transfer of delta mass between two coordinates and
    every face move (one coordinate set to 0, the rest renormalised), and
    takes the best that improves; without one, delta halves.  Face moves
    reach minimizers on a face, such as the tie ridges of argmax losses,
    that shrinking transfers only approach.  A row stops at delta <= 1e-13
    or after 4000 evaluations."""
    eye = np.eye(Q.shape[1])
    gain, give = np.nonzero(eye == 0)
    delta, budget = np.full(Q.shape[0], 0.25), np.full(Q.shape[0], 4000)
    live = np.ones(Q.shape[0], dtype=bool)
    while np.any(live):
        idx = np.flatnonzero(live)
        q, d = Q[idx], delta[idx, None]
        faces = q[:, None, :] * (1.0 - eye)
        mass = faces.sum(axis=-1)
        C = np.hstack([q[:, None, :] + d[:, :, None] * (eye[gain] - eye[give]),
                       faces / np.where(mass > 0, mass, 1.0)[..., None]])
        ok = np.hstack([q[:, give] - d > 1e-15, (q > 0) & (mass > 0)])
        cv = np.where(ok, _ratio(loss, X[idx], C), np.inf)
        k = np.argmin(cv, axis=1)
        best = cv[np.arange(idx.size), k]
        take = best < V[idx]
        Q[idx[take]], V[idx[take]] = C[take, k[take]], best[take]
        delta[idx[~take]] *= 0.5
        budget[idx] -= ok.sum(axis=1)
        live = (delta > 1e-13) & (budget > 0)


def _minimize_ratio(loss: ProperLoss, X: np.ndarray):
    """Minimize <x;q>/rho(q) over the simplex for each row x of X (B, n);
    returns per-row values (B,), minimizers (B, n) and certified gaps (B,).

    n = 2: golden-section search; 3 <= n <= 5: projected descent from the
    best seeds of a simplex grid, then a pattern polish.  Each result is
    checked against a verification grid and polished again from the grid
    point where the grid wins.  Rows are solved in chunks of ``_CHUNK``, and
    a row's result does not depend on the other rows."""
    n = loss.n
    if n > _MAX_NUMERIC_DIM:
        raise ValueError(
            f"numeric antipolar supports dimensions 2..{_MAX_NUMERIC_DIM}, got {n}"
        )
    X = np.asarray(X, dtype=np.float64).reshape(-1, n)
    verify = simplex_grid(n, 2000 if n == 2 else 24).points
    verify_risk = loss.bayes_risk(verify)
    if n > 2:
        seeds = simplex_grid(n, 12).points
        seed_risk = loss.bayes_risk(seeds)
    out = (np.empty(X.shape[0]), np.empty(X.shape), np.empty(X.shape[0]))
    for start in range(0, X.shape[0], _CHUNK):
        Xc = X[start:start + _CHUNK]
        rows = np.arange(Xc.shape[0])
        if n == 2:  # golden section over q = (t, 1 - t), maximizing -ratio
            to_q = lambda t: np.array([t, 1.0 - t]).T
            f = lambda t: -_ratio(loss, Xc, to_q(t)[:, None])[:, 0]
            a, b = np.full(len(Xc), 1e-9), np.full(len(Xc), 1.0 - 1e-9)
            t, v = _golden_max_rows(f, a, b, iters=80)
            q, v = to_q(t), -v
        else:
            seed_vals = _ratio(loss, Xc, seeds, seed_risk)
            order = np.argsort(seed_vals, axis=1)[:, :_STARTS]
            Qs, Vs = seeds[order], seed_vals[rows[:, None], order]
            _descend(loss, np.repeat(Xc, _STARTS, axis=0), Qs.reshape(-1, n),
                     Vs.reshape(-1))
            best = np.argmin(Vs, axis=1)
            q, v = Qs[rows, best], Vs[rows, best]
            _polish(loss, Xc, q, v)
        grid = _ratio(loss, Xc, verify, verify_risk)
        k = np.argmin(grid, axis=1)
        grid_val = grid[rows, k]
        gap = np.fmax(v - grid_val, 0.0)
        win = grid_val < v
        if np.any(win):
            q_win, v_win = verify[k[win]], grid_val[win]
            _polish(loss, Xc[win], q_win, v_win)
            q[win], v[win] = q_win, v_win
        for dest, part in zip(out, (v, q, gap)):
            dest[start:start + Xc.shape[0]] = part
    return out


# ---------------------------------------------------------------------------
# antipolar Bayes risk
# ---------------------------------------------------------------------------
def antipolar_bayes_risk(loss: ProperLoss, x, method: str = "auto") -> AntipolarResult:
    """Evaluate rho^(x) = inf_q <x;q>/rho(q) with the attaining direction.

    ``method='auto'`` uses the loss's closed form when available (falling
    back to minimization at its singular points), ``'closed_form'`` requires
    one, ``'numeric'`` forces minimization.  ``certified_gap`` is the amount
    by which the best verification-grid value beat the solver (0 when the
    solver was at least as good; for closed forms, the mismatch against the
    numeric cross-check when one was run).
    """
    xa = _coerce(x, loss.n)
    if np.any(xa < 0) or not np.any(xa > 0):
        raise ValueError("antipolar argument must be nonnegative and nonzero")
    if method not in ("auto", "closed_form", "numeric"):
        raise ValueError(f"unknown method {method!r}")

    hint = loss.antipolar_hint
    has_closed = hint is not None and hint.rho is not None
    if method == "closed_form" and not has_closed:
        raise ValueError(f"{loss.name} has no closed-form antipolar")

    if method != "numeric" and has_closed:
        val = float(hint.rho(xa))
        if np.isfinite(val) and not np.isnan(val):
            if hint.loss_map is not None:
                try:
                    minimizer = normalize_direction(np.asarray(hint.loss_map(xa)))
                    return AntipolarResult(val, minimizer, "closed_form", 0.0)
                except ValueError:
                    pass  # boundary point: the infimum is a limit, locate numerically
            num_vals, q, _ = _minimize_ratio(loss, xa[None, :])
            gap = abs(val - float(num_vals[0]))
            return AntipolarResult(val, q[0], "closed_form", gap)
        if method == "closed_form":
            raise ValueError(
                f"closed-form antipolar of {loss.name} is singular at this point"
            )

    vals, q, gaps = _minimize_ratio(loss, xa[None, :])
    return AntipolarResult(float(vals[0]), q[0], "numeric", float(gaps[0]))


def antipolar_loss(loss: ProperLoss) -> ProperLoss:
    """The antipolar (inverse) loss as a full ProperLoss.

    When the loss carries a closed-form partner (concave-norm pairing,
    scaled Cobb-Douglas, min/constant) that partner is returned.  Otherwise
    the Bayes risk is ``antipolar_bayes_risk`` and the loss map is the
    envelope supergradient q*/rho(q*) at the attained minimizer (exact for
    the hinted log/Brier forms, numeric elsewhere).  For non-strictly-proper
    losses the supergradient at kink points is one representative selection.
    """
    hint = loss.antipolar_hint
    if hint is not None and hint.partner is not None:
        return hint.partner()

    n = loss.n

    def rho_fn(P):
        P = np.asarray(P, dtype=np.float64)
        flat = P.reshape(-1, n)
        if hint is not None and hint.rho is not None:
            vals = np.array(hint.rho(flat), dtype=np.float64)
        else:
            vals = np.full(flat.shape[0], np.nan)
        singular = np.isnan(vals)  # no closed form, or one of its 0/0 points
        if np.any(singular):
            vals[singular] = _minimize_ratio(loss, flat[singular])[0]
        return vals.reshape(P.shape[:-1])

    if hint is not None and hint.loss_map is not None:
        map_fn = hint.loss_map
    else:
        def map_fn(P):
            P = np.asarray(P, dtype=np.float64)
            Q = _minimize_ratio(loss, P)[1]
            return (Q / loss.bayes_risk(Q)[:, None]).reshape(P.shape)

    fully_closed = (
        hint is not None and hint.rho is not None and hint.loss_map is not None
    )
    return ProperLoss(
        bayes_risk=BayesRisk(rho_fn, n),
        loss_map=map_fn,
        name=f"{loss.name}^",
        n=n,
        strictly_proper=loss.strictly_proper,
        analytic=fully_closed,
        maximizer=None,
        antipolar_hint=None,
    )


def _antipolar_loss_vector(loss: ProperLoss, x, result: AntipolarResult):
    """``antipolar_loss(loss).loss(x)``, with a numeric selection read off the
    minimizer of the antipolar solve ``result`` at x instead of solving again."""
    hint = loss.antipolar_hint
    if hint is not None and (hint.partner is not None or hint.loss_map is not None):
        return antipolar_loss(loss).loss(x)
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
