"""Composition and transformation of proper losses.

Direct composition routes m component Bayes risks through a combiner Bayes
risk over R^m; the composed loss map is the n-by-m matrix of component loss
vectors times the combiner's loss map evaluated at the component risks, so
properness is inherited.  The dual composition maximizes the combiner over
additive splittings of the probability direction, a concave problem solved
to a certified gap; its loss map follows from the optimal splitting by
Danskin's theorem.  Its Bayes risk and loss map share one certified solve
per batch: a call at the points of the call before reuses that solve.

Also here: positive scaling plus translation of the superprediction set,
canonical normalization (Bayes-risk maximum scaled to 1) and repositioning
of the Bayes-risk maximizer.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from .duality import _MAX_FREE, _ellipsoid, antipolar_bayes_risk
from .geometry import (
    BayesRisk,
    ProperLoss,
    _coerce,
    normalize_direction,
)

__all__ = [
    "MSumSpec",
    "msum",
    "dual_msum",
    "compose",
    "scale_translate",
    "normalize_canonical",
    "shift_maximum",
]

# certified relative gap at which a dual M-sum row stops; no tighter, since
# a combiner's 1e-12 tie tolerance can make its bounds wrong by about that
_DUAL_RTOL = 1e-12
_DUAL_ACTIVE = 1e-9  # share of an outcome above which a part holds it


@dataclass(frozen=True, eq=False)
class MSumSpec:
    """A combiner loss over R^m plus m component losses over R^n."""

    combiner: ProperLoss
    parts: tuple[ProperLoss, ...]
    mode: str = "direct"  # "direct" | "dual"

    def __post_init__(self):
        if self.mode not in ("direct", "dual"):
            raise ValueError(f"mode must be 'direct' or 'dual', got {self.mode!r}")
        if len(self.parts) != self.combiner.n:
            raise ValueError(
                f"combiner dimension {self.combiner.n} != number of parts "
                f"{len(self.parts)}"
            )
        ns = {p.n for p in self.parts}
        if len(ns) != 1:
            raise ValueError(f"parts must share one dimension, got {sorted(ns)}")


def compose(spec: MSumSpec) -> ProperLoss:
    """Build the composed loss for the given mode."""
    return dual_msum(spec) if spec.mode == "dual" else msum(spec)


# ---------------------------------------------------------------------------
# direct composition
# ---------------------------------------------------------------------------
def msum(spec: MSumSpec) -> ProperLoss:
    """Direct composition: rho(p) = rho_M(rho_1(p), ..., rho_m(p)).

    The loss map is [l_1(p) ... l_m(p)] @ m(rho_1(p), ..., rho_m(p)); the
    combiner's subgradient at kinks uses its own tie-splitting selection.
    """
    if spec.mode != "direct":
        raise ValueError("msum requires mode='direct'")
    combiner, parts = spec.combiner, spec.parts
    n = parts[0].n

    def part_risks(P):
        return np.stack([part.bayes_risk(P) for part in parts], axis=-1)

    def rho(P):
        return combiner.bayes_risk(part_risks(P))

    def loss_map(P):
        q = normalize_direction(P)
        R = part_risks(q)
        # at r = 0 any l_M(c), here c = 1_m, is a supergradient: rho_M(r') <= <l_M(c), r'>
        weights = combiner.loss(np.where(np.all(R == 0, axis=-1, keepdims=True), 1.0, R))
        stacked = np.stack([part.loss(q) for part in parts], axis=-1)  # (..., n, m)
        return np.einsum("...ym,...m->...y", stacked, weights)

    return ProperLoss(
        bayes_risk=BayesRisk(rho, n),
        loss_map=loss_map,
        name=_compose_name(combiner, parts, "direct"),
        n=n,
        strictly_proper=False,
        analytic=combiner.analytic and all(p.analytic for p in parts),
        maximizer=None,
    )


# ---------------------------------------------------------------------------
# dual composition
# ---------------------------------------------------------------------------
def _solve_splitting(combiner, parts, P):
    """Maximize f = rho_M(rho_1(a_1), ..., rho_m(a_m)) over splittings
    a_1 + ... + a_m = p, a_i >= 0, for each row p of P (B, n).

    f is concave in the fractions u_(i,y) = a_(i,y) / p_y, a point of a
    product of n simplices with m vertices each, over which
    ``duality._ellipsoid`` runs.  A centre inside is cut by the
    supergradient p_y G_(i,y), G_(i,y) = w_i l_i(a_i)_y with w the
    combiner's loss at the part risks, to the depth by which f(c) falls
    short of the best value.  No cut loses a maximizer, so f(c) + |J^T g|
    (the supergradient inequality over E) and sum_y p_y max_i G_(i,y) (the
    Frank-Wolfe bound) bound the supremum; a row stops once its best bound
    is within _DUAL_RTOL of its best value.

    Returns the best values (B,) and, at the centres that reached them, the
    fractions (B, m, n), part loss vectors (B, m, n) and combiner loss (B, m).
    """
    m, (B, n) = len(parts), P.shape
    best, upper = np.full(B, -np.inf), np.full(B, np.inf)
    best_U, best_L, best_w = np.empty((B, m, n)), np.empty((B, m, n)), np.empty((B, m))

    def cut(rows, c, J):
        p = P[rows]
        U = c.reshape(-1, m, n)
        A = U * p[:, None, :]
        risks = np.stack(
            [part.bayes_risk(A[:, i]) for i, part in enumerate(parts)], axis=-1
        ).clip(min=0.0)  # rounding leaves -1e-17 where a risk vanishes
        val = np.asarray(combiner.bayes_risk(risks), dtype=np.float64)
        # a concave risk >= 0 that vanishes inside a face vanishes on all
        # of it, so where every part risk is 0, f = 0 at every split
        w = np.zeros_like(risks)
        live = np.sum(risks, axis=-1) > 0
        w[live] = combiner.loss(risks[live])
        L = np.stack([part.loss(A[:, i]) for i, part in enumerate(parts)], axis=1)
        with np.errstate(invalid="ignore"):  # 0 * inf where p_y = 0
            G = np.where(w[:, :, None] > 0, w[:, :, None] * L, 0.0)
            g = np.where(p[:, None, :] > 0, p[:, None, :] * G, 0.0)
            fw = np.sum(np.where(p > 0, p * G.max(axis=1), 0.0), axis=-1)
        better = val > best[rows]
        took = rows[better]
        best[took] = val[better]
        best_U[took], best_L[took], best_w[took] = U[better], L[better], w[better]
        # J^T g, summed over outcomes first: see duality._ellipsoid
        h = (J.reshape(-1, m, n, J.shape[2]) * g[..., None]).sum(axis=2).sum(axis=1)
        upper[rows] = np.minimum(upper[rows], np.minimum(val + np.sqrt((h * h).sum(axis=1)), fw))
        done = upper[rows] - best[rows] <= _DUAL_RTOL * np.abs(best[rows])
        # keep <g, z - c> >= best - f(c), where f >= best
        return -h, best[rows] - val, done

    _ellipsoid(B, m, n, _DUAL_RTOL, cut)
    return best, best_U, best_L, best_w


def _envelope_loss(U, L, w):
    """The loss map at the optimal splitting, by Danskin: l(p)_y equals
    w_i l_i(a_i)_y for every part i that holds outcome y.

    Those equalities fix the weights: parts i, j sharing an outcome y have
    w_j / w_i = l_i(a_i)_y / l_j(a_j)_y.  The weights propagate along shared
    outcomes (the one both parts hold most of); each set of parts so linked
    is scaled to the combiner's total weight on it, so that a part sharing no
    outcome keeps w_i = l_M(r)_i.  l(p)_y is then read from the part holding
    most of y.  U, L are (B, m, n) fractions and part loss vectors, w (B, m).
    """
    B, m, n = U.shape
    Li = np.broadcast_to(L[:, :, None, :], (B, m, m, n))
    Lj = np.broadcast_to(L[:, None, :, :], (B, m, m, n))
    share = np.minimum(U[:, :, None, :], U[:, None, :, :])
    share = np.where((share > _DUAL_ACTIVE) & (Li > 0) & (Lj > 0), share, 0.0)
    y = np.argmax(share, axis=-1)[..., None]
    linked = np.take_along_axis(share, y, -1)[..., 0] > 0
    with np.errstate(divide="ignore", invalid="ignore"):  # used only where linked
        ratio = np.take_along_axis(Li / Lj, y, -1)[..., 0]

    comp = np.full((B, m), -1)
    rel = np.ones((B, m))
    weights = np.zeros((B, m))
    for s in range(m):
        comp[comp[:, s] < 0, s] = s
        for _ in range(m - 1):
            for i, j in itertools.permutations(range(m), 2):
                step = (comp[:, i] == s) & (comp[:, j] < 0) & linked[:, i, j]
                rel[step, j] = rel[step, i] * ratio[step, i, j]
                comp[step, j] = s
        mine = comp == s
        total = np.sum(mine * w, axis=1) / np.sum(mine * rel, axis=1).clip(min=1e-300)
        weights += mine * rel * total[:, None]
    top = np.argmax(U, axis=1)[:, None, :]
    return np.take_along_axis(weights[:, :, None] * L, top, axis=1)[:, 0, :]


def dual_msum(spec: MSumSpec) -> ProperLoss:
    """Dual composition: rho(p) = sup over splittings a_1+...+a_m = p, a_i >= 0,
    of rho_M(rho_1(a_1), ..., rho_m(a_m)).

    The splitting objective is concave (a sup-convolution), so the supremum
    is certified: ``_solve_splitting`` runs a batched ellipsoid method that
    stops each row on its own certified gap.  The loss map is read off the
    optimal splitting by Danskin's theorem (``_envelope_loss``) and scaled
    so that <l(p), p> = rho(p); it needs strictly positive p.  Each row is
    solved at p / max(p), by homogeneity, so extreme scales neither
    overflow nor underflow.

    ``rho`` and the loss map share one certified solve per batch: the
    result of the last batch solved is kept, and a call whose scaled rows
    match it byte for byte (rho then loss at the same points, or a repeated
    query) returns it without solving again.  Results are bit-identical to
    a fresh solve, since the solve is deterministic and a row's result does
    not depend on its batch; memory holds one batch.
    """
    if spec.mode != "dual":
        raise ValueError("dual_msum requires mode='dual'")
    combiner, parts = spec.combiner, spec.parts
    m = len(parts)
    n = parts[0].n
    if n * (m - 1) > _MAX_FREE:
        raise ValueError(
            f"splitting budget exceeded: n*(m-1) = {n * (m - 1)} > {_MAX_FREE}"
        )

    last = None  # (Q.shape, Q.tobytes(), result) of the last batch solved

    def solve(Q):
        # `last` is read once, so a thread that replaces it meanwhile cannot
        # hand this call another batch's result
        nonlocal last
        key, hit = (Q.shape, Q.tobytes()), last
        if hit is None or hit[:2] != key:
            hit = last = (*key, _solve_splitting(combiner, parts, Q))
        return hit[2]

    def rho(P):
        flat = P.reshape(-1, n)  # P >= 0 here, so a non-finite entry shows in the max
        scale = flat.max(axis=1)
        vals = np.where(scale == 0, 0.0, np.nan)
        ok = np.isfinite(scale) & (scale > 0)
        if np.any(ok):
            Q = flat[ok] / scale[ok, None]
            vals[ok] = scale[ok] * solve(Q)[0]
        return vals.reshape(P.shape[:-1])

    def loss_map(P):
        flat = P.reshape(-1, n)
        if not np.all((flat > 0) & np.isfinite(flat)):
            raise ValueError("the dual M-sum loss needs finite, strictly positive points")
        Q = flat / flat.max(axis=1, keepdims=True)
        vals, U, L, w = solve(Q)
        lam = _envelope_loss(U, L, w)
        pairing = np.sum(lam * Q, axis=1)
        if not np.all(pairing > 0):
            raise ValueError("degenerate dual M-sum loss: <l(p), p> <= 0")
        return (lam * (vals / pairing)[:, None]).reshape(P.shape)

    return ProperLoss(
        bayes_risk=BayesRisk(rho, n),
        loss_map=loss_map,
        name=_compose_name(combiner, parts, "dual"),
        n=n,
        strictly_proper=False,
        analytic=False,
        maximizer=None,
    )


def _compose_name(combiner: ProperLoss, parts, mode: str) -> str:
    inner = ",".join(p.name for p in parts)
    return f"msum:combiner={combiner.name};parts={inner};mode={mode}"


# ---------------------------------------------------------------------------
# affine cone transforms
# ---------------------------------------------------------------------------
def scale_translate(loss: ProperLoss, alpha: float, t=None) -> ProperLoss:
    """The loss of the scaled-and-translated superprediction set alpha*S + t.

    rho'(p) = alpha*rho(p) + <t, p> and l'(p) = alpha*l(p) + t; properness is
    preserved for alpha > 0 and finite t >= 0.
    """
    alpha = float(alpha)
    if not np.isfinite(alpha) or alpha <= 0:
        raise ValueError("scale must be positive and finite")
    tv = np.zeros(loss.n) if t is None else _coerce(t, loss.n).astype(np.float64)
    if np.any(tv < 0) or not np.all(np.isfinite(tv)):
        raise ValueError("translation must be finite and nonnegative")
    pure_scale = not np.any(tv)

    def rho(P):
        base = alpha * np.asarray(loss.bayes_risk(P), dtype=np.float64)
        return base + np.sum(tv * P, axis=-1)

    def loss_map(P):
        return alpha * loss.loss(P) + tv

    # only an exactly uniform shift keeps the maximizer (a near one moves it)
    new_max = loss.maximizer if np.all(tv == tv[0]) else None
    label = f"scale({loss.name},{alpha:g})" if pure_scale else (
        f"affine({loss.name},{alpha:g})"
    )
    return ProperLoss(
        bayes_risk=BayesRisk(rho, loss.n),
        loss_map=loss_map,
        name=label,
        n=loss.n,
        strictly_proper=loss.strictly_proper,
        analytic=loss.analytic,
        maximizer=new_max,
        antipolar=(
            lambda: scale_translate(loss.antipolar(), 1.0 / alpha)
        ) if pure_scale and loss.antipolar is not None else None,
    )


# ---------------------------------------------------------------------------
# canonical normalization
# ---------------------------------------------------------------------------
def normalize_canonical(loss: ProperLoss):
    """Rescale so the Bayes risk attains maximum 1 on the simplex.

    Returns ``(normalized_loss, coefficient, maximizer)``: the coefficient
    is the antigauge of the superprediction set at the all-ones vector, and
    the maximizer is the direction of the antipolar loss there (which is
    where the original Bayes risk peaks).
    """
    ones = np.ones(loss.n)
    result = antipolar_bayes_risk(loss, ones)
    coefficient = result.value
    if loss.maximizer is not None:
        p_star = np.asarray(loss.maximizer, dtype=np.float64)
    else:
        p_star = normalize_direction(result.minimizer)
    return scale_translate(loss, coefficient), float(coefficient), p_star


# ---------------------------------------------------------------------------
# repositioning the Bayes-risk maximum
# ---------------------------------------------------------------------------
def shift_maximum(loss: ProperLoss, p0, c: float | None = None) -> ProperLoss:
    """Translate the superprediction set so the Bayes risk peaks at p0.

    The set moves by u*1_n - l(p0) + max_y l(p0, y) * 1_n, where u is the
    (uniform) loss level at the current maximizer; afterwards the loss
    vector at p0 is a positive multiple of 1_n, which characterizes the
    maximizer for strictly proper losses.  The default scale c makes
    l~(p0) = 1_n exactly; any positive c may be supplied instead (the choice
    affects only the scale, never the argmax).
    """
    if not loss.strictly_proper:
        raise ValueError("shift_maximum requires a strictly proper loss")
    p0 = normalize_direction(_coerce(p0, loss.n))
    if np.any(p0 <= 0):
        raise ValueError("p0 must be strictly inside the simplex")

    if loss.maximizer is not None:
        p_star = np.asarray(loss.maximizer, dtype=np.float64)
    else:
        p_star = normalize_direction(
            antipolar_bayes_risk(loss, np.ones(loss.n)).minimizer
        )
    level = float(np.mean(loss.loss(p_star)))  # l(p*) is uniform at the maximizer
    l0 = loss.loss(p0)
    if not np.all(np.isfinite(l0)):
        raise ValueError("loss at p0 must be finite")
    peak = float(np.max(l0))
    t = level + peak - l0  # >= 0 componentwise
    if c is None:
        c = 1.0 / (level + peak)
    c = float(c)
    if c <= 0:
        raise ValueError("normalizing constant must be positive")
    shifted = scale_translate(loss, c, c * t)
    return dataclasses.replace(shifted, name=f"shiftmax({loss.name})", maximizer=p0.copy())
