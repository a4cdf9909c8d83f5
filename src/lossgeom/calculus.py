"""Composition and transformation of proper losses.

Direct composition routes m component Bayes risks through a combiner Bayes
risk over R^m; the composed loss map is the n-by-m matrix of component loss
vectors times the combiner's loss map evaluated at the component risks, so
properness is inherited.  The dual composition maximizes the combiner over
additive splittings of the probability direction; its supergradients are
taken numerically.

Also here: positive scaling plus translation of the superprediction set,
canonical normalization (Bayes-risk maximum scaled to 1) and repositioning
of the Bayes-risk maximizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import compositions
from .duality import antipolar_bayes_risk
from .geometry import (
    AntipolarHint,
    BayesRisk,
    ProperLoss,
    _coerce,
    _golden_max_rows,
    _project_rows_capped_simplex,
    normalize_direction,
    numeric_supergradient_batch,
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

_DUAL_BUDGET = 8  # max free splitting coordinates n*(m-1)


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
        weights = combiner.loss(part_risks(q))  # (..., m)
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
        antipolar_hint=None,
    )


# ---------------------------------------------------------------------------
# dual composition
# ---------------------------------------------------------------------------
def _stick_fractions_from_weights(w: np.ndarray) -> np.ndarray:
    """Stick-breaking fractions t reproducing scalar split weights w."""
    m = w.shape[-1]
    t = np.empty(w.shape[:-1] + (m - 1,))
    rem = np.ones(w.shape[:-1])
    for i in range(m - 1):
        t[..., i] = np.where(rem > 1e-300, w[..., i] / np.maximum(rem, 1e-300), 0.0)
        rem = rem - w[..., i]
    return np.clip(t, 0.0, 1.0)


def _allocations(P: np.ndarray, T: np.ndarray) -> list[np.ndarray]:
    """Split P into m nonnegative parts from fractions T of shape (..., n, m-1)."""
    m = T.shape[-1] + 1
    rem = P
    out = []
    for i in range(m - 1):
        a = T[..., i] * rem
        out.append(a)
        rem = rem - a
    out.append(rem)
    return out


def _fractions_from_allocations(P: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Stick-breaking fractions (B, n, m-1) reproducing allocations (B, m, n)."""
    B, m, n = A.shape
    T = np.empty((B, n, m - 1))
    rem = P.copy()
    for i in range(m - 1):
        T[:, :, i] = np.where(rem > 1e-300, A[:, i, :] / np.maximum(rem, 1e-300), 0.0)
        rem = rem - A[:, i, :]
    return np.clip(T, 0.0, 1.0)


def _subgradient_phase(combiner, parts, Pb, A, best_val, iters=300):
    """Projected supergradient ascent on the splitting objective.

    Combiners with kinks (coordinate-minimum risks) put the optimum on a
    ridge where per-coordinate line search stalls; the supergradient
    w_i * l_i(a_i), with w the combiner's tie-splitting loss map at the
    component risks, slides along that ridge.  A is (B, m, n); returns the
    best allocation and value seen.
    """
    m = len(parts)
    B, _, n = A.shape
    best_A = A.copy()
    best = best_val.copy()
    tiny = 1e-12
    radius = 0.35 * np.max(Pb, axis=1)
    for k in range(1, iters + 1):
        safe = np.maximum(A, tiny * Pb[:, None, :])
        risks = np.stack(
            [parts[i].bayes_risk(safe[:, i, :]) for i in range(m)], axis=-1
        )
        risks = np.maximum(risks, tiny)
        weights = combiner.loss(risks)  # (B, m)
        G = np.stack(
            [
                weights[:, i, None] * np.minimum(parts[i].loss(safe[:, i, :]), 1e8)
                for i in range(m)
            ],
            axis=1,
        )
        scale = np.max(np.abs(G), axis=(1, 2))
        G = G / np.maximum(scale, tiny)[:, None, None]
        A_new = A + (radius / np.sqrt(k))[:, None, None] * G
        flat = np.swapaxes(A_new, 1, 2).reshape(B * n, m)
        flat = _project_rows_capped_simplex(flat, Pb.reshape(-1))
        A_new = np.swapaxes(flat.reshape(B, n, m), 1, 2)
        vals = combiner.bayes_risk(
            np.maximum(
                np.stack(
                    [parts[i].bayes_risk(A_new[:, i, :]) for i in range(m)], axis=-1
                ),
                0.0,
            )
        )
        take = vals > best
        best_A[take] = A_new[take]
        best = np.maximum(best, vals)
        A = A_new
    return best_A, best


def dual_msum(spec: MSumSpec) -> ProperLoss:
    """Dual composition: rho(p) = sup over splittings a_1+...+a_m = p, a_i >= 0,
    of rho_M(rho_1(a_1), ..., rho_m(a_m)).

    The splitting is restricted to the nonnegative cone (component risks are
    -inf outside it).  Maximization is per-coordinate stick-breaking seeded
    from a resolution-24 scalar-split grid, a projected supergradient phase
    (which handles the ridge optima of kinked combiners), then
    coordinate-ascent sweeps with a shrinking bracket; the objective is
    concave in the splitting, so this schedule is reliable at desk scale.
    Loss maps are numeric supergradients of the optimized risk.
    """
    if spec.mode != "dual":
        raise ValueError("dual_msum requires mode='dual'")
    combiner, parts = spec.combiner, spec.parts
    m = len(parts)
    n = parts[0].n
    if n * (m - 1) > _DUAL_BUDGET:
        raise ValueError(
            f"splitting budget exceeded: n*(m-1) = {n * (m - 1)} > {_DUAL_BUDGET}"
        )

    def objective(P, T):
        allocs = _allocations(P, T)
        risks = np.stack(
            [part.bayes_risk(a) for part, a in zip(parts, allocs)], axis=-1
        )
        return combiner.bayes_risk(np.maximum(risks, 0.0))

    def rho(P):
        P = np.asarray(P, dtype=np.float64)
        squeeze = P.ndim == 1
        Pb = P[None, :] if squeeze else P.reshape(-1, n)
        B = Pb.shape[0]

        # seeds: common per-coordinate fraction from a scalar-split lattice
        w_seeds = compositions(24, m).astype(np.float64) / 24.0  # (S, m)
        t_seeds = _stick_fractions_from_weights(w_seeds)  # (S, m-1)
        S = t_seeds.shape[0]
        T_all = np.broadcast_to(
            t_seeds[None, :, None, :], (B, S, n, m - 1)
        )
        vals = objective(
            np.broadcast_to(Pb[:, None, :], (B, S, n)), T_all
        )  # (B, S)
        best_idx = np.argmax(vals, axis=1)
        T = np.broadcast_to(
            t_seeds[best_idx][:, None, :], (B, n, m - 1)
        ).copy()
        best = vals[np.arange(B), best_idx]

        # supergradient ascent escapes the ridge stalls of kinked combiners
        # that defeat per-coordinate search (asymmetric optimal splittings)
        A = np.stack(_allocations(Pb, T), axis=1)
        A, best = _subgradient_phase(combiner, parts, Pb, A, best)
        T = _fractions_from_allocations(Pb, A)

        width = 0.5
        stall = 0
        for _ in range(200):
            improved = np.zeros(B, dtype=bool)
            for y in range(n):
                for i in range(m - 1):
                    cur = T[:, y, i]
                    lo = np.clip(cur - width, 0.0, 1.0)
                    hi = np.clip(cur + width, 0.0, 1.0)

                    def f(t):
                        Tc = T.copy()
                        Tc[:, y, i] = t
                        return objective(Pb, Tc)

                    t_new, v_new = _golden_max_rows(f, lo, hi)
                    take = v_new > best
                    T[take, y, i] = t_new[take]
                    improved |= v_new > best + 1e-15 * (1.0 + np.abs(best))
                    best = np.maximum(best, v_new)
            width *= 0.9
            stall = 0 if np.any(improved) else stall + 1
            if stall >= 3:
                break
        out = best if not squeeze else float(best[0])
        return out if squeeze else best.reshape(P.shape[:-1])

    bayes = BayesRisk(rho, n)

    def loss_map(P):
        P = np.asarray(P, dtype=np.float64)
        squeeze = P.ndim == 1
        Pb = P[None, :] if squeeze else P.reshape(-1, n)
        g = numeric_supergradient_batch(bayes, Pb)
        return g[0] if squeeze else g.reshape(P.shape)

    return ProperLoss(
        bayes_risk=bayes,
        loss_map=loss_map,
        name=_compose_name(combiner, parts, "dual"),
        n=n,
        strictly_proper=False,
        analytic=False,
        maximizer=None,
        antipolar_hint=None,
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

    hint = None
    if pure_scale and loss.antipolar_hint is not None:
        old = loss.antipolar_hint
        hint = AntipolarHint(
            rho=(None if old.rho is None else lambda x: old.rho(x) / alpha),
            loss_map=(
                None
                if old.loss_map is None
                else lambda x: np.asarray(old.loss_map(x)) / alpha
            ),
            partner=(
                None
                if old.partner is None
                else lambda: scale_translate(old.partner(), 1.0 / alpha)
            ),
        )

    uniform_shift = np.allclose(tv, tv[0])
    new_max = loss.maximizer if (pure_scale or uniform_shift) else None
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
        antipolar_hint=hint,
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
    return ProperLoss(
        bayes_risk=shifted.bayes_risk,
        loss_map=shifted.loss_map,
        name=f"shiftmax({loss.name})",
        n=loss.n,
        strictly_proper=loss.strictly_proper,
        analytic=loss.analytic,
        maximizer=p0.copy(),
        antipolar_hint=None,
    )
