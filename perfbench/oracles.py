"""Reference computations the benchmark checks the program against.

Nothing here imports ``lossgeom``: every Bayes risk and loss map is written
out again from its textbook formula, and every optimum is found by brute
force over a lattice, so an answer that agrees with these functions agrees
with a computation made apart from the program.

Points are rows of a (..., n) array.  Bayes risks are the 1-homogeneous
extensions of the simplex formulas; loss maps are evaluated at the
normalized direction.
"""

from __future__ import annotations

import itertools

import numpy as np

_TIE = 1e-12


# ---------------------------------------------------------------------------
# Bayes risks
# ---------------------------------------------------------------------------
def _total(p):
    return np.sum(p, axis=-1)


def risk_log(p):
    """sum_y p_y log(|p| / p_y), with 0 log 0 = 0."""
    s = _total(p)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(s / np.where(p > 0, p, 1.0)), 0.0)
    return np.sum(terms, axis=-1)


def risk_brier(p):
    """|p| - ||p||_2^2 / |p|."""
    s = _total(p)
    return np.where(s > 0, s - np.sum(p * p, axis=-1) / np.where(s > 0, s, 1.0), 0.0)


def risk_zeroone(p):
    """|p| - max_y p_y."""
    return _total(p) - np.max(p, axis=-1)


def risk_normloss2(p):
    """The alpha = 2 norm loss: (1 + n^(-1/2)) |p| - ||p||_2."""
    n = p.shape[-1]
    return (1.0 + n ** -0.5) * _total(p) - np.sqrt(np.sum(p * p, axis=-1))


def risk_cnorm(a, p):
    """Power mean (sum_y p_y^c)^(1/c) with the conjugate exponent c = a/(a-1);
    a = 1 is the coordinate minimum."""
    if a == 1.0:
        return np.min(p, axis=-1)
    c = a / (a - 1.0)
    with np.errstate(divide="ignore"):
        val = np.sum(np.power(p, c), axis=-1) ** (1.0 / c)
    if c < 0:
        val = np.where(np.all(p > 0, axis=-1), val, 0.0)
    return val


def risk_cd(a, p):
    """Weighted geometric mean prod_y p_y^(a_y / |a|)."""
    w = np.asarray(a, dtype=np.float64) / np.sum(a)
    with np.errstate(divide="ignore"):
        return np.exp(np.sum(w * np.log(p), axis=-1))


# ---------------------------------------------------------------------------
# loss maps (gradients of the Bayes risks)
# ---------------------------------------------------------------------------
def _direction(p):
    p = np.asarray(p, dtype=np.float64)
    return p / _total(p)[..., None]


def loss_log(p):
    q = _direction(p)
    with np.errstate(divide="ignore"):
        return -np.log(q)


def loss_brier(p):
    q = _direction(p)
    return 1.0 + np.sum(q * q, axis=-1)[..., None] - 2.0 * q


def loss_normloss2(p):
    q = _direction(p)
    n = q.shape[-1]
    return 1.0 + n ** -0.5 - q / np.sqrt(np.sum(q * q, axis=-1))[..., None]


def loss_zeroone(p):
    q = _direction(p)
    top = np.max(q, axis=-1, keepdims=True)
    hit = q >= top - _TIE * np.maximum(1.0, top)
    return 1.0 - hit / np.sum(hit, axis=-1, keepdims=True)


def loss_cnorm(a, p):
    """Gradient (q_y / ||q||_c)^(c - 1) of the power mean, for a < 1."""
    q = _direction(p)
    c = a / (a - 1.0)
    norm = np.sum(np.power(q, c), axis=-1) ** (1.0 / c)
    return np.power(q / norm[..., None], c - 1.0)


def loss_cd(a, p):
    q = _direction(p)
    w = np.asarray(a, dtype=np.float64) / np.sum(a)
    return risk_cd(a, q)[..., None] * w / q


FAMILIES = {
    "brier": (risk_brier, loss_brier),
    "zeroone": (risk_zeroone, loss_zeroone),
    "normloss2": (risk_normloss2, loss_normloss2),
}


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------
def lattice(n: int, resolution: int) -> np.ndarray:
    """Every point of the closed n-simplex whose coordinates are multiples of
    1/resolution, boundary included."""
    cuts = np.array(
        list(itertools.combinations(range(resolution + n - 1), n - 1)),
        dtype=np.int64,
    ).reshape(-1, n - 1)
    edges = np.hstack(
        [
            np.full((len(cuts), 1), -1),
            cuts,
            np.full((len(cuts), 1), resolution + n - 1),
        ]
    )
    return (np.diff(edges, axis=1) - 1) / resolution


def antipolar_lattice_min(risk, x, Q) -> float:
    """min over lattice points q of <x;q> / rho(q); points where rho(q) <= 0
    are skipped (the ratio is +inf there)."""
    r = risk(Q)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(r > 0, (Q @ np.asarray(x, dtype=np.float64)) / r, np.inf)
    return float(np.min(ratio))


# ---------------------------------------------------------------------------
# dual M-sum (two outcomes, two parts)
# ---------------------------------------------------------------------------
def combiner_harmonic(r1, r2):
    """cnorm:a=0.5 over R^2: the conjugate exponent is -1, a harmonic mean."""
    with np.errstate(divide="ignore"):
        val = 1.0 / (1.0 / r1 + 1.0 / r2)
    return np.where((r1 > 0) & (r2 > 0), val, 0.0)


def combiner_min(r1, r2):
    """cnorm:a=1 over R^2: the coordinate minimum."""
    return np.minimum(r1, r2)


def dual_msum_brute(combiner, risk1, risk2, p, coarse: int = 400,
                    fine: int = 80, levels: int = 3) -> float:
    """sup over splittings p = a1 + a2, a_i >= 0, of combiner(rho1(a1),
    rho2(a2)) for n = 2, by grid search.

    The splitting is a1 = (s p_0, t p_1) with (s, t) in [0,1]^2.  A coarse
    (coarse+1)^2 grid locates the best cell; each further level lays a
    (fine+1)^2 grid over the two cells on every side of the best point so
    far.  The objective is concave in (s, t), so the refinement cannot lose
    the maximum.  Grid values never exceed the supremum: the result is a
    lower bound that the program's maximiser must reach.
    """
    p = np.asarray(p, dtype=np.float64)

    def value(s, t):
        S, T = np.meshgrid(s, t, indexing="ij")
        a1 = np.stack([S * p[0], T * p[1]], axis=-1)
        a2 = p - a1
        return combiner(np.maximum(risk1(a1), 0.0), np.maximum(risk2(a2), 0.0))

    s = t = np.linspace(0.0, 1.0, coarse + 1)
    h = 1.0 / coarse
    best = -np.inf
    for _ in range(levels):
        V = value(s, t)
        i, j = np.unravel_index(int(np.argmax(V)), V.shape)
        best = max(best, float(V[i, j]))
        s = np.clip(np.linspace(s[i] - 2 * h, s[i] + 2 * h, fine + 1), 0.0, 1.0)
        t = np.clip(np.linspace(t[j] - 2 * h, t[j] + 2 * h, fine + 1), 0.0, 1.0)
        h = 4 * h / fine
    return best


# ---------------------------------------------------------------------------
# properness
# ---------------------------------------------------------------------------
def properness_violation(P, L) -> float:
    """max over pairs (p, q) of rows of P of <l(q); q> - <l(p); q>, where
    L holds the loss vectors of P's rows; proper losses give values <= 0."""
    V = np.sum(L * P, axis=-1)[None, :] - L @ P.T
    return float(np.max(V))
