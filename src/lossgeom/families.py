"""Closed-form proper loss families.

Each constructor returns a :class:`~lossgeom.geometry.ProperLoss` whose Bayes
risk is the 1-homogeneous extension of the usual simplex formula and whose
loss map is an exact supergradient of it (so ``<l(p), p> = rho(p)`` holds to
machine precision).  Where the family's antipolar is known in closed form,
the loss's ``antipolar`` builds it as a proper loss of its own, whose
``antipolar`` in turn leads back.

Families:

* ``log_loss``            unbounded, strictly proper; antipolar via a scalar
                          root of sum_y exp(-x_y / beta) = 1
* ``brier_loss``          bounded, strictly proper; antipolar from a quadratic
                          on the support face of the minimizer, at every n
* ``zero_one_loss``       misclassification with tie splitting; antipolar
                          closed only at n = 2, where it is the constant loss
* ``cnorm_loss``          concave-power-mean family, closed under antipolars
                          via the exponent pairing 1/a + 1/b = 1
* ``cobb_douglas_loss``   weighted geometric mean, self-polar up to scale
* ``norm_loss``           bounded losses built from p-norm balls (antipolar
                          numeric)
* ``constant_loss``       the all-ones loss

Five of them are norms and antinorms of the power mean
G_c(p) = (sum_y p_y^c)^(1/c) (``_power_mean``; the maximum at c = inf, the
minimum at c = -inf).  Their Bayes risk is G_c, an antinorm, or
shift * ||p||_1 - G_c, a norm ball; their loss map is the slope
(q_y / G_c(q))^e at q = p / ||p||_1, or shift minus it, with ties split
evenly at c = +-inf (``_power_loss``):

======================  ===================  =================  ===========
family                  c                    shift              e
======================  ===================  =================  ===========
``const``               1                    --                 0
``cnorm:a=1``           -inf (minimum)       --                 -inf
``cnorm:a``, a < 1      a / (a - 1)          --                 1 / (a - 1)
``zeroone``             inf (maximum)        1                  inf
``normloss:alpha=1``    inf (maximum)        1 + 1/n            inf
``normloss:alpha``      alpha / (alpha - 1)  1 + n^(-1/alpha)   c - 1
``normloss:alpha=inf``  1                    --                 0
======================  ===================  =================  ===========

(``cnorm:a=-inf`` is ``const``.)  Log, Brier and Cobb-Douglas are not power
means; Cobb-Douglas is their c -> 0 limit, a weighted geometric mean.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import BayesRisk, ProperLoss, normalize_direction

__all__ = [
    "log_loss",
    "brier_loss",
    "zero_one_loss",
    "cnorm_loss",
    "cobb_douglas_loss",
    "norm_loss",
    "constant_loss",
    "beta_gauge",
    "psi_gauge",
]

_TIE_TOL = 1e-12


# ---------------------------------------------------------------------------
# gauge building blocks
# ---------------------------------------------------------------------------
def _power_mean(c: float, x: np.ndarray) -> np.ndarray:
    """Power mean (sum_y x_y^c)^(1/c) over the last axis of x >= 0, for c in
    [-inf, inf] \\ {0}: the maximum at c = inf, the minimum at c = -inf and
    the sum at c = 1.  For c < 0 the value is 0 whenever some coordinate
    vanishes, and the row minimum m is factored out,
    G_c(x) = m (sum_y (m / x_y)^(-c))^(1/c), so that no term exceeds 1."""
    if math.isinf(c):
        return x.max(axis=-1) if c > 0 else x.min(axis=-1)
    if c == 1.0:
        return x.sum(axis=-1)
    if c > 0:
        return np.power(np.sum(np.power(x, c), axis=-1), 1.0 / c)
    m = x.min(axis=-1, keepdims=True)
    pos = m > 0
    if not pos.all():  # rows on the boundary: evaluated at 1_n, then set to 0
        return np.where(pos[..., 0], _power_mean(c, np.where(pos, x, 1.0)), 0.0)
    return m[..., 0] * np.power(np.sum(np.power(m / x, -c), axis=-1), 1.0 / c)


def beta_gauge(a: float, x: np.ndarray) -> np.ndarray:
    """Concave power-mean gauge (sum_y x_y^a)^(1/a) on the nonnegative cone.

    For a < 0 the value is 0 whenever some coordinate vanishes; a = -inf is
    the coordinate minimum.  Vectorized over leading axes.
    """
    if a == 0 or a > 1:
        raise ValueError("exponent must lie in [-inf, 1] excluding 0")
    return _power_mean(a, np.asarray(x, dtype=np.float64))


def psi_gauge(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Weighted geometric mean prod_y x_y^(w_y), weights on the simplex."""
    x = np.asarray(x, dtype=np.float64)
    pos = np.all(x > 0, axis=-1)
    safe = np.where(x > 0, x, 1.0)
    val = np.exp(np.sum(weights * np.log(safe), axis=-1))
    return np.where(pos, val, 0.0)


def _xlogx(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0)), 0.0)


def _tie_split(values: np.ndarray, pick_max: bool) -> np.ndarray:
    """Indicator of the argmax (or argmin) coordinates, mass split over ties."""
    ref = values.max(axis=-1, keepdims=True) if pick_max else values.min(
        axis=-1, keepdims=True
    )
    hit = np.abs(values - ref) <= _TIE_TOL * np.maximum(1.0, np.abs(ref))
    return hit / hit.sum(axis=-1, keepdims=True)


def _power_loss(name, n, c, e, shift=None, strictly_proper=True, antipolar=None):
    """The loss whose Bayes risk is the power mean G_c, or the norm ball
    shift * ||p||_1 - G_c, and whose loss map is the slope of that risk:
    (q_y / G_c(q))^e at q = p / ||p||_1, or shift minus it.  The slope is
    the even tie split at c = +-inf, 1 at e = 0 and +inf where q_y = 0 and
    e < 0.  The exponent e = c - 1 is passed as the family computes it: one
    recomputed from c can miss it by a rounding error.  The dimension n is
    checked by BayesRisk."""

    def rho(p):
        g = _power_mean(c, p)
        if shift is None:
            return g
        s = p.sum(axis=-1)
        return (s if shift == 1.0 else shift * s) - g

    def loss_map(p):
        if e == 0:  # G_1 = ||p||_1 is linear
            slope = np.ones_like(np.asarray(p, dtype=np.float64))
        elif math.isinf(c):
            slope = _tie_split(normalize_direction(p), pick_max=c > 0)
        else:
            q = normalize_direction(p)
            if c < 0 and np.any(q == 0):
                # G_c vanishes there and the selection has no coordinatewise limit
                raise ValueError(f"{name} loss is undefined on the orthant boundary")
            ratio = q / _power_mean(c, q)[..., None]
            if e > 0:
                slope = np.power(ratio, e)
            else:
                slope = np.where(
                    ratio > 0, np.power(np.where(ratio > 0, ratio, 1.0), e), np.inf
                )
        return slope if shift is None else shift - slope

    return ProperLoss(
        bayes_risk=BayesRisk(rho, n),
        loss_map=loss_map,
        name=name,
        n=n,
        strictly_proper=strictly_proper,
        maximizer=np.full(n, 1.0 / n),
        antipolar=antipolar,
    )


# ---------------------------------------------------------------------------
# logarithmic loss
# ---------------------------------------------------------------------------
def _log_antipolar_beta(x: np.ndarray, n: int) -> np.ndarray:
    """The scale beta > 0 at which x/beta meets the log superprediction
    boundary, i.e. the root of sum_y exp(-x_y / beta) = 1.

    Exact antipolar Bayes risk of the log loss; 0 when x touches the
    boundary of the orthant.  Vectorized bisection on the equivalent
    expm1(-z_min / beta) + sum_{y != min} exp(-z_y / beta) = 0, accurate when
    z_min is near zero, where exp(-z_min / beta) rounds to 1.
    """
    x = np.asarray(x, dtype=np.float64)
    X = x.reshape(-1, x.shape[-1])
    scale = X.sum(axis=-1)
    out = np.zeros(X.shape[0])
    ok = np.all(X > 0, axis=-1) & np.isfinite(scale) & (scale > 0)
    if np.any(ok):
        Z = X[ok] / scale[ok][:, None]  # beta is 1-homogeneous
        smallest = np.arange(n) == np.argmin(Z, axis=-1)[:, None]
        z_min = -Z[smallest]
        rest = np.where(smallest, -np.inf, -Z)  # exp(-inf) = 0 drops z_min
        lo = np.full(Z.shape[0], 1e-18)
        hi = np.full(Z.shape[0], 2.0 / math.log(n))
        g = lambda b: np.expm1(z_min / b) + np.sum(np.exp(rest / b[:, None]), axis=-1)
        # hi brackets the root: g(hi) = sum_y n^(-Z_y/2) - 1 >= n^(1-1/(2n)) - 1 >= 0.68 (Jensen)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            below = g(mid) < 0.0
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        out[ok] = 0.5 * (lo + hi) * scale[ok]
    return out.reshape(x.shape[:-1])


def _log_rho(p):
    s = p.sum(axis=-1)
    return _xlogx(s) - np.sum(_xlogx(p), axis=-1)


def log_loss(n: int) -> ProperLoss:
    """Logarithmic loss l(p)_y = -log(p_y / ||p||_1)."""

    def loss_map(p):
        q = normalize_direction(p)
        with np.errstate(divide="ignore"):
            vals = np.where(q > 0, -np.log(np.where(q > 0, q, 1.0)), np.inf)
        return np.maximum(vals, 0.0)

    return ProperLoss(
        bayes_risk=BayesRisk(_log_rho, n),
        loss_map=loss_map,
        name="log",
        n=n,
        strictly_proper=True,
        maximizer=np.full(n, 1.0 / n),
        antipolar=lambda: _log_antipolar(n),
    )


def _log_antipolar(n: int) -> ProperLoss:
    """The antipolar of the log loss: Bayes risk beta(x), and loss map
    q*/rho(q*) at the minimizer q* proportional to exp(-x / beta)."""

    def loss_map(x):
        if np.any(x <= 0):
            raise ValueError("log antipolar loss map needs strictly positive input")
        beta = _log_antipolar_beta(x, n)
        q = np.exp(-x / np.asarray(beta)[..., None])
        q = q / q.sum(axis=-1, keepdims=True)
        return q / np.asarray(_log_rho(q))[..., None]

    return ProperLoss(
        bayes_risk=BayesRisk(lambda x: _log_antipolar_beta(x, n), n),
        loss_map=loss_map,
        name="log^",
        n=n,
        strictly_proper=True,
        antipolar=lambda: log_loss(n),
    )


# ---------------------------------------------------------------------------
# Brier loss
# ---------------------------------------------------------------------------
def brier_loss(n: int) -> ProperLoss:
    """Brier (quadratic) loss l(p)_y = 1 + ||q||_2^2 - 2 q_y, q = p/||p||_1."""

    def rho(p):
        s = p.sum(axis=-1)
        sq = np.sum(p * p, axis=-1)
        return np.where(s > 0, s - sq / np.where(s > 0, s, 1.0), 0.0)

    def loss_map(p):
        q = normalize_direction(p)
        sq = np.sum(q * q, axis=-1, keepdims=True)
        return (1.0 + sq) - 2.0 * q

    return ProperLoss(
        bayes_risk=BayesRisk(rho, n),
        loss_map=loss_map,
        name="brier",
        n=n,
        strictly_proper=True,
        maximizer=np.full(n, 1.0 / n),
        antipolar=lambda: _brier_antipolar(n),
    )


def _brier_antipolar_solve(x: np.ndarray):
    """Value f and minimizer q of min_q <x;q>/rho(q) over the simplex for the
    Brier loss, for each row of x (..., n), x >= 0; returns f (...) and
    q (..., n).

    On the support F of q, with k = |F| and X = sum_F x_y, stationarity
    x_y = f l_y(q) = f (1 + |q|^2 - 2 q_y) gives q_y = (c - x_y) / (2f),
    c = (2f + X) / k, and 4(k-1) f^2 - 4X f - (X^2 - k sum_F x_y^2) = 0,
    whose larger root f = (X + r) / (2(k-1)), r^2 = k(X^2 - (k-1) sum_F x_y^2),
    is the one on the simplex.  The support is a prefix of x sorted
    ascending (x_y <= c on it, x_y >= c off it).  The ratio is strictly
    pseudo-convex, so a larger prefix face whose q is >= 0 would hold a
    second minimizer: the support is the largest prefix face with q >= 0.

    With m = min_F x, r^2 is evaluated as
    k(k m^2 + 2m sum_F (x_y - m) - sum over pairs of F without m of
    (x_i - x_j)^2), and q_y = (k T_y + r) / (k (X + r)) with
    T_y = m + sum_{F without m} (x_j - x_y), both free of the cancellation
    of the textbook forms near a vertex.  Where two or more x_y are 0 the
    value is 0, attained evenly on their face.
    """
    shape = x.shape
    n = shape[-1]
    x = x.reshape(-1, n)
    scale = x.max(axis=1)  # the value is 1-homogeneous in x
    scale[scale <= 0] = 1.0
    order = np.argsort(x, axis=1)
    z = np.take_along_axis(x / scale[:, None], order, axis=1)
    m = z[:, :1]
    d = z - m
    gaps = d[:, None, :] - d[:, :, None]  # [b, y, j] = x_j - x_y
    gaps[:, :, 0] = 0.0  # the minimum enters through m
    pairs = np.triu(gaps * gaps, 1)
    pairs[:, 0, :] = 0.0
    pair_sum = np.cumsum(pairs.sum(axis=1), axis=1)
    T = m[:, :, None] + np.cumsum(gaps, axis=2)  # [b, y, k - 1]
    k = np.arange(1.0, n + 1.0)
    spread = np.cumsum(d, axis=1)
    X = k * m + spread
    disc = k * (k * m * m + 2.0 * m * spread - pair_sum)
    r = np.sqrt(np.maximum(disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (X + r) / (2.0 * (k - 1.0))
    last = k * np.diagonal(T, axis1=1, axis2=2) + r  # k (X + r) q of the face's largest x
    feasible = (k > 1) & (disc >= 0) & (last >= 0)  # always at k = 2
    face = n - 1 - np.argmax(feasible[:, ::-1], axis=1)
    rows = np.arange(x.shape[0])
    size, rf, Xf = face + 1.0, r[rows, face], X[rows, face]
    num = size[:, None] * T[rows, :, face] + rf[:, None]
    den = (size * (Xf + rf))[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(den > 0, np.maximum(num, 0.0) / den, 1.0 / size[:, None])
    q = np.where(np.arange(n) <= face[:, None], q, 0.0)
    out = np.empty_like(q)
    np.put_along_axis(out, order, q, axis=1)
    return (f[rows, face] * scale).reshape(shape[:-1]), out.reshape(shape)


def _brier_antipolar(n: int) -> ProperLoss:
    """The antipolar of the Brier loss: Bayes risk and minimizer q* from
    ``_brier_antipolar_solve``, loss map q*/rho(q*).  The map is undefined
    where q* is a vertex, the limit of an infimum that no point attains."""

    def loss_map(x):
        f, q = _brier_antipolar_solve(x)
        if np.any(np.count_nonzero(q, axis=-1) < 2):
            raise ValueError(
                "Brier antipolar loss is undefined where its minimizer is a vertex"
            )
        # rho(q*) = <x;q*> / f, without the cancellation of 1 - |q*|^2 near a
        # vertex; where f = 0, q* is even on two or more coordinates
        with np.errstate(divide="ignore", invalid="ignore"):
            risk = np.where(f > 0, np.sum(x * q, axis=-1) / f, 1.0 - np.sum(q * q, axis=-1))
        return q / risk[..., None]

    return ProperLoss(
        bayes_risk=BayesRisk(lambda x: _brier_antipolar_solve(x)[0], n),
        loss_map=loss_map,
        name="brier^",
        n=n,
        strictly_proper=True,
        antipolar=lambda: brier_loss(n),
    )


# ---------------------------------------------------------------------------
# misclassification loss
# ---------------------------------------------------------------------------
def zero_one_loss(n: int) -> ProperLoss:
    """Misclassification loss 1 - [p_y maximal]/#argmax, ties split evenly.

    At n = 2 it is the coordinate minimum, whose antipolar is the constant
    loss.  For n > 2 the antipolar is numeric: it differs from ||.||_1 (at
    x = 1_n it equals n/(n-1), not n).
    """
    return _power_loss(
        "zeroone", n, math.inf, math.inf, shift=1.0, strictly_proper=False,
        antipolar=(lambda: constant_loss(2)) if n == 2 else None,
    )


# ---------------------------------------------------------------------------
# concave-norm family
# ---------------------------------------------------------------------------
def _min_loss(n: int) -> ProperLoss:
    # exponent a = 1: Bayes risk min_y p_y, loss = argmin indicator
    return _power_loss(
        "cnorm:a=1", n, -math.inf, -math.inf, strictly_proper=False,
        antipolar=lambda: constant_loss(n),
    )


def cnorm_loss(a: float, n: int) -> ProperLoss:
    """Concave-norm loss with exponent a in [-inf, 1] \\ {0}.

    Bayes risk is the power-mean gauge with conjugate exponent a/(a-1); the
    family is closed under antipolars, pairing a with a/(a-1).  The endpoint
    a = -inf is the constant loss and a = 1 selects the coordinate-minimum
    Bayes risk (which coincides with misclassification only for n = 2).
    """
    a = float(a)
    if n < 2:
        raise ValueError("dimension must be >= 2")
    if math.isnan(a) or a == 0 or a > 1:
        raise ValueError("cnorm exponent must lie in [-inf, 1] and be nonzero")
    if math.isinf(a):
        return constant_loss(n)
    if a == 1.0:
        return _min_loss(n)
    return _cnorm(a, a / (a - 1.0), n)


def _cnorm(a: float, conj: float, n: int) -> ProperLoss:
    """The concave-norm loss of exponent a, whose Bayes risk is the gauge of
    the conjugate exponent conj.  The antipolar swaps the two as given: one
    recomputed from the other can miss it by a rounding error."""
    # below a of about -9e15, a / (a - 1) rounds to 1, the coordinate minimum
    return _power_loss(
        f"cnorm:a={_fmt(a)}", n, conj, 1.0 / (a - 1.0),
        antipolar=lambda: _cnorm(conj, a, n) if conj < 1.0 else _min_loss(n),
    )


# ---------------------------------------------------------------------------
# Cobb-Douglas loss
# ---------------------------------------------------------------------------
def cobb_douglas_loss(a) -> ProperLoss:
    """Cobb-Douglas loss: Bayes risk is the weighted geometric mean with
    weights a/||a||_1; the gradient loss map is psi(q) * w / q.

    Self-polar up to the factor ||a||_1 / psi_a(a): the antipolar loss is the
    same loss scaled by that factor ("boosting loss" doubles at a = (1,1)).
    """
    return _scaled_cobb_douglas(np.asarray(a, dtype=np.float64), 1.0)


def _scaled_cobb_douglas(a: np.ndarray, scale: float) -> ProperLoss:
    if a.ndim != 1 or a.shape[0] < 2:
        raise ValueError("parameter vector must have dimension >= 2")
    if np.any(a <= 0) or not np.all(np.isfinite(a)):
        raise ValueError("cd parameters must be strictly positive")
    n = a.shape[0]
    w = a / a.sum()
    self_polar_factor = float(a.sum() / psi_gauge(w, a))

    def rho(p):
        return scale * psi_gauge(w, p)

    def loss_map(p):
        q = normalize_direction(p)
        val = psi_gauge(w, q)[..., None]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = scale * val * w / q
        return np.where(q > 0, out, np.inf)

    suffix = "" if scale == 1.0 else f"*{_fmt(scale)}"
    return ProperLoss(
        bayes_risk=BayesRisk(rho, n),
        loss_map=loss_map,
        name="cd:a=" + ",".join(_fmt(v) for v in a) + suffix,
        n=n,
        strictly_proper=True,
        maximizer=w.copy(),
        antipolar=lambda: _scaled_cobb_douglas(a, self_polar_factor / scale),
    )


# ---------------------------------------------------------------------------
# norm losses
# ---------------------------------------------------------------------------
def norm_loss(alpha: float, n: int) -> ProperLoss:
    """Bounded proper loss from the alpha-norm ball, alpha in [1, inf].

    rho(p) = (1 + n^(-1/alpha)) ||p||_1 - ||p||_c with c = alpha/(alpha-1);
    the loss map is the gradient 1 + n^(-1/alpha) - (q_y/||q||_c)^(c-1),
    with argmax tie splitting at alpha = 1.  The uniform vector lies on the
    boundary of every member's superprediction set.
    """
    alpha = float(alpha)
    if n < 2:
        raise ValueError("dimension must be >= 2")
    if math.isnan(alpha) or alpha < 1:
        raise ValueError("normloss exponent must lie in [1, inf]")

    if math.isinf(alpha):
        c, shift = 1.0, None  # rho = 2||p||_1 - ||p||_1, the constant loss
    else:
        c = math.inf if alpha == 1.0 else alpha / (alpha - 1.0)
        shift = 1.0 + n ** (-1.0 / alpha)
    return _power_loss(
        f"normloss:alpha={_fmt(alpha)}", n, c, c - 1.0, shift,
        strictly_proper=1.0 < alpha < math.inf,
    )


# ---------------------------------------------------------------------------
# constant loss
# ---------------------------------------------------------------------------
def constant_loss(n: int) -> ProperLoss:
    """The all-ones loss; Bayes risk ||p||_1."""
    return _power_loss(
        "const", n, 1.0, 0.0, strictly_proper=False, antipolar=lambda: _min_loss(n)
    )


def _fmt(v: float) -> str:
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    if v == int(v):
        return str(int(v))
    return repr(float(v))
