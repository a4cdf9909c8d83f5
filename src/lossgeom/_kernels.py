"""The grid-pair scan and lattice enumeration.

Shapes: ``L`` is a (G, n) matrix of loss vectors, row i = l(p_i); ``P`` is
the (G, n) matrix of grid points; ``rho`` is the (G,) Bayes risk at them.
Entries of ``L`` may be +inf; grid points are strictly positive, so products
with +inf never hit the 0*inf case.
"""

import itertools
from typing import NamedTuple

import numpy as np

# size of one block of rows of the G x G pair matrix M[i, j] = <l(p_i); p_j>;
# a scan holds at most three such blocks at a time, whatever G is
_BLOCK_BYTES = 16 * 2**20


class PairScan(NamedTuple):
    """Worst value and witness ``(worst, i, j)`` of each grid-pair check; each
    witness indexes the pair ``p = P[i]``, ``q = P[j]``."""

    properness: tuple
    supergradient: tuple
    bregman: tuple


def _beats(value, best) -> bool:
    # np.argmax order over a scan: the first NaN, else the first maximum
    return value > best or (value != value and best == best)


def worst_properness_violation(L, P, rho) -> PairScan:
    """Worst violations of the three grid-pair checks, in one pass.

    Given ``rho``, the Bayes risk at the grid points: ``properness`` is the
    signed worst gap <l(p_j);p_j> - <l(p_i);p_j> (<= 0 means proper on the
    grid), ``supergradient`` the worst gap rho(q) - rho(p) - <l(p); q - p>
    and ``bregman`` the worst negative Bregman divergence
    <l(p);p> - <l(q);p>.  A NaN is the worst, but for one case: a properness
    gap in a column whose self-expected loss <l(p_j);p_j> is +inf is NaN
    where <l(p_i);p_j> is +inf too, and that inf - inf counts as -inf.
    Ties go to the first pair in row-major order of (i, j).

    M is built in blocks of rows, so memory stays bounded as G grows.
    """
    L = np.ascontiguousarray(L, dtype=np.float64)
    P = np.ascontiguousarray(P, dtype=np.float64)
    G = P.shape[0]
    diag = np.einsum("ij,ij->i", L, P)
    infinite = np.flatnonzero(diag == np.inf)
    height = max(1, _BLOCK_BYTES // (8 * G))
    prop = sg = None
    # the Bregman matrix is the transposed gap matrix V[i, j] =
    # diag[j] - M[i, j]: keep each column's worst value and the first block
    # that reached it, and find the row once the winning column is known
    col_worst = np.full(G, -np.inf)
    col_block = np.zeros(G, dtype=np.int64)
    for a0 in range(0, G, height):
        a1 = min(a0 + height, G)
        with np.errstate(invalid="ignore"):
            V = L[a0:a1] @ P.T  # M, turned into the gap block in place below
            S = np.subtract(V, diag[a0:a1, None])
            np.subtract(rho[None, :] - rho[a0:a1, None], S, out=S)
            k = int(np.argmax(S))
            i, j = divmod(k, G)
            if sg is None or _beats(S[i, j], sg[0]):
                sg = (float(S[i, j]), a0 + i, j)
            del S
            np.subtract(diag[None, :], V, out=V)
            worst = V.max(axis=0)
            take = (worst > col_worst) | (np.isnan(worst) & ~np.isnan(col_worst))
            col_worst[take] = worst[take]
            col_block[take] = a0
        if infinite.size:
            gaps = V[:, infinite]
            gaps[np.isnan(gaps)] = -np.inf
            V[:, infinite] = gaps
        k = int(np.argmax(V))
        i, j = divmod(k, G)
        if prop is None or _beats(V[i, j], prop[0]):
            prop = (float(V[i, j]), a0 + i, j)
    c = int(np.argmax(col_worst))
    a0 = int(col_block[c])
    with np.errstate(invalid="ignore"):
        column = diag[c] - (L[a0:a0 + height] @ P.T)[:, c]
    r = int(np.argmax(column))
    return PairScan(prop, sg, (float(column[r]), c, a0 + r))


def compositions(total: int, parts: int) -> np.ndarray:
    """All length-``parts`` tuples of nonnegative ints summing to ``total``.

    Rows are in ascending lexicographic order; shape
    (C(total+parts-1, parts-1), parts).
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if total < 0:
        raise ValueError("total must be >= 0")
    if parts == 1:
        return np.full((1, 1), total, dtype=np.int64)
    # stars and bars through itertools.combinations (C speed), lex ascending
    m = total + parts - 1
    combos = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(m), parts - 1)),
        dtype=np.int64,
    ).reshape(-1, parts - 1)
    edges = np.hstack(
        [
            np.full((combos.shape[0], 1), -1, dtype=np.int64),
            combos,
            np.full((combos.shape[0], 1), m, dtype=np.int64),
        ]
    )
    return np.diff(edges, axis=1) - 1
