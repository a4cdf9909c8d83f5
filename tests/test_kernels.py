"""Kernels against brute-force twins kept in this file.

The grid-pair scan is checked against the full-matrix formulas it replaces,
the lattice enumeration against an ``itertools.product`` filter.  Worst
values and witnesses must agree exactly: ties go to the first pair in
row-major order of each check's own matrix, and NaN follows ``np.argmax``.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

import lossgeom as lg
from lossgeom import _kernels as K


def _first_worst(A):
    i, j = divmod(int(np.argmax(A)), A.shape[1])
    return float(A[i, j]), i, j


def pair_matrices(L, P, rho):
    """The G x G matrices of the three pair checks: properness (NaN as
    -inf in the columns whose self-expected loss is +inf), supergradient and
    Bregman."""
    with np.errstate(invalid="ignore"):
        E = L @ P.T  # E[i, j] = <l(p_i); p_j>
        diag = np.einsum("ij,ij->i", L, P)
        V = diag[None, :] - E
        sg = rho[None, :] - rho[:, None] - (E - diag[:, None])
        br = diag[:, None] - E.T
    return np.where(np.isnan(V) & (diag == np.inf)[None, :], -np.inf, V), sg, br


def full_matrix_scan(L, P, rho):
    prop, sg, br = pair_matrices(L, P, rho)
    return K.PairScan(_first_worst(prop), _first_worst(sg), _first_worst(br))


def compositions_brute(total, parts):
    return np.array(
        [c for c in itertools.product(range(total + 1), repeat=parts) if sum(c) == total],
        dtype=np.int64,
    ).reshape(-1, parts)


def _assert_scans_equal(L, P, rho):
    got = K.worst_properness_violation(L, P, rho)
    np.testing.assert_equal(tuple(got), tuple(full_matrix_scan(L, P, rho)))


def _height(G):
    return max(1, K._BLOCK_BYTES // (8 * G))


def test_worst_violation_twins_agree(rng):
    # G smaller than one block
    G, n = 40, 3
    assert _height(G) > G
    L = rng.uniform(0.0, 3.0, (G, n))
    P = rng.dirichlet(np.ones(n), G)
    _assert_scans_equal(L, P, rng.uniform(0.0, 3.0, G))


def test_scan_blocks_do_not_divide_grid(rng):
    G, n = 1500, 3
    assert _height(G) < G and G % _height(G) != 0
    L = rng.uniform(0.0, 3.0, (G, n))
    P = rng.dirichlet(np.ones(n), G)
    _assert_scans_equal(L, P, rng.uniform(0.0, 3.0, G))


@pytest.mark.parametrize("loss", [lg.zero_one_loss(3), lg.constant_loss(3)], ids=["zeroone", "const"])
def test_scan_ties_on_symmetric_grid(loss, monkeypatch):
    # each check's worst value is reached by many pairs; blocks of 7 rows
    # spread the ties over several blocks
    P = lg.simplex_grid(3, 8).points
    L = loss.loss(P)
    rho = np.asarray(loss.bayes_risk(P), dtype=np.float64)
    ref = full_matrix_scan(L, P, rho)
    for A, (worst, _, _) in zip(pair_matrices(L, P, rho), ref):
        assert np.count_nonzero(A == worst) > 1
    monkeypatch.setattr(K, "_BLOCK_BYTES", 8 * len(P) * 7)
    assert tuple(K.worst_properness_violation(L, P, rho)) == tuple(ref)


def test_worst_violation_twins_agree_on_inf(rng, monkeypatch):
    # an interior point carrying an infinite loss entry has infinite
    # self-expected loss: the scan flags it with inf, never NaN
    L = np.array([[1.0, np.inf], [0.5, 0.5]])
    P = np.array([[0.5, 0.5], [0.9, 0.1]])
    worst, _, _ = K.worst_properness_violation(L, P, np.einsum("ij,ij->i", L, P)).properness
    assert worst == np.inf

    # rows with +inf entries across several blocks: inf - inf pairs are NaN
    # in the supergradient and Bregman matrices, and the first NaN wins
    G, n = 60, 3
    L = rng.uniform(0.0, 3.0, (G, n))
    L[[12, 17, 41], [0, 2, 1]] = np.inf  # none in the first block
    P = rng.dirichlet(np.ones(n), G)
    rho = np.einsum("ij,ij->i", L, P)
    monkeypatch.setattr(K, "_BLOCK_BYTES", 8 * G * 9)
    scan = K.worst_properness_violation(L, P, rho)
    assert scan.properness[0] == np.inf
    assert np.isnan(scan.supergradient[0]) and np.isnan(scan.bregman[0])
    _assert_scans_equal(L, P, rho)


def test_expected_matrix_twins_agree():
    # loss families on a grid, with their Bayes risk, against the formulas
    # on the full expected-loss matrix
    P = lg.simplex_grid(4, 12).points
    for loss in (lg.log_loss(4), lg.brier_loss(4), lg.cnorm_loss(-1.0, 4)):
        L = loss.loss(P)
        _assert_scans_equal(L, P, np.asarray(loss.bayes_risk(P), dtype=np.float64))


def test_scan_memory_is_bounded(rng):
    # n=3 at resolution 100: 5151 points, whose G x G matrices take 212 MB each
    P = lg.simplex_grid(3, 100).points
    L = rng.uniform(0.0, 3.0, P.shape)
    rho = np.einsum("ij,ij->i", L, P)
    tracemalloc.start()
    try:
        K.worst_properness_violation(L, P, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


@pytest.mark.parametrize("total,parts", [(4, 3), (7, 2), (5, 4), (0, 3), (6, 1)])
def test_composition_twins_agree(total, parts):
    np.testing.assert_array_equal(
        K.compositions(total, parts), compositions_brute(total, parts)
    )


def test_compositions_count_and_order():
    out = K.compositions(4, 3)
    assert out.shape == (15, 3)  # C(6, 2)
    assert np.all(out.sum(axis=1) == 4)
    # ascending lexicographic
    as_tuples = [tuple(row) for row in out]
    assert as_tuples == sorted(as_tuples)
    assert as_tuples[0] == (0, 0, 4)
    assert as_tuples[-1] == (4, 0, 0)


def test_compositions_validation():
    with pytest.raises(ValueError):
        K.compositions(3, 0)
    with pytest.raises(ValueError):
        K.compositions(-1, 2)
