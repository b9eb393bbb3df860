"""The optimised GMM fit against its plain reference (tests/gmm_reference.py).

The fit reuses its (n, m) buffers, skips exp where the result underflows
and seeds centres by mat-vec; none of that may change a value. These tests
ask for identical clusters and bit-equal log-likelihood traces on random
inputs and on inputs with duplicated rows, where k-means++ runs out of
distinct rows and falls back to uniform draws.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import gmm_reference as ref
from hierkg.clustering import EXP_UNDERFLOW, _kmeanspp_means, _normalise, fit_gmm


def assert_same_fit(X, m, seed):
    fast = fit_gmm(X, m, seed=seed)
    slow = ref.fit_gmm(X, m, seed=seed)
    assert len(fast.clusters) == len(slow.clusters)
    for a, b in zip(fast.clusters, slow.clusters):
        assert np.array_equal(a, b)
    assert fast.log_likelihoods == slow.log_likelihoods


@pytest.mark.parametrize("case", range(24))
def test_random_inputs_match_reference(case):
    rng = np.random.default_rng(1000 + case)
    n = int(rng.integers(4, 300))
    d = int(rng.choice([1, 2, 8, 32, 128]))
    m = int(rng.integers(2, max(3, n // 4)))
    scale = float(rng.choice([1e-4, 1.0, 1e3]))
    X = rng.normal(size=(n, d)) * scale + rng.normal(size=d) * scale * float(rng.choice([0.0, 10.0]))
    assert_same_fit(X, m, seed=int(rng.integers(1 << 16)))


@pytest.mark.parametrize("case", range(24))
def test_duplicated_rows_match_reference(case):
    rng = np.random.default_rng(2000 + case)
    n = int(rng.integers(6, 200))
    d = int(rng.choice([2, 8, 64]))
    m = int(rng.integers(3, max(4, n // 2)))
    # fewer distinct rows than components, so seeding exhausts them
    distinct = int(rng.integers(2, m))
    rows = rng.normal(size=(distinct, d)) * float(rng.choice([1e-3, 1.0, 50.0]))
    X = rows[rng.integers(0, distinct, size=n)]
    seed = int(rng.integers(1 << 16))
    assert np.array_equal(
        _kmeanspp_means(X, m, np.random.default_rng(seed)),
        ref.kmeanspp_means(X, m, np.random.default_rng(seed)),
    )
    assert_same_fit(X, m, seed)


def shifted_rows(rng, n, m, live_per_row):
    """log-probabilities whose row-shifted values span the normal, subnormal and underflow ranges of exp."""
    lp = rng.uniform(-800.0, EXP_UNDERFLOW, size=(n, m))
    for i in range(n):
        cols = rng.choice(m, size=live_per_row, replace=False)
        lp[i, cols] = np.concatenate([
            [0.0],
            rng.uniform(-708.0, 0.0, size=live_per_row // 3),
            rng.uniform(-745.0, -708.0, size=live_per_row // 3),
            rng.uniform(-746.5, -744.5, size=live_per_row - 1 - 2 * (live_per_row // 3)),
        ])
    # an offset per row, so the shift itself rounds
    return lp + rng.normal(size=(n, 1)) * 1e3


@pytest.mark.parametrize("live_per_row", [4, 9, 30, 60])
def test_live_exp_is_bitwise_exp(live_per_row):
    rng = np.random.default_rng(live_per_row)
    n, m = 500, 64
    lp = shifted_rows(rng, n, m, live_per_row)
    want_norm, want_resp = ref.normalise(lp)
    shifted = lp - lp.max(axis=1, keepdims=True)
    assert (shifted < -746.0).any() and ((shifted > -745.0) & (shifted < -708.0)).any()
    assert ((want_resp > 0.0) & (want_resp < np.finfo(np.float64).tiny)).any()  # subnormal results

    resp = np.full((n, m), np.nan)
    log_norm = _normalise(lp, resp, np.empty((n, m), dtype=bool))
    assert np.array_equal(log_norm, want_norm)
    assert np.array_equal(resp, want_resp)
    assert np.array_equal(np.signbit(resp), np.signbit(want_resp))


@pytest.mark.parametrize("spread", ["overlapping", "separated"])
def test_fit_peak_memory_is_below_four_n_by_m_arrays(spread):
    # (n, m) arrays dominate: n * m * 8 = 3.6 MB against 0.4 MB for X.
    # Overlapping points keep nearly every responsibility live; separated
    # ones leave about 2% live, so both ways through the E-step are measured.
    n, d, m = 3000, 16, 150
    rng = np.random.default_rng(7)
    if spread == "overlapping":
        X = rng.normal(size=(n, d))
    else:
        centres = rng.normal(size=(m, d)) * 10.0
        X = centres[rng.integers(0, m, size=n)] + rng.normal(size=(n, d)) * 0.5
    tracemalloc.start()
    try:
        fit_gmm(X, m, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * m * 8
