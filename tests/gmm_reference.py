"""Test-only reference: the GMM fit as written before its buffers were reused.

A plain, allocation-per-step version of `hierkg.clustering.fit_gmm`: fresh
(n, m) temporaries in every EM iteration, an exp over every
responsibility, and k-means++ distances summed directly over (X - mu)^2.
`tests/test_gmm_oracle.py` checks that the optimised fit gives the same
clusters and a bit-equal log-likelihood trace. It shares only the
constants and the post-EM repair with the module under test.
"""

from __future__ import annotations

import numpy as np

from hierkg.clustering import (
    EM_MAX_ITERS,
    EM_TOL,
    VARIANCE_FLOOR,
    ClusterAssignment,
    _repair_empty_clusters,
    _round_robin,
)
from hierkg.errors import InvalidArgumentError


def kmeanspp_means(X: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    means = np.empty((m, X.shape[1]))
    diff = np.empty_like(X)

    def sq_dist(mean: np.ndarray) -> np.ndarray:
        np.subtract(X, mean, out=diff)
        np.square(diff, out=diff)
        return diff.sum(axis=1)

    first = int(rng.integers(n))
    means[0] = X[first]
    dist2 = sq_dist(means[0])
    for j in range(1, m):
        total = dist2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=dist2 / total))
        means[j] = X[idx]
        np.minimum(dist2, sq_dist(means[j]), out=dist2)
    return means


def log_prob(
    X: np.ndarray, X2: np.ndarray, means: np.ndarray, variances: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    inv_var = 1.0 / variances
    const = np.sum(means * means * inv_var + np.log(2.0 * np.pi * variances), axis=1)
    return -0.5 * (X2 @ inv_var.T - 2.0 * (X @ (means * inv_var).T) + const) + np.log(weights)


def normalise(lp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log_norm, resp): the per-row log-sum-exp of lp and the responsibilities."""
    row_max = lp.max(axis=1, keepdims=True)
    log_norm = row_max[:, 0] + np.log(np.exp(lp - row_max).sum(axis=1))
    return log_norm, np.exp(lp - log_norm[:, None])


def fit_gmm(X: np.ndarray, m: int, seed: int = 0) -> ClusterAssignment:
    if m < 1:
        raise InvalidArgumentError("m must be >= 1")
    n = X.shape[0]
    if m > n:
        raise InvalidArgumentError(f"m={m} exceeds number of points n={n}")
    if not np.all(np.isfinite(X)):
        raise InvalidArgumentError("embeddings contain non-finite values")
    if m == 1:
        return ClusterAssignment(clusters=[np.arange(n)])
    if np.allclose(X, X[0], atol=1e-12):
        return _round_robin(n, m)

    rng = np.random.default_rng(seed)
    means = kmeanspp_means(X, m, rng)
    variances = np.tile(np.maximum(X.var(axis=0), VARIANCE_FLOOR), (m, 1))
    weights = np.full(m, 1.0 / m)

    X2 = X * X
    log_likelihoods: list[float] = []
    for _ in range(EM_MAX_ITERS):
        log_norm, resp = normalise(log_prob(X, X2, means, variances, weights))
        ll = float(log_norm.sum())
        if log_likelihoods and abs(ll - log_likelihoods[-1]) < EM_TOL:
            log_likelihoods.append(ll)
            break
        log_likelihoods.append(ll)

        nk = resp.sum(axis=0)
        nk = np.maximum(nk, 1e-12)
        means = (resp.T @ X) / nk[:, None]
        second = (resp.T @ X2) / nk[:, None]
        variances = np.maximum(second - means**2, VARIANCE_FLOOR)
        weights = np.maximum(nk / n, 1e-12)
        weights = weights / weights.sum()

    labels = resp.argmax(axis=1)
    clusters = [np.flatnonzero(labels == j) for j in range(m)]
    _repair_empty_clusters(clusters, X)
    return ClusterAssignment(clusters=clusters, log_likelihoods=log_likelihoods)
