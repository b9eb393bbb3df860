"""Gaussian-mixture partitioning of the rows of a layer's embedding matrix.

EM on a diagonal-covariance mixture with k-means++-style seeding, hard
assignment by maximum responsibility, and a deterministic round-robin
fallback for degenerate inputs. EM stops after EM_MAX_ITERS iterations or
once the log-likelihood moves by less than EM_TOL; neither is a build
setting. A post-pass recursively re-fits any cluster that exceeds the
configured cluster size, so the final partition always respects the size
cap.

Everything here works on row indices of an (n, d) matrix and never sees
entity ids. Row order is the caller's concern: the result depends on it,
so the build passes each layer's rows in sorted-id order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError

VARIANCE_FLOOR = 1e-6
EM_MAX_ITERS = 50
EM_TOL = 1e-4


@dataclass
class ClusterAssignment:
    clusters: list[np.ndarray]  # ascending row indices, one array per cluster
    log_likelihoods: list[float] = field(default_factory=list)


def choose_num_components(n_entities: int, cluster_size: int) -> int:
    if n_entities < 1:
        raise InvalidArgumentError("n_entities must be >= 1")
    if cluster_size < 2:
        raise InvalidArgumentError("cluster_size must be >= 2")
    return max(1, math.ceil(n_entities / cluster_size))


def _kmeanspp_means(X: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    means = np.empty((m, X.shape[1]))
    diff = np.empty_like(X)  # one (n, d) scratch buffer for every component

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


def _log_prob(
    X: np.ndarray, X2: np.ndarray, means: np.ndarray, variances: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """E-step: log N(x_i | mu_j, diag(var_j)) + log w_j for every point and component.

    The squared distance is expanded as x^2/var - 2 x mu/var + mu^2/var so
    that all components come from two (n, d) @ (d, m) products; X2 is X * X,
    computed once per fit by the caller.
    """
    inv_var = 1.0 / variances
    const = np.sum(means * means * inv_var + np.log(2.0 * np.pi * variances), axis=1)
    return -0.5 * (X2 @ inv_var.T - 2.0 * (X @ (means * inv_var).T) + const) + np.log(weights)


def _round_robin(n: int, m: int) -> ClusterAssignment:
    return ClusterAssignment(clusters=[np.arange(j, n, m) for j in range(m)])


def fit_gmm(X: np.ndarray, m: int, seed: int = 0) -> ClusterAssignment:
    """Partition the n rows of X, an (n, d) float matrix, into m clusters.

    Each cluster is an ascending array of row indices. The result depends
    on the row order, which seeds the mixture; the build passes rows in
    sorted-id order. The recorded log-likelihood trace is non-decreasing
    (within floating slack) until convergence.
    """
    if m < 1:
        raise InvalidArgumentError("m must be >= 1")
    n = X.shape[0]
    if m > n:
        raise InvalidArgumentError(f"m={m} exceeds number of points n={n}")
    if not np.all(np.isfinite(X)):
        raise InvalidArgumentError("embeddings contain non-finite values")

    if m == 1:
        return ClusterAssignment(clusters=[np.arange(n)])

    # degenerate input: no spread at all, EM cannot separate anything
    if np.allclose(X, X[0], atol=1e-12):
        return _round_robin(n, m)

    rng = np.random.default_rng(seed)
    means = _kmeanspp_means(X, m, rng)
    variances = np.tile(np.maximum(X.var(axis=0), VARIANCE_FLOOR), (m, 1))
    weights = np.full(m, 1.0 / m)

    X2 = X * X
    log_likelihoods: list[float] = []
    resp = np.full((n, m), 1.0 / m)
    for _ in range(EM_MAX_ITERS):
        log_prob = _log_prob(X, X2, means, variances, weights)
        row_max = log_prob.max(axis=1, keepdims=True)
        log_norm = row_max[:, 0] + np.log(np.exp(log_prob - row_max).sum(axis=1))
        ll = float(log_norm.sum())
        resp = np.exp(log_prob - log_norm[:, None])

        if log_likelihoods and abs(ll - log_likelihoods[-1]) < EM_TOL:
            log_likelihoods.append(ll)
            break
        log_likelihoods.append(ll)

        # M-step
        nk = resp.sum(axis=0)
        nk = np.maximum(nk, 1e-12)
        means = (resp.T @ X) / nk[:, None]
        second = (resp.T @ X2) / nk[:, None]
        variances = np.maximum(second - means**2, VARIANCE_FLOOR)
        weights = np.maximum(nk / n, 1e-12)
        weights = weights / weights.sum()

    labels = resp.argmax(axis=1)  # argmax breaks ties toward the lower index
    clusters = [np.flatnonzero(labels == j) for j in range(m)]
    _repair_empty_clusters(clusters, X)

    return ClusterAssignment(clusters=clusters, log_likelihoods=log_likelihoods)


def _repair_empty_clusters(clusters: list[np.ndarray], X: np.ndarray) -> None:
    """Move the farthest member of the largest cluster into each empty one."""
    while True:
        empties = [j for j, c in enumerate(clusters) if not len(c)]
        if not empties:
            return
        donor = max(range(len(clusters)), key=lambda j: (len(clusters[j]), -j))
        rows = clusters[donor]
        if len(rows) < 2:
            # nothing left to split; should not happen when m <= n
            raise InvalidArgumentError("cannot repair empty cluster: no donor available")
        center = X[rows].mean(axis=0)
        far = int(np.argmax(np.sum((X[rows] - center) ** 2, axis=1)))
        clusters[empties[0]] = rows[far : far + 1]
        clusters[donor] = np.delete(rows, far)


def split_oversized(
    assignment: ClusterAssignment,
    cluster_size: int,
    X: np.ndarray,
    seed: int = 0,
) -> ClusterAssignment:
    """Re-fit any cluster larger than cluster_size until all comply.

    Each oversized cluster is re-fitted on its own rows of X, in ascending
    row order. Output clusters are non-empty ascending row arrays ordered
    by their first row, so the final partition is independent of the
    recursion path.
    """
    if cluster_size < 2:
        raise InvalidArgumentError("cluster_size must be >= 2")
    done: list[np.ndarray] = []
    pending = [c for c in assignment.clusters if len(c)]
    while pending:
        rows = pending.pop()
        if len(rows) <= cluster_size:
            done.append(rows)
            continue
        m = choose_num_components(len(rows), cluster_size)
        produced = [c for c in fit_gmm(X[rows], m, seed=seed).clusters if len(c)]
        if len(produced) == 1:
            # EM refused to split (e.g. near-identical points); force it
            produced = _round_robin(len(rows), m).clusters
        pending.extend(rows[c] for c in produced)
    done.sort(key=lambda c: c[0])
    return ClusterAssignment(clusters=done, log_likelihoods=list(assignment.log_likelihoods))
