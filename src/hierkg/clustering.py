"""Gaussian-mixture partitioning of a layer's entities.

EM on a diagonal-covariance mixture with k-means++-style seeding, hard
assignment by maximum responsibility, and a deterministic round-robin
fallback for degenerate inputs. A post-pass recursively re-fits any
cluster that exceeds the configured cluster size, so the final partition
always respects the size cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError

VARIANCE_FLOOR = 1e-6


@dataclass
class ClusterAssignment:
    layer: int
    clusters: list[set[str]]
    log_likelihoods: list[float] = field(default_factory=list)
    params: dict = field(default_factory=dict)

    def labels(self) -> dict[str, int]:
        return {eid: j for j, cluster in enumerate(self.clusters) for eid in cluster}


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


def _round_robin(ids_sorted: list[str], m: int, layer: int, params: dict) -> ClusterAssignment:
    clusters: list[set[str]] = [set() for _ in range(m)]
    for i, eid in enumerate(ids_sorted):
        clusters[i % m].add(eid)
    return ClusterAssignment(layer=layer, clusters=clusters, params=dict(params, fallback="round_robin"))


def fit_gmm(
    embeddings: dict[str, np.ndarray],
    m: int,
    seed: int = 0,
    max_iters: int = 50,
    tol: float = 1e-4,
    layer: int = 0,
) -> ClusterAssignment:
    """Partition entities into m clusters over their embedding vectors.

    Ids are sorted before seeding, so the result is invariant to input
    ordering. The recorded log-likelihood trace is non-decreasing (within
    floating slack) until convergence.
    """
    if m < 1:
        raise InvalidArgumentError("m must be >= 1")
    n = len(embeddings)
    if m > n:
        raise InvalidArgumentError(f"m={m} exceeds number of points n={n}")

    ids_sorted = sorted(embeddings)
    X = np.stack([embeddings[eid] for eid in ids_sorted])
    if not np.all(np.isfinite(X)):
        raise InvalidArgumentError("embeddings contain non-finite values")
    dims = {embeddings[eid].shape for eid in ids_sorted}
    if len(dims) != 1:
        raise InvalidArgumentError("embeddings have mixed dimensionality")

    params = {"num_components": m, "seed": seed, "max_iters": max_iters, "tol": tol}

    if m == 1:
        return ClusterAssignment(
            layer=layer,
            clusters=[set(ids_sorted)],
            params=params,
        )

    # degenerate input: no spread at all, EM cannot separate anything
    if np.allclose(X, X[0], atol=1e-12):
        return _round_robin(ids_sorted, m, layer, params)

    rng = np.random.default_rng(seed)
    means = _kmeanspp_means(X, m, rng)
    variances = np.tile(np.maximum(X.var(axis=0), VARIANCE_FLOOR), (m, 1))
    weights = np.full(m, 1.0 / m)

    X2 = X * X
    log_likelihoods: list[float] = []
    resp = np.full((n, m), 1.0 / m)
    for _ in range(max_iters):
        log_prob = _log_prob(X, X2, means, variances, weights)
        row_max = log_prob.max(axis=1, keepdims=True)
        log_norm = row_max[:, 0] + np.log(np.exp(log_prob - row_max).sum(axis=1))
        ll = float(log_norm.sum())
        resp = np.exp(log_prob - log_norm[:, None])

        if log_likelihoods and abs(ll - log_likelihoods[-1]) < tol:
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
    clusters: list[set[str]] = [set() for _ in range(m)]
    for eid, lab in zip(ids_sorted, labels):
        clusters[int(lab)].add(eid)
    _repair_empty_clusters(clusters, {eid: i for i, eid in enumerate(ids_sorted)}, X)

    return ClusterAssignment(
        layer=layer,
        clusters=clusters,
        log_likelihoods=log_likelihoods,
        params=params,
    )


def _repair_empty_clusters(clusters: list[set[str]], row_of: dict[str, int], X: np.ndarray) -> None:
    """Move the farthest member of the largest cluster into each empty one."""
    while True:
        empties = [j for j, c in enumerate(clusters) if not c]
        if not empties:
            return
        donor = max(range(len(clusters)), key=lambda j: (len(clusters[j]), -j))
        if len(clusters[donor]) < 2:
            # nothing left to split; should not happen when m <= n
            raise InvalidArgumentError("cannot repair empty cluster: no donor available")
        members = sorted(clusters[donor])
        rows = np.array([row_of[eid] for eid in members])
        center = X[rows].mean(axis=0)
        far = members[int(np.argmax(np.sum((X[rows] - center) ** 2, axis=1)))]
        clusters[donor].remove(far)
        clusters[empties[0]].add(far)


def split_oversized(
    assignment: ClusterAssignment,
    cluster_size: int,
    embeddings: dict[str, np.ndarray],
    seed: int = 0,
    max_iters: int = 50,
    tol: float = 1e-4,
) -> ClusterAssignment:
    """Re-fit any cluster larger than cluster_size until all comply.

    Output clusters are re-ordered by their smallest member id so the
    final partition is independent of the recursion path.
    """
    if cluster_size < 2:
        raise InvalidArgumentError("cluster_size must be >= 2")
    done: list[set[str]] = []
    pending = [set(c) for c in assignment.clusters if c]
    while pending:
        cluster = pending.pop()
        if len(cluster) <= cluster_size:
            done.append(cluster)
            continue
        m = choose_num_components(len(cluster), cluster_size)
        sub = fit_gmm(
            {eid: embeddings[eid] for eid in cluster},
            m,
            seed=seed,
            max_iters=max_iters,
            tol=tol,
            layer=assignment.layer,
        )
        produced = [c for c in sub.clusters if c]
        if len(produced) == 1:
            # EM refused to split (e.g. near-identical points); force it
            produced = _round_robin(sorted(cluster), m, assignment.layer, {}).clusters
        pending.extend(produced)
    done.sort(key=lambda c: min(c))
    return ClusterAssignment(
        layer=assignment.layer,
        clusters=done,
        log_likelihoods=list(assignment.log_likelihoods),
        params=dict(assignment.params, cluster_size=cluster_size),
    )
