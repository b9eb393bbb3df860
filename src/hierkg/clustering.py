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
so the build passes each layer's rows in sorted-id order. The build's
matrix is the array embed_batch returned; fit_gmm's input checks (every
entry finite, every row close to the first) read it through its column
maxima and minima, with no (n, d) copy.

The fit's cost is its (n, m) arrays, so the EM loop is written to give
the values of the plain formulas (tests/gmm_reference.py) bit for bit
while touching less memory:
- Buffers: the log-probabilities and the responsibilities live in two
  (n, m) float64 arrays made once per fit. Products go into them with
  np.matmul(out=) and in-place ufuncs, in the operation order of the
  plain expressions.
- Live exp: np.exp(x) is exactly 0.0 for x below about -745.13, and a
  large fit leaves most of its responsibilities there. exp runs only on
  the entries of log_prob - row_max above EXP_UNDERFLOW (-746); the rest
  are written as 0.0. The same index serves the second exp, of
  log_prob - log_norm, because log_norm >= row_max. When more than a
  quarter of the entries are live, exp runs over the whole buffer
  instead, which costs less than gathering them.
- Seeding: a k-means++ distance is ||x||^2 - 2 x.mu + ||mu||^2, one
  mat-vec per centre. Rows where that expansion is within SEED_NEAR_TOL
  of 0, relative to ||x||^2 + ||mu||^2, take the direct sum of
  (x - mu)^2 instead, so a copy of a centre reads exactly 0 and the
  all-copies fallback to a uniform draw fires as it would with direct
  sums throughout. Other rows differ from the direct sums by rounding
  only, which can move a draw only when it falls within that rounding
  of a boundary between two rows' shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError

VARIANCE_FLOOR = 1e-6
EM_MAX_ITERS = 50
EM_TOL = 1e-4
# np.exp(x) is exactly 0.0 for every x below about -745.13
EXP_UNDERFLOW = -746.0
# relative size below which an expanded squared distance is recomputed directly
SEED_NEAR_TOL = 1e-6


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
    sq_norms = np.einsum("ij,ij->i", X, X)

    def sq_dist(mean: np.ndarray) -> np.ndarray:
        # ||x||^2 - 2 x.mu + ||mu||^2: one mat-vec, no (n, d) temporary
        mean_sq = float(mean @ mean)
        dist = X @ mean
        dist *= -2.0
        dist += sq_norms
        dist += mean_sq
        # Cancellation leaves the expansion near 0 for rows at or near the
        # centre, possibly negative; those rows take the direct sum, so a
        # copy of the centre reads exactly 0.
        near = np.flatnonzero(dist <= SEED_NEAR_TOL * (sq_norms + mean_sq))
        if len(near):
            dist[near] = np.square(X[near] - mean).sum(axis=1)
        return dist

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
    X: np.ndarray,
    X2: np.ndarray,
    means: np.ndarray,
    variances: np.ndarray,
    weights: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """E-step: log N(x_i | mu_j, diag(var_j)) + log w_j for every point and component.

    The squared distance is expanded as x^2/var - 2 x mu/var + mu^2/var so
    that all components come from two (n, d) @ (d, m) products; X2 is X * X,
    computed once per fit by the caller. The result goes to out, with
    scratch holding the second product; both are (n, m) and made here when
    not given. The operations run in the order of
    -0.5 * (X2 @ iv.T - 2.0 * (X @ (mu * iv).T) + const) + log(w), so the
    values do not depend on whether buffers are passed.
    """
    inv_var = 1.0 / variances
    const = np.sum(means * means * inv_var + np.log(2.0 * np.pi * variances), axis=1)
    shape = (X.shape[0], means.shape[0])
    out = np.empty(shape) if out is None else out
    scratch = np.empty(shape) if scratch is None else scratch
    np.matmul(X2, inv_var.T, out=out)
    np.matmul(X, (means * inv_var).T, out=scratch)
    scratch *= 2.0
    out -= scratch
    out += const
    out *= -0.5
    out += np.log(weights)
    return out


def _normalise(log_prob: np.ndarray, resp: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Fill resp with the responsibilities and return each row's log-sum-exp.

    Bitwise equal to
        row_max = log_prob.max(axis=1, keepdims=True)
        log_norm = row_max[:, 0] + np.log(np.exp(log_prob - row_max).sum(axis=1))
        resp = np.exp(log_prob - log_norm[:, None])
    while running exp only where its result can be non-zero. live is an
    (n, m) bool buffer.
    """
    row_max = log_prob.max(axis=1)
    np.subtract(log_prob, row_max[:, None], out=resp)
    np.greater(resp, EXP_UNDERFLOW, out=live)
    if np.count_nonzero(live) * 4 > live.size:
        # mostly live: exp over everything costs less than gathering
        np.exp(resp, out=resp)
        log_norm = row_max + np.log(resp.sum(axis=1))
        np.subtract(log_prob, log_norm[:, None], out=resp)
        np.exp(resp, out=resp)
        return log_norm
    index = np.flatnonzero(live)
    flat = resp.reshape(-1)
    values = flat[index]
    resp.fill(0.0)
    flat[index] = np.exp(values, out=values)
    log_norm = row_max + np.log(resp.sum(axis=1))
    # log_norm >= row_max, so no entry outside index has a non-zero exp here
    values = log_prob.reshape(-1)[index]
    values -= log_norm[index // resp.shape[1]]
    flat[index] = np.exp(values, out=values)
    return log_norm


def _round_robin(n: int, m: int) -> ClusterAssignment:
    return ClusterAssignment(clusters=[np.arange(j, n, m) for j in range(m)])


def _finite_and_degenerate(X: np.ndarray) -> tuple[bool, bool]:
    """Whether every entry of X is finite, and whether X is finite with
    every row close to X[0]: np.isfinite(X).all() and
    np.allclose(X, X[0], atol=1e-12), for an X with at least one row.

    Both read X through one max and one min per column, with no (n, d)
    temporary. NaN and +-inf reach the column max or min. Rounding is
    monotone, so the largest |x - X[0]| in a column is hi - X[0] or
    X[0] - lo as computed, and allclose's tolerance is atol + rtol*|X[0]|.
    """
    hi, lo = X.max(axis=0), X.min(axis=0)
    if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
        return False, False
    tol = 1e-12 + 1e-5 * np.abs(X[0])
    return True, bool((hi - X[0] <= tol).all() and (X[0] - lo <= tol).all())


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
    finite, degenerate = _finite_and_degenerate(X)
    if not finite:
        raise InvalidArgumentError("embeddings contain non-finite values")

    if m == 1:
        return ClusterAssignment(clusters=[np.arange(n)])

    # degenerate input: no spread at all, EM cannot separate anything
    if degenerate:
        return _round_robin(n, m)

    rng = np.random.default_rng(seed)
    means = _kmeanspp_means(X, m, rng)
    variances = np.tile(np.maximum(X.var(axis=0), VARIANCE_FLOOR), (m, 1))
    weights = np.full(m, 1.0 / m)

    X2 = X * X
    log_likelihoods: list[float] = []
    # the (n, m) arrays of every iteration; resp doubles as _log_prob's
    # scratch, since the M-step has read it by then
    log_prob = np.empty((n, m))
    resp = np.empty((n, m))
    live = np.empty((n, m), dtype=bool)
    for _ in range(EM_MAX_ITERS):
        _log_prob(X, X2, means, variances, weights, out=log_prob, scratch=resp)
        log_norm = _normalise(log_prob, resp, live)
        ll = float(log_norm.sum())

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
