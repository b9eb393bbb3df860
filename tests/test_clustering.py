import numpy as np
import pytest

from hierkg.clustering import (
    VARIANCE_FLOOR,
    ClusterAssignment,
    _finite_and_degenerate,
    _log_prob,
    choose_num_components,
    fit_gmm,
    split_oversized,
)
from hierkg.errors import InvalidArgumentError


def unit(v):
    return v / np.linalg.norm(v)


def two_blobs(rng, n_per=20, dim=16, separation=20.0, spread=0.1):
    centers = [np.zeros(dim), np.zeros(dim)]
    centers[0][0] = separation
    centers[1][1] = separation
    embeddings = {}
    labels = {}
    for blob, center in enumerate(centers):
        for i in range(n_per):
            eid = f"b{blob}_{i:02d}"
            embeddings[eid] = center + rng.normal(0, spread, dim)
            labels[eid] = blob
    return embeddings, labels, centers


def sorted_matrix(embeddings):
    """The sorted ids and their vectors stacked in that order, as the build lays out a layer."""
    ids = sorted(embeddings)
    return ids, np.stack([embeddings[eid] for eid in ids])


def id_clusters(ids, assignment):
    """The assignment's row-index clusters as sets of ids."""
    return [{ids[i] for i in rows} for rows in assignment.clusters]


def loop_log_prob(X, means, variances, weights):
    """Reference E-step: one pass over the data per component."""
    log_prob = np.empty((X.shape[0], means.shape[0]))
    for j in range(means.shape[0]):
        diff2 = (X - means[j]) ** 2
        log_prob[:, j] = (
            -0.5 * np.sum(diff2 / variances[j] + np.log(2.0 * np.pi * variances[j]), axis=1)
            + np.log(weights[j])
        )
    return log_prob


def with_constant_columns(rng, n, dim, scale):
    """Random points with an eighth of the columns constant, so VARIANCE_FLOOR binds there."""
    X = rng.normal(size=(n, dim)) * scale
    const_cols = rng.choice(dim, size=max(1, dim // 8), replace=False)
    X[:, const_cols] = rng.normal(size=len(const_cols)) * 3.0
    return X


class TestChooseNumComponents:
    @pytest.mark.parametrize("n,size,expected", [(40, 20, 2), (1, 20, 1), (41, 20, 3), (20, 20, 1)])
    def test_ceiling_rule(self, n, size, expected):
        assert choose_num_components(n, size) == expected

    def test_invalid(self):
        with pytest.raises(InvalidArgumentError):
            choose_num_components(0, 20)
        with pytest.raises(InvalidArgumentError):
            choose_num_components(10, 1)


class TestFitGmm:
    def test_single_point_single_cluster(self):
        assignment = fit_gmm(np.ones((1, 4)), 1)
        assert id_clusters(["a"], assignment) == [{"a"}]

    def test_two_blobs_recovered(self):
        rng = np.random.default_rng(11)
        embeddings, labels, centers = two_blobs(rng)
        ids, X = sorted_matrix(embeddings)
        assignment = fit_gmm(X, 2, seed=5)

        # oracle: nearest true blob center
        oracle = {}
        for eid, vec in embeddings.items():
            oracle[eid] = int(np.argmin([np.linalg.norm(vec - c) for c in centers]))
        groups = id_clusters(ids, assignment)
        oracle_groups = [{eid for eid, lab in oracle.items() if lab == j} for j in (0, 1)]
        assert groups in (oracle_groups, oracle_groups[::-1])

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(1)
        embeddings = {f"e{i}": rng.normal(size=8) for i in range(30)}
        ids, X = sorted_matrix(embeddings)
        a = fit_gmm(X, 3, seed=42)
        b = fit_gmm(X, 3, seed=42)
        assert id_clusters(ids, a) == id_clusters(ids, b)

    def test_log_likelihood_non_decreasing(self):
        rng = np.random.default_rng(3)
        embeddings = {f"e{i}": rng.normal(size=8) for i in range(60)}
        assignment = fit_gmm(sorted_matrix(embeddings)[1], 4, seed=1)
        lls = assignment.log_likelihoods
        assert len(lls) >= 2
        for prev, cur in zip(lls, lls[1:]):
            assert cur >= prev - 1e-9

    def test_partition_properties(self):
        rng = np.random.default_rng(4)
        embeddings = {f"e{i}": rng.normal(size=8) for i in range(50)}
        ids, X = sorted_matrix(embeddings)
        assignment = fit_gmm(X, 5, seed=0)
        all_ids = set()
        for cluster in id_clusters(ids, assignment):
            assert cluster
            assert not (all_ids & cluster)
            all_ids |= cluster
        assert all_ids == set(embeddings)

    def test_m_exceeds_n(self):
        with pytest.raises(InvalidArgumentError):
            fit_gmm(np.stack([np.ones(4), np.zeros(4)]), 3)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            fit_gmm(np.stack([np.array([np.nan, 1.0]), np.ones(2)]), 1)

    def test_identical_points_round_robin(self):
        embeddings = {f"e{i:02d}": np.ones(4) for i in range(9)}
        ids, X = sorted_matrix(embeddings)
        assignment = fit_gmm(X, 3, seed=0)
        assert [len(c) for c in assignment.clusters] == [3, 3, 3]
        # deterministic: id i goes to cluster i % 3 over lexicographically sorted ids
        assert id_clusters(ids, assignment)[0] == {"e00", "e03", "e06"}


class TestInputChecks:
    """fit_gmm's column max/min checks against the (n, d) expressions they replace."""

    @staticmethod
    def near_constant(rng):
        n, d = int(rng.integers(1, 12)), int(rng.integers(1, 6))
        y = rng.normal(size=d) * float(rng.choice([0.0, 1e-9, 1e-3, 1.0, 1e3, 1e9]))
        tol = 1e-12 + 1e-5 * np.abs(y)
        # offsets within, or up to half again beyond, allclose's tolerance;
        # some rows are X[0] exactly
        reach = float(rng.choice([0.5, 1.0, 1.5]))
        X = y + tol * rng.uniform(-reach, reach, size=(n, d)) * (rng.random((n, 1)) < 0.8)
        if rng.random() < 0.3:
            # an offset of the tolerance itself, or one ulp either side of it
            i, j = int(rng.integers(n)), int(rng.integers(d))
            edge = np.nextafter(y[j] + tol[j], float(rng.choice([-np.inf, y[j] + tol[j], np.inf])))
            X[i, j] = edge if rng.random() < 0.5 else 2 * X[0, j] - edge
        if rng.random() < 0.2:
            X[int(rng.integers(n)), int(rng.integers(d))] = rng.choice([np.nan, np.inf, -np.inf])
        return X

    def test_agree_with_isfinite_and_allclose(self):
        rng = np.random.default_rng(35)
        outcomes = set()
        for _ in range(4000):
            X = self.near_constant(rng)
            finite, degenerate = _finite_and_degenerate(X)
            assert finite == bool(np.isfinite(X).all())
            if finite:
                assert degenerate == bool(np.allclose(X, X[0], atol=1e-12)), X
            else:
                assert not degenerate
            outcomes.add((finite, degenerate))
        assert outcomes == {(True, True), (True, False), (False, False)}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("m", [1, 2])
    def test_any_non_finite_entry_is_rejected(self, bad, m):
        X = np.tile(np.arange(3.0), (4, 1))
        X[2, 1] = bad
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            fit_gmm(X, m)

    def test_rows_within_tolerance_take_the_round_robin(self):
        X = np.tile(np.array([1.0, -2.0, 0.0]), (6, 1))
        X[3] += 1e-5 * np.abs(X[0]) * 0.5 + 5e-13
        assert np.allclose(X, X[0], atol=1e-12)
        assignment = fit_gmm(X, 2, seed=0)
        assert [c.tolist() for c in assignment.clusters] == [[0, 2, 4], [1, 3, 5]]
        assert assignment.log_likelihoods == []


class TestEStep:
    @pytest.mark.parametrize(
        "seed,dim,m",
        [(0, 4, 2), (1, 4, 13), (2, 16, 7), (3, 16, 50), (4, 64, 24), (5, 100, 3), (6, 256, 50), (7, 256, 31)],
    )
    def test_matches_per_component_loop(self, seed, dim, m):
        rng = np.random.default_rng(seed)
        n = 3 * m + 20
        X = with_constant_columns(rng, n, dim, scale=[0.05, 1.0, 10.0][seed % 3])
        # parameters as the M-step makes them, from random responsibilities
        resp = rng.dirichlet(np.ones(m), size=n)
        nk = resp.sum(axis=0)
        means = (resp.T @ X) / nk[:, None]
        variances = np.maximum((resp.T @ (X * X)) / nk[:, None] - means**2, VARIANCE_FLOOR)
        weights = nk / n
        assert (variances == VARIANCE_FLOOR).any()

        fast = _log_prob(X, X * X, means, variances, weights)
        ref = loop_log_prob(X, means, variances, weights)
        # Both sum dim terms per entry, so each can be off by about dim * eps
        # times the summed magnitudes; the expanded square's x^2/var and
        # mu^2/var terms dominate that sum where the variance is floored.
        magnitude = (
            (X * X) @ (1.0 / variances).T
            + np.sum(means**2 / variances + np.abs(np.log(2.0 * np.pi * variances)), axis=1)
            + np.abs(np.log(weights))
        )
        tol = dim * np.finfo(np.float64).eps * magnitude
        assert np.all(np.abs(fast - ref) <= tol)
        assert np.array_equal(fast.argmax(axis=1), ref.argmax(axis=1))

    @pytest.mark.parametrize("seed,dim,m", [(0, 4, 2), (1, 16, 9), (2, 64, 20), (3, 256, 50)])
    def test_log_likelihood_non_decreasing_with_floored_variances(self, seed, dim, m):
        rng = np.random.default_rng(seed)
        X = with_constant_columns(rng, 4 * m + 20, dim, scale=1.0)
        embeddings = {f"e{i:03d}": row for i, row in enumerate(X)}
        lls = fit_gmm(sorted_matrix(embeddings)[1], m, seed=seed).log_likelihoods
        assert len(lls) >= 2
        for prev, cur in zip(lls, lls[1:]):
            assert cur >= prev - 1e-9 * max(1.0, abs(prev))


class TestSplitOversized:
    def test_compliant_assignment_unchanged(self):
        rng = np.random.default_rng(5)
        embeddings = {f"e{i}": rng.normal(size=4) for i in range(10)}
        ids, X = sorted_matrix(embeddings)
        assignment = fit_gmm(X, 2, seed=0)
        out = split_oversized(assignment, 20, X)
        assert sorted(map(sorted, id_clusters(ids, out))) == sorted(map(sorted, id_clusters(ids, assignment)))

    def test_oversized_cluster_is_split(self):
        rng = np.random.default_rng(6)
        embeddings = {f"e{i:02d}": rng.normal(size=8) for i in range(45)}
        ids, X = sorted_matrix(embeddings)
        assignment = ClusterAssignment(clusters=[np.arange(len(ids))])
        out = split_oversized(assignment, 20, X, seed=1)
        assert len(out.clusters) >= 3
        assert all(1 <= len(c) <= 20 for c in out.clusters)
        union = set().union(*id_clusters(ids, out))
        assert union == set(embeddings)

    def test_identical_embeddings_round_robin_split(self):
        embeddings = {f"e{i:02d}": np.ones(4) for i in range(45)}
        ids, X = sorted_matrix(embeddings)
        assignment = ClusterAssignment(clusters=[np.arange(len(ids))])
        out = split_oversized(assignment, 20, X, seed=0)
        assert len(out.clusters) == 3
        assert all(len(c) <= 20 for c in out.clusters)

    def test_repeated_split_deterministic(self):
        rng = np.random.default_rng(8)
        embeddings = {f"e{i:03d}": rng.normal(size=8) for i in range(120)}
        ids, X = sorted_matrix(embeddings)
        assignment = ClusterAssignment(clusters=[np.arange(len(ids))])
        a = split_oversized(assignment, 20, X, seed=3)
        b = split_oversized(assignment, 20, X, seed=3)
        assert id_clusters(ids, a) == id_clusters(ids, b)
