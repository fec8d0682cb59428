"""Sampling, grouping, and network forward passes: oracles and symmetries."""

import numpy as np
import pytest

from featreg import (
    Cluster,
    InvalidInputError,
    ModelWeights,
    NetConfig,
    PointCloud,
    ball_group,
    branch_graph,
    describe,
    detect,
    farthest_point_sample,
)
from featreg.geom import rotate_z
from featreg.net import describe_many, detect_many

TINY = NetConfig(point_mlp=(8, 8, 16), post_mlp=(8, 8), context_dim=16, descriptor_dim=8)


@pytest.fixture(scope="module")
def weights():
    return ModelWeights.initialize(TINY, np.random.default_rng(0))


def fps_oracle(points: np.ndarray, k: int, first: int) -> list[int]:
    """Greedy brute force: recompute all distances to the chosen set each round."""
    chosen = [first]
    while len(chosen) < k:
        best_idx, best_d = None, -1.0
        for i in range(len(points)):
            d = min(np.dot(points[i] - points[j], points[i] - points[j]) for j in chosen)
            if d > best_d:  # strict: ties stay with the lowest index
                best_idx, best_d = i, d
        chosen.append(best_idx)
    return chosen


class TestFarthestPointSample:
    def test_k_equals_n_is_permutation(self):
        cloud = PointCloud(np.random.default_rng(0).normal(size=(17, 3)))
        idx = farthest_point_sample(cloud, 17, seed=0)
        assert sorted(idx.tolist()) == list(range(17))

    def test_collinear_extremal_second_pick(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [10.0, 0, 0]])
        # seeds are scanned until one starts at index 0
        for seed in range(50):
            idx = farthest_point_sample(PointCloud(pts), 2, seed=seed)
            if idx[0] == 0:
                assert idx[1] == 3
                return
        pytest.fail("no seed with first pick 0 in 50 tries")

    def test_matches_greedy_oracle(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(40, 257))
            pts = rng.uniform(-10, 10, size=(n, 3))
            cloud = PointCloud(pts)
            idx = farthest_point_sample(cloud, 32, seed=seed + 1000)
            expected = fps_oracle(pts, 32, first=int(idx[0]))
            assert idx.tolist() == expected, f"seed {seed}"

    def test_k_larger_than_n(self):
        cloud = PointCloud(np.random.default_rng(1).normal(size=(5, 3)))
        idx = farthest_point_sample(cloud, 64, seed=0)
        assert sorted(idx.tolist()) == list(range(5))

    def test_deterministic_under_seed(self):
        cloud = PointCloud(np.random.default_rng(2).normal(size=(60, 3)))
        a = farthest_point_sample(cloud, 12, seed=7)
        b = farthest_point_sample(cloud, 12, seed=7)
        assert np.array_equal(a, b)


class TestBallGroup:
    def test_isolated_center_singleton(self):
        pts = np.array([[0.0, 0, 0], [100.0, 0, 0]])
        clusters = ball_group(PointCloud(pts), [0], r_cluster=2.0)
        assert clusters[0].valid_count == 1
        assert np.array_equal(clusters[0].local_points, [[0.0, 0.0, 0.0]])

    def test_center_plus_neighbors(self):
        pts = np.array([[0.0, 0, 0], [0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.5], [9, 9, 9]])
        clusters = ball_group(PointCloud(pts), [0], r_cluster=2.0, cap=64)
        c = clusters[0]
        assert c.valid_count == 4
        assert np.all(np.linalg.norm(c.local_points, axis=1) <= 2.0)

    def test_membership_matches_linear_scan(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-5, 5, size=(300, 3))
        cloud = PointCloud(pts)
        centers = [10, 50, 200]
        clusters = ball_group(cloud, centers, r_cluster=2.0, cap=10_000)
        for ci, cluster in zip(centers, clusters):
            expected = pts[np.linalg.norm(pts - pts[ci], axis=1) <= 2.0] - pts[ci]
            got = sorted(map(tuple, cluster.local_points))
            want = sorted(map(tuple, expected))
            assert got == want

    def test_cap_keeps_center(self):
        rng = np.random.default_rng(4)
        pts = np.concatenate([np.zeros((1, 3)), rng.uniform(-0.5, 0.5, size=(200, 3))])
        clusters = ball_group(PointCloud(pts), [0], r_cluster=2.0, cap=16)
        c = clusters[0]
        assert c.valid_count == 16
        assert any(np.array_equal(row, np.zeros(3)) for row in c.local_points)

    def test_local_points_are_center_relative(self):
        pts = np.array([[5.0, 5.0, 5.0], [5.5, 5.0, 5.0]])
        clusters = ball_group(PointCloud(pts), [0], r_cluster=2.0)
        assert np.array_equal(clusters[0].local_points[0], [0.0, 0.0, 0.0])

    def test_invalid_center_index(self):
        with pytest.raises(InvalidInputError):
            ball_group(PointCloud(np.zeros((2, 3))), [5])


def random_cluster(rng, n=12, spread=1.5) -> Cluster:
    pts = rng.uniform(-spread, spread, size=(n, 3))
    return Cluster(center=np.zeros(3), local_points=pts, valid_count=n)


class TestDetect:
    def test_attention_positive(self, weights):
        rng = np.random.default_rng(0)
        for _ in range(20):
            theta, attention = detect(random_cluster(rng), weights)
            assert attention > 0

    def test_permutation_invariance(self, weights):
        rng = np.random.default_rng(1)
        cluster = random_cluster(rng)
        theta0, attn0 = detect(cluster, weights)
        for _ in range(10):
            perm = rng.permutation(cluster.valid_count)
            shuffled = Cluster(cluster.center, cluster.local_points[perm], cluster.valid_count)
            theta, attn = detect(shuffled, weights)
            assert abs(theta - theta0) < 1e-6
            assert abs(attn - attn0) < 1e-6

    def test_theta_range_and_unit_pair(self, weights):
        from featreg.net import detector_graph
        from featreg.autodiff import Tensor

        rng = np.random.default_rng(2)
        for _ in range(100):
            cluster = random_cluster(rng)
            theta, _ = detect(cluster, weights)
            assert -np.pi < theta <= np.pi
            offsets = np.array([0, cluster.valid_count])
            orient, _ = detector_graph(Tensor(cluster.local_points), weights, offsets)
            s, c = orient.data[0]
            assert abs(s * s + c * c - 1.0) < 1e-6


class TestDescribe:
    def test_unit_norm(self, weights):
        rng = np.random.default_rng(3)
        for _ in range(30):
            d = describe(random_cluster(rng), rng.uniform(-np.pi, np.pi), weights)
            assert abs(np.linalg.norm(d) - 1.0) < 1e-6

    def test_canonicalization_identity(self, weights):
        rng = np.random.default_rng(4)
        for _ in range(100):
            cluster = random_cluster(rng)
            theta = rng.uniform(-np.pi, np.pi)
            phi = rng.uniform(-np.pi, np.pi)
            base = describe(cluster, theta, weights)
            rotated = Cluster(
                cluster.center, rotate_z(cluster.local_points, phi), cluster.valid_count
            )
            got = describe(rotated, theta + phi, weights)
            assert np.max(np.abs(got - base)) < 1e-5

    def test_permutation_invariance(self, weights):
        rng = np.random.default_rng(5)
        cluster = random_cluster(rng)
        base = describe(cluster, 0.3, weights)
        for _ in range(10):
            perm = rng.permutation(cluster.valid_count)
            shuffled = Cluster(cluster.center, cluster.local_points[perm], cluster.valid_count)
            got = describe(shuffled, 0.3, weights)
            assert np.max(np.abs(got - base)) < 1e-6


class TestForwardBranch:
    def test_single_cluster(self, weights):
        cloud = PointCloud(np.random.default_rng(6).uniform(-1, 1, size=(10, 3)))
        desc, attn = branch_graph(cloud, weights, k=1, r_cluster=5.0, seed=0)
        assert desc.data.shape == (1, TINY.descriptor_dim)
        assert attn.data.shape == (1,) and attn.data[0] > 0
        assert abs(np.linalg.norm(desc.data[0]) - 1.0) < 1e-6

    def test_same_seed_identical(self, weights):
        cloud = PointCloud(np.random.default_rng(7).uniform(-4, 4, size=(80, 3)))
        desc_a, attn_a = branch_graph(cloud, weights, k=6, r_cluster=2.0, seed=11)
        desc_b, attn_b = branch_graph(cloud, weights, k=6, r_cluster=2.0, seed=11)
        assert np.array_equal(desc_a.data, desc_b.data)
        assert np.array_equal(attn_a.data, attn_b.data)

    def test_global_rotation_leaves_descriptors(self, weights):
        """Rotating the whole cloud shifts every theta but not the descriptors,
        when cluster membership is pinned by rotating the same clusters."""
        rng = np.random.default_rng(8)
        cloud = PointCloud(rng.uniform(-4, 4, size=(60, 3)))
        phi = 1.234
        idx = farthest_point_sample(cloud, 5, seed=3)
        clusters = ball_group(cloud, idx, r_cluster=2.0, cap=64, rng=np.random.default_rng(9))
        for cluster in clusters:
            theta, _ = detect(cluster, weights)
            base = describe(cluster, theta, weights)
            turned = Cluster(cluster.center, rotate_z(cluster.local_points, phi), cluster.valid_count)
            theta2, _ = detect(turned, weights)
            got = describe(turned, theta2, weights)
            # holds whenever the orientation head is equivariant at this input:
            # theta2 should equal theta + phi modulo 2 pi up to head error; the
            # descriptor check uses the predicted angles directly
            got_pinned = describe(turned, theta + phi, weights)
            assert np.max(np.abs(got_pinned - base)) < 1e-5


class TestBatchedPathsMatchGraphPaths:
    def test_detect_many_consistency(self, weights):
        rng = np.random.default_rng(10)
        clusters = [random_cluster(rng, n=int(rng.integers(3, 20))) for _ in range(12)]
        thetas, attns = detect_many(clusters, weights)
        for i, cluster in enumerate(clusters):
            theta, attn = detect(cluster, weights)
            assert abs(thetas[i] - theta) < 1e-9
            assert abs(attns[i] - attn) < 1e-9

    def test_describe_many_consistency(self, weights):
        rng = np.random.default_rng(11)
        clusters = [random_cluster(rng, n=int(rng.integers(3, 20))) for _ in range(12)]
        thetas = rng.uniform(-np.pi, np.pi, size=12)
        descs = describe_many(clusters, thetas, weights)
        for i, cluster in enumerate(clusters):
            want = describe(cluster, float(thetas[i]), weights)
            assert np.max(np.abs(descs[i] - want)) < 1e-9

    def test_branch_graph_matches_forward_branch(self, weights):
        """The training graph against the batched inference path, on the
        clusters branch_graph draws: the seed drives the FPS first pick and
        then the over-cap subsampling, in that order."""
        cloud = PointCloud(np.random.default_rng(12).uniform(-4, 4, size=(70, 3)))
        desc, attn = branch_graph(cloud, weights, k=5, r_cluster=2.0, seed=21)
        rng = np.random.default_rng(21)
        idx = farthest_point_sample(cloud, 5, rng)
        clusters = ball_group(cloud, idx, r_cluster=2.0, cap=64, rng=rng)
        thetas, attns = detect_many(clusters, weights)
        descs = describe_many(clusters, thetas, weights)
        assert desc.data.shape == (5, TINY.descriptor_dim)
        assert np.max(np.abs(desc.data - descs)) < 1e-9
        assert np.max(np.abs(attn.data - attns)) < 1e-9


class TestModelWeights:
    def test_checkpoint_round_trip(self, weights, tmp_path):
        path = tmp_path / "w.f3dn"
        weights.save(path)
        loaded = ModelWeights.load(path)
        assert loaded.config == weights.config
        for k, v in weights.tensors.items():
            # payloads are float32, so round-tripped values are float32 exact
            assert np.array_equal(
                loaded.tensors[k].data, v.data.astype(np.float32).astype(np.float64)
            )

    def test_parameter_partition(self, weights):
        det = set(weights.detector_parameters())
        desc = set(weights.descriptor_parameters())
        assert det | desc == set(weights.parameters())
        assert not det & desc

    def test_initialize_deterministic(self):
        a = ModelWeights.initialize(TINY, np.random.default_rng(42))
        b = ModelWeights.initialize(TINY, np.random.default_rng(42))
        for k in a.tensors:
            assert np.array_equal(a.tensors[k].data, b.tensors[k].data)

    def test_copy_is_deep(self, weights):
        c = weights.copy()
        c.tensors["det.attn.b"].data[0] += 1.0
        assert c.tensors["det.attn.b"].data[0] != weights.tensors["det.attn.b"].data[0]
