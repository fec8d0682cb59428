"""File formats, synthetic datasets, and the evaluation protocols."""

import dataclasses
import json
import struct

import numpy as np
import pytest

from featreg.bench import (
    DatasetManifest,
    ManifestEntry,
    ManifestPair,
    RegistrationEvalConfig,
    aggregate_rows,
    eval_descriptor_matching,
    eval_precision_curve,
    eval_registration,
    fp_rate_at_recall,
    generate_synthetic_scene,
    load_cloud,
    load_dataset,
    make_scan_pairs,
    pairs_from_manifest,
    save_cloud,
    save_dataset,
)
from featreg.errors import FormatError, InvalidInputError
from featreg.geom import PointCloud, RigidTransform, crop_ball, rotate_z
from featreg.net import ModelWeights, NetConfig
from featreg.register import InferenceConfig, register_clouds, rte_rre

TINY = NetConfig(point_mlp=(8, 8, 16), post_mlp=(8, 8), context_dim=16, descriptor_dim=8)


@pytest.fixture(scope="module")
def weights():
    return ModelWeights.initialize(TINY, np.random.default_rng(0))


def f4_cloud(rng, n, span=10.0, intensity=False):
    """Random cloud whose values are exactly representable in float32."""
    pts = rng.uniform(-span, span, size=(n, 3)).astype("<f4").astype(np.float64)
    inten = rng.uniform(0.0, 1.0, size=n).astype("<f4").astype(np.float64) if intensity else None
    return PointCloud(pts, inten)


class TestCloudFormats:
    def test_xyz_bin_is_packed_float32_triples(self, tmp_path):
        path = tmp_path / "three.xyz"
        vals = [1.0, 2.0, 3.0, -4.0, 0.5, 0.0, 7.25, -8.5, 9.0]
        path.write_bytes(struct.pack("<9f", *vals))
        assert path.stat().st_size == 36
        cloud = load_cloud(path, "xyz-bin")
        assert np.array_equal(cloud.points, np.array(vals).reshape(3, 3))

    def test_xyz_bin_round_trip(self, tmp_path):
        cloud = f4_cloud(np.random.default_rng(0), 57)
        save_cloud(cloud, tmp_path / "c.xyz", "xyz-bin")
        back = load_cloud(tmp_path / "c.xyz", "xyz-bin")
        assert np.array_equal(back.points, cloud.points)
        assert back.intensity is None

    def test_xyzi_bin_round_trip(self, tmp_path):
        cloud = f4_cloud(np.random.default_rng(1), 31, intensity=True)
        save_cloud(cloud, tmp_path / "c.xyzi", "xyzi-bin")
        back = load_cloud(tmp_path / "c.xyzi", "xyzi-bin")
        assert np.array_equal(back.points, cloud.points)
        assert np.array_equal(back.intensity, cloud.intensity)

    def test_xyzi_bin_fills_zero_intensity(self, tmp_path):
        cloud = f4_cloud(np.random.default_rng(2), 5)
        save_cloud(cloud, tmp_path / "c.xyzi", "xyzi-bin")
        back = load_cloud(tmp_path / "c.xyzi", "xyzi-bin")
        assert np.array_equal(back.intensity, np.zeros(5))

    def test_xyzi_bin_reference_bytes(self, tmp_path):
        rows = [(0.0, 1.0, 2.0, 0.25), (-1.5, 3.0, 4.5, 0.75)]
        path = tmp_path / "ref.xyzi"
        path.write_bytes(b"".join(struct.pack("<4f", *r) for r in rows))
        cloud = load_cloud(path, "xyzi-bin")
        assert np.array_equal(cloud.points, np.array([r[:3] for r in rows]))
        assert np.array_equal(cloud.intensity, np.array([0.25, 0.75]))

    def test_ascii_ply_round_trip_is_float64_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        cloud = PointCloud(rng.uniform(-50, 50, size=(23, 3)), rng.uniform(0, 1, size=23))
        save_cloud(cloud, tmp_path / "c.ply", "ascii-ply")
        back = load_cloud(tmp_path / "c.ply", "ascii-ply")
        assert np.array_equal(back.points, cloud.points)
        assert np.array_equal(back.intensity, cloud.intensity)

    def test_ascii_ply_without_intensity(self, tmp_path):
        cloud = PointCloud(np.random.default_rng(4).normal(size=(7, 3)))
        save_cloud(cloud, tmp_path / "c.ply", "ascii-ply")
        back = load_cloud(tmp_path / "c.ply", "ascii-ply")
        assert np.array_equal(back.points, cloud.points)
        assert back.intensity is None

    def test_bad_binary_length_reports_offset(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_bytes(b"\x00" * 35)  # one byte short of 3 records
        with pytest.raises(FormatError) as err:
            load_cloud(path, "xyz-bin")
        assert err.value.offset == 24  # end of the last complete record

    def test_ply_missing_magic(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("plyx\nformat ascii 1.0\nend_header\n")
        with pytest.raises(FormatError) as err:
            load_cloud(path, "ascii-ply")
        assert err.value.offset == 0

    def test_ply_binary_format_rejected(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("ply\nformat binary_little_endian 1.0\nend_header\n")
        with pytest.raises(FormatError, match="unsupported PLY format"):
            load_cloud(path, "ascii-ply")

    def test_ply_truncated_data(self, tmp_path):
        path = tmp_path / "bad.ply"
        # no trailing newline: the third vertex row is missing outright
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n1 1 1"
        )
        with pytest.raises(FormatError, match="truncated"):
            load_cloud(path, "ascii-ply")

    def test_ply_trailing_blank_line_counts_as_bad_vertex(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n1 1 1\n"
        )
        with pytest.raises(FormatError, match="expected 3"):
            load_cloud(path, "ascii-ply")

    def test_ply_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0\n"
        )
        with pytest.raises(FormatError, match="expected 3"):
            load_cloud(path, "ascii-ply")

    def test_ply_non_numeric_vertex(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 zero 0\n"
        )
        with pytest.raises(FormatError, match="non-numeric"):
            load_cloud(path, "ascii-ply")

    def test_ply_missing_coordinate_property(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\n"
            "end_header\n0 0\n"
        )
        with pytest.raises(FormatError, match="property 'z'"):
            load_cloud(path, "ascii-ply")

    def test_unknown_format_rejected(self, tmp_path):
        cloud = PointCloud(np.zeros((1, 3)))
        with pytest.raises(InvalidInputError):
            save_cloud(cloud, tmp_path / "c.bin", "pcd")
        with pytest.raises(InvalidInputError):
            load_cloud(tmp_path / "c.bin", "pcd")


class TestSyntheticScene:
    def test_same_seed_is_bitwise_identical(self):
        a = generate_synthetic_scene(9, extent=30.0, n_structures=5, ground_density=1.0, structure_density=5.0)
        b = generate_synthetic_scene(9, extent=30.0, n_structures=5, ground_density=1.0, structure_density=5.0)
        assert np.array_equal(a.points, b.points)

    def test_different_seeds_differ(self):
        a = generate_synthetic_scene(0, extent=30.0, n_structures=3, ground_density=1.0, structure_density=5.0)
        b = generate_synthetic_scene(1, extent=30.0, n_structures=3, ground_density=1.0, structure_density=5.0)
        assert a.points.shape != b.points.shape or not np.array_equal(a.points, b.points)

    def test_zero_structures_leaves_flat_ground(self):
        scene = generate_synthetic_scene(2, extent=20.0, n_structures=0, ground_density=2.0)
        assert len(scene) == round(20.0 * 20.0 * 2.0)
        assert np.all(scene.points[:, 2] == 0.0)
        assert scene.points[:, :2].min() >= 0.0
        assert scene.points[:, :2].max() <= 20.0

    def test_structures_rise_above_ground(self):
        scene = generate_synthetic_scene(3, extent=30.0, n_structures=8, ground_density=0.5, structure_density=10.0)
        assert scene.points[:, 2].max() > 1.0

    def test_invalid_args(self):
        with pytest.raises(InvalidInputError):
            generate_synthetic_scene(0, extent=0.0)
        with pytest.raises(InvalidInputError):
            generate_synthetic_scene(0, n_structures=-1)


@pytest.fixture(scope="module")
def world():
    return generate_synthetic_scene(7, extent=40.0, n_structures=8, ground_density=1.5, structure_density=8.0)


class TestMakeScanPairs:
    def test_zero_pairs(self, world):
        clouds, manifest = make_scan_pairs(world, 0, 5.0, np.random.default_rng(0))
        assert clouds == [] and manifest.entries == [] and manifest.pairs == []

    def test_structure_and_ids(self, world):
        clouds, manifest = make_scan_pairs(world, 3, 5.0, np.random.default_rng(1), scan_radius=12.0)
        assert len(clouds) == 6
        assert [c.cloud.id for c in clouds] == [f"scan-{i:04d}" for i in range(6)]
        assert [c.traversal_id for c in clouds] == [f"pair-{i // 2}" for i in range(6)]
        assert len(manifest.entries) == 6
        assert [(p.index_a, p.index_b) for p in manifest.pairs] == [(0, 1), (2, 3), (4, 5)]

    def test_coincident_scans_have_identity_relative_pose(self, world):
        clouds, manifest = make_scan_pairs(
            world, 2, 0.0, np.random.default_rng(2), scan_radius=10.0,
            jitter_sigma=0.0, keep_fraction=1.0, random_yaw=False,
        )
        for pair in manifest.pairs:
            rel = pair.transform
            assert np.array_equal(rel.rotation, np.eye(3))
            assert np.array_equal(rel.translation, np.zeros(3))
        a, b = clouds[0], clouds[1]
        assert np.array_equal(a.cloud.points, b.cloud.points)

    def test_relative_transform_aligns_overlap(self, world):
        # Jitter off: world points captured by both scans must coincide exactly
        # once scan a's local frame is mapped through the recorded transform.
        clouds, manifest = make_scan_pairs(
            world, 1, 2.0, np.random.default_rng(3), scan_radius=12.0,
            jitter_sigma=0.0, keep_fraction=1.0, random_yaw=True,
        )
        pair = manifest.pairs[0]
        a = clouds[pair.index_a].cloud.points
        b = clouds[pair.index_b].cloud.points
        mapped = a @ pair.transform.rotation.T + pair.transform.translation
        diff = mapped[:, None, :] - b[None, :, :]
        nearest = np.sqrt((diff * diff).sum(axis=2)).min(axis=1)
        matched = np.mean(nearest < 1e-9)
        assert matched > 0.5, f"only {matched:.0%} of scan a found a partner in scan b"

    def test_jitter_rms_matches_request(self, world):
        sigma = 0.1
        rng = np.random.default_rng(4)
        clouds, _ = make_scan_pairs(
            world, 1, 0.0, rng, scan_radius=12.0,
            jitter_sigma=sigma, keep_fraction=1.0, random_yaw=False,
        )
        ptc = clouds[0]
        recovered = rotate_z(ptc.cloud.points, 0.0) + ptc.pose.translation
        clean = crop_ball(world, ptc.pose.translation, 12.0).points
        assert recovered.shape == clean.shape  # keep_fraction 1 preserves order
        rms = float(np.sqrt(np.mean(np.sum((recovered - clean) ** 2, axis=1))))
        assert 0.9 * sigma < rms < 1.1 * sigma

    def test_target_points_thins_scans(self, world):
        clouds, _ = make_scan_pairs(
            world, 2, 3.0, np.random.default_rng(5), scan_radius=12.0, target_points=100,
        )
        assert all(len(c.cloud) == 100 for c in clouds)

    def test_random_yaw_rotates_local_frames(self, world):
        clouds, manifest = make_scan_pairs(
            world, 1, 0.0, np.random.default_rng(6), scan_radius=10.0,
            jitter_sigma=0.0, keep_fraction=1.0, random_yaw=True,
        )
        rel = manifest.pairs[0].transform
        angle = np.degrees(np.arctan2(rel.rotation[1, 0], rel.rotation[0, 0]))
        assert abs(angle) > 1.0  # coincident centers, differing yaws

    def test_validation(self, world):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidInputError):
            make_scan_pairs(world, -1, 1.0, rng)
        with pytest.raises(InvalidInputError):
            make_scan_pairs(world, 1, 1.0, rng, keep_fraction=0.0)
        with pytest.raises(InvalidInputError):
            make_scan_pairs(PointCloud(np.zeros((0, 3))), 1, 1.0, rng)


class TestManifestValidation:
    def test_pair_index_out_of_range(self):
        entry = ManifestEntry(id="s", path="s.xyz", pose=RigidTransform.identity())
        pair = ManifestPair(index_a=0, index_b=3, transform=RigidTransform.identity())
        with pytest.raises(InvalidInputError):
            DatasetManifest(entries=[entry], pairs=[pair])


@pytest.fixture(scope="module")
def scans(world):
    return make_scan_pairs(world, 2, 3.0, np.random.default_rng(8), scan_radius=10.0,
                           target_points=300)


class TestDatasetRoundTrip:
    def test_ply_round_trip_exact(self, scans, tmp_path):
        clouds, manifest = scans
        save_dataset(tmp_path / "ds", clouds, manifest, format="ascii-ply")
        back, back_manifest = load_dataset(tmp_path / "ds", format="ascii-ply")
        assert len(back) == len(clouds)
        for orig, got in zip(clouds, back):
            assert got.cloud.id == orig.cloud.id
            assert np.array_equal(got.cloud.points, orig.cloud.points)
            assert np.array_equal(got.pose.translation, orig.pose.translation)
            assert np.allclose(got.pose.rotation, orig.pose.rotation, atol=1e-12)
        assert len(back_manifest.pairs) == len(manifest.pairs)
        for orig, got in zip(manifest.pairs, back_manifest.pairs):
            assert (got.index_a, got.index_b) == (orig.index_a, orig.index_b)
            assert np.allclose(got.transform.rotation, orig.transform.rotation, atol=1e-12)
            assert np.array_equal(got.transform.translation, orig.transform.translation)

    def test_xyz_bin_round_trip_is_float32_quantized(self, scans, tmp_path):
        clouds, manifest = scans
        save_dataset(tmp_path / "ds", clouds, manifest, format="xyz-bin")
        back, _ = load_dataset(tmp_path / "ds", format="xyz-bin")
        for orig, got in zip(clouds, back):
            want = orig.cloud.points.astype("<f4").astype(np.float64)
            assert np.array_equal(got.cloud.points, want)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FormatError, match="manifest.csv"):
            load_dataset(tmp_path)

    def test_missing_cloud_file(self, scans, tmp_path):
        clouds, manifest = scans
        save_dataset(tmp_path / "ds", clouds, manifest)
        (tmp_path / "ds" / "scan-0001.xyz").unlink()
        with pytest.raises(FormatError, match="scan-0001"):
            load_dataset(tmp_path / "ds")

    def test_short_manifest_row(self, scans, tmp_path):
        clouds, manifest = scans
        save_dataset(tmp_path / "ds", clouds, manifest)
        path = tmp_path / "ds" / "manifest.csv"
        lines = path.read_text().splitlines()
        lines[1] = ",".join(lines[1].split(",")[:5])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="line 2"):
            load_dataset(tmp_path / "ds")

    def test_unknown_pair_id(self, scans, tmp_path):
        clouds, manifest = scans
        save_dataset(tmp_path / "ds", clouds, manifest)
        path = tmp_path / "ds" / "pairs.csv"
        text = path.read_text().replace("scan-0000", "scan-9999")
        path.write_text(text)
        with pytest.raises(FormatError, match="unknown scan id"):
            load_dataset(tmp_path / "ds")

    def test_non_numeric_pose(self, scans, tmp_path):
        clouds, manifest = scans
        save_dataset(tmp_path / "ds", clouds, manifest)
        path = tmp_path / "ds" / "manifest.csv"
        lines = path.read_text().splitlines()
        parts = lines[1].split(",")
        parts[2] = "abc"
        lines[1] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="non-numeric pose"):
            load_dataset(tmp_path / "ds")


class TestFpRateAtRecall:
    def test_perfect_separation(self):
        matches = np.linspace(0.1, 0.5, 20)
        fp, thresh = fp_rate_at_recall(matches, np.linspace(1.0, 2.0, 20))
        assert fp == 0.0
        assert thresh == matches[18]  # ceil(0.95 * 20) = 19th smallest

    def test_small_exact_case(self):
        matches = np.arange(1.0, 11.0)  # 1..10
        fp, thresh = fp_rate_at_recall(matches, np.array([5.0, 11.0, 12.0]), recall=0.95)
        assert thresh == 10.0  # ceil(0.95 * 10) = 10th smallest
        assert fp == pytest.approx(1.0 / 3.0)

    def test_same_distribution_sits_near_recall(self):
        rng = np.random.default_rng(0)
        fp, _ = fp_rate_at_recall(rng.uniform(0, 1, 1000), rng.uniform(0, 1, 1000))
        assert 0.90 < fp <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            fp_rate_at_recall(np.zeros(0), np.ones(3))
        with pytest.raises(InvalidInputError):
            fp_rate_at_recall(np.ones(3), np.zeros(0))


def strip_cloud(rng, length=45.0, width=6.0, density=4.0):
    """A long flat strip, dense enough for min_points everywhere."""
    n = int(length * width * density)
    pts = np.stack([
        rng.uniform(0.0, length, n),
        rng.uniform(0.0, width, n),
        rng.uniform(0.0, 0.4, n),
    ], axis=1)
    return PointCloud(pts)


class TestEvalDescriptorMatching:
    def test_identical_pair_has_zero_fp(self, weights):
        cloud = strip_cloud(np.random.default_rng(10))
        pairs = [(cloud, cloud, RigidTransform.identity())]
        fp = eval_descriptor_matching(pairs, weights, 12, r_cluster=1.5, seed=0)
        assert fp == 0.0  # identical clusters match at distance exactly 0

    def test_nonmatch_quota_unfillable_raises(self, weights):
        rng = np.random.default_rng(11)
        small = PointCloud(rng.uniform(0.0, 5.0, size=(400, 3)))  # extent < 20 m
        pairs = [(small, small, RigidTransform.identity())]
        with pytest.raises(InvalidInputError, match="non-matching"):
            eval_descriptor_matching(pairs, weights, 4, r_cluster=1.5, seed=0)

    def test_validation(self, weights):
        cloud = strip_cloud(np.random.default_rng(12))
        with pytest.raises(InvalidInputError):
            eval_descriptor_matching([(cloud, cloud, RigidTransform.identity())], weights, 1)
        with pytest.raises(InvalidInputError):
            eval_descriptor_matching([], weights, 10)


class TestEvalPrecisionCurve:
    CFG = InferenceConfig(r_nms=0.5, beta=0.0, max_keypoints=20, r_cluster=1.5, seed=0)

    def test_identical_clouds_give_perfect_precision(self, weights):
        rng = np.random.default_rng(13)
        cloud = PointCloud(rng.uniform(0.0, 8.0, size=(300, 3)))
        pairs = [(cloud, cloud, RigidTransform.identity())]
        curve = eval_precision_curve(pairs, weights, self.CFG, [0.0, 0.5, 1.0])
        assert curve == [(0.0, 1.0), (0.5, 1.0), (1.0, 1.0)]

    def test_monotone_in_threshold(self, weights, world):
        clouds, manifest = make_scan_pairs(
            world, 2, 3.0, np.random.default_rng(14), scan_radius=10.0, target_points=250,
        )
        pairs = pairs_from_manifest(clouds, manifest)
        curve = eval_precision_curve(pairs, weights, self.CFG, [0.1, 0.5, 1.0, 2.0, 5.0])
        values = [v for _, v in curve]
        assert values == sorted(values)
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_empty_pairs(self, weights):
        assert eval_precision_curve([], weights, self.CFG, [1.0]) == [(1.0, 0.0)]

    def test_negative_threshold_rejected(self, weights):
        with pytest.raises(InvalidInputError):
            eval_precision_curve([], weights, self.CFG, [-1.0])


@pytest.fixture(scope="module")
def easy_dataset(world):
    """Coincident identical scan pairs: registration must recover identity."""
    return make_scan_pairs(
        world, 2, 0.0, np.random.default_rng(20), scan_radius=10.0,
        jitter_sigma=0.0, keep_fraction=1.0, random_yaw=False,
    )


class TestEvalRegistration:
    CFG = RegistrationEvalConfig(
        inference=InferenceConfig(r_nms=0.5, beta=0.0, max_keypoints=25, r_cluster=1.5, seed=0),
        inlier_thresh=0.5,
        seed=0,
    )

    def test_identity_pairs_all_succeed(self, easy_dataset, weights):
        clouds, manifest = easy_dataset
        report = eval_registration(clouds, manifest, weights, self.CFG)
        assert len(report.rows) == 2
        for row in report.rows:
            assert row.success
            assert row.rte < 1e-9
            assert row.rre_deg < 1e-6
            assert row.error == ""
        assert report.aggregates["success_rate"] == 1.0

    def test_rows_match_register_clouds(self, scans, weights):
        """Row i is register_clouds on pair i with RANSAC seeded by seed + i."""
        clouds, manifest = scans
        cfg = dataclasses.replace(self.CFG, seed=5)
        report = eval_registration(clouds, manifest, weights, cfg)
        assert len(report.rows) == len(manifest.pairs)
        for i, (pair, row) in enumerate(zip(manifest.pairs, report.rows)):
            result, n_corr = register_clouds(
                clouds[pair.index_a].cloud,
                clouds[pair.index_b].cloud,
                weights,
                cfg.inference,
                inlier_thresh=cfg.inlier_thresh,
                confidence=cfg.confidence,
                max_iter=cfg.max_iter,
                rng=np.random.default_rng(cfg.seed + i),
            )
            rte, rre = rte_rre(result.transform, pair.transform)
            assert row.error == ""
            assert (row.rte, row.rre_deg) == (rte, rre)
            assert (row.iterations, row.inlier_count, row.n_correspondences) == (
                result.iterations, result.inlier_count, n_corr)
            assert row.success == bool(result.success and rte < cfg.success_rte and rre < cfg.success_rre_deg)

    def test_aggregates_recompute_from_rows(self, easy_dataset, weights):
        clouds, manifest = easy_dataset
        report = eval_registration(clouds, manifest, weights, self.CFG)
        assert report.aggregates == aggregate_rows(report.rows)

    def test_failed_pair_becomes_error_row(self, easy_dataset, weights, monkeypatch):
        import featreg.register as register

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure, with a comma")

        monkeypatch.setattr(register, "detect_keypoints", boom)
        clouds, manifest = easy_dataset
        report = eval_registration(clouds, manifest, weights, self.CFG)
        for row in report.rows:
            assert not row.success
            assert "synthetic failure" in row.error
            assert "," not in row.error  # keeps the CSV parseable
        assert report.aggregates["success_rate"] == 0.0

    def test_report_files(self, easy_dataset, weights, tmp_path):
        clouds, manifest = easy_dataset
        report = eval_registration(clouds, manifest, weights, self.CFG)
        report.write_csv(tmp_path / "rows.csv")
        report.write_json(tmp_path / "agg.json")
        lines = (tmp_path / "rows.csv").read_text().splitlines()
        assert lines[0].startswith("id_a,id_b,rte,")
        assert len(lines) == 1 + len(report.rows)
        agg = json.loads((tmp_path / "agg.json").read_text())
        assert agg == report.aggregates

    def test_aggregate_rows_empty(self):
        agg = aggregate_rows([])
        assert agg["n_pairs"] == 0
        assert agg["success_rate"] == 0.0

    def test_pairs_from_manifest(self, easy_dataset):
        clouds, manifest = easy_dataset
        triples = pairs_from_manifest(clouds, manifest)
        assert len(triples) == len(manifest.pairs)
        a, b, t = triples[0]
        assert a is clouds[0].cloud and b is clouds[1].cloud
        assert t is manifest.pairs[0].transform
