"""Workload inputs, requests and correctness checks.

Every workload scans the acceptance suite's criterion-6 world (the world the
fixed weights were trained on) and draws its scan pairs from the workload
seed, so the same seed gives byte-identical inputs. Set-up writes the clouds
with `bench.save_dataset` (xyz-bin); requests then go through featreg's public
API one at a time, each waiting for the previous one (a closed loop with one
caller).
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import featreg.bench as bench
import featreg.register as register
import featreg.train as train
from featreg import InferenceConfig, ModelWeights, TrainConfig, describe, detect
from featreg.net import cluster_at, describe_many, detect_many

WEIGHTS_PATH = Path(__file__).resolve().parent / "weights.f3dn"
# SHA-256 of weights.f3dn as written by train_weights.py.
WEIGHTS_SHA256 = "9e51d29b294aee8ebd818304c34d3e924b2561713c56c22b5a021ee63341b447"

# The acceptance suite's criterion-6 world and desk training config.
WORLD_SEED = 42
WORLD = dict(extent=110.0, n_structures=60, ground_density=20.0, structure_density=40.0)
DESK_CFG = TrainConfig(
    tau_p=5.0, tau_n=50.0, batch_triplets=6, lr=3e-3, k=64,
    r_cluster=2.0, crop_r=20.0, dropout_n=1024,
    pretrain_epochs=2, main_epochs=8, seed=0,
    margin=0.2, descriptor_dim=16, context_dim=64,
    point_mlp="32,32,64", post_mlp="32,32",
)
DENSE_INFER = InferenceConfig(r_nms=0.5, beta=0.01, max_keypoints=128, r_cluster=2.0, seed=0)
SCAN = dict(max_offset=2.0, scan_radius=15.0, jitter_sigma=0.03, keep_fraction=0.95, random_yaw=True)

# A pair counts as registered when RTE < 2 m and RRE < 5 degrees.
SUCCESS_RTE = 2.0
SUCCESS_RRE_DEG = 5.0
# The batched inference path must match the per-cluster graph this closely.
REFERENCE_TOL = 1e-6
REFERENCE_SAMPLE = 16
# register_clouds' default RANSAC trial cap.
RANSAC_MAX_ITER = 10000
# Requests cycle through these pools, so a faster program never runs dry.
TRAIN_POOL_PAIRS = 12
TRAIN_BATCHES = 8


def load_weights() -> ModelWeights:
    """The committed checkpoint; refuses any file whose hash has changed."""
    digest = hashlib.sha256(WEIGHTS_PATH.read_bytes()).hexdigest()
    if digest != WEIGHTS_SHA256:
        raise RuntimeError(f"{WEIGHTS_PATH.name} sha256 {digest} != expected {WEIGHTS_SHA256}")
    return ModelWeights.load(WEIGHTS_PATH)


def _scan_pairs(seed: int, n_pairs: int, points: int, data_dir: Path):
    world = bench.generate_synthetic_scene(WORLD_SEED, **WORLD)
    clouds, manifest = bench.make_scan_pairs(
        world, n_pairs, rng=np.random.default_rng(seed), target_points=points, **SCAN
    )
    bench.save_dataset(data_dir, clouds, manifest)
    return clouds, manifest


def dir_digest(data_dir: Path) -> str:
    """SHA-256 over the names and bytes of every file in a dataset directory."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(data_dir)):
        h.update(name.encode())
        h.update((data_dir / name).read_bytes())
    return h.hexdigest()


@dataclass
class Outcome:
    """One completed request: its latency, the items it did, and its result."""

    latency: float
    items: int
    result: tuple
    success: bool
    payload: object = None


def _angle_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(np.angle(np.exp(1j * (np.asarray(a) - np.asarray(b)))))


class RegisterWorkload:
    """Each request loads a scan pair from disk and registers it a -> b."""

    def __init__(self, seed: int, data_dir: Path, points: int, infer: InferenceConfig, pool_pairs: int):
        self.seed = seed
        self.data_dir = Path(data_dir)
        self.points = points
        self.infer = infer
        self.pool_pairs = pool_pairs

    def setup(self) -> str:
        self.weights = load_weights()
        _, self.manifest = _scan_pairs(self.seed, self.pool_pairs, self.points, self.data_dir)
        self.paths = [str(self.data_dir / f"{e.id}.xyz") for e in self.manifest.entries]
        return dir_digest(self.data_dir)

    def reference_check(self) -> list[str]:
        """Batched detect/describe against the per-cluster graph reference."""
        cloud = bench.load_cloud(self.paths[0])
        rng = np.random.default_rng(self.seed)
        picks = rng.choice(len(cloud), size=min(REFERENCE_SAMPLE, len(cloud)), replace=False)
        clusters = [
            cluster_at(cloud, cloud.points[i], r_cluster=self.infer.r_cluster,
                       cap=self.infer.cluster_cap, rng=rng, keep_index=int(i))
            for i in picks
        ]
        thetas, attns = detect_many(clusters, self.weights)
        descs = describe_many(clusters, thetas, self.weights)
        ref = [detect(c, self.weights) for c in clusters]
        ref_desc = np.stack([describe(c, t, self.weights) for c, (t, _) in zip(clusters, ref)])
        gaps = {
            "theta": float(_angle_gap(thetas, [t for t, _ in ref]).max()),
            "attention": float(np.abs(attns - [a for _, a in ref]).max()),
            "descriptor": float(np.abs(descs - ref_desc).max()),
        }
        return [f"batched {k} differs from graph by {v:.3e}" for k, v in gaps.items() if not v <= REFERENCE_TOL]

    def run(self, i: int) -> Outcome:
        pair = self.manifest.pairs[i % len(self.manifest.pairs)]
        start = time.perf_counter()
        cloud_a = bench.load_cloud(self.paths[pair.index_a])
        cloud_b = bench.load_cloud(self.paths[pair.index_b])
        result, n_corr = register.register_clouds(cloud_a, cloud_b, self.weights, self.infer)
        latency = time.perf_counter() - start
        rte, rre = register.rte_rre(result.transform, pair.transform)
        success = bool(result.success and rte < SUCCESS_RTE and rre < SUCCESS_RRE_DEG)
        key = (result.transform.matrix().tobytes(), result.inlier_count, result.iterations, n_corr)
        return Outcome(latency, 1, key, success, i % len(self.manifest.pairs))

    def advance(self, outcome: Outcome) -> None:
        pass

    def final_check(self, outcomes: list[Outcome]) -> list[str]:
        """RANSAC bookkeeping is consistent and a repeated pair repeats its result."""
        problems = []
        first: dict[int, tuple] = {}
        for o in outcomes:
            _, inliers, iterations, n_corr = o.result
            if not (0 <= inliers <= n_corr and 0 <= iterations <= RANSAC_MAX_ITER):
                problems.append(f"pair {o.payload}: {inliers} inliers of {n_corr}, {iterations} iterations")
            if first.setdefault(o.payload, o.result) != o.result:
                problems.append(f"pair {o.payload}: a second registration gave another result")
        return problems


def _world_centroid(ptc) -> np.ndarray:
    return ptc.pose.rotation @ ptc.cloud.points.mean(axis=0) + ptc.pose.translation


class TrainWorkload:
    """Each request is one phase-2 training step on a batch of 6 triplets.

    A batch is three scan pairs whose world centroids lie more than tau_n
    apart, so every scan has its partner as a positive and the other four as
    negatives, and train.train makes exactly one step of batch_triplets.
    """

    def __init__(self, seed: int, data_dir: Path):
        self.seed = seed
        self.data_dir = Path(data_dir)

    def setup(self) -> str:
        self.weights = load_weights()
        _scan_pairs(self.seed, TRAIN_POOL_PAIRS, 4000, self.data_dir)
        clouds, manifest = bench.load_dataset(self.data_dir)
        cents = np.stack([_world_centroid(c) for c in clouds])
        dist = np.linalg.norm(cents[:, None] - cents[None], axis=2)
        batches = []
        for trio in itertools.combinations(manifest.pairs, 3):
            idx = [j for p in trio for j in (p.index_a, p.index_b)]
            d = dist[np.ix_(idx, idx)]
            partner = np.kron(np.eye(3, dtype=bool), np.ones((2, 2), dtype=bool))
            if d[partner].max() < DESK_CFG.tau_p and d[~partner].min() > DESK_CFG.tau_n:
                batches.append(idx)
        if not batches:
            raise RuntimeError("no three scan pairs lie far enough apart to form a batch")
        order = np.random.default_rng(self.seed).permutation(len(batches))[:TRAIN_BATCHES]
        self.batches = [[clouds[j] for j in batches[k]] for k in order]
        self.start_weights = self.weights.copy()
        h = hashlib.sha256(dir_digest(self.data_dir).encode())
        h.update(np.asarray([batches[k] for k in order]).tobytes())
        return h.hexdigest()

    def reference_check(self) -> list[str]:
        return []

    def run(self, i: int) -> Outcome:
        batch = self.batches[i % len(self.batches)]
        cfg = dataclasses.replace(DESK_CFG, pretrain_epochs=0, main_epochs=1, seed=self.seed * 100_003 + i)
        weights = self.weights.copy()
        start = time.perf_counter()
        weights, history = train.train(batch, cfg, weights)
        latency = time.perf_counter() - start
        if len(history) != 1:
            raise RuntimeError(f"expected one training step, got {len(history)}")
        loss = history[0][2]
        digest = hashlib.sha256(b"".join(t.data.tobytes() for t in weights.tensors.values())).hexdigest()
        return Outcome(latency, cfg.batch_triplets, (loss, digest), bool(np.isfinite(loss)), weights)

    def advance(self, outcome: Outcome) -> None:
        self.weights, outcome.payload = outcome.payload, None

    def final_check(self, outcomes: list[Outcome]) -> list[str]:
        problems = [f"step {i} loss {o.result[0]!r} is not finite" for i, o in enumerate(outcomes) if not o.success]
        if any(o.result[0] > 0 for o in outcomes):
            still = [k for k, t in self.weights.tensors.items()
                     if np.array_equal(t.data, self.start_weights.tensors[k].data)]
            problems += [f"trainable tensor {k} never moved" for k in still]
        return problems


def make_workload(name: str, seed: int, data_dir: Path):
    if name == "register-dense":
        return RegisterWorkload(seed, data_dir, 4096, DENSE_INFER, pool_pairs=8)
    if name == "register-sparse":
        return RegisterWorkload(seed, data_dir, 1024, InferenceConfig(), pool_pairs=16)
    if name == "train":
        return TrainWorkload(seed, data_dir)
    raise ValueError(f"unknown workload {name!r}")
