"""Two-stage keypoint inference and RANSAC rigid registration.

Stage one scores every point of a cloud by running the detector on its
r_cluster neighborhood, then thins the field with radius non-maximum
suppression, a relative attention floor, and a top-M cut. Stage two computes
descriptors only at the survivors. Registration pipes nearest-descriptor
correspondences into a 3-point RANSAC with an SVD refit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateGeometryError, InvalidInputError
from .geom import PointCloud, RigidTransform, compose
from .net import (
    DEFAULT_CLUSTER_CAP,
    DEFAULT_R_CLUSTER,
    Cluster,
    KeypointFeature,
    ModelWeights,
    cluster_at,
    describe_many,
    detect_many,
)


@dataclass(frozen=True)
class InferenceConfig:
    """Keypoint selection knobs.

    r_nms: suppression radius (m); beta: relative attention floor as a
    fraction of the field maximum; max_keypoints: the top-M cut. r_cluster,
    cluster_cap, and seed control neighborhood extraction; tile_size bounds
    how many neighborhoods are stacked per batched detector call.
    """

    r_nms: float = 0.5
    beta: float = 0.01
    max_keypoints: int = 1024
    r_cluster: float = DEFAULT_R_CLUSTER
    cluster_cap: int = DEFAULT_CLUSTER_CAP
    tile_size: int = 4096
    seed: int = 0

    def __post_init__(self):
        if not (self.r_nms > 0 and self.r_cluster > 0):
            raise InvalidInputError("r_nms and r_cluster must be positive")
        if not (0 <= self.beta <= 1):
            raise InvalidInputError(f"beta must be in [0, 1], got {self.beta}")
        if self.max_keypoints < 1 or self.cluster_cap < 1 or self.tile_size < 1:
            raise InvalidInputError("max_keypoints, cluster_cap, tile_size must be >= 1")


@dataclass(frozen=True)
class Keypoint:
    """A surviving detection: cloud position, its attention, and source index."""

    position: np.ndarray
    attention: float
    index: int


@dataclass(frozen=True)
class Correspondence:
    """Matched keypoint positions (p in cloud a, q in cloud b)."""

    p: np.ndarray
    q: np.ndarray
    descriptor_distance: float


@dataclass(frozen=True)
class RegistrationResult:
    transform: RigidTransform
    inlier_count: int
    iterations: int
    success: bool


def select_keypoints(
    positions: np.ndarray, attentions: np.ndarray, cfg: InferenceConfig
) -> np.ndarray:
    """Indices surviving NMS, the beta floor, and the top-M cut.

    A point survives NMS iff its attention is strictly greatest among
    neighbors within r_nms, ties going to the lowest index. Survivors below
    beta * max(attentions) are dropped; the best max_keypoints remain, ordered
    by descending attention (index breaks ties).
    """
    positions = np.asarray(positions, dtype=np.float64)
    attentions = np.asarray(attentions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3 or attentions.shape != (len(positions),):
        raise InvalidInputError("need (N, 3) positions and (N,) attentions")
    n = len(positions)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    tree = cKDTree(positions)
    for i, j in tree.query_pairs(cfg.r_nms):
        if attentions[i] > attentions[j]:
            alive[j] = False
        elif attentions[j] > attentions[i]:
            alive[i] = False
        else:
            alive[max(i, j)] = False
    alive &= attentions >= cfg.beta * attentions.max()
    idx = np.nonzero(alive)[0]
    order = np.lexsort((idx, -attentions[idx]))
    return idx[order[: cfg.max_keypoints]]


def _attention_field(
    cloud: PointCloud, w: ModelWeights, cfg: InferenceConfig
) -> tuple[np.ndarray, cKDTree]:
    """Detector attention for every point, each treated as a cluster center."""
    tree = cKDTree(cloud.points)
    rng = np.random.default_rng(cfg.seed)
    attentions = np.empty(len(cloud))
    for lo in range(0, len(cloud), cfg.tile_size):
        hi = min(lo + cfg.tile_size, len(cloud))
        neighborhoods = tree.query_ball_point(cloud.points[lo:hi], cfg.r_cluster)
        clusters = [
            cluster_at(
                cloud,
                cloud.points[i],
                r_cluster=cfg.r_cluster,
                cap=cfg.cluster_cap,
                rng=rng,
                keep_index=i,
                neighbor_idx=neighborhoods[i - lo],
            )
            for i in range(lo, hi)
        ]
        _, attentions[lo:hi] = detect_many(clusters, w)
    return attentions, tree


def detect_keypoints(
    cloud: PointCloud, w: ModelWeights, cfg: InferenceConfig = InferenceConfig()
) -> list[Keypoint]:
    """Stage one: attention for all points, then NMS, beta floor, top-M."""
    if len(cloud) == 0:
        return []
    attentions, _ = _attention_field(cloud, w, cfg)
    keep = select_keypoints(cloud.points, attentions, cfg)
    return [
        Keypoint(position=np.array(cloud.points[i], copy=True), attention=float(attentions[i]), index=int(i))
        for i in keep
    ]


def compute_descriptors(
    cloud: PointCloud,
    keypoints: list[Keypoint],
    w: ModelWeights,
    cfg: InferenceConfig = InferenceConfig(),
) -> list[KeypointFeature]:
    """Stage two: orientation and descriptor at the surviving keypoints only.

    Attention values are carried over from detection; the detector runs here
    just for the orientation. Keypoints must lie at cloud positions. Keypoints
    whose neighborhood holds no point besides themselves are dropped, since a
    singleton cluster has no shape to describe.
    """
    if not keypoints:
        return []
    tree = cKDTree(cloud.points)
    rng = np.random.default_rng(cfg.seed)
    clusters = []
    for kp in keypoints:
        if not (0 <= kp.index < len(cloud)) or not np.array_equal(cloud.points[kp.index], kp.position):
            raise InvalidInputError("keypoint does not reference a cloud position")
        clusters.append(
            cluster_at(
                cloud,
                kp.position,
                r_cluster=cfg.r_cluster,
                cap=cfg.cluster_cap,
                rng=rng,
                tree=tree,
                keep_index=kp.index,
            )
        )
    kept = [i for i, c in enumerate(clusters) if c.valid_count >= 2]
    clusters = [clusters[i] for i in kept]
    thetas, _ = detect_many(clusters, w)
    descriptors = describe_many(clusters, thetas, w)
    return [
        KeypointFeature(
            position=np.array(keypoints[kp_i].position, copy=True),
            theta=float(thetas[i]),
            attention=keypoints[kp_i].attention,
            descriptor=descriptors[i],
        )
        for i, kp_i in enumerate(kept)
    ]


def match_descriptors(
    a: list[KeypointFeature], b: list[KeypointFeature]
) -> list[Correspondence]:
    """Nearest descriptor in b for every feature of a (ties to lowest index)."""
    if not a or not b:
        return []
    fa = np.stack([f.descriptor for f in a])
    fb = np.stack([f.descriptor for f in b])
    out = []
    chunk = max(1, 2**22 // (len(fb) * fb.shape[1]))  # bound the diff tensor
    for lo in range(0, len(fa), chunk):
        diff = fa[lo : lo + chunk, None, :] - fb[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        nearest = dist.argmin(axis=1)
        for row, j in enumerate(nearest):
            i = lo + row
            out.append(
                Correspondence(
                    p=np.array(a[i].position, copy=True),
                    q=np.array(b[j].position, copy=True),
                    descriptor_distance=float(dist[row, j]),
                )
            )
    return out


def estimate_rigid_svd(correspondences: list[Correspondence]) -> RigidTransform:
    """Least-squares rigid fit (Kabsch) of p onto q.

    Needs >= 3 correspondences whose source points are not collinear. The
    reflection case is corrected by flipping the smallest singular direction,
    so the result is always a proper rotation.
    """
    if len(correspondences) < 3:
        raise InvalidInputError(f"need >= 3 correspondences, got {len(correspondences)}")
    p = np.stack([c.p for c in correspondences])
    q = np.stack([c.q for c in correspondences])
    cp = p.mean(axis=0)
    cq = q.mean(axis=0)
    pc = p - cp
    qc = q - cq
    sv = np.linalg.svd(pc, compute_uv=False)
    if sv[1] <= 1e-9 * max(sv[0], 1.0):
        raise DegenerateGeometryError("source points are (nearly) collinear")
    h = pc.T @ qc
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    if d < 0:
        vt = vt.copy()
        vt[2, :] *= -1.0
    rot = vt.T @ u.T
    return RigidTransform(rot, cq - rot @ cp)


def ransac_iteration_bound(inlier_ratio: float, confidence: float, sample_size: int = 3) -> int:
    """ceil(log(1 - confidence) / log(1 - w^k)): trials to hit one clean sample."""
    if not (0 < confidence < 1):
        raise InvalidInputError("confidence must be in (0, 1)")
    w = min(max(inlier_ratio, 0.0), 1.0)
    p_clean = w**sample_size
    if p_clean <= 0.0:
        return np.iinfo(np.int64).max
    if p_clean >= 1.0:
        return 0
    return int(math.ceil(math.log(1.0 - confidence) / math.log(1.0 - p_clean)))


def ransac_register(
    correspondences: list[Correspondence],
    inlier_thresh: float = 1.0,
    confidence: float = 0.99,
    max_iter: int = 10000,
    rng: np.random.Generator | None = None,
) -> RegistrationResult:
    """Robust rigid fit from noisy correspondences.

    Samples 3-point minimal sets, keeps the largest consensus (first winner on
    ties), adapts the trial bound to the best inlier ratio, and refits on the
    winning inlier set. success means at least 3 inliers supported the fit.
    Degenerate samples count as iterations. Deterministic for a given rng.
    """
    if len(correspondences) < 3:
        return RegistrationResult(RigidTransform.identity(), 0, 0, False)
    if not (inlier_thresh > 0) or max_iter < 1:
        raise InvalidInputError("inlier_thresh must be positive and max_iter >= 1")
    rng = rng if rng is not None else np.random.default_rng(0)
    p = np.stack([c.p for c in correspondences])
    q = np.stack([c.q for c in correspondences])
    n = len(correspondences)
    best_count = 0
    best_mask: np.ndarray | None = None
    best_transform = RigidTransform.identity()
    bound = max_iter
    it = 0
    while it < bound:
        it += 1
        pick = rng.choice(n, size=3, replace=False)
        try:
            t = estimate_rigid_svd([correspondences[i] for i in pick])
        except DegenerateGeometryError:
            continue
        err = np.linalg.norm(p @ t.rotation.T + t.translation - q, axis=1)
        mask = err <= inlier_thresh
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
            best_transform = t
            bound = min(max_iter, ransac_iteration_bound(count / n, confidence))
    if best_count >= 3 and best_mask is not None:
        inliers = [c for c, m in zip(correspondences, best_mask) if m]
        try:
            best_transform = estimate_rigid_svd(inliers)
        except DegenerateGeometryError:
            pass  # keep the minimal-sample hypothesis
    return RegistrationResult(
        transform=best_transform,
        inlier_count=best_count,
        iterations=it,
        success=best_count >= 3,
    )


def rte_rre(estimated: RigidTransform, ground_truth: RigidTransform) -> tuple[float, float]:
    """Translation error (m) and rotation error (degrees) of an estimate.

    Computed from the residual ground_truth^-1 . estimated. The angle is
    atan2(sin, cos) with sin taken from the skew part and cos from the trace;
    unlike a bare arccos of the trace this resolves sub-microdegree residuals,
    and rte_rre(t, t) is exactly (0, 0).
    """
    delta = compose(ground_truth.inverse(), estimated)
    rte = float(np.linalg.norm(delta.translation))
    cos_angle = (np.trace(delta.rotation) - 1.0) / 2.0
    sin_angle = np.linalg.norm(delta.rotation - delta.rotation.T) / (2.0 * np.sqrt(2.0))
    rre = float(np.degrees(np.arctan2(sin_angle, cos_angle)))
    return rte, rre


def match_clouds(
    cloud_a: PointCloud, cloud_b: PointCloud, w: ModelWeights, cfg: InferenceConfig
) -> list[Correspondence]:
    """Keypoints and descriptors of both clouds, then nearest-descriptor matches a->b."""
    feats_a = compute_descriptors(cloud_a, detect_keypoints(cloud_a, w, cfg), w, cfg)
    feats_b = compute_descriptors(cloud_b, detect_keypoints(cloud_b, w, cfg), w, cfg)
    return match_descriptors(feats_a, feats_b)


def register_clouds(
    cloud_a: PointCloud,
    cloud_b: PointCloud,
    w: ModelWeights,
    cfg: InferenceConfig = InferenceConfig(),
    inlier_thresh: float = 1.0,
    confidence: float = 0.99,
    max_iter: int = 10000,
    rng: np.random.Generator | None = None,
) -> tuple[RegistrationResult, int]:
    """Full pipeline a->b: keypoints, descriptors, matches, RANSAC.

    Returns the registration result plus the correspondence count.
    """
    corr = match_clouds(cloud_a, cloud_b, w, cfg)
    result = ransac_register(corr, inlier_thresh=inlier_thresh, confidence=confidence, max_iter=max_iter, rng=rng)
    return result, len(corr)
