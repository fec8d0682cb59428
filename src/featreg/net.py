"""Detector and descriptor networks over sampled point clusters.

The detector maps a cluster to an in-plane orientation and a positive
attention score; the descriptor maps the cluster, rotated to its canonical
orientation, to a unit feature vector. Both are order-invariant point MLPs
with max pooling. Two forward paths exist, both over clusters stacked as
contiguous row segments: the autodiff graph, which training differentiates
and which the single-cluster reference calls (detect, describe) run, and a
numpy path for inference, which must agree with it to float precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import autodiff as ad
from .autodiff import Tensor
from .errors import InvalidInputError
from .geom import PointCloud

DEFAULT_CLUSTER_CAP = 64
DEFAULT_R_CLUSTER = 2.0


@dataclass(frozen=True)
class NetConfig:
    """Layer sizes. Defaults give the full-size architecture; the tuple fields
    may be shrunk for desk-scale experiments and gradient checking."""

    point_mlp: tuple[int, ...] = (64, 128, 256)
    post_mlp: tuple[int, ...] = (128, 64)
    context_dim: int = 128
    descriptor_dim: int = 32

    def __post_init__(self):
        if not self.point_mlp or not self.post_mlp:
            raise InvalidInputError("point_mlp and post_mlp must be non-empty")
        if min(self.point_mlp) < 1 or min(self.post_mlp) < 1:
            raise InvalidInputError("layer widths must be positive")
        if self.context_dim < 1 or self.descriptor_dim < 1:
            raise InvalidInputError("context_dim and descriptor_dim must be positive")


@dataclass(frozen=True)
class Cluster:
    """A cluster center plus its neighborhood in center-relative coordinates."""

    center: np.ndarray
    local_points: np.ndarray
    valid_count: int

    def __post_init__(self):
        center = np.asarray(self.center, dtype=np.float64).reshape(3)
        pts = np.asarray(self.local_points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 1:
            raise InvalidInputError("cluster needs at least one local point of shape (n, 3)")
        if self.valid_count != len(pts):
            raise InvalidInputError("valid_count must equal the stored point count")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "local_points", pts)


@dataclass(frozen=True)
class KeypointFeature:
    """Inference output for one cluster: position, orientation, attention, descriptor."""

    position: np.ndarray
    theta: float
    attention: float
    descriptor: np.ndarray

    def __post_init__(self):
        if not self.attention > 0:
            raise InvalidInputError(f"attention must be positive, got {self.attention!r}")
        desc = np.asarray(self.descriptor, dtype=np.float64)
        n = np.linalg.norm(desc)
        if abs(n - 1.0) > 1e-6:
            raise InvalidInputError(f"descriptor norm {n!r} is not 1 within 1e-6")


# ---------------------------------------------------------------------------
# sampling and grouping
# ---------------------------------------------------------------------------


def _rng_of(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def farthest_point_sample(cloud: PointCloud, k: int, seed) -> np.ndarray:
    """Iterative farthest point sampling; returns k point indices.

    The first pick is uniform under the seed (an int or a Generator); each
    following pick maximizes distance to the chosen set, ties resolving to the
    lowest index. k > N degrades to all N points in sampling order.
    """
    n = len(cloud)
    if n == 0:
        raise InvalidInputError("cannot sample from an empty cloud")
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    k = min(k, n)
    rng = _rng_of(seed)
    pts = cloud.points
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = int(rng.integers(n))
    delta = pts - pts[chosen[0]]
    d2 = np.einsum("ij,ij->i", delta, delta)
    for i in range(1, k):
        nxt = int(np.argmax(d2))
        chosen[i] = nxt
        delta = pts - pts[nxt]
        np.minimum(d2, np.einsum("ij,ij->i", delta, delta), out=d2)
    return chosen


def cluster_at(
    cloud: PointCloud,
    center,
    r_cluster: float = DEFAULT_R_CLUSTER,
    cap: int = DEFAULT_CLUSTER_CAP,
    rng: np.random.Generator | None = None,
    tree: cKDTree | None = None,
    keep_index: int | None = None,
    neighbor_idx=None,
) -> Cluster:
    """Cluster of cloud points within r_cluster of an arbitrary center position.

    Coordinates come out center-relative. Neighborhoods over cap are uniformly
    subsampled (keep_index, when given, is always retained); an empty
    neighborhood degrades to the singleton cluster of the center itself.
    neighbor_idx short-circuits the radius query with precomputed indices.
    """
    if not (r_cluster > 0) or cap < 1:
        raise InvalidInputError("r_cluster must be positive and cap >= 1")
    center = np.asarray(center, dtype=np.float64).reshape(3)
    if neighbor_idx is None:
        if tree is None:
            tree = cKDTree(cloud.points)
        neighbor_idx = tree.query_ball_point(center, r_cluster)
    idx = np.sort(np.asarray(neighbor_idx, dtype=np.int64))
    if len(idx) == 0:
        return Cluster(center=center, local_points=np.zeros((1, 3)), valid_count=1)
    if len(idx) > cap:
        if rng is None:
            rng = np.random.default_rng(0)
        if keep_index is not None and keep_index in idx:
            others = idx[idx != keep_index]
            kept = rng.choice(others, size=cap - 1, replace=False)
            idx = np.sort(np.concatenate([[keep_index], kept]))
        else:
            idx = np.sort(rng.choice(idx, size=cap, replace=False))
    local = cloud.points[idx] - center
    return Cluster(center=center, local_points=local, valid_count=len(idx))


def ball_group(
    cloud: PointCloud,
    centers: np.ndarray,
    r_cluster: float = DEFAULT_R_CLUSTER,
    cap: int = DEFAULT_CLUSTER_CAP,
    rng: np.random.Generator | None = None,
    tree: cKDTree | None = None,
) -> list[Cluster]:
    """Group the cloud around the given center indices.

    Membership is ||p - center|| <= r_cluster. The center's own point is always
    retained when capping. rng drives the over-cap subsample only; None means
    a fixed default stream.
    """
    centers = np.asarray(centers, dtype=np.int64)
    if centers.ndim != 1:
        raise InvalidInputError("centers must be a 1-D index array")
    if len(cloud) == 0:
        raise InvalidInputError("cannot group an empty cloud")
    if np.any(centers < 0) or np.any(centers >= len(cloud)):
        raise InvalidInputError("center index out of range")
    if rng is None:
        rng = np.random.default_rng(0)
    if tree is None:
        tree = cKDTree(cloud.points)
    return [
        cluster_at(
            cloud,
            cloud.points[ci],
            r_cluster=r_cluster,
            cap=cap,
            rng=rng,
            tree=tree,
            keep_index=int(ci),
        )
        for ci in centers
    ]


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, gain: float = 1.0) -> np.ndarray:
    bound = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class ModelWeights:
    """Named learnable tensors for the detector and descriptor networks.

    Layer naming: det.point{i}, det.post{i}, det.orient, det.attn,
    desc.point{i}, desc.context, desc.out; each with .W and .b entries.
    """

    def __init__(self, tensors: dict[str, Tensor], config: NetConfig):
        self.tensors = tensors
        self.config = config

    @classmethod
    def initialize(cls, config: NetConfig = NetConfig(), seed=0) -> "ModelWeights":
        """Uniform +-gain*sqrt(6 / (fan_in + fan_out)) weights, zero biases.

        Hidden layers get gain 2: the shifted softplus has slope 1/2 at zero,
        so doubling the fan-balanced bound keeps activation variance roughly
        constant through the stack instead of halving per layer. Output heads
        are plain linear maps and keep gain 1.
        """
        rng = _rng_of(seed)
        tensors: dict[str, Tensor] = {}

        def layer(name: str, fan_in: int, fan_out: int, gain: float = 2.0) -> None:
            tensors[f"{name}.W"] = Tensor(_glorot(rng, fan_in, fan_out, gain), requires_grad=True, name=f"{name}.W")
            tensors[f"{name}.b"] = Tensor(np.zeros(fan_out), requires_grad=True, name=f"{name}.b")

        width = 3
        for i, w in enumerate(config.point_mlp):
            layer(f"det.point{i}", width, w)
            width = w
        for i, w in enumerate(config.post_mlp):
            layer(f"det.post{i}", width, w)
            width = w
        layer("det.orient", width, 2, gain=1.0)
        layer("det.attn", width, 1, gain=1.0)
        width = 3
        for i, w in enumerate(config.point_mlp):
            layer(f"desc.point{i}", width, w)
            width = w
        layer("desc.context", 2 * width, config.context_dim)
        layer("desc.out", config.context_dim, config.descriptor_dim, gain=1.0)
        return cls(tensors, config)

    def parameters(self) -> dict[str, Tensor]:
        return self.tensors

    def detector_parameters(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.tensors.items() if k.startswith("det.")}

    def descriptor_parameters(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.tensors.items() if k.startswith("desc.")}

    def copy(self) -> "ModelWeights":
        return ModelWeights(
            {k: Tensor(np.array(v.data, copy=True), requires_grad=True, name=k) for k, v in self.tensors.items()},
            self.config,
        )

    def save(self, path) -> None:
        ad.save_tensors(path, {k: v.data for k, v in self.tensors.items()})

    @classmethod
    def load(cls, path) -> "ModelWeights":
        arrays = ad.load_tensors(path)
        point_widths = []
        i = 0
        while f"det.point{i}.W" in arrays:
            point_widths.append(arrays[f"det.point{i}.W"].shape[1])
            i += 1
        post_widths = []
        i = 0
        while f"det.post{i}.W" in arrays:
            post_widths.append(arrays[f"det.post{i}.W"].shape[1])
            i += 1
        try:
            config = NetConfig(
                point_mlp=tuple(point_widths),
                post_mlp=tuple(post_widths),
                context_dim=arrays["desc.context.W"].shape[1],
                descriptor_dim=arrays["desc.out.W"].shape[1],
            )
        except KeyError as exc:
            raise InvalidInputError(f"checkpoint is missing tensor {exc}") from exc
        tensors = {k: Tensor(v, requires_grad=True, name=k) for k, v in arrays.items()}
        return cls(tensors, config)

    def _pair(self, name: str) -> tuple[Tensor, Tensor]:
        return self.tensors[f"{name}.W"], self.tensors[f"{name}.b"]


# ---------------------------------------------------------------------------
# graph forward paths (reference semantics; used by training)
# ---------------------------------------------------------------------------


def _mlp_graph(x: Tensor, w: ModelWeights, prefix: str, n_layers: int) -> Tensor:
    # shifted softplus hidden units: smooth everywhere (finite-difference
    # checking of the composed network requires that) and zero-centered, so
    # the log-2 offset of a plain softplus cannot drown the geometric signal
    h = x
    for i in range(n_layers):
        h = ad.shifted_softplus(ad.linear(h, *w._pair(f"{prefix}{i}")))
    return h


def detector_graph(pts: Tensor, w: ModelWeights, offsets: np.ndarray) -> tuple[Tensor, Tensor]:
    """Orientation (as a unit (sin, cos) row per cluster) and raw attention.

    pts stacks S cluster segments delimited by offsets (S+1 entries). Returns
    (orient, attention) of shapes ((S, 2), (S,)).
    """
    h = _mlp_graph(pts, w, "det.point", len(w.config.point_mlp))
    g = _mlp_graph(ad.segment_max_pool(h, offsets), w, "det.post", len(w.config.post_mlp))
    orient = ad.l2_normalize(ad.linear(g, *w._pair("det.orient")))
    attn_raw = ad.softplus(ad.linear(g, *w._pair("det.attn")))
    return orient, ad.take_col(attn_raw, 0)


def descriptor_graph(
    pts: Tensor,
    w: ModelWeights,
    orient: Tensor | None,
    offsets: np.ndarray,
) -> Tensor:
    """Unit descriptor per cluster; orient None skips canonicalization (theta = 0)."""
    if orient is not None:
        pts = ad.rotate_xy_segments(pts, orient, offsets)
    h = _mlp_graph(pts, w, "desc.point", len(w.config.point_mlp))
    pooled = ad.segment_max_pool(h, offsets)
    context = ad.concat(h, ad.expand_segments(pooled, offsets), axis=1)
    ctx = ad.shifted_softplus(ad.linear(context, *w._pair("desc.context")))
    per_cluster = ad.segment_max_pool(ctx, offsets)
    out = ad.linear(per_cluster, *w._pair("desc.out"))
    return ad.l2_normalize(out)


def detect(cluster: Cluster, w: ModelWeights) -> tuple[float, float]:
    """Predicted orientation theta (radians, atan2 of the sin/cos pair) and attention."""
    pts, offsets = _stack_clusters([cluster])
    orient, attn = detector_graph(Tensor(pts), w, offsets)
    s, c = orient.data[0]
    return float(np.arctan2(s, c)), float(attn.data[0])


def describe(cluster: Cluster, theta: float, w: ModelWeights) -> np.ndarray:
    """Unit descriptor of a cluster canonicalized by rotating -theta about z."""
    pts, offsets = _stack_clusters([cluster])
    sc = Tensor(np.array([[np.sin(theta), np.cos(theta)]]))
    out = descriptor_graph(Tensor(pts), w, sc, offsets)
    return np.array(out.data[0], copy=True)


def _stack_clusters(clusters: list[Cluster]) -> tuple[np.ndarray, np.ndarray]:
    lengths = np.array([c.valid_count for c in clusters], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    pts = np.concatenate([c.local_points for c in clusters], axis=0)
    return pts, offsets


def branch_graph(
    cloud: PointCloud,
    w: ModelWeights,
    k: int,
    r_cluster: float = DEFAULT_R_CLUSTER,
    seed=0,
    cap: int = DEFAULT_CLUSTER_CAP,
    use_detector: bool = True,
) -> tuple[Tensor, Tensor | None]:
    """Differentiable branch forward over stacked cluster segments.

    Returns (descriptors (K, d), attentions (K,) or None). With use_detector
    False the clusters are described unrotated and attention stays None
    (descriptor pretraining); otherwise orientation and attention both feed
    the descriptor/loss graph.
    """
    rng = _rng_of(seed)
    idx = farthest_point_sample(cloud, k, rng)
    clusters = ball_group(cloud, idx, r_cluster=r_cluster, cap=cap, rng=rng)
    pts_np, offsets = _stack_clusters(clusters)
    pts = Tensor(pts_np)
    if use_detector:
        orient, attn = detector_graph(pts, w, offsets)
        desc = descriptor_graph(pts, w, orient, offsets)
        return desc, attn
    desc = descriptor_graph(pts, w, None, offsets)
    return desc, None


# ---------------------------------------------------------------------------
# batched numpy inference path
# ---------------------------------------------------------------------------


def _np_mlp(x: np.ndarray, w: ModelWeights, prefix: str, n_layers: int) -> np.ndarray:
    h = x
    for i in range(n_layers):
        wt, bt = w._pair(f"{prefix}{i}")
        h = np.logaddexp(0.0, h @ wt.data + bt.data) - ad.LOG2
    return h


def _np_segment_max(x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    return np.maximum.reduceat(x, offsets[:-1], axis=0)


def _np_unit_rows(x: np.ndarray) -> np.ndarray:
    # the same norm floor as ad.l2_normalize
    return x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), ad.NORM_EPSILON)


def detect_many(clusters: list[Cluster], w: ModelWeights) -> tuple[np.ndarray, np.ndarray]:
    """Batched detector: thetas (radians) and attentions for a cluster list."""
    if not clusters:
        return np.zeros(0), np.zeros(0)
    pts, offsets = _stack_clusters(clusters)
    h = _np_mlp(pts, w, "det.point", len(w.config.point_mlp))
    g = _np_mlp(_np_segment_max(h, offsets), w, "det.post", len(w.config.post_mlp))
    wo, bo = w._pair("det.orient")
    orient = _np_unit_rows(g @ wo.data + bo.data)
    wa, ba = w._pair("det.attn")
    attn = np.logaddexp(0.0, (g @ wa.data + ba.data)[:, 0])
    return np.arctan2(orient[:, 0], orient[:, 1]), attn


def describe_many(clusters: list[Cluster], thetas: np.ndarray, w: ModelWeights) -> np.ndarray:
    """Batched descriptor path; row i is the unit descriptor of clusters[i]."""
    if not clusters:
        return np.zeros((0, w.config.descriptor_dim))
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.shape != (len(clusters),):
        raise InvalidInputError("need one theta per cluster")
    pts, offsets = _stack_clusters(clusters)
    lengths = np.diff(offsets)
    rot = ad._rotate_sc(pts, np.repeat(np.sin(thetas), lengths), np.repeat(np.cos(thetas), lengths))
    h = _np_mlp(rot, w, "desc.point", len(w.config.point_mlp))
    pooled = _np_segment_max(h, offsets)
    context = np.concatenate([h, np.repeat(pooled, lengths, axis=0)], axis=1)
    wc, bc = w._pair("desc.context")
    ctx = np.logaddexp(0.0, context @ wc.data + bc.data) - ad.LOG2
    per_cluster = _np_segment_max(ctx, offsets)
    wo, bo = w._pair("desc.out")
    return _np_unit_rows(per_cluster @ wo.data + bo.data)
