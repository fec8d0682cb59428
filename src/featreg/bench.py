"""Dataset generation, cloud/manifest file formats, and evaluation protocols.

Synthetic worlds are surface-sampled primitives on a ground plane; scans are
ball crops along a waypoint path, independently jittered and thinned so no
two scans share exact points, with the relative pose between paired scans
recorded exactly. Evaluations measure descriptor separability, keypoint
precision, and end-to-end registration quality.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

from . import geom
from .errors import FormatError, InvalidInputError
from .geom import PointCloud, RigidTransform
from .net import ModelWeights, cluster_at, describe_many, detect_many
from .register import InferenceConfig, match_clouds, register_clouds, rte_rre
from .train import PoseTaggedCloud

log = logging.getLogger(__name__)

CLOUD_FORMATS = ("xyz-bin", "xyzi-bin", "ascii-ply")


# ---------------------------------------------------------------------------
# cloud file formats
# ---------------------------------------------------------------------------


def save_cloud(cloud: PointCloud, path, format: str = "xyz-bin") -> None:
    """Write a cloud as xyz-bin, xyzi-bin, or ascii-ply.

    Binary formats are little-endian float32 records; xyzi-bin stores a
    fourth intensity channel (zeros when the cloud has none). ascii-ply keeps
    full float64 precision via repr.
    """
    if format == "xyz-bin":
        np.asarray(cloud.points, dtype="<f4").tofile(path)
    elif format == "xyzi-bin":
        rec = np.zeros((len(cloud), 4), dtype="<f4")
        rec[:, :3] = cloud.points
        if cloud.intensity is not None:
            rec[:, 3] = cloud.intensity
        rec.tofile(path)
    elif format == "ascii-ply":
        props = ["x", "y", "z"] + (["intensity"] if cloud.intensity is not None else [])
        with open(path, "w") as fh:
            fh.write("ply\nformat ascii 1.0\n")
            fh.write(f"element vertex {len(cloud)}\n")
            for name in props:
                fh.write(f"property float {name}\n")
            fh.write("end_header\n")
            for i in range(len(cloud)):
                row = [repr(float(v)) for v in cloud.points[i]]
                if cloud.intensity is not None:
                    row.append(repr(float(cloud.intensity[i])))
                fh.write(" ".join(row) + "\n")
    else:
        raise InvalidInputError(f"unknown cloud format {format!r}")


def _load_binary(path, columns: int, fmt: str) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    stride = 4 * columns
    if len(blob) % stride != 0:
        raise FormatError(
            f"{fmt} file length {len(blob)} is not a multiple of {stride}",
            offset=len(blob) - (len(blob) % stride),
        )
    return np.frombuffer(blob, dtype="<f4").astype(np.float64).reshape(-1, columns)


def _load_ascii_ply(path) -> PointCloud:
    with open(path, "rb") as fh:
        blob = fh.read()
    lines = blob.split(b"\n")
    offset = 0
    state = "magic"
    n_vertex = None
    props: list[str] = []
    data_start = None
    for lineno, raw in enumerate(lines):
        text = raw.decode("ascii", errors="replace").strip()
        if state == "magic":
            if text != "ply":
                raise FormatError("not an ascii PLY file (missing 'ply' magic)", offset=offset)
            state = "format"
        elif state == "format":
            if text != "format ascii 1.0":
                raise FormatError(f"unsupported PLY format line {text!r}", offset=offset)
            state = "header"
        elif state == "header":
            if text.startswith("element vertex "):
                try:
                    n_vertex = int(text.rsplit(" ", 1)[1])
                except ValueError:
                    raise FormatError(f"bad vertex count in {text!r}", offset=offset)
            elif text.startswith("element "):
                raise FormatError(f"unsupported element {text!r}", offset=offset)
            elif text.startswith("property "):
                parts = text.split()
                if len(parts) != 3 or parts[1] not in ("float", "double", "float32", "float64"):
                    raise FormatError(f"unsupported property {text!r}", offset=offset)
                props.append(parts[2])
            elif text == "end_header":
                data_start = lineno + 1
                offset += len(raw) + 1
                break
            elif text.startswith("comment"):
                pass
            else:
                raise FormatError(f"unexpected header line {text!r}", offset=offset)
        offset += len(raw) + 1
    if data_start is None or n_vertex is None:
        raise FormatError("PLY header ended before end_header/element vertex", offset=offset)
    for name in ("x", "y", "z"):
        if name not in props:
            raise FormatError(f"PLY header lacks property {name!r}", offset=offset)
    rows = np.empty((n_vertex, len(props)))
    for i in range(n_vertex):
        if data_start + i >= len(lines):
            raise FormatError(f"PLY data truncated at vertex {i} of {n_vertex}", offset=offset)
        raw = lines[data_start + i]
        parts = raw.split()
        if len(parts) != len(props):
            raise FormatError(
                f"PLY vertex {i} has {len(parts)} values, expected {len(props)}", offset=offset
            )
        try:
            rows[i] = [float(p) for p in parts]
        except ValueError:
            raise FormatError(f"PLY vertex {i} has a non-numeric value", offset=offset)
        offset += len(raw) + 1
    cols = {name: rows[:, k] for k, name in enumerate(props)}
    pts = np.stack([cols["x"], cols["y"], cols["z"]], axis=1)
    inten = cols.get("intensity")
    return PointCloud(pts, inten)


def load_cloud(path, format: str = "xyz-bin") -> PointCloud:
    """Read a cloud file; malformed or truncated input raises FormatError."""
    if format == "xyz-bin":
        return PointCloud(_load_binary(path, 3, format))
    if format == "xyzi-bin":
        rec = _load_binary(path, 4, format)
        return PointCloud(rec[:, :3], rec[:, 3])
    if format == "ascii-ply":
        return _load_ascii_ply(path)
    raise InvalidInputError(f"unknown cloud format {format!r}")


# ---------------------------------------------------------------------------
# synthetic worlds
# ---------------------------------------------------------------------------


def _sample_rect(rng, origin, u_vec, v_vec, density) -> np.ndarray:
    """Uniform surface samples of the parallelogram origin + a*u + b*v."""
    area = np.linalg.norm(np.cross(u_vec, v_vec))
    n = max(1, int(round(area * density)))
    a = rng.uniform(0.0, 1.0, size=(n, 1))
    b = rng.uniform(0.0, 1.0, size=(n, 1))
    return origin + a * u_vec + b * v_vec


def _sample_box(rng, center_xy, yaw, width, depth, height, density) -> np.ndarray:
    ux = np.array([np.cos(yaw), np.sin(yaw), 0.0])
    uy = np.array([-np.sin(yaw), np.cos(yaw), 0.0])
    uz = np.array([0.0, 0.0, 1.0])
    base = np.array([center_xy[0], center_xy[1], 0.0])
    c0 = base - 0.5 * width * ux - 0.5 * depth * uy
    faces = [
        (c0, width * ux, height * uz),
        (c0 + depth * uy, width * ux, height * uz),
        (c0, depth * uy, height * uz),
        (c0 + width * ux, depth * uy, height * uz),
        (c0 + height * uz, width * ux, depth * uy),
    ]
    return np.concatenate([_sample_rect(rng, o, u, v, density) for o, u, v in faces])


def _sample_cylinder(rng, center_xy, radius, height, density) -> np.ndarray:
    lateral_area = 2.0 * np.pi * radius * height
    n = max(1, int(round(lateral_area * density)))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=n)
    z = rng.uniform(0.0, height, size=n)
    side = np.stack(
        [center_xy[0] + radius * np.cos(ang), center_xy[1] + radius * np.sin(ang), z], axis=1
    )
    n_cap = max(1, int(round(np.pi * radius * radius * density)))
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, size=n_cap))
    ang2 = rng.uniform(0.0, 2.0 * np.pi, size=n_cap)
    cap = np.stack(
        [center_xy[0] + r * np.cos(ang2), center_xy[1] + r * np.sin(ang2), np.full(n_cap, height)],
        axis=1,
    )
    return np.concatenate([side, cap])


def _sample_lwall(rng, center_xy, yaw, len_a, len_b, height, density) -> np.ndarray:
    ux = np.array([np.cos(yaw), np.sin(yaw), 0.0])
    uy = np.array([-np.sin(yaw), np.cos(yaw), 0.0])
    uz = np.array([0.0, 0.0, 1.0])
    corner = np.array([center_xy[0], center_xy[1], 0.0])
    wall_a = _sample_rect(rng, corner, len_a * ux, height * uz, density)
    wall_b = _sample_rect(rng, corner, len_b * uy, height * uz, density)
    return np.concatenate([wall_a, wall_b])


def generate_synthetic_scene(
    seed: int,
    extent: float = 100.0,
    n_structures: int = 40,
    ground_density: float = 50.0,
    structure_density: float = 50.0,
) -> PointCloud:
    """Deterministic synthetic world: a ground plane plus randomly placed,
    randomly rotated boxes, cylinders, and L-shaped walls with distinct
    footprints, surface-sampled at roughly the requested points per m^2."""
    if not (extent > 0) or n_structures < 0:
        raise InvalidInputError("extent must be positive and n_structures >= 0")
    rng = np.random.default_rng(seed)
    n_ground = max(1, int(round(extent * extent * ground_density)))
    parts = [
        np.stack(
            [
                rng.uniform(0.0, extent, size=n_ground),
                rng.uniform(0.0, extent, size=n_ground),
                np.zeros(n_ground),
            ],
            axis=1,
        )
    ]
    margin = 2.0
    for _ in range(n_structures):
        kind = int(rng.integers(3))
        cx = rng.uniform(margin, extent - margin)
        cy = rng.uniform(margin, extent - margin)
        yaw = rng.uniform(0.0, 2.0 * np.pi)
        if kind == 0:
            dims = rng.uniform([1.5, 1.5, 2.0], [6.0, 6.0, 6.0])
            parts.append(_sample_box(rng, (cx, cy), yaw, *dims, structure_density))
        elif kind == 1:
            radius = rng.uniform(0.4, 1.5)
            height = rng.uniform(2.0, 8.0)
            parts.append(_sample_cylinder(rng, (cx, cy), radius, height, structure_density))
        else:
            len_a = rng.uniform(3.0, 8.0)
            len_b = rng.uniform(3.0, 8.0)
            height = rng.uniform(2.0, 5.0)
            parts.append(_sample_lwall(rng, (cx, cy), yaw, len_a, len_b, height, structure_density))
    return PointCloud(np.concatenate(parts), id=f"world-{seed}")


# ---------------------------------------------------------------------------
# scan pairs and manifests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ManifestEntry:
    id: str
    path: str
    pose: RigidTransform


@dataclass(frozen=True)
class ManifestPair:
    index_a: int
    index_b: int
    transform: RigidTransform  # maps scan a local coords into scan b local coords


@dataclass
class DatasetManifest:
    entries: list = field(default_factory=list)
    pairs: list = field(default_factory=list)

    def __post_init__(self):
        for pair in self.pairs:
            if not (0 <= pair.index_a < len(self.entries) and 0 <= pair.index_b < len(self.entries)):
                raise InvalidInputError("manifest pair index out of range")


def make_scan_pairs(
    world: PointCloud,
    n_pairs: int,
    max_offset: float,
    rng: np.random.Generator,
    scan_radius: float = 15.0,
    jitter_sigma: float = 0.03,
    keep_fraction: float = 0.95,
    target_points: int | None = None,
    random_yaw: bool = True,
) -> tuple[list[PoseTaggedCloud], DatasetManifest]:
    """Crop paired ball scans at waypoints of a random path through the world.

    Each pair is two crops whose centers differ by at most max_offset; each
    scan is independently jittered (jitter_sigma is the RMS 3D displacement
    per point), thinned to keep_fraction (then to target_points, when given),
    optionally given a random yaw, and re-expressed in its own local frame.
    The exact relative transform a->b is recorded in the manifest.
    """
    if n_pairs < 0 or max_offset < 0 or not (scan_radius > 0):
        raise InvalidInputError("need n_pairs >= 0, max_offset >= 0, scan_radius > 0")
    if not (0 < keep_fraction <= 1):
        raise InvalidInputError("keep_fraction must be in (0, 1]")
    if len(world) == 0 and n_pairs > 0:
        raise InvalidInputError("cannot scan an empty world")
    sigma_coord = jitter_sigma / np.sqrt(3.0)
    clouds: list[PoseTaggedCloud] = []
    manifest = DatasetManifest()
    if n_pairs == 0:
        return clouds, manifest
    lo = world.points[:, :2].min(axis=0)
    hi = world.points[:, :2].max(axis=0)
    for pair_idx in range(n_pairs):
        cx, cy = rng.uniform(lo, hi)
        ang = rng.uniform(0.0, 2.0 * np.pi)
        mag = rng.uniform(0.0, max_offset)
        centers = [
            np.array([cx, cy, 0.0]),
            np.array([cx + mag * np.cos(ang), cy + mag * np.sin(ang), 0.0]),
        ]
        for side, center in enumerate(centers):
            crop = geom.crop_ball(world, center, scan_radius)
            if len(crop) == 0:
                raise InvalidInputError(
                    f"scan at {center[:2]} captured no points; check extents"
                )
            pts = crop.points + rng.normal(0.0, sigma_coord, size=crop.points.shape)
            n_keep = max(1, int(round(keep_fraction * len(pts))))
            if n_keep < len(pts):
                keep = np.sort(rng.choice(len(pts), size=n_keep, replace=False))
                pts = pts[keep]
            yaw = rng.uniform(0.0, 2.0 * np.pi) if random_yaw else 0.0
            local = geom.rotate_z(pts - center, -yaw)
            scan_id = f"scan-{2 * pair_idx + side:04d}"
            cloud = PointCloud(local, id=scan_id)
            if target_points is not None:
                cloud = geom.random_point_dropout(cloud, target_points, rng)
            pose = RigidTransform(geom.rotation_about_z(yaw), center)
            clouds.append(PoseTaggedCloud(cloud=cloud, pose=pose, traversal_id=f"pair-{pair_idx}"))
            manifest.entries.append(ManifestEntry(id=scan_id, path="", pose=pose))
        ia, ib = 2 * pair_idx, 2 * pair_idx + 1
        rel = geom.compose(clouds[ib].pose.inverse(), clouds[ia].pose)
        manifest.pairs.append(ManifestPair(index_a=ia, index_b=ib, transform=rel))
    return clouds, manifest


def _quat_of(rotation: np.ndarray) -> np.ndarray:
    x, y, z, w = Rotation.from_matrix(rotation).as_quat()
    quat = np.array([w, x, y, z])
    for v in quat:  # canonical sign: first nonzero component positive
        if v > 0:
            break
        if v < 0:
            quat = -quat
            break
    return quat


def _rotation_of(quat_wxyz) -> np.ndarray:
    w, x, y, z = quat_wxyz
    rot = Rotation.from_quat([x, y, z, w]).as_matrix()
    u, _, vt = np.linalg.svd(rot)  # snap to exact orthonormality
    out = u @ vt
    if np.linalg.det(out) < 0:
        u[:, 2] *= -1.0
        out = u @ vt
    return out


def save_dataset(
    out_dir,
    clouds: list[PoseTaggedCloud],
    manifest: DatasetManifest,
    format: str = "xyz-bin",
) -> None:
    """Write cloud files plus manifest.csv and pairs.csv into a directory.

    manifest.csv rows: id,path,tx,ty,tz,qw,qx,qy,qz (path relative to the
    directory). pairs.csv rows: id_a,id_b then the 12 row-major values of the
    3x4 relative transform [R|t].
    """
    os.makedirs(out_dir, exist_ok=True)
    ext = {"xyz-bin": ".xyz", "xyzi-bin": ".xyzi", "ascii-ply": ".ply"}.get(format)
    if ext is None:
        raise InvalidInputError(f"unknown cloud format {format!r}")
    with open(os.path.join(out_dir, "manifest.csv"), "w") as fh:
        fh.write("id,path,tx,ty,tz,qw,qx,qy,qz\n")
        for ptc, entry in zip(clouds, manifest.entries):
            fname = f"{entry.id}{ext}"
            save_cloud(ptc.cloud, os.path.join(out_dir, fname), format)
            t = entry.pose.translation
            quat = _quat_of(entry.pose.rotation)
            vals = [repr(float(v)) for v in (*t, *quat)]
            fh.write(f"{entry.id},{fname}," + ",".join(vals) + "\n")
    with open(os.path.join(out_dir, "pairs.csv"), "w") as fh:
        fh.write("id_a,id_b," + ",".join(f"m{r}{c}" for r in range(3) for c in range(4)) + "\n")
        for pair in manifest.pairs:
            mat = np.hstack([pair.transform.rotation, pair.transform.translation[:, None]])
            vals = [repr(float(v)) for v in mat.reshape(-1)]
            fh.write(
                f"{manifest.entries[pair.index_a].id},{manifest.entries[pair.index_b].id},"
                + ",".join(vals)
                + "\n"
            )


def load_dataset(data_dir, format: str = "xyz-bin") -> tuple[list[PoseTaggedCloud], DatasetManifest]:
    """Read a dataset directory written by save_dataset.

    Every referenced cloud file must exist; unknown ids in pairs.csv and
    malformed rows raise FormatError.
    """
    manifest_path = os.path.join(data_dir, "manifest.csv")
    if not os.path.exists(manifest_path):
        raise FormatError(f"missing manifest.csv in {data_dir}")
    clouds: list[PoseTaggedCloud] = []
    manifest = DatasetManifest()
    ids: dict[str, int] = {}
    with open(manifest_path) as fh:
        lines = fh.read().splitlines()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 9:
            raise FormatError(f"manifest.csv line {lineno}: expected 9 fields, got {len(parts)}")
        scan_id, rel_path = parts[0], parts[1]
        try:
            nums = [float(v) for v in parts[2:]]
        except ValueError:
            raise FormatError(f"manifest.csv line {lineno}: non-numeric pose")
        cloud_path = os.path.join(data_dir, rel_path)
        if not os.path.exists(cloud_path):
            raise FormatError(f"manifest.csv line {lineno}: missing cloud file {rel_path!r}")
        pose = RigidTransform(_rotation_of(nums[3:]), nums[:3])
        cloud = load_cloud(cloud_path, format)
        cloud = PointCloud(cloud.points, cloud.intensity, id=scan_id)
        ids[scan_id] = len(clouds)
        clouds.append(PoseTaggedCloud(cloud=cloud, pose=pose, traversal_id=""))
        manifest.entries.append(ManifestEntry(id=scan_id, path=rel_path, pose=pose))
    pairs_path = os.path.join(data_dir, "pairs.csv")
    if os.path.exists(pairs_path):
        with open(pairs_path) as fh:
            plines = fh.read().splitlines()
        for lineno, line in enumerate(plines[1:], start=2):
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != 14:
                raise FormatError(f"pairs.csv line {lineno}: expected 14 fields, got {len(parts)}")
            if parts[0] not in ids or parts[1] not in ids:
                raise FormatError(f"pairs.csv line {lineno}: unknown scan id")
            try:
                vals = np.array([float(v) for v in parts[2:]]).reshape(3, 4)
            except ValueError:
                raise FormatError(f"pairs.csv line {lineno}: non-numeric transform")
            rot = vals[:, :3]
            u, _, vt = np.linalg.svd(rot)
            rot = u @ vt
            if np.linalg.det(rot) < 0:
                u[:, 2] *= -1.0
                rot = u @ vt
            manifest.pairs.append(
                ManifestPair(
                    index_a=ids[parts[0]],
                    index_b=ids[parts[1]],
                    transform=RigidTransform(rot, vals[:, 3]),
                )
            )
    return clouds, DatasetManifest(entries=manifest.entries, pairs=manifest.pairs)


# ---------------------------------------------------------------------------
# evaluation protocols
# ---------------------------------------------------------------------------


def fp_rate_at_recall(
    match_distances: np.ndarray, nonmatch_distances: np.ndarray, recall: float = 0.95
) -> tuple[float, float]:
    """False-positive rate of non-matches at the smallest threshold reaching
    the requested recall on matches. Returns (fp_rate, threshold)."""
    match_distances = np.sort(np.asarray(match_distances, dtype=np.float64))
    nonmatch_distances = np.asarray(nonmatch_distances, dtype=np.float64)
    if len(match_distances) == 0 or len(nonmatch_distances) == 0:
        raise InvalidInputError("need at least one match and one non-match distance")
    need = int(np.ceil(recall * len(match_distances)))
    threshold = float(match_distances[max(need, 1) - 1])
    fp = float(np.mean(nonmatch_distances <= threshold))
    return fp, threshold


def _descriptor_at(
    ptc_cloud: PointCloud,
    tree: cKDTree,
    location: np.ndarray,
    w: ModelWeights,
    r_cluster: float,
    cap: int,
    rng: np.random.Generator,
) -> np.ndarray:
    cluster = cluster_at(ptc_cloud, location, r_cluster=r_cluster, cap=cap, rng=rng, tree=tree)
    thetas, _ = detect_many([cluster], w)
    return describe_many([cluster], thetas, w)[0]


def eval_descriptor_matching(
    pairs: list[tuple[PointCloud, PointCloud, RigidTransform]],
    w: ModelWeights,
    n_pairs_total: int,
    r_cluster: float = 2.0,
    min_points: int = 10,
    nonmatch_min_distance: float = 20.0,
    cap: int = 64,
    seed: int = 0,
) -> float:
    """False-positive rate at 95% recall over sampled cluster pairs.

    Matching clusters sit at the same physical location in the two scans of a
    pair (transform maps a-frame to b-frame); non-matching clusters come from
    the two clouds at locations >= nonmatch_min_distance apart. Both need
    min_points cloud points. Equal numbers of each are drawn; failure to fill
    the quota raises.
    """
    if n_pairs_total < 2 or not pairs:
        raise InvalidInputError("need n_pairs_total >= 2 and a non-empty pair list")
    rng = np.random.default_rng(seed)
    trees = [(cKDTree(a.points), cKDTree(b.points)) for a, b, _ in pairs]
    n_match = n_pairs_total // 2
    n_nonmatch = n_pairs_total - n_match

    def count_near(tree: cKDTree, loc: np.ndarray) -> int:
        return len(tree.query_ball_point(loc, r_cluster))

    match_d = []
    attempts = 0
    budget = 200 * n_match
    while len(match_d) < n_match:
        attempts += 1
        if attempts > budget:
            raise InvalidInputError(
                f"could not sample {n_match} matching cluster pairs "
                f"(got {len(match_d)} after {attempts} tries)"
            )
        k = int(rng.integers(len(pairs)))
        cloud_a, cloud_b, t_ab = pairs[k]
        tree_a, tree_b = trees[k]
        p = cloud_a.points[int(rng.integers(len(cloud_a)))]
        q = t_ab.rotation @ p + t_ab.translation
        if count_near(tree_a, p) < min_points or count_near(tree_b, q) < min_points:
            continue
        fa = _descriptor_at(cloud_a, tree_a, p, w, r_cluster, cap, rng)
        fb = _descriptor_at(cloud_b, tree_b, q, w, r_cluster, cap, rng)
        match_d.append(float(np.linalg.norm(fa - fb)))

    nonmatch_d = []
    attempts = 0
    budget = 500 * n_nonmatch
    while len(nonmatch_d) < n_nonmatch:
        attempts += 1
        if attempts > budget:
            raise InvalidInputError(
                f"could not sample {n_nonmatch} non-matching cluster pairs at "
                f">= {nonmatch_min_distance}m separation (got {len(nonmatch_d)})"
            )
        k = int(rng.integers(len(pairs)))
        cloud_a, cloud_b, t_ab = pairs[k]
        tree_a, tree_b = trees[k]
        p = cloud_a.points[int(rng.integers(len(cloud_a)))]
        q = cloud_b.points[int(rng.integers(len(cloud_b)))]
        if np.linalg.norm((t_ab.rotation @ p + t_ab.translation) - q) < nonmatch_min_distance:
            continue
        if count_near(tree_a, p) < min_points or count_near(tree_b, q) < min_points:
            continue
        fa = _descriptor_at(cloud_a, tree_a, p, w, r_cluster, cap, rng)
        fb = _descriptor_at(cloud_b, tree_b, q, w, r_cluster, cap, rng)
        nonmatch_d.append(float(np.linalg.norm(fa - fb)))

    fp, _ = fp_rate_at_recall(np.array(match_d), np.array(nonmatch_d))
    return fp


def eval_precision_curve(
    pairs: list[tuple[PointCloud, PointCloud, RigidTransform]],
    w: ModelWeights,
    cfg: InferenceConfig,
    thresholds,
) -> list[tuple[float, float]]:
    """Fraction of keypoint matches within each distance of the true position.

    Pools every nearest-descriptor match across pairs; a match is correct at
    threshold x when ||q - T(p)|| <= x. The curve is monotone in x.
    """
    thresholds = [float(x) for x in thresholds]
    if any(x < 0 for x in thresholds):
        raise InvalidInputError("thresholds must be non-negative")

    def pair_errors(pair) -> np.ndarray:
        cloud_a, cloud_b, t_ab = pair
        corr = match_clouds(cloud_a, cloud_b, w, cfg)
        if not corr:
            return np.zeros(0)
        p = np.stack([c.p for c in corr])
        q = np.stack([c.q for c in corr])
        mapped = p @ t_ab.rotation.T + t_ab.translation
        return np.linalg.norm(mapped - q, axis=1)

    errors = np.concatenate([pair_errors(pair) for pair in pairs]) if pairs else np.zeros(0)
    if len(errors) == 0:
        return [(x, 0.0) for x in thresholds]
    return [(x, float(np.mean(errors <= x))) for x in thresholds]


@dataclass(frozen=True)
class RegistrationEvalConfig:
    inference: InferenceConfig = InferenceConfig()
    inlier_thresh: float = 1.0
    confidence: float = 0.99
    max_iter: int = 10000
    success_rte: float = 2.0
    success_rre_deg: float = 5.0
    seed: int = 0


@dataclass(frozen=True)
class RegistrationRow:
    id_a: str
    id_b: str
    rte: float
    rre_deg: float
    success: bool
    iterations: int
    inlier_count: int
    n_correspondences: int
    error: str = ""


@dataclass(frozen=True)
class EvalReport:
    rows: list
    aggregates: dict

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id_a,id_b,rte,rre_deg,success,iterations,inlier_count,n_correspondences,error\n")
            for r in self.rows:
                fh.write(
                    f"{r.id_a},{r.id_b},{r.rte!r},{r.rre_deg!r},{int(r.success)},"
                    f"{r.iterations},{r.inlier_count},{r.n_correspondences},{r.error}\n"
                )

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.aggregates, fh, sort_keys=True, indent=2)
            fh.write("\n")


def aggregate_rows(rows: list) -> dict:
    """Aggregate statistics recomputable from the per-pair rows."""
    n = len(rows)
    succ = [r for r in rows if r.success]
    rte = np.array([r.rte for r in succ])
    rre = np.array([r.rre_deg for r in succ])
    return {
        "n_pairs": n,
        "success_rate": (len(succ) / n) if n else 0.0,
        "rte_mean": float(rte.mean()) if len(succ) else float("nan"),
        "rte_std": float(rte.std()) if len(succ) else float("nan"),
        "rre_deg_mean": float(rre.mean()) if len(succ) else float("nan"),
        "rre_deg_std": float(rre.std()) if len(succ) else float("nan"),
        "mean_iterations": float(np.mean([r.iterations for r in rows])) if n else 0.0,
        "mean_inliers": float(np.mean([r.inlier_count for r in rows])) if n else 0.0,
    }


def eval_registration(
    clouds: list[PoseTaggedCloud],
    manifest: DatasetManifest,
    w: ModelWeights,
    cfg: RegistrationEvalConfig = RegistrationEvalConfig(),
) -> EvalReport:
    """Register every manifest pair and score against the recorded transforms.

    success per row means RTE < success_rte and RRE < success_rre_deg (and a
    usable RANSAC consensus). Per-pair exceptions are recorded in the row's
    error column; the sweep never aborts.
    """

    def run_pair(pair_idx: int, pair: ManifestPair) -> RegistrationRow:
        a = clouds[pair.index_a]
        b = clouds[pair.index_b]
        id_a, id_b = a.cloud.id or str(pair.index_a), b.cloud.id or str(pair.index_b)
        try:
            result, n_corr = register_clouds(
                a.cloud,
                b.cloud,
                w,
                cfg.inference,
                inlier_thresh=cfg.inlier_thresh,
                confidence=cfg.confidence,
                max_iter=cfg.max_iter,
                rng=np.random.default_rng(cfg.seed + pair_idx),
            )
            rte, rre = rte_rre(result.transform, pair.transform)
            ok = bool(result.success and rte < cfg.success_rte and rre < cfg.success_rre_deg)
            return RegistrationRow(
                id_a=id_a,
                id_b=id_b,
                rte=rte,
                rre_deg=rre,
                success=ok,
                iterations=result.iterations,
                inlier_count=result.inlier_count,
                n_correspondences=n_corr,
            )
        except Exception as exc:  # a failed pair is data, not a crash
            log.warning("pair (%s, %s) failed: %s", id_a, id_b, exc)
            return RegistrationRow(
                id_a=id_a,
                id_b=id_b,
                rte=float("nan"),
                rre_deg=float("nan"),
                success=False,
                iterations=0,
                inlier_count=0,
                n_correspondences=0,
                error=str(exc).replace(",", ";").replace("\n", " "),
            )

    rows = [run_pair(pair_idx, pair) for pair_idx, pair in enumerate(manifest.pairs)]
    return EvalReport(rows=rows, aggregates=aggregate_rows(rows))


def pairs_from_manifest(
    clouds: list[PoseTaggedCloud], manifest: DatasetManifest
) -> list[tuple[PointCloud, PointCloud, RigidTransform]]:
    """(cloud_a, cloud_b, transform_a_to_b) triples for the eval protocols."""
    return [
        (clouds[p.index_a].cloud, clouds[p.index_b].cloud, p.transform) for p in manifest.pairs
    ]
