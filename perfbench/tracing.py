"""Spans and counters recorded around calls into featreg's layers.

The benchmark traces from its own files: `Tracer.wrap_call_sites` replaces
module-level functions at the module where they are looked up (for example
`featreg.register.detect_many`, which `register.py` calls by its global name),
and puts the originals back when the block ends. Nothing inside featreg
changes. Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import csv
import os
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

import featreg.autodiff
import featreg.bench
import featreg.geom
import featreg.net
import featreg.register
import featreg.train
from featreg.errors import DegenerateGeometryError


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    request: int


def _count_load(c, args, kwargs, out):
    c["bench.load_cloud_bytes"] += os.path.getsize(args[0])


def _count_detect(c, args, kwargs, out):
    c["register.points_scored"] += len(args[0])
    c["register.keypoints_kept"] += len(out)


def _count_describe(c, args, kwargs, out):
    c["register.descriptors_dropped"] += len(args[1]) - len(out)


def _count_match(c, args, kwargs, out):
    c["register.correspondences"] += len(out)


def _count_ransac(c, args, kwargs, out):
    c["register.ransac_calls"] += 1
    c["register.ransac_iterations"] += out.iterations
    c["register.ransac_cap_hits"] += out.iterations >= kwargs.get("max_iter", 10000)
    c["register.ransac_inliers"] += out.inlier_count
    c["register.ransac_correspondences"] += len(args[0])


def _count_svd(c, args, kwargs, out):
    c["register.estimate_rigid_svd_calls"] += 1


def _count_cluster(c, args, kwargs, out):
    c["net.cluster_at_calls"] += 1
    c["net.cluster_rows"] += out.valid_count


def _count_graph_rows(c, args, kwargs, out):
    c["net.graph_rows"] += args[0].data.shape[0]


def _count_loss(c, args, kwargs, out):
    c["loss.triplets"] += 1
    c["loss.active"] += float(out.data) > 0.0


# (module, attribute, span name, counter) for every traced call site.
CALL_SITES = (
    (featreg.bench, "load_cloud", "bench.load_cloud", _count_load),
    (featreg.register, "detect_keypoints", "register.detect_keypoints", _count_detect),
    (featreg.register, "select_keypoints", "register.select_keypoints", None),
    (featreg.register, "compute_descriptors", "register.compute_descriptors", _count_describe),
    (featreg.register, "match_descriptors", "register.match_descriptors", _count_match),
    (featreg.register, "ransac_register", "register.ransac_register", _count_ransac),
    (featreg.register, "estimate_rigid_svd", "register.estimate_rigid_svd", _count_svd),
    (featreg.register, "cluster_at", "net.cluster_at", _count_cluster),
    (featreg.register, "detect_many", "net.detect_many", None),
    (featreg.register, "describe_many", "net.describe_many", None),
    (featreg.train, "build_triplets", "train.build_triplets", None),
    (featreg.train, "branch_graph", "net.branch_graph", None),
    (featreg.train, "triplet_loss", "loss.triplet_loss", _count_loss),
    (featreg.geom, "crop_ball", "geom.crop_ball", None),
    (featreg.geom, "random_point_dropout", "geom.random_point_dropout", None),
    (featreg.geom, "augment", "geom.augment", None),
    (featreg.net, "farthest_point_sample", "net.farthest_point_sample", None),
    (featreg.net, "ball_group", "net.ball_group", None),
    (featreg.net, "cluster_at", "net.cluster_at", _count_cluster),
    (featreg.net, "detector_graph", "net.detector_graph", _count_graph_rows),
    (featreg.net, "descriptor_graph", "net.descriptor_graph", None),
    (featreg.autodiff, "backward", "autodiff.backward", None),
    (featreg.autodiff, "adam_step", "autodiff.adam_step", None),
)


class Tracer:
    """In-memory span recorder; one instance per run."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.requests = 0
        self._stack: list[int] = []
        self._request = -1

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, parent: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        self.spans[idx] = Span(name, start, end, parent, self._request)

    @contextlib.contextmanager
    def request(self, name: str):
        """Root span of one request (a registered pair or a training step)."""
        self._request = self.requests
        self.requests += 1
        idx, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, parent, name, start, time.perf_counter())

    def span(self, name: str, fn, counter=None):
        """fn wrapped so that each call records a span and updates counters."""

        def traced(*args, **kwargs):
            idx, parent = self._open()
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except DegenerateGeometryError:
                self.counts[f"{name}.degenerate"] += 1
                raise
            finally:
                self._close(idx, parent, name, start, time.perf_counter())
            if counter is not None:
                counter(self.counts, args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def wrap_call_sites(self):
        """Swap every call site in CALL_SITES for its traced version."""
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in CALL_SITES]
        try:
            for (mod, attr, name, counter), (_, _, fn) in zip(CALL_SITES, originals):
                setattr(mod, attr, self.span(name, fn, counter))
            yield
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child durations."""
        child = np.zeros(len(self.spans))
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s.name] += (s.end - s.start) - child[i]
        return dict(out)

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start", "end", "parent", "request"])
            for i, s in enumerate(self.spans):
                out.writerow([i, s.name, repr(s.start), repr(s.end), s.parent, s.request])


# Per-layer self times reported per request, by span name.
SELF_TIME_METRICS = (
    "bench.load_cloud",
    "register.detect_keypoints",
    "register.select_keypoints",
    "net.cluster_at",
    "net.detect_many",
    "register.compute_descriptors",
    "net.describe_many",
    "register.match_descriptors",
    "register.ransac_register",
    "register.estimate_rigid_svd",
    "train.build_triplets",
    "net.farthest_point_sample",
    "net.ball_group",
    "net.detector_graph",
    "net.descriptor_graph",
    "loss.triplet_loss",
    "autodiff.backward",
    "autodiff.adam_step",
)
GEOM_PREPARE = ("geom.crop_ball", "geom.random_point_dropout", "geom.augment")
PER_REQUEST_COUNTS = (
    "register.points_scored",
    "register.keypoints_kept",
    "register.descriptors_dropped",
    "register.correspondences",
    "register.ransac_iterations",
    "register.estimate_rigid_svd_calls",
    "net.cluster_at_calls",
    "net.cluster_rows",
    "net.graph_rows",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}; times and counts per request."""
    n = max(tracer.requests, 1)
    self_t = tracer.self_times()
    c = tracer.counts
    out = {f"{name}_s": (self_t.get(name, 0.0) / n, "s/req") for name in SELF_TIME_METRICS}
    out["geom.prepare_s"] = (sum(self_t.get(name, 0.0) for name in GEOM_PREPARE) / n, "s/req")
    out.update({name: (c[name] / n, "count/req") for name in PER_REQUEST_COUNTS})
    out["bench.load_cloud_mb"] = (c["bench.load_cloud_bytes"] / 1e6 / n, "MB/req")
    out["register.degenerate_samples"] = (c["register.estimate_rigid_svd.degenerate"] / n, "count/req")
    out["register.keypoint_yield"] = (_ratio(c["register.keypoints_kept"], c["register.points_scored"]), "fraction")
    out["register.ransac_cap_hit_frac"] = (_ratio(c["register.ransac_cap_hits"], c["register.ransac_calls"]), "fraction")
    out["register.inlier_ratio"] = (
        _ratio(c["register.ransac_inliers"], c["register.ransac_correspondences"]), "fraction")
    out["loss.active_frac"] = (_ratio(c["loss.active"], c["loss.triplets"]), "fraction")
    out["trace.overhead_frac"] = (overhead_frac, "fraction")
    return out


def summary(tracer: Tracer) -> dict:
    """Self time, share of request time and call count per span name."""
    self_t = tracer.self_times()
    total = sum(self_t.values())
    calls: dict[str, int] = defaultdict(int)
    stages: dict[str, float] = defaultdict(float)
    for s in tracer.spans:
        calls[s.name] += 1
        if s.parent >= 0 and tracer.spans[s.parent].parent < 0:
            stages[s.name] += s.end - s.start
    return {
        "requests": tracer.requests,
        "request_s": total,
        "stages": {name: {"total_s": t, "share": _ratio(t, total)} for name, t in stages.items()},
        "layers": {
            name: {"self_s": t, "share": _ratio(t, total), "calls": calls[name]}
            for name, t in sorted(self_t.items(), key=lambda kv: -kv[1])
        },
        "counts": dict(tracer.counts),
    }
