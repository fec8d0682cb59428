"""Reverse-mode differentiation on numpy buffers, sized to this package's nets.

The op set is deliberately small: dense layers, the activations the networks
use, set pooling over contiguous row segments (one segment per cluster),
concatenation, the in-plane rotation that canonicalizes clusters, and the
handful of reductions the alignment loss needs. No general broadcasting.
Compute dtype is float64 throughout; the checkpoint format stores float32
payloads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np
from scipy.special import expit

from .errors import FormatError, InvalidInputError

NORM_EPSILON = 1e-8
LOG2 = float(np.log(2.0))


class Tensor:
    """Node in a dynamically built computation graph.

    Wraps a float64 numpy buffer (row-major) plus the parent links and the
    closure needed to replay the chain rule. Leaves built with
    requires_grad=True accumulate into .grad across backward calls.
    """

    __slots__ = ("data", "grad", "requires_grad", "parents", "backward_fn", "name")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward_fn=None, name: str = ""):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError(f"non-finite values entering tensor {name or '<anon>'}")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in parents)
        self.parents: tuple[Tensor, ...] = tuple(parents)
        self.backward_fn: Callable[[np.ndarray], None] | None = backward_fn
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise InvalidInputError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data)

    def _accumulate(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self) -> str:
        tag = self.name or "tensor"
        return f"Tensor({tag}, shape={self.data.shape}, requires_grad={self.requires_grad})"


class Graph:
    """Topologically ordered view of every node reachable from a root.

    nodes is ordered parents-first; construction fails on cycles implicitly
    (graphs here are built by ops, which cannot create one).
    """

    def __init__(self, nodes: list[Tensor]):
        self.nodes = nodes

    @classmethod
    def from_root(cls, root: Tensor) -> "Graph":
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        return cls(order)


def backward(loss: Tensor, params: Iterable[Tensor] | dict | None = None) -> None:
    """Backpropagate from a scalar loss, accumulating into leaf .grad buffers.

    params, when given, names gradient-requiring leaves that must end up with
    a gradient even if unreachable from the loss (they get zeros).
    """
    if loss.data.shape != ():
        raise InvalidInputError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    graph = Graph.from_root(loss)
    loss._accumulate(np.ones_like(loss.data))
    for node in reversed(graph.nodes):
        if node.backward_fn is not None and node.grad is not None:
            node.backward_fn(node.grad)
    if params is not None:
        values = params.values() if isinstance(params, dict) else params
        for p in values:
            if p.requires_grad and p.grad is None:
                p.grad = np.zeros_like(p.data)


def zero_grads(params: Iterable[Tensor] | dict) -> None:
    values = params.values() if isinstance(params, dict) else params
    for p in values:
        p.grad = None


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x @ weight + bias for x of shape (n, in) or (in,)."""
    if x.data.ndim not in (1, 2) or weight.data.ndim != 2 or bias.data.ndim != 1:
        raise InvalidInputError("linear expects x (n,in) or (in,), weight (in,out), bias (out,)")
    if x.data.shape[-1] != weight.data.shape[0] or weight.data.shape[1] != bias.data.shape[0]:
        raise InvalidInputError(
            f"linear shape mismatch: x {x.data.shape}, weight {weight.data.shape}, bias {bias.data.shape}"
        )
    out_data = x.data @ weight.data + bias.data

    def bw(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g @ weight.data.T)
        if weight.requires_grad:
            if x.data.ndim == 1:
                weight._accumulate(np.outer(x.data, g))
            else:
                weight._accumulate(x.data.T @ g)
        if bias.requires_grad:
            bias._accumulate(g if g.ndim == 1 else g.sum(axis=0))

    return Tensor(out_data, parents=(x, weight, bias), backward_fn=bw)


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0.0)

    def bw(g: np.ndarray) -> None:
        x._accumulate(g * (x.data > 0.0))

    return Tensor(out_data, parents=(x,), backward_fn=bw)


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)), computed stably; softplus(0) = log 2."""
    out_data = np.logaddexp(0.0, x.data)

    def bw(g: np.ndarray) -> None:
        x._accumulate(g * expit(x.data))

    return Tensor(out_data, parents=(x,), backward_fn=bw)


def shifted_softplus(x: Tensor) -> Tensor:
    """softplus(x) - log 2: smooth, zero at zero, same derivative as softplus.

    The shift keeps stacked hidden layers zero-centered; a plain softplus
    feeds every unit a log-2 offset that swamps small geometric signal after
    pooling and normalization.
    """
    out_data = np.logaddexp(0.0, x.data) - LOG2

    def bw(g: np.ndarray) -> None:
        x._accumulate(g * expit(x.data))

    return Tensor(out_data, parents=(x,), backward_fn=bw)


def l2_normalize(x: Tensor, epsilon: float = NORM_EPSILON) -> Tensor:
    """Normalize along the last axis with the norm floored at epsilon."""
    raw = np.linalg.norm(x.data, axis=-1, keepdims=True)
    denom = np.maximum(raw, epsilon)
    out_data = x.data / denom

    def bw(g: np.ndarray) -> None:
        above = raw > epsilon
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        x._accumulate(np.where(above, (g - out_data * dot) / denom, g / epsilon))

    return Tensor(out_data, parents=(x,), backward_fn=bw)


def concat(a: Tensor, b: Tensor, axis: int) -> Tensor:
    out_data = np.concatenate([a.data, b.data], axis=axis)
    split = a.data.shape[axis]

    def bw(g: np.ndarray) -> None:
        ga, gb = np.split(g, [split], axis=axis)
        a._accumulate(ga)
        b._accumulate(gb)

    return Tensor(out_data, parents=(a, b), backward_fn=bw)


def _check_offsets(offsets: np.ndarray, total: int) -> np.ndarray:
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.ndim != 1 or len(offsets) < 2 or offsets[0] != 0 or offsets[-1] != total:
        raise InvalidInputError("segment offsets must run from 0 to the row count")
    if np.any(np.diff(offsets) < 1):
        raise InvalidInputError("segments must be non-empty and ascending")
    return offsets


def segment_max_pool(x: Tensor, offsets: np.ndarray) -> Tensor:
    """Per-segment column-wise max for contiguous row segments.

    offsets has S+1 entries; segment s spans rows [offsets[s], offsets[s+1]).
    Gradient flows to the argmax row of each feature in each segment; ties go
    to the lowest row of the segment.
    """
    if x.data.ndim != 2:
        raise InvalidInputError(f"segment_max_pool expects (N, f), got {x.data.shape}")
    offsets = _check_offsets(offsets, x.data.shape[0])
    n_seg = len(offsets) - 1
    f = x.data.shape[1]
    rows = np.empty((n_seg, f), dtype=np.int64)
    for s in range(n_seg):
        lo, hi = offsets[s], offsets[s + 1]
        rows[s] = lo + x.data[lo:hi].argmax(axis=0)
    cols = np.broadcast_to(np.arange(f), (n_seg, f))
    out_data = x.data[rows, cols]

    def bw(g: np.ndarray) -> None:
        gx = np.zeros_like(x.data)
        np.add.at(gx, (rows, cols), g)
        x._accumulate(gx)

    return Tensor(out_data, parents=(x,), backward_fn=bw)


def expand_segments(v: Tensor, offsets: np.ndarray) -> Tensor:
    """Repeat row s of v (S, f) across rows [offsets[s], offsets[s+1])."""
    if v.data.ndim != 2:
        raise InvalidInputError(f"expand_segments expects (S, f), got {v.data.shape}")
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.ndim != 1 or len(offsets) != v.data.shape[0] + 1 or offsets[0] != 0:
        raise InvalidInputError("offsets must have S+1 entries starting at 0")
    lengths = np.diff(offsets)
    if np.any(lengths < 1):
        raise InvalidInputError("segments must be non-empty")
    out_data = np.repeat(v.data, lengths, axis=0)

    def bw(g: np.ndarray) -> None:
        v._accumulate(np.add.reduceat(g, offsets[:-1], axis=0))

    return Tensor(out_data, parents=(v,), backward_fn=bw)


def _rotate_sc(pts: np.ndarray, s, c) -> np.ndarray:
    # Rotation by -theta about z for (s, c) = (sin theta, cos theta).
    out = np.empty_like(pts)
    out[:, 0] = c * pts[:, 0] + s * pts[:, 1]
    out[:, 1] = -s * pts[:, 0] + c * pts[:, 1]
    out[:, 2] = pts[:, 2]
    return out


def rotate_xy_segments(pts: Tensor, sc: Tensor, offsets: np.ndarray) -> Tensor:
    """Rotate segment s of (N, 3) points by -theta_s about z, with sc row s =
    [sin theta_s, cos theta_s].

    Differentiable in both the points and the (sin, cos) rows, so orientation
    gradients flow into the detector without an arctan in the graph.
    """
    if pts.data.ndim != 2 or pts.data.shape[1] != 3:
        raise InvalidInputError(f"rotate_xy_segments expects (N, 3) points, got {pts.data.shape}")
    offsets = _check_offsets(offsets, pts.data.shape[0])
    lengths = np.diff(offsets)
    if sc.data.shape != (len(lengths), 2):
        raise InvalidInputError("sc must be (S, 2) matching the segment count")
    srep = np.repeat(sc.data[:, 0], lengths)
    crep = np.repeat(sc.data[:, 1], lengths)
    out_data = _rotate_sc(pts.data, srep, crep)

    def bw(g: np.ndarray) -> None:
        x, y = pts.data[:, 0], pts.data[:, 1]
        if sc.requires_grad:
            ds = np.add.reduceat(g[:, 0] * y - g[:, 1] * x, offsets[:-1])
            dc = np.add.reduceat(g[:, 0] * x + g[:, 1] * y, offsets[:-1])
            sc._accumulate(np.stack([ds, dc], axis=1))
        if pts.requires_grad:
            gp = np.empty_like(pts.data)
            gp[:, 0] = crep * g[:, 0] - srep * g[:, 1]
            gp[:, 1] = srep * g[:, 0] + crep * g[:, 1]
            gp[:, 2] = g[:, 2]
            pts._accumulate(gp)

    return Tensor(out_data, parents=(pts, sc), backward_fn=bw)


def _same_shape(a: Tensor, b: Tensor, opname: str) -> None:
    if a.data.shape != b.data.shape:
        raise InvalidInputError(f"{opname} shape mismatch: {a.data.shape} vs {b.data.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")

    def bw(g: np.ndarray) -> None:
        a._accumulate(g)
        b._accumulate(g)

    return Tensor(a.data + b.data, parents=(a, b), backward_fn=bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")

    def bw(g: np.ndarray) -> None:
        a._accumulate(g)
        b._accumulate(-g)

    return Tensor(a.data - b.data, parents=(a, b), backward_fn=bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")

    def bw(g: np.ndarray) -> None:
        a._accumulate(g * b.data)
        b._accumulate(g * a.data)

    return Tensor(a.data * b.data, parents=(a, b), backward_fn=bw)


def scale(a: Tensor, k: float) -> Tensor:
    k = float(k)

    def bw(g: np.ndarray) -> None:
        a._accumulate(g * k)

    return Tensor(a.data * k, parents=(a,), backward_fn=bw)


def add_const(a: Tensor, k: float) -> Tensor:
    def bw(g: np.ndarray) -> None:
        a._accumulate(g)

    return Tensor(a.data + float(k), parents=(a,), backward_fn=bw)


def vsum(x: Tensor) -> Tensor:
    """Sum of all entries, as a scalar tensor."""

    def bw(g: np.ndarray) -> None:
        x._accumulate(np.full_like(x.data, float(g)))

    return Tensor(np.float64(x.data.sum()), parents=(x,), backward_fn=bw)


def dot(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 1 or b.data.ndim != 1:
        raise InvalidInputError("dot expects vectors")
    _same_shape(a, b, "dot")

    def bw(g: np.ndarray) -> None:
        a._accumulate(float(g) * b.data)
        b._accumulate(float(g) * a.data)

    return Tensor(np.float64(np.dot(a.data, b.data)), parents=(a, b), backward_fn=bw)


def div_by_scalar(v: Tensor, s: Tensor) -> Tensor:
    """Elementwise v / s for a scalar tensor s (used by attention normalization)."""
    if s.data.shape != ():
        raise InvalidInputError("div_by_scalar needs a scalar divisor tensor")
    sval = float(s.data)
    if sval == 0.0:
        raise InvalidInputError("division by zero scalar")
    out_data = v.data / sval

    def bw(g: np.ndarray) -> None:
        v._accumulate(g / sval)
        s._accumulate(np.float64(-(g * v.data).sum() / (sval * sval)))

    return Tensor(out_data, parents=(v, s), backward_fn=bw)


def pairwise_l2(a: Tensor, b: Tensor) -> Tensor:
    """Matrix of Euclidean distances between rows of a (Ka, d) and b (Kb, d).

    Distances are computed from explicit differences (no dot-product trick), so
    tiny distances stay exact. Backward uses the zero-distance subgradient 0.
    """
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[1]:
        raise InvalidInputError("pairwise_l2 expects (Ka, d) and (Kb, d)")
    diff = a.data[:, None, :] - b.data[None, :, :]
    out_data = np.sqrt((diff * diff).sum(axis=2))

    def bw(g: np.ndarray) -> None:
        w = g / np.where(out_data > 0.0, out_data, 1.0)
        ga = w[:, :, None] * diff
        if a.requires_grad:
            a._accumulate(ga.sum(axis=1))
        if b.requires_grad:
            b._accumulate(-ga.sum(axis=0))

    return Tensor(out_data, parents=(a, b), backward_fn=bw)


def row_min(x: Tensor) -> Tensor:
    """Minimum of each row of x (n, m); gradient goes to the lowest-index argmin."""
    if x.data.ndim != 2:
        raise InvalidInputError(f"row_min expects a matrix, got {x.data.shape}")
    arg = x.data.argmin(axis=1)
    rows = np.arange(x.data.shape[0])
    out_data = x.data[rows, arg]

    def bw(g: np.ndarray) -> None:
        gx = np.zeros_like(x.data)
        np.add.at(gx, (rows, arg), g)
        x._accumulate(gx)

    return Tensor(out_data, parents=(x,), backward_fn=bw)


def take_col(x: Tensor, j: int) -> Tensor:
    if x.data.ndim != 2 or not (0 <= j < x.data.shape[1]):
        raise InvalidInputError("take_col index out of range")

    def bw(g: np.ndarray) -> None:
        gx = np.zeros_like(x.data)
        gx[:, j] = g
        x._accumulate(gx)

    return Tensor(x.data[:, j].copy(), parents=(x,), backward_fn=bw)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """First/second-moment buffers plus the step counter, keyed by param name."""

    lr: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray], state: AdamState) -> AdamState:
    """One bias-corrected Adam update, applied in place to params' buffers."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m[...] = state.beta1 * m + (1.0 - state.beta1) * g
        v[...] = state.beta2 * v + (1.0 - state.beta2) * (g * g)
        p.data = p.data - state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.epsilon)
    return state


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"F3DN"
CHECKPOINT_VERSION = 1


def save_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    """Write named arrays to the binary checkpoint format.

    Layout, all integers little-endian u32: magic "F3DN", format version,
    tensor count, then per tensor: name length, UTF-8 name, rank, dims,
    row-major float32 payload. Entries are written in sorted-name order so
    equal weight sets produce byte-identical files.
    """
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(tensors)))
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name], dtype=np.float32)
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_tensors(path) -> dict[str, np.ndarray]:
    """Read a checkpoint written by save_tensors; returns float64 arrays."""
    with open(path, "rb") as fh:
        blob = fh.read()

    pos = 0

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if pos + n > len(blob):
            raise FormatError(f"checkpoint truncated while reading {what}", offset=pos)
        out = blob[pos : pos + n]
        pos += n
        return out

    if take(4, "magic") != CHECKPOINT_MAGIC:
        raise FormatError("bad checkpoint magic", offset=0)
    version, count = struct.unpack("<II", take(8, "header"))
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", offset=4)
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        name = take(name_len, "name").decode("utf-8")
        (rank,) = struct.unpack("<I", take(4, "rank"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "dims"))
        n_items = int(np.prod(dims)) if rank else 1
        payload = take(4 * n_items, f"payload of {name}")
        out[name] = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(dims)
    if pos != len(blob):
        raise FormatError("trailing bytes after last tensor", offset=pos)
    return out


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradCheckReport:
    """Per-parameter-block worst relative errors from central differencing."""

    per_param: dict[str, float]
    max_rel_err: float
    tolerance: float
    ok: bool

    def summary(self) -> str:
        lines = [f"{'param':<24} {'max rel err':>12}"]
        for name in sorted(self.per_param):
            lines.append(f"{name:<24} {self.per_param[name]:>12.3e}")
        verdict = "OK" if self.ok else "FAIL"
        lines.append(f"overall max {self.max_rel_err:.3e} vs tolerance {self.tolerance:.1e} -> {verdict}")
        return "\n".join(lines)


def grad_check(
    build_loss: Callable[[], Tensor],
    params: dict[str, Tensor],
    h: float = 1e-3,
    tolerance: float = 1e-4,
    denom_floor: float = 1e-6,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    build_loss must deterministically rebuild the same scalar graph from the
    current parameter buffers; every scalar in every param is perturbed by
    +-h in turn. Relative error uses max(|analytic|, |numeric|, denom_floor)
    as the denominator.
    """
    zero_grads(params)
    loss = build_loss()
    backward(loss, params=params)
    analytic = {k: np.array(p.grad, copy=True) for k, p in params.items()}

    per_param: dict[str, float] = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        numeric = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(build_loss().data)
            flat[i] = orig - h
            f_minus = float(build_loss().data)
            flat[i] = orig
            numeric[i] = (f_plus - f_minus) / (2.0 * h)
        a = analytic[name].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), denom_floor)
        per_param[name] = float(np.max(np.abs(a - numeric) / denom)) if flat.size else 0.0
    worst = max(per_param.values()) if per_param else 0.0
    return GradCheckReport(per_param=per_param, max_rel_err=worst, tolerance=tolerance, ok=worst < tolerance)
