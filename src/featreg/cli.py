"""Command-line interface.

Subcommands cover the full workflow: synthesize data, train, detect/describe,
register a pair, run the evaluation protocols, and check gradients. Exit
codes: 0 on success, 1 when an evaluation or registration fails on valid
input, 2 for usage errors (bad arguments, missing files, bad config). All
outputs are deterministic for a fixed --seed: floats are written with repr,
JSON keys are sorted, and nothing timestamp-dependent is emitted.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

import numpy as np

from . import autodiff as ad
from . import bench, geom, net, register, train
from .errors import ConfigurationError, FormatError, InvalidInputError

log = logging.getLogger(__name__)

USAGE_ERROR = 2
EVAL_FAILURE = 1


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument(
        "--format",
        choices=bench.CLOUD_FORMATS,
        default="xyz-bin",
        help="cloud file format (default xyz-bin)",
    )


def _load_weights(path) -> net.ModelWeights:
    import os

    if not os.path.exists(path):
        raise SystemExit2(f"weights file not found: {path}")
    return net.ModelWeights.load(path)


class SystemExit2(Exception):
    """Usage error carrying a message for stderr."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="featreg",
        description="Point-cloud feature learning and registration toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset of scan pairs")
    _add_common(p)
    p.add_argument("out_dir", help="directory for cloud files and manifests")
    p.add_argument("--n-pairs", type=int, default=10)
    p.add_argument("--extent", type=float, default=100.0)
    p.add_argument("--n-structures", type=int, default=40)
    p.add_argument("--max-offset", type=float, default=5.0)
    p.add_argument("--scan-radius", type=float, default=15.0)
    p.add_argument("--jitter-sigma", type=float, default=0.03)
    p.add_argument("--keep-fraction", type=float, default=0.95)
    p.add_argument("--target-points", type=int, default=None)
    p.add_argument(
        "--aligned-yaw",
        action="store_true",
        help="keep all scans in a shared heading instead of random yaw",
    )

    p = sub.add_parser("train", help="train detector and descriptor weights")
    _add_common(p)
    p.add_argument("data_dir", help="dataset directory from `featreg synth`")
    p.add_argument("--weights", required=True, help="output weights file")
    p.add_argument("--config", help="key=value config file overriding defaults")
    p.add_argument("--init-weights", help="warm-start weights file")
    p.add_argument("--loss-csv", help="also write per-step loss history CSV")
    p.add_argument("--checkpoint-every", type=int, default=0)

    p = sub.add_parser("detect", help="write keypoints of a cloud as CSV")
    _add_common(p)
    p.add_argument("cloud", help="input cloud file")
    p.add_argument("out_csv", help="output CSV: index,x,y,z,attention")
    p.add_argument("--weights", required=True)
    p.add_argument("--r-nms", type=float, default=0.5)
    p.add_argument("--beta", type=float, default=0.01)
    p.add_argument("--max-keypoints", type=int, default=1024)
    p.add_argument("--r-cluster", type=float, default=2.0)

    p = sub.add_parser("describe", help="write keypoint descriptors as CSV")
    _add_common(p)
    p.add_argument("cloud", help="input cloud file")
    p.add_argument("out_csv", help="output CSV: x,y,z,attention,f0..f{d-1}")
    p.add_argument("--weights", required=True)
    p.add_argument("--r-nms", type=float, default=0.5)
    p.add_argument("--beta", type=float, default=0.01)
    p.add_argument("--max-keypoints", type=int, default=1024)
    p.add_argument("--r-cluster", type=float, default=2.0)

    p = sub.add_parser("register", help="estimate the rigid transform between two clouds")
    _add_common(p)
    p.add_argument("cloud_a")
    p.add_argument("cloud_b")
    p.add_argument("--weights", required=True)
    p.add_argument("--out-json", help="write the result as JSON (default stdout)")
    p.add_argument("--inlier-thresh", type=float, default=1.0)
    p.add_argument("--confidence", type=float, default=0.99)
    p.add_argument("--max-iter", type=int, default=10000)
    p.add_argument("--r-nms", type=float, default=0.5)
    p.add_argument("--beta", type=float, default=0.01)
    p.add_argument("--max-keypoints", type=int, default=1024)
    p.add_argument("--r-cluster", type=float, default=2.0)

    p = sub.add_parser("eval-desc", help="descriptor matching: FP rate at 95% recall")
    _add_common(p)
    p.add_argument("data_dir")
    p.add_argument("--weights", required=True)
    p.add_argument("--n-cluster-pairs", type=int, default=500)
    p.add_argument("--r-cluster", type=float, default=2.0)
    p.add_argument("--min-points", type=int, default=10)
    p.add_argument(
        "--nonmatch-min-distance",
        type=float,
        default=20.0,
        help="minimum separation (m) defining a non-matching cluster pair",
    )

    p = sub.add_parser("eval-prec", help="keypoint match precision curve")
    _add_common(p)
    p.add_argument("data_dir")
    p.add_argument("--weights", required=True)
    p.add_argument(
        "--thresholds",
        default="0.25,0.5,1.0,2.0",
        help="comma-separated distances in meters",
    )
    p.add_argument("--r-nms", type=float, default=0.5)
    p.add_argument("--beta", type=float, default=0.01)
    p.add_argument("--max-keypoints", type=int, default=1024)
    p.add_argument("--r-cluster", type=float, default=2.0)

    p = sub.add_parser("eval-reg", help="registration sweep over all manifest pairs")
    _add_common(p)
    p.add_argument("data_dir")
    p.add_argument("--weights", required=True)
    p.add_argument("--out-csv", help="per-pair results CSV")
    p.add_argument("--out-json", help="aggregate metrics JSON")
    p.add_argument("--inlier-thresh", type=float, default=1.0)
    p.add_argument("--confidence", type=float, default=0.99)
    p.add_argument("--max-iter", type=int, default=10000)
    p.add_argument("--r-nms", type=float, default=0.5)
    p.add_argument("--beta", type=float, default=0.01)
    p.add_argument("--max-keypoints", type=int, default=1024)
    p.add_argument("--r-cluster", type=float, default=2.0)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check of the loss graph")
    _add_common(p)
    p.add_argument("--k", type=int, default=4, help="clusters per branch")
    p.add_argument("--cluster-size", type=int, default=6, help="points per cluster")
    p.add_argument("--descriptor-dim", type=int, default=8)
    p.add_argument("--context-dim", type=int, default=8)
    p.add_argument("--point-mlp", default="6,6,8")
    p.add_argument("--post-mlp", default="6,6")
    p.add_argument("--step", type=float, default=1e-3, help="finite-difference step")
    p.add_argument("--tolerance", type=float, default=1e-4)

    return parser


def _inference_config(args, seed: int) -> register.InferenceConfig:
    return register.InferenceConfig(
        r_nms=args.r_nms,
        beta=args.beta,
        max_keypoints=args.max_keypoints,
        r_cluster=args.r_cluster,
        seed=seed,
    )


def _cmd_synth(args) -> int:
    world = bench.generate_synthetic_scene(
        seed=args.seed, extent=args.extent, n_structures=args.n_structures
    )
    rng = np.random.default_rng(args.seed)
    clouds, manifest = bench.make_scan_pairs(
        world,
        n_pairs=args.n_pairs,
        max_offset=args.max_offset,
        rng=rng,
        scan_radius=args.scan_radius,
        jitter_sigma=args.jitter_sigma,
        keep_fraction=args.keep_fraction,
        target_points=args.target_points,
        random_yaw=not args.aligned_yaw,
    )
    bench.save_dataset(args.out_dir, clouds, manifest, format=args.format)
    print(f"wrote {len(clouds)} scans, {len(manifest.pairs)} pairs to {args.out_dir}")
    return 0


def _cmd_train(args) -> int:
    cfg = train.TrainConfig(seed=args.seed)
    if args.config:
        import os

        if not os.path.exists(args.config):
            raise SystemExit2(f"config file not found: {args.config}")
        with open(args.config) as fh:
            cfg = train.parse_config(fh.read())
        if cfg.seed == 0 and args.seed != 0:
            cfg = train.TrainConfig(**{**cfg.__dict__, "seed": args.seed})
    clouds, _ = bench.load_dataset(args.data_dir, format=args.format)
    init = _load_weights(args.init_weights) if args.init_weights else None
    weights, history = train.train(
        clouds,
        cfg,
        weights=init,
        checkpoint_every=args.checkpoint_every,
        checkpoint_path=args.weights if args.checkpoint_every else None,
    )
    weights.save(args.weights)
    if args.loss_csv:
        train.save_loss_history(args.loss_csv, history)
    final = history[-1][2] if history else float("nan")
    print(f"trained {len(history)} steps, final loss {final!r}, wrote {args.weights}")
    return 0


def _keypoints_of(args):
    cloud = bench.load_cloud(args.cloud, format=args.format)
    w = _load_weights(args.weights)
    cfg = _inference_config(args, args.seed)
    return cloud, w, cfg, register.detect_keypoints(cloud, w, cfg)


def _cmd_detect(args) -> int:
    _, _, _, keypoints = _keypoints_of(args)
    with open(args.out_csv, "w") as fh:
        fh.write("index,x,y,z,attention\n")
        for kp in keypoints:
            x, y, z = (repr(float(v)) for v in kp.position)
            fh.write(f"{kp.index},{x},{y},{z},{kp.attention!r}\n")
    print(f"wrote {len(keypoints)} keypoints to {args.out_csv}")
    return 0


def _cmd_describe(args) -> int:
    cloud, w, cfg, keypoints = _keypoints_of(args)
    feats = register.compute_descriptors(cloud, keypoints, w, cfg)
    d = len(feats[0].descriptor) if feats else 0
    with open(args.out_csv, "w") as fh:
        fh.write("x,y,z,attention," + ",".join(f"f{i}" for i in range(d)) + "\n")
        for kf in feats:
            vals = [repr(float(v)) for v in kf.position]
            vals.append(repr(float(kf.attention)))
            vals.extend(repr(float(v)) for v in kf.descriptor)
            fh.write(",".join(vals) + "\n")
    print(f"wrote {len(feats)} descriptors to {args.out_csv}")
    return 0


def _registration_json(result: register.RegistrationResult, n_corr: int) -> str:
    payload = {
        "success": bool(result.success),
        "rotation": [[float(v) for v in row] for row in result.transform.rotation],
        "translation": [float(v) for v in result.transform.translation],
        "inlier_count": int(result.inlier_count),
        "iterations": int(result.iterations),
        "n_correspondences": int(n_corr),
    }
    return json.dumps(payload, sort_keys=True, indent=2)


def _cmd_register(args) -> int:
    cloud_a = bench.load_cloud(args.cloud_a, format=args.format)
    cloud_b = bench.load_cloud(args.cloud_b, format=args.format)
    w = _load_weights(args.weights)
    cfg = _inference_config(args, args.seed)
    result, n_corr = register.register_clouds(
        cloud_a,
        cloud_b,
        w,
        cfg,
        inlier_thresh=args.inlier_thresh,
        confidence=args.confidence,
        max_iter=args.max_iter,
        rng=np.random.default_rng(args.seed),
    )
    text = _registration_json(result, n_corr)
    if args.out_json:
        with open(args.out_json, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if result.success else EVAL_FAILURE


def _cmd_eval_desc(args) -> int:
    clouds, manifest = bench.load_dataset(args.data_dir, format=args.format)
    w = _load_weights(args.weights)
    pairs = bench.pairs_from_manifest(clouds, manifest)
    if not pairs:
        print("no pairs in dataset", file=sys.stderr)
        return EVAL_FAILURE
    fp = bench.eval_descriptor_matching(
        pairs,
        w,
        n_pairs_total=args.n_cluster_pairs,
        r_cluster=args.r_cluster,
        min_points=args.min_points,
        nonmatch_min_distance=args.nonmatch_min_distance,
        seed=args.seed,
    )
    print(f"fp_rate_at_95_recall {fp!r}")
    return 0


def _cmd_eval_prec(args) -> int:
    clouds, manifest = bench.load_dataset(args.data_dir, format=args.format)
    w = _load_weights(args.weights)
    pairs = bench.pairs_from_manifest(clouds, manifest)
    if not pairs:
        print("no pairs in dataset", file=sys.stderr)
        return EVAL_FAILURE
    thresholds = [float(v) for v in args.thresholds.split(",") if v.strip()]
    curve = bench.eval_precision_curve(pairs, w, _inference_config(args, args.seed), thresholds)
    for x, prec in curve:
        print(f"{x!r} {prec!r}")
    return 0


def _cmd_eval_reg(args) -> int:
    clouds, manifest = bench.load_dataset(args.data_dir, format=args.format)
    w = _load_weights(args.weights)
    if not manifest.pairs:
        print("no pairs in dataset", file=sys.stderr)
        return EVAL_FAILURE
    cfg = bench.RegistrationEvalConfig(
        inference=_inference_config(args, args.seed),
        inlier_thresh=args.inlier_thresh,
        confidence=args.confidence,
        max_iter=args.max_iter,
        seed=args.seed,
    )
    report = bench.eval_registration(clouds, manifest, w, cfg)
    if args.out_csv:
        report.write_csv(args.out_csv)
    if args.out_json:
        report.write_json(args.out_json)
    for key in sorted(report.aggregates):
        print(f"{key} {report.aggregates[key]!r}")
    return 0


def _cmd_gradcheck(args) -> int:
    from .loss import TripletLossConfig, triplet_loss
    from .net import NetConfig, ModelWeights

    cfg = NetConfig(
        point_mlp=tuple(int(v) for v in args.point_mlp.split(",")),
        post_mlp=tuple(int(v) for v in args.post_mlp.split(",")),
        context_dim=args.context_dim,
        descriptor_dim=args.descriptor_dim,
    )
    rng = np.random.default_rng(args.seed)
    w = ModelWeights.initialize(cfg, rng)
    clouds = [
        geom.PointCloud(rng.uniform(-3.0, 3.0, size=(args.k * args.cluster_size, 3)))
        for _ in range(3)
    ]
    loss_cfg = TripletLossConfig()

    def build_loss():
        from .loss import BranchOutput

        outs = []
        for i, cloud in enumerate(clouds):
            desc, attn = net.branch_graph(
                cloud, w, k=args.k, r_cluster=10.0, seed=1000 + i, cap=args.cluster_size
            )
            if attn is None:
                attn = ad.Tensor(np.ones(desc.shape[0]))
            outs.append(BranchOutput(desc, attn))
        return triplet_loss(outs[0], outs[1], outs[2], loss_cfg)

    # a zero loss means the hinge is inactive and every gradient is trivially
    # zero; surface the value so such degenerate passes are visible
    print(f"loss value {float(build_loss().data):.6f}")
    report = ad.grad_check(build_loss, w.parameters(), h=args.step, tolerance=args.tolerance)
    print(report.summary())
    return 0 if report.ok else EVAL_FAILURE


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "detect": _cmd_detect,
    "describe": _cmd_describe,
    "register": _cmd_register,
    "eval-desc": _cmd_eval_desc,
    "eval-prec": _cmd_eval_prec,
    "eval-reg": _cmd_eval_reg,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (FormatError, ConfigurationError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def entry() -> None:
    sys.exit(main())
