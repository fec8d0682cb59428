"""Train the benchmark's fixed weights once and write them as a checkpoint.

Run from the repository root:

    python3 perfbench/train_weights.py [--out perfbench/weights.f3dn]

Reproduces the acceptance suite's desk-scale training run (criterion 6):
world seed 42, 200 training pairs of 4000-point scans, both phases of the
desk config. Prints the checkpoint's SHA-256, which must then be copied into
WEIGHTS_SHA256 in perfbench/workloads.py. Takes about 8 minutes on 2 cores.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from featreg import bench, train  # noqa: E402
from workloads import DESK_CFG, WORLD, WORLD_SEED  # noqa: E402

TRAIN_PAIRS = 200


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(Path(__file__).resolve().parent / "weights.f3dn"))
    args = parser.parse_args()
    world = bench.generate_synthetic_scene(WORLD_SEED, **WORLD)
    clouds, _ = bench.make_scan_pairs(
        world, TRAIN_PAIRS, max_offset=2.0, rng=np.random.default_rng(1), scan_radius=15.0,
        jitter_sigma=0.03, keep_fraction=0.95, target_points=4000, random_yaw=False,
    )
    t0 = time.perf_counter()
    weights, history = train.train(clouds, DESK_CFG)
    weights.save(args.out)
    digest = hashlib.sha256(Path(args.out).read_bytes()).hexdigest()
    print(f"trained {len(history)} steps in {time.perf_counter() - t0:.1f} s; "
          f"final loss {history[-1][2]:.4f}")
    print(f"{args.out} sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
