"""featreg benchmark: one closed-loop caller driving the public API.

Run from the repository root:

    python3 perfbench/run.py --workload register-dense --seed 1 --seconds 36 --trace 0

Workloads: register-dense, register-sparse, train (see perfbench/README.md).
With --trace 0 the last line of standard output is a JSON object holding the
end-to-end metrics; with --trace 1 every request runs twice, once through the
traced call sites and once without, and the per-layer metrics are printed
instead. The run exits non-zero when featreg cannot be imported and reports
correct=false when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench-work"
WORKLOADS = ("register-dense", "register-sparse", "train")
SETUP_REPEATS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def configure_environment() -> dict:
    """Unset F3DN_THREADS and cap BLAS threads at nproc; must run before numpy loads."""
    nproc = os.cpu_count() or 1
    env = {"nproc": nproc, "F3DN_THREADS": os.environ.pop("F3DN_THREADS", None)}
    for var in BLAS_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))
    env["blas_threads"] = int(os.environ["OPENBLAS_NUM_THREADS"])
    return env


def parse_args(argv):
    parser = argparse.ArgumentParser(description="featreg closed-loop benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed_loop(wl, seconds: float, tracer=None):
    """Run requests back to back until `seconds` have passed.

    Returns (outcomes, attempted, failed, elapsed, mismatches, untraced latencies).
    With a tracer every request runs twice on the same state, alternating
    which copy goes first; the untraced copy's result must equal the traced one.
    """
    outcomes, untraced, mismatches = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        attempted += 1
        try:
            if tracer is None:
                out = wl.run(i)
            else:
                runs = {}
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    if traced:
                        with tracer.wrap_call_sites(), tracer.request("request"):
                            runs[traced] = wl.run(i)
                    else:
                        runs[traced] = wl.run(i)
                out = runs[True]
                untraced.append(runs[False].latency)
                if runs[False].result != out.result:
                    mismatches.append(f"request {i}: traced result differs from untraced")
        except Exception as exc:  # a failed request is counted, not fatal
            failed += 1
            print(f"request {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        else:
            outcomes.append(out)
            wl.advance(out)
        i += 1
    return outcomes, attempted, failed, time.perf_counter() - start, mismatches, untraced


def end_to_end(outcomes, elapsed, setup_times) -> dict:
    latencies = [o.latency for o in outcomes]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "items_per_s": (sum(o.items for o in outcomes) / elapsed, "1/s"),
        "request_p50_s": (statistics.median(latencies) if latencies else float("nan"), "s"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    env = configure_environment()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy
        import scipy

        import featreg  # noqa: F401
    except ImportError as exc:
        print(f"cannot import featreg and its dependencies from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    env.update(numpy=numpy.__version__, scipy=scipy.__version__)
    data_dir = WORK_DIR / f"data-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times, digests = [], set()
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(data_dir, ignore_errors=True)
            t0 = time.perf_counter()
            wl = workloads.make_workload(args.workload, args.seed, data_dir)
            digests.add(wl.setup())
            setup_times.append(time.perf_counter() - t0)
        env["weights_sha256"] = workloads.WEIGHTS_SHA256
        problems = [] if len(digests) == 1 else ["set-up made different inputs from one seed"]
        problems += wl.reference_check()

        tracer = tracing.Tracer() if args.trace else None
        outcomes, attempted, failed, elapsed, mismatches, untraced = timed_loop(wl, args.seconds, tracer)
        problems += mismatches + wl.final_check(outcomes)
        if failed:
            problems.append(f"{failed} of {attempted} requests raised")
        if tracer is None:
            metrics = end_to_end(outcomes, elapsed, setup_times)
            samples = {"request_p50_s": len(outcomes), "setup_s": len(setup_times)}
        else:
            traced = sum(o.latency for o in outcomes)
            overhead = 1.0 - sum(untraced) / traced if traced > 0 else float("nan")
            metrics = tracing.layer_metrics(tracer, overhead)
            samples = {"traced_requests": tracer.requests}
            WORK_DIR.mkdir(exist_ok=True)
            stem = WORK_DIR / f"trace-{args.workload}-seed{args.seed}"
            tracer.write_spans(f"{stem}.csv")
            with open(f"{stem}-summary.json", "w") as fh:
                json.dump(tracing.summary(tracer), fh, indent=2, sort_keys=True)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({"samples": samples}))
    succeeded = sum(o.success for o in outcomes)
    print(json.dumps({"quality": {"attempted": attempted, "succeeded": succeeded,
                                  "success_rate": succeeded / attempted}}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
