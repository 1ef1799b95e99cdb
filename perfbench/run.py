"""Benchmark entry point: one workload, one seed, one JSON result.

Run from the root of a checkout::

    python3 perfbench/run.py --workload replay --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
untraced timed phase, then one traced pass, and prints every per-layer
metric instead.  The last line of standard output is the result object
(``correct``, ``attempted``, ``failed``, ``metrics``); the line before it
is the run fingerprint.  The exit code is 0 only when every check passed.

The process re-executes itself once with pinned interpreter and BLAS
settings (:data:`PINNED_ENV`), so every commit is measured alike.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Cached inputs and per-run checkpoints; git ignores it.
WORK_DIR = ROOT / ".perfbench_cache"

PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: Environment variables recorded in the fingerprint.
RECORDED_ENV = (*PINNED_ENV, "ACOBE_NN_ARENA", "ACOBE_SHARDS", "ACOBE_BENCH_JOBS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def filesystem_type(path: Path) -> str:
    """The type of the filesystem holding ``path``, from /proc/self/mountinfo."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as handle:
            for line in handle:
                left, _, right = line.partition(" - ")
                mount_point = left.split()[4]
                if (target == mount_point or target.startswith(mount_point.rstrip("/") + "/")) and len(
                    mount_point
                ) > len(best):
                    best, fstype = mount_point, right.split()[0]
    except OSError:
        pass
    return fstype


def git_sha() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def fingerprint(args, checkpoint_dir: Path, cache_key: str, cache_hit: bool) -> dict:
    import numpy

    from inputs import source_digest

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "env": {k: os.environ.get(k) for k in RECORDED_ENV},
        "git_sha": git_sha(),
        "datagen_digest": source_digest(ROOT)[:16],
        "checkpoint_fs": filesystem_type(checkpoint_dir),
        "input_cache": {"key": cache_key, "hit": cache_hit},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED_ENV})
    sys.path.insert(0, str(ROOT / "src"))

    from inputs import load_inputs
    from tracing import Tracer
    from workloads import WORKLOADS, Run, layer_metrics, run_retrain, run_stream

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {WORKLOADS}",
              file=sys.stderr)
        return 2

    run_dir = WORK_DIR / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        t0 = time.perf_counter()
        inputs, cache_key = load_inputs(ROOT, WORK_DIR, args.seed)
        print(f"inputs: {inputs.n_events} events, {len(inputs.deliveries)} deliveries, "
              f"{len(inputs.users)} users x {len(inputs.days)} days "
              f"({'cached' if inputs.cache_hit else 'generated'} in "
              f"{time.perf_counter() - t0:.1f} s)", file=sys.stderr)
        run = Run(args.workload, inputs, args.seconds)
        tracer = Tracer() if args.trace else None
        run_workload = run_retrain if args.workload == "retrain" else run_stream
        run_workload(run, run_dir, tracer)
        run_fingerprint = fingerprint(args, run_dir, cache_key, inputs.cache_hit)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if tracer is None:
        values = {**run.end_to_end, "peak_rss_mb": peak_rss_mb}
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    else:
        values = layer_metrics(run, tracer)
        unattributed = values["trace.unattributed_s"]
        run.check(
            "traced wall accounted for within 10%",
            abs(unattributed) <= 0.10 * run.traced_wall,
            f"{unattributed:.3f} s of {run.traced_wall:.3f} s unattributed",
        )
        print(tracer.table())
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    print(f"info: {json.dumps(run.info)}  untraced walls: "
          f"{[round(w, 3) for w in run.untraced_walls]}")
    for name, ok, detail in run.checks:
        if not ok:
            print(f"check failed: {name} {detail}", file=sys.stderr)

    print(json.dumps({"fingerprint": run_fingerprint}))
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
