"""Benchmark of the halc package: four workloads, end-to-end timings, and a
traced run that reports per-layer self time and counters.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus-compare --seed 1 --seconds 10 --trace 0

With --trace 0 the run measures set-up in fresh processes, then repeats the
workload for at least --seconds seconds and prints the end-to-end metrics.
With --trace 1 it runs the workload once untraced and once traced, and prints
the per-layer metrics. Either way every output is checked, and the last line
of standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import probes
from tracer import Tracer
from workloads import WORKLOADS, check_digests, scaled_call

ROOT = Path.cwd()
SRC = ROOT / "src"
TMP_PARENT = ROOT / ".perfbench_tmp"
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_table() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run prints."""
    table = []
    for name in probes.SPANS:
        table.append((f"{name}.calls", "count", "lower"))
        table.append((f"{name}.self_s", "s", "lower"))
    table += [(f"{layer}.self_s", "s", "lower") for layer in probes.LAYERS]
    table += [
        ("world.detector.hit_ratio", "ratio", "higher"),
        ("distributions.jsd.useful_ratio", "ratio", "higher"),
        ("decoding.candidates.distinct_ratio", "ratio", "higher"),
        ("decoding.trigger_rate", "ratio", "lower"),
        ("decoding.greedy.tok_per_s", "1/s", "higher"),
        ("decoding.beam.tok_per_s", "1/s", "higher"),
        ("decoding.halc.tok_per_s", "1/s", "higher"),
        ("decoding.halc_k3.tok_per_s", "1/s", "higher"),
        ("decoding.halc.scene_p50_ms", "ms", "lower"),
        ("decoding.halc.scene_p90_ms", "ms", "lower"),
        ("decoding.halc.scene_p90_beyond", "count", "higher"),
        ("metrics.greedy_chair_i", "ratio", "lower"),
        ("metrics.halc_chair_i", "ratio", "lower"),
        ("metrics.halc_bleu", "ratio", "higher"),
        ("harness.cost.call_ratio", "ratio", "lower"),
        ("harness.cost.predicted_ratio", "ratio", "lower"),
        ("harness.cost.model_ratio", "ratio", "lower"),
        ("harness.cost.wall_ratio", "ratio", "lower"),
        ("theory.rows_violating", "count", "lower"),
        ("trace_overhead_ratio", "ratio", "lower"),
        ("trace.unattributed_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("calibration.raw_run_s", "s", "lower"),
    ]
    return table


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="set up once and exit (set-up probe)")
    return parser.parse_args(argv)


def pin_to_one_cpu() -> None:
    """Run on one CPU, so that reference-kernel samples and the work they
    scale share it; set-up probes inherit the affinity."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def probe_setup(workload: str, seed: int) -> float:
    """Time at reference speed of a fresh interpreter that imports halc and
    builds the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    proc, _, scaled = scaled_call(
        lambda: subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with {proc.returncode}: {proc.stderr.strip()}")
    return scaled


def timed_run(workload, seconds: float) -> tuple[dict, list]:
    setup = [probe_setup(workload.name, workload.seed) for _ in range(SETUP_SAMPLES)]
    workload.load()
    workload.build()
    workload.prepare()
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(workload.run_pass())
    for p in passes[1:]:
        p.problems += check_digests(passes[0].digest, p.digest)
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(p.scaled_s for p in passes),
        "work_per_s": statistics.median(p.work_per_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(
        f"{workload.name}: {len(passes)} passes, raw pass wall "
        f"{[round(p.wall_s, 4) for p in passes]} s, machine slowdown "
        f"{[round(p.wall_s / p.scaled_s, 4) for p in passes]} against the reference speed",
        file=sys.stderr,
    )
    return {name: (metrics[name], unit) for name, unit in END_TO_END}, passes


def traced_run(workload) -> tuple[dict, list]:
    workload.load()
    tracer = Tracer()
    probes.install(tracer)
    try:
        with tracer.span("bench.setup"):
            workload.build()
    finally:
        tracer.uninstall()
    workload.prepare()
    reference = workload.run_pass()
    probes.install(tracer)
    try:
        with tracer.span("bench.run") as run_span:
            traced = workload.run_pass(tracer)
    finally:
        tracer.uninstall()
    traced.problems += check_digests(reference.digest, traced.digest)

    values = probes.layer_metrics(tracer, run_span)
    values.update(reference.readings)
    values["trace_overhead_ratio"] = traced.scaled_s / reference.scaled_s
    values["calibration.raw_run_s"] = reference.wall_s
    metrics = {name: (values.get(name, 0.0), unit) for name, unit, _ in per_layer_table()}
    return metrics, [reference, traced]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "halc" / "__init__.py").is_file():
        print(f"error: no halc sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        workload = WORKLOADS[args.workload](args.seed)
        workload.load()
        workload.build()
        return 0

    pin_to_one_cpu()
    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_PARENT))
    try:
        workload = WORKLOADS[args.workload](args.seed, tmp)
        if args.trace:
            metrics, passes = traced_run(workload)
        else:
            metrics, passes = timed_run(workload, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass  # another run still uses it

    problems = [msg for p in passes for msg in p.problems]
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
