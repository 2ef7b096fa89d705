"""The benchmark's four workloads and the checks on their outputs.

Each workload is a closed loop: one caller submits the next scene (or CLI
call) only after the previous one is done. `load` imports the halc modules,
`build` makes the inputs from the seed, and `run_pass` runs the workload
once and checks its outputs. halc is imported lazily, so that a set-up probe
in a fresh process measures the imports too.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import importlib
import json
import math
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

HALC_MODULES = ("world", "geometry", "distributions", "decoding", "metrics", "harness", "cli")

# corpus-compare drives the log-prob beam through decode_beam with this
# width: run_compare passes config.k (1 by default) to the beam baseline.
BEAM_K = 3
HALC_K3 = 3
COMPARE_SCENES = 100
WIDE_SCENES = 30
WIDE_FILLERS = 4000
ORACLE_SCENES = 200
ORACLE_CORRECTABLE = 0.845
THEOREM_TRIALS = 100_000
THEOREM_ROWS = 27  # default sampler grid: 2 eps x 2 eta x 2 sigma x 3 n + 3 exponential
THEOREM_MAX_VIOLATION = 0.01
P90_MIN_BEYOND = 10

REFERENCE_SAMPLES = 5  # kernel samples before and after a CLI call or set-up probe
_SMALL_VECTOR = np.linspace(-3.0, 3.0, 128)


@dataclass
class PassResult:
    """One pass of a workload: timings, output digest, checks and readings."""

    wall_s: float
    scaled_s: float  # wall_s at reference speed
    work_per_s: float  # likewise
    digest: str
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    readings: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


def percentile_with_tail(samples: Sequence[float], q: float, min_beyond: int = P90_MIN_BEYOND):
    """Nearest-rank q-th percentile and the count of samples above it.

    The value is None unless at least `min_beyond` samples lie strictly
    above it, so that a tail figure always rests on enough samples.
    """
    if not samples:
        return None, 0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    value = ordered[rank - 1]
    beyond = sum(1 for s in ordered if s > value)
    return (value if beyond >= min_beyond else None), beyond


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Reference kernels
#
# The machine the bounds were set on slows code by up to 2x, for seconds to
# minutes at a time, and slows different kinds of code by different amounts.
# A reference kernel is fixed work in one workload's own mix, whose code never
# changes with halc. A time multiplied by the kernel's nominal time over its
# time measured next to it cancels the machine's speed and keeps halc's.
# ---------------------------------------------------------------------------


def _small_arrays() -> None:
    """Interpreter overhead and numpy calls on 128-vectors: the decoders' mix."""
    v = _SMALL_VECTOR
    for _ in range(500):
        e = np.exp(v - v.max())
        e /= e.sum()


def _large_arrays() -> None:
    """Gaussian draws and norms over 600k values: the Monte-Carlo mix."""
    x = np.random.default_rng(0).normal(size=(200_000, 3))
    float((np.linalg.norm(x, axis=1) <= 1.0).mean())


class Kernel(NamedTuple):
    work: Callable[[], None]
    nominal_s: float  # median time on the machine the bounds were set on

    def time(self) -> float:
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0


# Nominal times: a 2-vCPU VM, Python 3.11, numpy 2.4.
SMALL_ARRAYS = Kernel(_small_arrays, 2.0e-3)
LARGE_ARRAYS = Kernel(_large_arrays, 15e-3)


def scaled_call(fn: Callable, kernel: Kernel = SMALL_ARRAYS) -> tuple[object, float, float]:
    """fn() between kernel samples: (result, wall, wall at reference speed)."""
    samples = [kernel.time() for _ in range(REFERENCE_SAMPLES)]
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    samples += [kernel.time() for _ in range(REFERENCE_SAMPLES)]
    return result, wall, wall * kernel.nominal_s / statistics.median(samples)


# ---------------------------------------------------------------------------
# Output checks; each returns a list of problems, empty when the check holds
# ---------------------------------------------------------------------------


def check_cost_accounting(traces, n: int, harness) -> list[str]:
    """model_calls = steps + triggered * n, per step and in total."""
    model = harness.CostModel(n=n)
    bad = sum(1 for t in traces if not harness.verify_cost_accounting(t, model))
    return [f"call accounting broken in {bad} of {len(traces)} traces"] if bad else []


def cost_readings(traces, n: int, harness) -> dict[str, float]:
    """Measured trigger rate and model calls per step, with the cost model's
    prediction for that trigger rate."""
    steps = sum(len(t.steps) for t in traces)
    triggered = sum(t.triggered for t in traces)
    calls = sum(t.model_calls for t in traces)
    rate = ratio(triggered, steps)
    predicted = harness.cost_estimate(harness.CostModel(n=n, trigger_rate=rate)).sequential_ratio
    return {
        "decoding.trigger_rate": rate,
        "harness.cost.call_ratio": ratio(calls, steps),
        "harness.cost.predicted_ratio": predicted,
    }


def check_call_ratio(readings: dict[str, float]) -> list[str]:
    measured = readings["harness.cost.call_ratio"]
    predicted = readings["harness.cost.predicted_ratio"]
    if math.isclose(measured, predicted, rel_tol=1e-12):
        return []
    return [f"call ratio {measured!r} differs from the cost model's {predicted!r}"]


def check_chair(halc_chair_i: float, greedy_chair_i: float) -> list[str]:
    if halc_chair_i < greedy_chair_i:
        return []
    return [f"HALC CHAIR_i {halc_chair_i} is not below greedy's {greedy_chair_i}"]


def check_oracle_rows(rows: Sequence[dict], expected: int) -> list[str]:
    overall = [r for r in rows if r.get("category") == "overall"]
    if len(overall) != 1:
        return ["oracle study output has no single overall row"]
    got = int(overall[0]["eliminated"])
    return [] if got == expected else [f"oracle study eliminated {got}, expected {expected}"]


def theorem_row_problems(row: dict) -> list[str]:
    """The bound delta + (1 - C)^n holds for the mean minimum deviation, and
    single trials exceed it rarely.

    Single trials do exceed it: on rows where (1 - C)^n is small, a trial
    whose n windows all miss the neighbourhood, or whose deviation sits just
    above the probe estimate of delta, lands above the bound. The per-trial
    tolerance is the one tests/test_theory.py applies.
    """
    problems = []
    mean, bound = float(row["mean_min_deviation"]), float(row["bound"])
    violation = float(row["violation_fraction"])
    label = f"{row['sampler']} eps={row['epsilon']} eta={row['eta_norm']} n={row['n']}"
    if not mean <= bound + 1e-12:
        problems.append(f"{label}: mean minimum deviation {mean} above bound {bound}")
    if not violation <= THEOREM_MAX_VIOLATION:
        problems.append(f"{label}: violation fraction {violation} above {THEOREM_MAX_VIOLATION}")
    return problems


def check_digests(reference: str, other: str) -> list[str]:
    return [] if reference == other else [f"output digest {other[:12]} differs from {reference[:12]}"]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    extra_modules: tuple[str, ...] = ()
    cli_kernel = SMALL_ARRAYS  # scales the time of a CLI call

    def __init__(self, seed: int, tmp_root: Optional[Path] = None) -> None:
        self.seed = seed
        self.tmp_root = tmp_root
        self.m: dict = {}

    def load(self) -> None:
        for name in HALC_MODULES + self.extra_modules:
            self.m[name] = importlib.import_module(f"halc.{name}")

    def build(self) -> None:
        """Make the inputs from the seed; a CLI workload makes them inside the CLI."""

    def prepare(self) -> None:
        """Untimed work after set-up, before the first pass."""

    def run_pass(self, tracer=None) -> PassResult:
        raise NotImplementedError

    def _run_cli(self, args: list[str], tracer) -> tuple[int, Path, float, float]:
        """One CLI call writing into a fresh temporary --out directory:
        (exit code, out dir, wall, wall at reference speed)."""
        out = Path(tempfile.mkdtemp(prefix="out-", dir=self.tmp_root))
        if tracer is not None:
            tracer.request_id += 1
        argv = args + ["--seed", str(self.seed), "--out", str(out)]
        code, wall, scaled = scaled_call(lambda: self.m["cli"].main(argv), self.cli_kernel)
        return code, out, wall, scaled


def _read_csv(path: Path) -> tuple[list[dict], str]:
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return [], ""
    rows = list(csv.DictReader(data.decode("utf-8").splitlines()))
    return rows, hashlib.sha256(data).hexdigest()


class _DecodeWorkload(Workload):
    """Decodes every scene of a generated corpus with several decoders."""

    scenes_count = 0
    filler_count: Optional[int] = None
    methods: tuple[str, ...] = ()

    def build(self) -> None:
        world = self.m["world"]
        spec = world.CorpusSpec(scene_count=self.scenes_count)
        if self.filler_count is not None:
            spec = dataclasses.replace(spec, filler_count=self.filler_count)
        self.scenes = world.generate_corpus(self.seed, self.scenes_count, spec)

    def _runners(self) -> dict[str, Callable]:
        world, decoding = self.m["world"], self.m["decoding"]
        detector = world.DetectorSim(world.CORPUS_DETECTOR_ETA)
        # Looked up per pass, so that a traced pass calls the wrapped names.
        scorer = world.oracle_match_score
        runners = {
            "greedy": lambda scene, cfg: decoding.decode_greedy(None, scene, cfg),
            "beam": lambda scene, cfg: decoding.decode_beam(None, scene, BEAM_K, cfg),
            "halc": lambda scene, cfg: decoding.decode_halc(None, detector, scorer, None, scene, cfg),
            "halc_k3": lambda scene, cfg: decoding.decode_halc(
                None, detector, scorer, None, scene, dataclasses.replace(cfg, k=HALC_K3)
            ),
        }
        return {name: runners[name] for name in self.methods}

    def run_pass(self, tracer=None) -> PassResult:
        decoding, metrics, harness = self.m["decoding"], self.m["metrics"], self.m["harness"]
        base = decoding.DecodeConfig(seed=self.seed)
        runners = self._runners()
        captions = {m: [] for m in runners}
        traces = {m: [] for m in runners}
        seconds = {m: [] for m in runners}
        scaled = {m: [] for m in runners}  # at reference speed
        kernel: list[float] = []
        tokens = {m: [] for m in runners}
        problems: list[str] = []
        digest = hashlib.sha256()
        t_pass = time.perf_counter()
        for idx, scene in enumerate(self.scenes):
            if tracer is not None:
                tracer.request_id = idx
            # Per-scene decode seeds, as harness.decode_corpus assigns them.
            cfg = dataclasses.replace(base, seed=base.seed + idx)
            # One kernel sample per scene scales that scene's decode times.
            kernel.append(SMALL_ARRAYS.time())
            for method, run in runners.items():
                t0 = time.perf_counter()
                try:
                    result = run(scene, cfg)
                except Exception as exc:  # one failed decode must not end the run
                    problems.append(f"{method} {scene.scene_id}: {exc!r}")
                    continue
                sec = time.perf_counter() - t0
                seconds[method].append(sec)
                scaled[method].append(sec * SMALL_ARRAYS.nominal_s / kernel[-1])
                tokens[method].append(len(result.tokens))
                traces[method].append(result.trace)
                captions[method].append(
                    metrics.CaptionRecord.from_tokens(scene.scene_id, result.tokens, scene.lexicon)
                )
                digest.update(f"{method}\t{scene.scene_id}\t{' '.join(result.tokens)}\n".encode())
        t_eval = time.perf_counter()
        queries = harness._pope_queries(self.scenes, self.seed, "random", 3)
        quality = {
            m: harness.evaluate_captions(self.scenes, captions[m], queries) for m in runners
        }
        t_end = time.perf_counter()
        eval_scaled = (t_end - t_eval) * SMALL_ARRAYS.nominal_s / statistics.median(kernel)

        readings = {
            f"decoding.{m}.tok_per_s": ratio(sum(tokens[m]), sum(scaled[m])) for m in runners
        }
        p50 = statistics.median(scaled["halc"]) if scaled["halc"] else 0.0
        p90, beyond = percentile_with_tail(scaled["halc"], 90)
        readings["decoding.halc.scene_p50_ms"] = 1e3 * p50
        readings["decoding.halc.scene_p90_ms"] = 1e3 * p90 if p90 is not None else 0.0
        readings["decoding.halc.scene_p90_beyond"] = beyond
        readings["metrics.greedy_chair_i"] = quality["greedy"]["chair_i"]
        readings["metrics.halc_chair_i"] = quality["halc"]["chair_i"]
        readings["metrics.halc_bleu"] = quality["halc"]["bleu"]

        n = base.n
        readings.update(cost_readings(traces["halc"], n, harness))
        greedy_calls = sum(t.model_calls for t in traces["greedy"])
        halc_calls = sum(t.model_calls for t in traces["halc"])
        readings["harness.cost.model_ratio"] = ratio(halc_calls, greedy_calls)
        readings["harness.cost.wall_ratio"] = ratio(sum(seconds["halc"]), sum(seconds["greedy"]))

        for m in runners:
            if m.startswith("halc"):
                problems += check_cost_accounting(traces[m], n, harness)
        problems += check_call_ratio(readings)
        attempted = len(self.scenes) * len(runners)
        failed = attempted - sum(len(s) for s in seconds.values())
        # A median over scenes: a burst of machine noise moves it only when
        # the burst spans half the pass.
        halc_rates = [ratio(t, s) for t, s in zip(tokens["halc"], scaled["halc"])]
        return PassResult(
            wall_s=t_end - t_pass,
            scaled_s=sum(sum(v) for v in scaled.values()) + eval_scaled,
            work_per_s=statistics.median(halc_rates) if halc_rates else 0.0,
            digest=digest.hexdigest(),
            attempted=attempted,
            failed=failed,
            problems=problems,
            readings=readings,
        )


class CorpusCompare(_DecodeWorkload):
    name = "corpus-compare"
    scenes_count = COMPARE_SCENES
    methods = ("greedy", "beam", "halc", "halc_k3")

    def run_pass(self, tracer=None) -> PassResult:
        result = super().run_pass(tracer)
        r = result.readings
        result.problems += check_chair(r["metrics.halc_chair_i"], r["metrics.greedy_chair_i"])
        return result


class WideVocab(_DecodeWorkload):
    name = "wide-vocab"
    scenes_count = WIDE_SCENES
    filler_count = WIDE_FILLERS
    methods = ("greedy", "halc")


class OracleGrid(Workload):
    name = "oracle-grid"
    windows = 0  # grid windows one study evaluates, counted by prepare()

    def prepare(self) -> None:
        """Count the grid windows one study evaluates; the count depends on
        the seed only, and the timed passes run the code unwrapped."""
        harness = self.m["harness"]
        original = harness.toy_model_logits
        calls = 0

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        harness.toy_model_logits = counted
        try:
            self.run_pass()
        finally:
            harness.toy_model_logits = original
        self.windows = calls

    def run_pass(self, tracer=None) -> PassResult:
        code, out, wall, scaled = self._run_cli(["oracle-study"], tracer)
        rows, digest = _read_csv(out / "oracle_study.csv")
        shutil.rmtree(out)
        problems = [] if code == 0 else [f"oracle-study exited with {code}"]
        problems += check_oracle_rows(rows, round(ORACLE_CORRECTABLE * ORACLE_SCENES))
        return PassResult(
            wall_s=wall,
            scaled_s=scaled,
            work_per_s=self.windows / scaled,
            digest=digest,
            attempted=1,
            failed=1 if problems else 0,
            problems=problems,
        )


class TheoremMc(Workload):
    name = "theorem-mc"
    extra_modules = ("theory",)
    # theorem-verify's large arrays slow less than small-array code when the
    # machine slows, so SMALL_ARRAYS would over-correct them; unscaled, their
    # time rose by 40% in one slow phase.
    cli_kernel = LARGE_ARRAYS

    def run_pass(self, tracer=None) -> PassResult:
        config = Path(tempfile.mkdtemp(prefix="cfg-", dir=self.tmp_root)) / "theorem.json"
        config.write_text(json.dumps({"theorem": {"trials": THEOREM_TRIALS}}))
        code, out, wall, scaled = self._run_cli(["theorem-verify", "--config", str(config)], tracer)
        rows, digest = _read_csv(out / "theorem.csv")
        shutil.rmtree(out)
        shutil.rmtree(config.parent)
        problems = [] if code == 0 else [f"theorem-verify exited with {code}"]
        failed_rows = 0
        for row in rows:
            row_problems = theorem_row_problems(row)
            failed_rows += bool(row_problems)
            problems += row_problems
        missing = max(0, THEOREM_ROWS - len(rows))
        if missing:
            problems.append(f"theorem-verify wrote {len(rows)} rows, expected {THEOREM_ROWS}")
        return PassResult(
            wall_s=wall,
            scaled_s=scaled,
            work_per_s=sum(int(r["trials"]) * int(r["n"]) for r in rows) / scaled,
            digest=digest,
            attempted=max(len(rows), THEOREM_ROWS),
            failed=failed_rows + missing,
            problems=problems,
            readings={
                "theory.rows_violating": sum(float(r["violation_fraction"]) > 0 for r in rows)
            },
        )


WORKLOADS = {w.name: w for w in (CorpusCompare, OracleGrid, WideVocab, TheoremMc)}
