"""Experiment scenarios: corpus comparisons, the oracle FOV study, bound
verification sweeps, ablations, cost modeling and plot-data emission.

Every scenario is a pure function of (inputs, seed) returning rows; the
runner layer writes CSV and JSON files plus a manifest that reproduces the
run byte-for-byte.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from . import __version__
from .config import (
    DEFAULT_GRID_SCALES, AblateSection, CompareSection, CostModel, ScorerSpec, TheoremSection,
)
from .decoding import (
    DecodeConfig,
    DecodeResult,
    DecodeTrace,
    decode_beam,
    decode_greedy,
    decode_halc,
)
from .distributions import argmax_logit, softmax
from .errors import InvalidInputError, InvalidParameterError
from .geometry import Fov, clamp_to_image, expand_fov
from .metrics import (
    CaptionRecord,
    build_corpus_stats,
    chair,
    corpus_bleu,
    opope,
    sample_query_objects,
)
from .schema import parse
from .world import (
    CORPUS_DETECTOR_ETA,
    CorpusSpec,
    DetectorSim,
    Scene,
    Scorer,
    generate_corpus,
    load_corpus,
    noisy_match_score,
    oracle_match_score,
    random_match_score,
    tag_token,
    toy_model_logits,
)

__all__ = [
    "CostModel",
    "CostEstimate",
    "cost_estimate",
    "verify_cost_accounting",
    "OracleStudyReport",
    "grid_fovs",
    "run_compare",
    "run_oracle_study",
    "run_theorem_verify",
    "run_ablations",
    "run_length_curve",
    "emit_profile_curve",
    "write_csv",
    "write_json",
    "write_manifest",
]

METHOD_ORDER = ("greedy", "beam", "halc")


# ---------------------------------------------------------------------------
# Time-cost model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostEstimate:
    sequential_seconds: float
    sequential_ratio: float
    parallel_seconds: float
    parallel_ratio: float

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def cost_estimate(model: CostModel) -> CostEstimate:
    """Expected decode wall time and its ratio over plain greedy decoding.

    The parallel variant assumes the n per-window re-decodings run
    concurrently, costing one decoding step each triggered token.
    """
    length, t, td = model.tokens, model.t_lvlm, model.t_detector
    rate, n = model.trigger_rate, model.n
    sequential = length * ((1.0 + rate * n) * t + rate * td)
    parallel = length * ((1.0 + rate) * t + rate * td)
    # Ratio grouping 1 + rate*(n + td/t) keeps the reference 2.4x and 1.7x
    # values bit-exact for the canonical inputs.
    return CostEstimate(
        sequential_seconds=sequential,
        sequential_ratio=1.0 + rate * (n + td / t),
        parallel_seconds=parallel,
        parallel_ratio=1.0 + rate * (1.0 + td / t),
    )


def verify_cost_accounting(trace: DecodeTrace, model: CostModel) -> bool:
    """Exact integer identity between a trace's call totals and its steps."""
    base_steps = len(trace.steps)
    triggered = sum(1 for s in trace.steps if s.triggered)
    expected_calls = base_steps + triggered * model.n
    for step in trace.steps:
        want = 1 + (model.n if step.triggered else 0)
        if step.model_call_count != want:
            return False
    return (
        trace.model_calls == expected_calls
        and trace.triggered == triggered
        and trace.detector_calls == triggered
    )


# ---------------------------------------------------------------------------
# Shared corpus decoding plumbing
# ---------------------------------------------------------------------------


def resolve_scorer(spec: str | ScorerSpec, seed: int = 0) -> Scorer:
    """The scorer a config names: a kind or a ScorerSpec."""
    if isinstance(spec, str):
        spec = ScorerSpec(kind=spec)
    if spec.kind == "noisy":
        return noisy_match_score(oracle_match_score, 0.1 if spec.amp is None else spec.amp, seed)
    if spec.kind == "random":
        return random_match_score(seed)
    return oracle_match_score


def build_corpus(spec: CorpusSpec, seed: int) -> list[Scene]:
    """The scenes of a corpus section: its file when it names one, else
    generated from the seed."""
    if spec.path is not None:
        return load_corpus(spec.path)
    return generate_corpus(seed, spec.scene_count, spec)


def _decode_scene(
    scene: Scene, method: str, config: DecodeConfig, detector, scorer: Scorer
) -> DecodeResult:
    """One scene decoded by the method a scenario names."""
    if method == "greedy":
        return decode_greedy(None, scene, config)
    if method == "beam":
        return decode_beam(None, scene, config.k, config)
    if method == "halc":
        return decode_halc(None, detector, scorer, None, scene, config)
    raise InvalidParameterError(f"unknown decode method {method!r}")


def decode_corpus(
    scenes: Sequence[Scene],
    method: str,
    config: DecodeConfig,
    detector=None,
    scorer: Optional[Scorer] = None,
) -> tuple[list[CaptionRecord], list[DecodeTrace]]:
    """Decode every scene with one method, seeding each scene independently."""
    detector = detector or DetectorSim(CORPUS_DETECTOR_ETA)
    scorer = scorer or oracle_match_score
    captions: list[CaptionRecord] = []
    traces: list[DecodeTrace] = []
    for idx, scene in enumerate(scenes):
        cfg = dataclasses.replace(config, seed=config.seed + idx)
        result = _decode_scene(scene, method, cfg, detector, scorer)
        captions.append(CaptionRecord.from_tokens(scene.scene_id, result.tokens, scene.lexicon))
        traces.append(result.trace)
    return captions, traces


def _pope_queries(
    scenes: Sequence[Scene],
    seed: int,
    mode: str,
    count: int,
) -> dict[str, tuple[tuple[str, ...], tuple[str, ...]]]:
    stats = build_corpus_stats(scenes)
    queries = {}
    for idx, scene in enumerate(scenes):
        rng = np.random.default_rng(np.random.SeedSequence((seed, idx)))
        queries[scene.scene_id] = sample_query_objects(scene, stats, mode, count, rng)
    return queries


def evaluate_captions(
    scenes: Sequence[Scene],
    captions: Sequence[CaptionRecord],
    queries,
    beta: float = 0.2,
) -> dict:
    scene_map = {s.scene_id: s for s in scenes}
    chair_report = chair(captions, scene_map)
    opope_report = opope(captions, scene_map, queries, beta)
    bleu = corpus_bleu(
        [c.tokens for c in captions],
        [scene_map[c.scene_id].reference_caption for c in captions],
    )
    return {
        "chair_s": chair_report.chair_s,
        "chair_i": chair_report.chair_i,
        "opope_accuracy": opope_report.accuracy,
        "opope_precision": opope_report.precision,
        "opope_recall": opope_report.recall,
        "opope_f_beta": opope_report.f_beta,
        "bleu": bleu,
    }


# ---------------------------------------------------------------------------
# Scenario: compare decoders over a corpus
# ---------------------------------------------------------------------------


def run_compare(
    scenes: Sequence[Scene],
    config: DecodeConfig,
    seed: int,
    options: CompareSection = CompareSection(),
    detector=None,
    scorer: Optional[Scorer] = None,
    methods: Sequence[str] = METHOD_ORDER,
) -> list[dict]:
    """Greedy, beam and corrective decoding over one corpus, one row each."""
    queries = _pope_queries(scenes, seed, options.pope_mode, options.pope_count)
    rows = []
    for method in methods:
        captions, _ = decode_corpus(scenes, method, config, detector, scorer)
        row = {"method": method}
        row.update(evaluate_captions(scenes, captions, queries, options.beta))
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Scenario: oracle FOV study
# ---------------------------------------------------------------------------

CATEGORIES = ("existence", "attribute", "relationship")


@dataclass(frozen=True)
class OracleStudyReport:
    observed: Mapping[str, int]
    eliminated: Mapping[str, int]

    @property
    def total_observed(self) -> int:
        return sum(self.observed.values())

    @property
    def total_eliminated(self) -> int:
        return sum(self.eliminated.values())

    @property
    def elimination_rate(self) -> float:
        total = self.total_observed
        return self.total_eliminated / total if total else 0.0

    def to_rows(self) -> list[dict]:
        rows = []
        for cat in CATEGORIES:
            obs = self.observed.get(cat, 0)
            elim = self.eliminated.get(cat, 0)
            rows.append(
                {
                    "category": cat,
                    "observed": obs,
                    "eliminated": elim,
                    "rate": elim / obs if obs else 0.0,
                }
            )
        rows.append(
            {
                "category": "overall",
                "observed": self.total_observed,
                "eliminated": self.total_eliminated,
                "rate": self.elimination_rate,
            }
        )
        return rows


def grid_fovs(
    image,
    positions: int = 8,
    scales: Sequence[float] = DEFAULT_GRID_SCALES,
) -> list[Fov]:
    """Exhaustive window grid: a positions x positions center lattice at each
    scale, clamped to the image."""
    fovs = []
    for s in scales:
        w, h = s * image.width, s * image.height
        for i in range(positions):
            for j in range(positions):
                cx = (i + 0.5) * image.width / positions
                cy = (j + 0.5) * image.height / positions
                fovs.append(clamp_to_image(Fov(w, h, cx, cy), image))
    return fovs


def run_oracle_study(
    scenes: Sequence[Scene],
    config: DecodeConfig,
    positions: int = 8,
    scales: Sequence[float] = DEFAULT_GRID_SCALES,
) -> OracleStudyReport:
    """Grid-search a correcting window for every hallucination greedy emits.

    A hallucination at caption position t is eliminated when some grid window
    makes the model's argmax at that step equal the reference token.
    """
    observed = {cat: 0 for cat in CATEGORIES}
    eliminated = {cat: 0 for cat in CATEGORIES}
    for scene in scenes:
        result = decode_greedy(None, scene, config)
        tokens = result.tokens
        lexicon = scene.lexicon
        gt = scene.ground_truth_names
        reference = scene.reference_caption
        grid = grid_fovs(scene.image, positions, scales)
        for t, tok in enumerate(tokens):
            category = tag_token(lexicon, tok)
            if category == "none" or t >= len(reference):
                continue
            if category == "existence":
                hallucinated = tok not in gt
            else:
                hallucinated = tok != reference[t]
            if not hallucinated:
                continue
            observed[category] += 1
            prefix = list(tokens[:t])
            target = scene.token_id(reference[t])
            for fov in grid:
                if argmax_logit(toy_model_logits(scene, fov, prefix)) == target:
                    eliminated[category] += 1
                    break
    return OracleStudyReport(observed=observed, eliminated=eliminated)


# ---------------------------------------------------------------------------
# Scenario: theorem verification sweep
# ---------------------------------------------------------------------------


def _theorem_grid(section: TheoremSection, seed: int):
    """The bump model and the (sampler, TheoremConfig) rows of a theorem
    section, in output order, built before any trial is drawn."""
    from .theory import GaussianBumpModel, TheoremConfig

    v_star = section.v_star
    model = GaussianBumpModel(center=v_star, amp=float(section.amp))
    ratio = float(section.eta_scale)
    shared = dict(
        v_star=v_star,
        lam=float(section.lam),
        r_min=float(section.r_min),
        r_max=float(section.r_max),
        trials=section.trials,
        divergence=section.divergence,
    )
    grid = []
    for sampler in section.samplers:
        if sampler == "normal":
            combos = list(product(section.epsilons, section.etas, section.sigmas))
        else:
            # Exponential sampling must keep the detection aspect ratio equal
            # to the optimum's and the center offset inside epsilon.
            eta = (ratio * v_star[0], ratio * v_star[1], 0.1)
            combos = [(float(section.exp_epsilon), eta, 1.0)]
        for eps, eta, sigma in combos:
            for n in section.n_values:
                cfg = TheoremConfig(eta=eta, epsilon=eps, sigma=sigma, n=n, seed=seed + n, **shared)
                grid.append((sampler, cfg))
    return model, grid


def _theorem_rows(model, members: Sequence[tuple], block) -> list[dict]:
    """CSV rows of grid rows that share one trial set: the first row scores
    the drawn `block`, the others rescore its minima at their epsilon."""
    from .theory import bound_report, min_deviation_mc

    first = None
    rows = []
    for sampler, cfg in members:
        if first is None:
            report = first = min_deviation_mc(model, cfg, sampler, block)
        else:
            report = bound_report(
                model, cfg, sampler, first.min_deviation_samples, first.min_distance_samples
            )
        row = {
            "epsilon": cfg.epsilon,
            "eta_norm": float(np.linalg.norm(cfg.eta)),
            "sigma": cfg.sigma if sampler == "normal" else "",
        }
        row.update(report.to_csv_row())
        rows.append(row)
    return rows


def run_theorem_verify(
    options: TheoremSection | Mapping | None = None, seed: int = 0
) -> list[dict]:
    """Bound reports over a grid of sampler configurations.

    The random draw of a trial set depends on the sampler and n, and every
    other input of it is the same for the whole grid, so each (sampler, n)
    block is drawn once. Each (eta, sigma) scores the block once, and rows
    that differ only in epsilon rescore that trial set. The rows keep the
    grid order.
    """
    from .theory import draw_trials

    section = parse(TheoremSection, {} if options is None else options, "theorem")
    model, grid = _theorem_grid(section, seed)
    draws: dict[tuple, dict[tuple, list[int]]] = {}
    for i, (sampler, cfg) in enumerate(grid):
        sets = draws.setdefault((sampler, cfg.n), {})
        sets.setdefault((cfg.eta, cfg.sigma), []).append(i)
    rows: list = [None] * len(grid)
    for sets in draws.values():
        first = next(iter(sets.values()))[0]
        sampler, cfg = grid[first]
        try:
            block = draw_trials(cfg, sampler)
            for indices in sets.values():
                for i, row in zip(indices, _theorem_rows(model, [grid[i] for i in indices], block)):
                    rows[i] = row
        except OverflowError as exc:
            # The r range and the bound formulas overflow on huge values.
            raise InvalidParameterError(f"theorem values too large: {exc}") from exc
        del block  # before the next block is drawn
    return rows


# ---------------------------------------------------------------------------
# Scenario: ablations
# ---------------------------------------------------------------------------

def run_ablations(
    scenes: Sequence[Scene],
    config: DecodeConfig,
    seed: int,
    options: AblateSection | Mapping | None = None,
) -> dict[str, list[dict]]:
    """Sweeps over sampling initialization, growth factor, beam size and
    scorer, one table each. A row decodes the corpus with HALC once per
    seed and averages the metrics; only the scorer sweep, whose scorers
    may be seeded, uses several seeds."""
    options = parse(AblateSection, {} if options is None else options, "ablate")
    detector = DetectorSim(options.detector_eta)
    queries = _pope_queries(scenes, seed, options.pope_mode, 3)
    scorer_seeds = options.scorer_seeds or [seed + i for i in range(5)]
    # (table, column, values, value -> changed decode fields); the scorer
    # sweep changes the scorer instead.
    sweeps = (
        ("init", "init", options.inits,
         lambda init: {"sampling_mode": "exponential" if init == "detector" else init}),
        ("lambda", "lambda", options.lambdas, lambda lam: {"lam": lam}),
        ("beam", "k", options.beams, lambda k: {"k": k}),
        ("scorer", "scorer", options.scorers, lambda spec: {}),
    )
    tables: dict[str, list[dict]] = {}
    for table, column, values, change in sweeps:
        tables[table] = rows = []
        for value in values:
            spec, seeds = (value, scorer_seeds) if table == "scorer" else ("oracle", [seed])
            totals: dict[str, float] = {}
            for s in seeds:
                cfg = dataclasses.replace(config, seed=s, **change(value))
                scorer = resolve_scorer(spec, seed=s)
                captions, _ = decode_corpus(scenes, "halc", cfg, detector, scorer)
                for key, metric in evaluate_captions(scenes, captions, queries).items():
                    totals[key] = totals.get(key, 0.0) + metric
            rows.append({column: value, **{key: t / len(seeds) for key, t in totals.items()}})
    return tables


# ---------------------------------------------------------------------------
# Scenario: hallucination vs generation length
# ---------------------------------------------------------------------------


def run_length_curve(
    scenes: Sequence[Scene],
    config: DecodeConfig,
    grid: Sequence[int],
    detector=None,
    scorer: Optional[Scorer] = None,
    trace_sink: Optional[list[DecodeTrace]] = None,
) -> list[dict]:
    """Object mentions and the instance-level hallucination ratio of greedy
    and HALC captions at each token budget. Every scene decodes with the
    one decode seed; each trace goes to trace_sink when one is given."""
    if not grid:
        raise InvalidInputError("max-token grid must be nonempty")
    detector = detector or DetectorSim(CORPUS_DETECTOR_ETA)
    scorer = scorer or oracle_match_score
    scene_map = {s.scene_id: s for s in scenes}
    rows = []
    for method in ("greedy", "halc"):
        for budget in grid:
            cfg = dataclasses.replace(config, max_tokens=budget)
            captions = []
            for scene in scenes:
                result = _decode_scene(scene, method, cfg, detector, scorer)
                if trace_sink is not None:
                    trace_sink.append(result.trace)
                tokens = result.tokens
                captions.append(CaptionRecord.from_tokens(scene.scene_id, tokens, scene.lexicon))
            report = chair(captions, scene_map)
            rows.append(
                {
                    "method": method,
                    "max_tokens": budget,
                    "objects": report.mentions,
                    "hallucinated": report.hallucinated_mentions,
                    "chair_i": report.chair_i,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Scenario: token likelihood profile curves
# ---------------------------------------------------------------------------


def emit_profile_curve(
    scene: Scene,
    tokens: Sequence[str],
    r_grid: Sequence[float],
    lam: float = 0.6,
    detector=None,
    anchor_token: Optional[str] = None,
) -> list[dict]:
    """Log-probability of each token at windows expanded from the grounding
    box, under bare visual conditioning."""
    detector = detector or DetectorSim(CORPUS_DETECTOR_ETA)
    for tok in tokens:
        scene.token_id(tok)
    if anchor_token is None:
        anchor_token = scene.trap.trap if scene.trap else scene.objects[0].name
    v_d = detector(anchor_token, scene)
    if v_d is None:
        raise InvalidInputError(f"no grounding available for {anchor_token!r}")
    rows = []
    for r in r_grid:
        fov = clamp_to_image(expand_fov(v_d, lam, r), scene.image)
        probs = softmax(toy_model_logits(scene, fov, None))
        with np.errstate(divide="ignore"):
            logprobs = np.log(probs)
        for tok in tokens:
            rows.append(
                {"r": r, "token": tok, "logprob": float(logprobs[scene.token_id(tok)])}
            )
    return rows


# ---------------------------------------------------------------------------
# Output writing
# ---------------------------------------------------------------------------


def write_csv(path: Path, rows: Sequence[Mapping], fieldnames: Optional[Sequence[str]] = None) -> None:
    if not rows:
        raise InvalidInputError(f"refusing to write empty table {path}")
    names = list(fieldnames or rows[0].keys())
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=names, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in names})


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_manifest(out_dir: Path, scenario: str, seed: int, config_echo: Mapping) -> None:
    """Write out_dir/manifest.json atomically: the document goes to a
    temporary file in out_dir, which is renamed over the manifest only once
    it is complete, so a failed write leaves no partial manifest and no
    temporary file."""
    tmp = out_dir / "manifest.json.tmp"
    try:
        write_json(
            tmp,
            {
                "scenario": scenario,
                "seed": seed,
                "config": dict(config_echo),
                "package_version": __version__,
                "format_version": 1,
            },
        )
        os.replace(tmp, out_dir / "manifest.json")
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_csv(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))
