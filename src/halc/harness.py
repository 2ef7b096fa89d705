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
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from . import __version__
from .decoding import (
    DecodeConfig,
    DecodeResult,
    DecodeTrace,
    decode_beam,
    decode_greedy,
    decode_halc,
)
from .distributions import argmax_token, softmax
from .errors import ConfigError, InvalidInputError, InvalidParameterError
from .geometry import Fov, clamp_to_image, expand_fov
from .metrics import (
    CaptionRecord,
    build_corpus_stats,
    chair,
    corpus_bleu,
    hallucination_vs_length,
    opope,
    sample_query_objects,
)
from .world import (
    CORPUS_DETECTOR_ETA,
    CorpusSpec,
    DetectorSim,
    Scene,
    Scorer,
    generate_corpus,
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
class CostModel:
    """Closed-form runtime accounting for corrective decoding."""

    tokens: int = 64
    t_lvlm: float = 1.0
    t_detector: float = 0.0
    n: int = 4
    trigger_rate: float = 0.35

    def __post_init__(self) -> None:
        if min(self.tokens, self.t_lvlm, self.t_detector, self.n) < 0:
            raise InvalidParameterError("cost model fields must be nonnegative")
        if not 0.0 <= self.trigger_rate <= 1.0:
            raise InvalidParameterError("trigger rate must lie in [0, 1]")


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


def resolve_scorer(spec, seed: int = 0) -> Scorer:
    if spec is None or spec == "oracle":
        return oracle_match_score
    if callable(spec):
        return spec
    if spec == "random":
        return random_match_score(seed)
    if spec == "noisy":
        return noisy_match_score(oracle_match_score, 0.1, seed)
    if isinstance(spec, Mapping):
        kind = spec.get("kind", "oracle")
        if kind == "noisy":
            return noisy_match_score(oracle_match_score, spec.get("amp", 0.1), seed)
        if kind == "random":
            return random_match_score(seed)
        if kind == "oracle":
            return oracle_match_score
    raise InvalidParameterError(f"unknown scorer spec {spec!r}")


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
        if method == "greedy":
            result = decode_greedy(None, scene, cfg)
        elif method == "beam":
            result = decode_beam(None, scene, cfg.k, cfg)
        elif method == "halc":
            result = decode_halc(None, detector, scorer, None, scene, cfg)
        else:
            raise InvalidParameterError(f"unknown decode method {method!r}")
        captions.append(
            CaptionRecord.from_tokens(scene.scene_id, result.tokens, scene.lexicon)
        )
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
    pope_mode: str = "random",
    pope_count: int = 3,
    beta: float = 0.2,
    detector=None,
    scorer: Optional[Scorer] = None,
    methods: Sequence[str] = METHOD_ORDER,
) -> list[dict]:
    """Greedy, beam and corrective decoding over one corpus, one row each."""
    queries = _pope_queries(scenes, seed, pope_mode, pope_count)
    rows = []
    for method in methods:
        captions, _ = decode_corpus(scenes, method, config, detector, scorer)
        row = {"method": method}
        row.update(evaluate_captions(scenes, captions, queries, beta))
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Scenario: oracle FOV study
# ---------------------------------------------------------------------------

DEFAULT_GRID_SCALES = (0.1, 0.2, 0.3, 0.4, 0.6, 0.9)
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
                if argmax_token(toy_model_logits(scene, fov, prefix)) == target:
                    eliminated[category] += 1
                    break
    return OracleStudyReport(observed=observed, eliminated=eliminated)


# ---------------------------------------------------------------------------
# Scenario: theorem verification sweep
# ---------------------------------------------------------------------------


def run_theorem_verify(options: Optional[Mapping] = None, seed: int = 0) -> list[dict]:
    """Bound reports over a grid of sampler configurations."""
    from .theory import GaussianBumpModel, TheoremConfig, min_deviation_mc

    options = dict(options or {})
    v_star = tuple(options.get("v_star", (4.0, 4.0, 0.0)))
    model = GaussianBumpModel(center=v_star, amp=float(options.get("amp", 1.0)))
    n_values = options.get("n_values", [2, 4, 8])
    trials = int(options.get("trials", 10_000))
    divergence = options.get("divergence", "tv")
    rows = []
    for sampler in options.get("samplers", ["normal", "exponential"]):
        if sampler == "normal":
            etas = [tuple(e) for e in options.get("etas", [(0.0, 0.0, 0.0), (0.8, 0.6, 0.0)])]
            sigmas = options.get("sigmas", [0.5, 1.0])
            epsilons = options.get("epsilons", [0.5, 1.0])
            combos = [
                (eps, eta, sigma) for eps in epsilons for eta in etas for sigma in sigmas
            ]
        else:
            # Exponential sampling must keep the detection aspect ratio equal
            # to the optimum's and the center offset inside epsilon.
            ratio = float(options.get("eta_scale", 0.5))
            combos = [(float(options.get("exp_epsilon", 1.0)), (ratio * v_star[0], ratio * v_star[1], 0.1), None)]
        for eps, eta, sigma in combos:
            for n in n_values:
                cfg = TheoremConfig(
                    v_star=v_star,
                    eta=eta,
                    epsilon=eps,
                    sigma=sigma if sigma is not None else 1.0,
                    lam=float(options.get("lam", 0.6)),
                    r_min=float(options.get("r_min", -5.0)),
                    r_max=float(options.get("r_max", 5.0)),
                    n=n,
                    trials=trials,
                    divergence=divergence,
                    seed=seed + n,
                )
                report = min_deviation_mc(model, cfg, sampler)
                row = {
                    "epsilon": eps,
                    "eta_norm": float(np.linalg.norm(eta)),
                    "sigma": cfg.sigma if sampler == "normal" else "",
                }
                row.update(report.to_csv_row())
                rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Scenario: ablations
# ---------------------------------------------------------------------------

ABLATE_INITS = ("random", "center", "original", "detector")
ABLATE_LAMBDAS = (0.2, 0.4, 0.6, 0.8, 1.0)
ABLATE_BEAMS = (1, 2, 3, 5, 8)
ABLATE_SCORERS = ("random", "oracle", "noisy")


def _averaged_halc_eval(
    scenes: Sequence[Scene],
    config: DecodeConfig,
    queries,
    seeds: Sequence[int],
    detector,
    scorer_spec,
    beta: float = 0.2,
) -> dict:
    acc: dict[str, float] = {}
    for s in seeds:
        cfg = dataclasses.replace(config, seed=s)
        scorer = resolve_scorer(scorer_spec, seed=s)
        captions, _ = decode_corpus(scenes, "halc", cfg, detector, scorer)
        result = evaluate_captions(scenes, captions, queries, beta)
        for key, value in result.items():
            acc[key] = acc.get(key, 0.0) + value
    return {key: value / len(seeds) for key, value in acc.items()}


def run_ablations(
    scenes: Sequence[Scene],
    config: DecodeConfig,
    seed: int,
    options: Optional[Mapping] = None,
) -> dict[str, list[dict]]:
    """Sweeps over sampling initialization, growth factor, beam size and
    scorer. Stochastic sweeps average over several seeds."""
    options = dict(options or {})
    detector = DetectorSim(tuple(options.get("detector_eta", CORPUS_DETECTOR_ETA)))
    queries = _pope_queries(scenes, seed, options.get("pope_mode", "random"), 3)
    scorer_seeds = list(options.get("scorer_seeds", [seed + i for i in range(5)]))
    single = [seed]

    tables: dict[str, list[dict]] = {}

    rows = []
    for init in options.get("inits", ABLATE_INITS):
        mode = "exponential" if init == "detector" else init
        cfg = dataclasses.replace(config, sampling_mode=mode)
        row = {"init": init}
        row.update(_averaged_halc_eval(scenes, cfg, queries, single, detector, "oracle"))
        rows.append(row)
    tables["init"] = rows

    rows = []
    for lam in options.get("lambdas", ABLATE_LAMBDAS):
        cfg = dataclasses.replace(config, lam=lam)
        row = {"lambda": lam}
        row.update(_averaged_halc_eval(scenes, cfg, queries, single, detector, "oracle"))
        rows.append(row)
    tables["lambda"] = rows

    rows = []
    for k in options.get("beams", ABLATE_BEAMS):
        cfg = dataclasses.replace(config, k=k)
        row = {"k": k}
        row.update(_averaged_halc_eval(scenes, cfg, queries, single, detector, "oracle"))
        rows.append(row)
    tables["beam"] = rows

    rows = []
    for scorer_name in options.get("scorers", ABLATE_SCORERS):
        row = {"scorer": scorer_name}
        row.update(
            _averaged_halc_eval(
                scenes, config, queries, scorer_seeds, detector, scorer_name
            )
        )
        rows.append(row)
    tables["scorer"] = rows
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
    detector = detector or DetectorSim(CORPUS_DETECTOR_ETA)
    scorer = scorer or oracle_match_score

    def record(result: DecodeResult) -> Sequence[str]:
        if trace_sink is not None:
            trace_sink.append(result.trace)
        return result.tokens

    def greedy_decoder(scene: Scene, budget: int) -> Sequence[str]:
        cfg = dataclasses.replace(config, max_tokens=budget)
        return record(decode_greedy(None, scene, cfg))

    def halc_decoder(scene: Scene, budget: int) -> Sequence[str]:
        cfg = dataclasses.replace(config, max_tokens=budget)
        return record(decode_halc(None, detector, scorer, None, scene, cfg))

    rows = []
    for method, decoder in (("greedy", greedy_decoder), ("halc", halc_decoder)):
        for entry in hallucination_vs_length(scenes, decoder, grid):
            row = {"method": method}
            row.update(entry)
            rows.append(row)
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


def corpus_from_spec(spec, seed: int) -> list[Scene]:
    """Build a corpus from an inline parameter mapping or a JSON file path."""
    from .world import load_corpus

    if isinstance(spec, (str, Path)):
        return load_corpus(spec)
    if isinstance(spec, CorpusSpec):
        return generate_corpus(seed, spec.scene_count, spec)
    if isinstance(spec, Mapping):
        if "path" in spec:
            return load_corpus(spec["path"])
        params = dict(spec)
        count = params.pop("count", params.pop("scene_count", 100))
        try:
            if "trap_clauses" in params:
                params["trap_clauses"] = tuple(params["trap_clauses"])
            cs = CorpusSpec(scene_count=count, **params)
        except TypeError as exc:
            raise ConfigError(f"bad corpus spec: {exc}") from exc
        return generate_corpus(seed, cs.scene_count, cs)
    if spec is None:
        cs = CorpusSpec()
        return generate_corpus(seed, cs.scene_count, cs)
    raise InvalidParameterError(f"cannot interpret corpus spec {spec!r}")
