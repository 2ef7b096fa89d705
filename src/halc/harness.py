"""Experiment scenarios: corpus comparisons, the oracle FOV study, bound
verification sweeps, ablations, cost modeling and plot-data emission.

Every scenario is a pure function of (inputs, seed) returning rows; the
runner layer writes CSV and JSON files plus a manifest that reproduces the
run byte-for-byte.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import os
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from . import __version__
from .config import (
    DEFAULT_GRID_SCALES, THEOREM_ROW_KEYS, AblateSection, CompareSection, CostModel, ScorerSpec,
    TheoremSection,
)
from .decoding import (
    DecodeConfig,
    DecodeTrace,
    decode_beam,
    decode_greedy,
    decode_halc,
)
from .distributions import argmax_logit, softmax
from .errors import InvalidInputError, InvalidParameterError, naming
from .geometry import Fov, _clamped, clamp_to_image, expand_fov
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
    ContextShift,
    CorpusSpec,
    DetectorSim,
    Scene,
    Scorer,
    generate_corpus,
    load_corpus,
    noisy_match_score,
    oracle_match_score,
    profile_value,
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
    concurrently, costing one decoding step each triggered token. Values
    too large for a finite float estimate raise InvalidParameterError,
    which names the keys of each smallest set of keys whose defaults, in
    place of their values, give a finite estimate.
    """
    estimate = _finite_estimate(model)
    if estimate is None:
        defaults = {f.name: f.default for f in dataclasses.fields(model)}
        changed = [key for key, default in defaults.items() if getattr(model, key) != default]
        # Setting back every changed key gives the defaults' finite estimate.
        for size in range(1, len(changed) + 1):
            fixes = [keys for keys in combinations(changed, size) if _finite_estimate(
                dataclasses.replace(model, **{key: defaults[key] for key in keys}))]
            if fixes:
                break
        raise InvalidParameterError(
            "cost model values are too large: the estimate overflows, from cost_model "
            + ", ".join(key for key in changed if any(key in keys for keys in fixes))
        )
    return estimate


def _finite_estimate(model: CostModel) -> Optional[CostEstimate]:
    length, t, td = model.tokens, model.t_lvlm, model.t_detector
    rate, n = model.trigger_rate, model.n
    # Ratio grouping 1 + rate*(n + td/t) keeps the reference 2.4x and 1.7x
    # values bit-exact for the canonical inputs.
    with contextlib.suppress(OverflowError):  # an int too large for a float
        estimate = CostEstimate(
            sequential_seconds=length * ((1.0 + rate * n) * t + rate * td),
            sequential_ratio=1.0 + rate * (n + td / t),
            parallel_seconds=length * ((1.0 + rate) * t + rate * td),
            parallel_ratio=1.0 + rate * (1.0 + td / t),
        )
        if np.isfinite(dataclasses.astuple(estimate)).all():
            return estimate
    return None


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
        return noisy_match_score(0.1 if spec.amp is None else spec.amp, seed)
    if spec.kind == "random":
        return random_match_score(seed)
    return oracle_match_score


def build_corpus(spec: CorpusSpec, seed: int) -> list[Scene]:
    """The scenes of a corpus section: its file when it names one, else
    generated from the seed."""
    if spec.path is not None:
        return load_corpus(spec.path)
    # A scene window that the image leaves no size names the image keys.
    sides = [("corpus", key, getattr(spec, key)) for key in ("image_width", "image_height")]
    with naming(sides, " are too small for a scene's windows"):
        return generate_corpus(seed, spec.scene_count, spec)


def decode_corpus(
    scenes: Sequence[Scene],
    method: str,
    config: DecodeConfig,
    detector=None,
    scorer: Optional[Scorer] = None,
) -> tuple[list[CaptionRecord], list[DecodeTrace]]:
    """Decode every scene with one method, seeding scene i with seed + i.
    The method is checked, and HALC's detector and scorer default to the
    corpus ones, before any scene decodes."""
    if method not in ("greedy", "beam", "halc"):
        raise InvalidParameterError(f"unknown decode method {method!r}")
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
        else:
            result = decode_halc(None, detector, scorer, None, scene, cfg)
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
) -> list[dict]:
    """Greedy, beam and corrective decoding over one corpus, one row each."""
    queries = _pope_queries(scenes, seed, options.pope_mode, options.pope_count)
    rows = []
    for method in ("greedy", "beam", "halc"):
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
                fovs.append(_clamped(w, h, cx, cy, image))
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
    # The grid depends on the image only; a generated corpus shares one, so
    # it is built again only when a scene's image differs from the last
    # scene's. One grid is held at a time. Before any scene decodes, each
    # image's windows of each scale are measured as the model measures them,
    # so a scale whose windows have no size or no area fraction names its keys.
    for image in dict.fromkeys(scene.image for scene in scenes):
        for scale in scales:
            with naming([("oracle_study", "grid_scales", scale),
                         ("corpus", "image_width", image.width),
                         ("corpus", "image_height", image.height)]):
                fov = _clamped(scale * image.width, scale * image.height, 0.0, 0.0, image)
                profile_value(ContextShift(slope=0.0, base=0.0), fov, image)
    image = grid = None
    for scene in scenes:
        result = decode_greedy(None, scene, config)
        tokens = result.tokens
        lexicon = scene.lexicon
        gt = scene.ground_truth_names
        reference = scene.reference_caption
        if scene.image != image:
            image = scene.image
            grid = grid_fovs(image, positions, scales)
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


def run_theorem_verify(
    options: TheoremSection | Mapping | None = None, seed: int = 0
) -> list[dict]:
    """The theorem.csv rows of a theorem grid (`TheoremSection.rows`), in
    its order: each grid point's `bound_report`, its trials seeded by seed + n.
    Every grid point's config is built, which computes its constant C,
    before any trial is drawn; one that fails names the keys of its row.

    A trial set's random draw depends only on the sampler and n, so the
    rows are visited by trial set, sorted by (sampler, in the section's
    order; n). A set is drawn once, in `draw_trials` chunks, and each chunk
    is scored once per (eta, sigma) of the set into that (eta, sigma)'s
    (trials,) score arrays; each row then reports the whole set at its own
    epsilon. At most one chunk is alive at a time, and no earlier set's
    scores are held while the next set is drawn.
    """
    from .theory import TheoremConfig, bound_report, draw_trials, min_deviation_mc

    section = parse(TheoremSection, {} if options is None else options, "theorem")
    shared = dict(
        v_star=section.v_star,
        amp=float(section.amp),
        lam=float(section.lam),
        r_min=float(section.r_min),
        r_max=float(section.r_max),
        trials=section.trials,
        divergence=section.divergence,
    )
    grid = []
    for s, eps, eta, sigma, n in section.rows():
        keys = THEOREM_ROW_KEYS[s]  # a row whose constant C fails names these
        values = (eps, eta, sigma) if s == "normal" else [getattr(section, key) for key in keys]
        with naming(("theorem", key, value) for key, value in zip(keys, values)):
            grid.append(TheoremConfig(
                sampler=s, eta=eta, epsilon=eps, sigma=sigma, n=n, seed=seed + n, **shared
            ))
    keys = [(section.samplers.index(cfg.sampler), cfg.n) for cfg in grid]
    rows: list = [None] * len(grid)
    for key in sorted(set(keys)):
        members = [i for i, k in enumerate(keys) if k == key]
        # Rows of one (eta, sigma) differ only in epsilon, which the
        # scores do not read: any of them scores for all.
        scorers = {(grid[i].eta, grid[i].sigma): grid[i] for i in members}
        scored = None  # the last set's scores go before the next set's are made
        # Each pair's minimum deviations and distances, as two rows.
        scored = {pair: np.empty((2, section.trials)) for pair in scorers}
        start = 0
        for chunk in draw_trials(grid[members[0]]):
            stop = start + len(chunk)
            for pair, cfg in scorers.items():
                scored[pair][:, start:stop] = min_deviation_mc(cfg, chunk)
            start = stop
            del chunk  # before the next chunk is drawn
        for i in members:
            cfg = grid[i]
            rows[i] = bound_report(cfg, *scored[cfg.eta, cfg.sigma]).to_csv_row()
    return rows


# ---------------------------------------------------------------------------
# Scenario: ablations
# ---------------------------------------------------------------------------

# The negatives, and at most as many positives, polled per scene by ablate.
ABLATE_POPE_COUNT = 3


def run_ablations(
    scenes: Sequence[Scene],
    config: DecodeConfig,
    seed: int,
    options: AblateSection | Mapping | None = None,
    detector=None,
) -> dict[str, list[dict]]:
    """Sweeps over sampling initialization, growth factor, beam size and
    scorer, one table each. A row decodes the corpus with HALC once per
    seed and averages the metrics; only the scorer sweep, whose scorers
    may be seeded, uses several seeds."""
    options = parse(AblateSection, {} if options is None else options, "ablate")
    # (table, column, section key, value -> changed decode fields); the
    # scorer sweep changes the scorer instead. Every row's decode config is
    # built, and so checked, before any sweep decodes.
    sweeps = []
    for table, column, name, change in (
        ("init", "init", "inits",
         lambda init: {"sampling_mode": "exponential" if init == "detector" else init}),
        ("lambda", "lambda", "lambdas", lambda lam: {"lam": lam}),
        ("beam", "k", "beams", lambda k: {"k": k}),
        ("scorer", "scorer", "scorers", lambda spec: {}),
    ):
        built = []
        for value in getattr(options, name):
            with naming([("ablate", name, value)]):
                built.append((value, dataclasses.replace(config, **change(value))))
        sweeps.append((table, column, name, built))
    queries = _pope_queries(scenes, seed, options.pope_mode, ABLATE_POPE_COUNT)
    scorer_seeds = options.scorer_seeds or [seed + i for i in range(5)]
    tables: dict[str, list[dict]] = {}
    for table, column, name, built in sweeps:
        tables[table] = rows = []
        for value, row_config in built:
            spec, seeds = (value, scorer_seeds) if table == "scorer" else ("oracle", [seed])
            totals: dict[str, float] = {}
            for s in seeds:
                cfg = dataclasses.replace(row_config, seed=s)
                scorer = resolve_scorer(spec, seed=s)
                with naming([("ablate", name, value)]):  # a window of the row's decode
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
    and HALC captions at each token budget. Each budget decodes the corpus
    through `decode_corpus`, scene i seeded with seed + i as in compare;
    each trace goes to trace_sink when one is given."""
    if not grid:
        raise InvalidInputError("max-token grid must be nonempty")
    scene_map = {s.scene_id: s for s in scenes}
    rows = []
    for method in ("greedy", "halc"):
        for budget in grid:
            cfg = dataclasses.replace(config, max_tokens=budget)
            captions, traces = decode_corpus(scenes, method, cfg, detector, scorer)
            if trace_sink is not None:
                trace_sink.extend(traces)
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
    box, under bare visual conditioning. A window that overflows or vanishes
    is a config error that names its r and lam (the decode section's)."""
    detector = detector or DetectorSim(CORPUS_DETECTOR_ETA)
    ids = [scene.token_id(tok) for tok in tokens]  # an unknown token fails before any window
    if anchor_token is None:
        if not (scene.trap or scene.objects):
            raise InvalidInputError(f"scene {scene.scene_id!r} has no object to anchor the curve")
        anchor_token = scene.trap.trap if scene.trap else scene.objects[0].name
    v_d = detector(anchor_token, scene)
    if v_d is None:
        raise InvalidInputError(f"no grounding available for {anchor_token!r}")
    rows = []
    for r in r_grid:
        with naming([("emit_curve", "r_grid", r), ("decode", "lam", lam)]):
            fov = clamp_to_image(expand_fov(v_d, lam, r), scene.image)
            probs = softmax(toy_model_logits(scene, fov, None))
        with np.errstate(divide="ignore"):
            logprobs = np.log(probs)
        for tok, tok_id in zip(tokens, ids):
            rows.append({"r": r, "token": tok, "logprob": float(logprobs[tok_id])})
    return rows


# ---------------------------------------------------------------------------
# Output writing
# ---------------------------------------------------------------------------


def write_csv(path: Path, rows: Sequence[Mapping]) -> None:
    if not rows:
        raise InvalidInputError(f"refusing to write empty table {path}")
    names = list(rows[0])
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

