"""Decoders: greedy and log-prob beam baselines plus the focal-contrast
corrector with matching-based beam search.

The corrector runs per generated token: tagged tokens are re-grounded via the
detector, re-decoded under n sampled FOVs, the most divergent FOV pairs are
contrasted bi-directionally, and the resulting candidate tokens compete in a
beam selection scored by text/image matching rather than log-probability.

The correction step works on the (n, V) stack of per-window logits as a few
array operations: one checked row-wise softmax, the JSD of every window pair
from one batched call (shared by the trace matrix and pair selection), and
the 2m expert/amateur contrast rows under the plausibility masks of their
expert windows, normalized by one masked softmax and read out by one row-wise
argmax. Each beam's step adds one candidate per distinct token, and beam
selection scores each distinct candidate sequence once, which requires the
scorer to be a pure function of (sequence, scene).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Optional, Sequence

import numpy as np

# contrast_distribution and top_m_pairs are not called in this module. They
# stay importable from it because the benchmark's span recorder
# (perfbench/probes.py) wraps them here.
from .distributions import (  # noqa: F401
    argmax_logit,
    argmax_token,
    contrast_distribution,
    contrast_rows,
    jsd,
    softmax,
    top_m_pairs,
    window_softmax,
)
from .errors import InvalidParameterError
from .geometry import (
    Fov,
    FovSampleSet,
    sample_fovs_exponential,
    sample_fovs_normal,
    sample_fovs_random,
)
from .world import END_TOKEN, IDK_TOKEN, Scene, Scorer, tag_token, toy_model_logits

__all__ = [
    "DecodeConfig",
    "BeamState",
    "StepRecord",
    "DecodeTrace",
    "DecodeResult",
    "HalcStepResult",
    "decode_greedy",
    "decode_beam",
    "halc_step",
    "select_beams",
    "apply_idk_policy",
    "decode_halc",
]

Model = Callable[[Scene, Fov, Optional[Sequence[str]]], np.ndarray]
Detector = Callable[[str, Scene], Optional[Fov]]

SAMPLING_MODES = ("exponential", "detector", "normal", "random", "center", "original")
IDK_POLICIES = ("off", "literal", "confidence")


@dataclass(frozen=True)
class DecodeConfig:
    """All hyperparameters of the corrector and its baselines."""

    lam: float = 0.6
    n: int = 4
    m: int = 6
    k: int = 1
    alpha: float = 0.05
    beta: float = 0.1
    sampling_mode: str = "exponential"
    sigma: float = 40.0
    idk_policy: str = "off"
    idk_confidence: float = 0.3
    max_tokens: int = 64
    seed: int = 0
    exponent_offset: int = -1

    def __post_init__(self) -> None:
        if self.n < 2:
            raise InvalidParameterError("need n >= 2 FOV samples")
        if not 1 <= self.m <= self.n * (self.n - 1) // 2:
            raise InvalidParameterError("m must lie in [1, n*(n-1)/2]")
        if self.k < 1:
            raise InvalidParameterError("beam size must be at least 1")
        if self.alpha < 0:
            raise InvalidParameterError("alpha must be nonnegative")
        if not 0 < self.beta < 1:
            raise InvalidParameterError("beta must lie in (0, 1)")
        if self.sampling_mode not in SAMPLING_MODES:
            raise InvalidParameterError(f"unknown sampling mode {self.sampling_mode!r}")
        if self.idk_policy not in IDK_POLICIES:
            raise InvalidParameterError(f"unknown idk policy {self.idk_policy!r}")
        if self.max_tokens < 1:
            raise InvalidParameterError("max_tokens must be at least 1")


@dataclass(frozen=True)
class BeamState:
    tokens: tuple[str, ...]
    score: float = 0.0
    terminated: bool = False


@dataclass
class StepRecord:
    step: int
    beam: int
    triggered: bool
    detector_hit: bool
    model_call_count: int
    fovs: Optional[FovSampleSet] = None
    jsd_matrix: Optional[list[list[float]]] = None
    selected_pairs: Optional[list[tuple[int, int]]] = None
    candidate_tokens: list[str] = field(default_factory=list)
    chosen_token: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "step": self.step,
            "beam": self.beam,
            "triggered": self.triggered,
            "detector_hit": self.detector_hit,
            "model_calls": self.model_call_count,
            "fovs": [f.to_json() for f in self.fovs.samples] if self.fovs else None,
            "jsd": self.jsd_matrix,
            "pairs": [list(p) for p in self.selected_pairs] if self.selected_pairs else None,
            "candidates": list(self.candidate_tokens),
            "chosen": self.chosen_token,
        }


@dataclass
class DecodeTrace:
    steps: list[StepRecord] = field(default_factory=list)
    model_calls: int = 0
    detector_calls: int = 0
    triggered: int = 0

    def to_json(self) -> dict:
        return {
            "steps": [s.to_json() for s in self.steps],
            "totals": {
                "model_calls": self.model_calls,
                "detector_calls": self.detector_calls,
                "triggered": self.triggered,
            },
        }


@dataclass(frozen=True)
class DecodeResult:
    tokens: tuple[str, ...]
    trace: DecodeTrace

    @property
    def caption(self) -> str:
        return " ".join(self.tokens)


# ---------------------------------------------------------------------------
# Baseline decoders
# ---------------------------------------------------------------------------


def decode_greedy(
    model: Optional[Model],
    scene: Scene,
    config: DecodeConfig,
) -> DecodeResult:
    """Argmax decoding on the full-image window until end token or budget."""
    model = model or toy_model_logits
    full = scene.image.full_fov()
    trace = DecodeTrace()
    tokens: list[str] = []
    for step in range(config.max_tokens):
        logits = model(scene, full, tokens)
        trace.model_calls += 1
        tok = scene.vocabulary[argmax_token(logits)]
        trace.steps.append(
            StepRecord(step, 0, False, False, 1, chosen_token=tok)
        )
        if tok == END_TOKEN:
            break
        tokens.append(tok)
    return DecodeResult(tuple(tokens), trace)


def decode_beam(
    model: Optional[Model],
    scene: Scene,
    k: int,
    config: DecodeConfig,
) -> DecodeResult:
    """Token-wise beam search on accumulated log probability, full image only."""
    if k < 1:
        raise InvalidParameterError("beam size must be at least 1")
    model = model or toy_model_logits
    full = scene.image.full_fov()
    trace = DecodeTrace()
    beams: list[tuple[tuple[str, ...], float, bool]] = [((), 0.0, False)]
    for step in range(config.max_tokens):
        pool: list[tuple[tuple[str, ...], float, bool]] = []
        any_live = False
        for b, (tokens, logp, terminated) in enumerate(beams):
            if terminated:
                pool.append((tokens, logp, True))
                continue
            any_live = True
            logits = model(scene, full, list(tokens))
            trace.model_calls += 1
            trace.steps.append(StepRecord(step, b, False, False, 1))
            probs = softmax(logits)
            with np.errstate(divide="ignore"):
                logprobs = np.log(probs)
            order = np.argsort(-logprobs, kind="stable")[:k]
            for v in order:
                tok = scene.vocabulary[int(v)]
                if tok == END_TOKEN:
                    pool.append((tokens, logp + float(logprobs[v]), True))
                else:
                    pool.append((tokens + (tok,), logp + float(logprobs[v]), False))
        if not any_live:
            break
        pool.sort(key=lambda item: -item[1])
        beams = pool[:k]
    beams.sort(key=lambda item: (not item[2], -item[1]))
    best_tokens, _, _ = beams[0]
    return DecodeResult(best_tokens, trace)


# ---------------------------------------------------------------------------
# Focal-contrast correction step
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HalcStepResult:
    candidates: tuple[tuple[str, np.ndarray], ...]
    fovs: FovSampleSet
    jsd_matrix: list[list[float]]
    selected_pairs: list[tuple[int, int]]
    detector_hit: bool
    grounding: Optional[Fov]


def _sample_fovs(
    scene: Scene,
    v_d: Optional[Fov],
    config: DecodeConfig,
    rng: np.random.Generator,
) -> FovSampleSet:
    image = scene.image
    mode = config.sampling_mode
    if v_d is None or mode == "random":
        return sample_fovs_random(image, config.n, rng)
    if mode in ("exponential", "detector"):
        return sample_fovs_exponential(v_d, config.lam, config.n, image, config.exponent_offset)
    if mode == "normal":
        return sample_fovs_normal(v_d, config.sigma, config.n, rng, image)
    if mode == "center":
        base = Fov(image.width / 2.0, image.height / 2.0, image.width / 2.0, image.height / 2.0)
        return sample_fovs_exponential(base, config.lam, config.n, image, config.exponent_offset)
    if mode == "original":
        # Expansions of the full image would all clamp back to it, so the
        # original-image initialization samples shrinking exponents only.
        return sample_fovs_exponential(image.full_fov(), config.lam, config.n, image, -(config.n - 1))
    raise InvalidParameterError(f"unknown sampling mode {mode!r}")


@functools.cache
def _pair_index(n: int) -> tuple[tuple[tuple[int, int], ...], np.ndarray, np.ndarray]:
    """The i < j window pairs in lexicographic order, as tuples and as the
    two read-only index arrays of their first and second windows."""
    pairs = tuple(combinations(range(n), 2))
    first, second = np.array(pairs).T
    first.flags.writeable = second.flags.writeable = False
    return pairs, first, second


def halc_step(
    model: Optional[Model],
    detector: Detector,
    scene: Scene,
    beam: BeamState,
    proposed: str,
    config: DecodeConfig,
    rng: np.random.Generator,
) -> HalcStepResult:
    """One correction round for a tagged token already proposed by the base
    decoder: ground it, re-decode under n FOVs, contrast the top-m most
    divergent pairs bi-directionally and emit the 2m candidate tokens.

    Pairs rank by JSD descending with ties in lexicographic pair order. Each
    pair contrasts (larger window as expert, smaller as amateur), then the
    reverse; the mask keeps tokens with p_e >= beta * max(p_e).
    """
    model = model or toy_model_logits
    v_d = detector(proposed, scene)
    fovs = _sample_fovs(scene, v_d, config, rng)
    logits, probs = window_softmax([model(scene, f, beam.tokens) for f in fovs.samples])

    n = len(logits)
    pairs, first, second = _pair_index(n)
    divergence = jsd(probs[first], probs[second]).tolist()
    # Both halves of the trace matrix share one float object per pair:
    # callers keep the traces of whole corpora in memory.
    matrix = [[0.0] * n for _ in range(n)]
    for (i, j), value in zip(pairs, divergence):
        matrix[i][j] = matrix[j][i] = value
    # sorted is stable, so equal divergences keep lexicographic pair order.
    ranked = sorted(range(len(pairs)), key=lambda k: -divergence[k])
    selected = [pairs[k] for k in ranked[: config.m]]

    area = [f.area for f in fovs.samples]
    experts: list[int] = []
    amateurs: list[int] = []
    for i, j in selected:
        larger, smaller = (i, j) if area[i] >= area[j] else (j, i)
        experts += (larger, smaller)
        amateurs += (smaller, larger)
    dists = contrast_rows(logits, probs, experts, amateurs, config.alpha, config.beta)
    tokens = map(scene.vocabulary.__getitem__, np.argmax(dists, axis=-1).tolist())
    return HalcStepResult(
        candidates=tuple(zip(tokens, dists)),
        fovs=fovs,
        jsd_matrix=matrix,
        selected_pairs=selected,
        detector_hit=v_d is not None,
        grounding=v_d,
    )


def apply_idk_policy(
    original: str,
    corrected: str,
    detector_hit: bool,
    policy: str,
    corrected_prob: Optional[float] = None,
    confidence_threshold: float = 0.3,
) -> str:
    """Decide whether an uncorrected grounded token becomes the reserved
    abstention token."""
    if policy == "off":
        return corrected
    if policy == "literal":
        return IDK_TOKEN if detector_hit and corrected == original else corrected
    if policy == "confidence":
        if (
            detector_hit
            and corrected == original
            and corrected_prob is not None
            and corrected_prob < confidence_threshold
        ):
            return IDK_TOKEN
        return corrected
    raise InvalidParameterError(f"unknown idk policy {policy!r}")


# ---------------------------------------------------------------------------
# Matching-based beam selection
# ---------------------------------------------------------------------------


@dataclass
class _Candidate:
    tokens: tuple[str, ...]  # full extended sequence (token already applied)
    token: Optional[str]  # newly appended token; None for pass-through beams
    terminated: bool
    triggered: bool
    original: Optional[str]
    detector_hit: bool
    prob: Optional[float]
    record: Optional[StepRecord]


def select_beams(
    candidates: Sequence[_Candidate],
    scorer: Scorer,
    k: int,
    scene: Scene,
) -> list[tuple[_Candidate, float]]:
    """Keep the k best-scoring pairwise-distinct sequences.

    The pool is first reduced to the first candidate of each distinct
    (tokens, terminated) key, so the scorer, a pure function of the
    sequence and scene, runs once per distinct sequence. Scores come from the
    matching scorer on the full extended sequence; ties resolve by earlier
    candidate order. Fewer than k distinct sequences survive as-is.
    """
    if not candidates:
        raise InvalidParameterError("candidate pool is empty")
    distinct: dict[tuple, _Candidate] = {}
    for cand in candidates:
        distinct.setdefault((cand.tokens, cand.terminated), cand)
    scored = [(cand, scorer(cand.tokens, scene)) for cand in distinct.values()]
    scored.sort(key=lambda item: -item[1])  # stable: ties keep pool order
    return scored[:k]


# ---------------------------------------------------------------------------
# Full decoding loop
# ---------------------------------------------------------------------------


def decode_halc(
    model: Optional[Model],
    detector: Detector,
    scorer: Scorer,
    lexicon: Optional[dict],
    scene: Scene,
    config: DecodeConfig,
) -> DecodeResult:
    """Corrective decoding: per live beam propose one token greedily, run the
    focal-contrast step on tagged tokens, pool candidates across beams, keep
    the k best by visual matching, then apply the abstention policy.
    """
    model = model or toy_model_logits
    lexicon = lexicon if lexicon is not None else scene.lexicon
    rng = np.random.default_rng(config.seed)
    full = scene.image.full_fov()
    trace = DecodeTrace()
    beams = [BeamState(tokens=(), score=0.0, terminated=False)]

    for step in range(config.max_tokens):
        pool: list[_Candidate] = []
        for b, beam in enumerate(beams):
            if beam.terminated:
                pool.append(
                    _Candidate(beam.tokens, None, True, False, None, False, None, None)
                )
                continue
            logits = model(scene, full, beam.tokens)
            trace.model_calls += 1
            proposed = scene.vocabulary[argmax_logit(logits)]
            category = tag_token(lexicon, proposed)
            if category != "none":
                trace.triggered += 1
                trace.detector_calls += 1
                result = halc_step(model, detector, scene, beam, proposed, config, rng)
                trace.model_calls += config.n
                record = StepRecord(
                    step=step,
                    beam=b,
                    triggered=True,
                    detector_hit=result.detector_hit,
                    model_call_count=1 + config.n,
                    fovs=result.fovs,
                    jsd_matrix=result.jsd_matrix,
                    selected_pairs=result.selected_pairs,
                    candidate_tokens=[tok for tok, _ in result.candidates],
                )
                trace.steps.append(record)
                # select_beams keeps the first candidate of each sequence, and
                # a repeated token here repeats this beam's sequence.
                seen: set[str] = set()
                for tok, dist in result.candidates:
                    if tok in seen:
                        continue
                    seen.add(tok)
                    extended = beam.tokens if tok == END_TOKEN else beam.tokens + (tok,)
                    pool.append(
                        _Candidate(
                            tokens=extended,
                            token=tok,
                            terminated=tok == END_TOKEN,
                            triggered=True,
                            original=proposed,
                            detector_hit=result.detector_hit,
                            prob=float(dist[scene.token_id(tok)]),
                            record=record,
                        )
                    )
            else:
                record = StepRecord(
                    step=step,
                    beam=b,
                    triggered=False,
                    detector_hit=False,
                    model_call_count=1,
                    candidate_tokens=[proposed],
                )
                trace.steps.append(record)
                extended = beam.tokens if proposed == END_TOKEN else beam.tokens + (proposed,)
                pool.append(
                    _Candidate(
                        tokens=extended,
                        token=proposed,
                        terminated=proposed == END_TOKEN,
                        triggered=False,
                        original=proposed,
                        detector_hit=False,
                        prob=None,
                        record=record,
                    )
                )
        selected = select_beams(pool, scorer, config.k, scene)
        new_beams: list[BeamState] = []
        for cand, score in selected:
            if cand.token is None:
                new_beams.append(BeamState(cand.tokens, score, True))
                continue
            final_tok = cand.token
            if cand.triggered:
                final_tok = apply_idk_policy(
                    cand.original,
                    cand.token,
                    cand.detector_hit,
                    config.idk_policy,
                    cand.prob,
                    config.idk_confidence,
                )
            if final_tok == END_TOKEN:
                tokens = cand.tokens
                terminated = True
            elif final_tok == cand.token:
                tokens = cand.tokens
                terminated = cand.terminated
            else:
                tokens = cand.tokens[:-1] + (final_tok,)
                terminated = False
            if cand.record is not None:
                cand.record.chosen_token = final_tok
            new_beams.append(BeamState(tokens, score, terminated))
        beams = new_beams
        if all(beam.terminated for beam in beams):
            break

    best = max(range(len(beams)), key=lambda i: (scorer(beams[i].tokens, scene), -i))
    return DecodeResult(beams[best].tokens, trace)
