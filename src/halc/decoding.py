"""Decoders: greedy and log-prob beam baselines plus the focal-contrast
corrector with matching-based beam search, as three step policies over one
decode loop. A policy proposes the candidates of a live beam and picks the
beams to keep; the loop owns the beams and the trace accounting.

The corrector runs per generated token: tagged tokens are re-grounded via the
detector, re-decoded under n sampled FOVs, the most divergent FOV pairs are
contrasted bi-directionally, and the resulting candidate tokens, after the
abstention policy, compete in a beam selection scored by text/image matching
rather than log-probability.

The correction step calls the model once per window and checks the (n, V)
stack of window logits. When every window's logits have the bits of the
first window's, as in a scene without a window-dependent token, the windows
share that row: one softmax row, JSD 0.0 for every pair and one contrast row
for all 2m candidates. Otherwise it takes a few array operations over the
windows: one row-wise softmax, the JSD of every window pair from one batched
call (shared by the trace and pair selection), and one contrast row
per candidate under the plausibility mask of its expert window, normalized
by one masked softmax. A candidate is its row's most probable token and that
token's probability, which the abstention policy reads. On most steps every
window's mask keeps a single token: then each candidate is its expert's
token with probability 1.0, and only that token's contrast is computed, to
be checked. Each beam's step adds one candidate per distinct token, and beam
selection scores each distinct candidate sequence once, which requires the
scorer to be a pure function of (sequence, scene).
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Literal, NamedTuple, Optional, Sequence

import numpy as np

# contrast_distribution is not called in this module. It stays importable
# from it because the benchmark's span recorder (perfbench/probes.py) wraps it.
from .distributions import (  # noqa: F401
    _as_array,
    argmax_logit,
    contrast_distribution,
    contrast_rows,
    jsd,
    softmax,
)
from .errors import InvalidParameterError, naming
from .geometry import Fov, _growth, sample_fovs_exponential, sample_fovs_normal, sample_fovs_random
from .schema import check_types
from .world import END_TOKEN, IDK_TOKEN, Scene, Scorer, tag_token, toy_model_logits

__all__ = [
    "DecodeConfig",
    "BeamState",
    "StepRecord",
    "DecodeTrace",
    "DecodeResult",
    "decode_greedy",
    "decode_beam",
    "halc_step",
    "top_m_pairs",
    "select_beams",
    "apply_idk_policy",
    "decode_halc",
]

Model = Callable[[Scene, Fov, Optional[Sequence[str]]], np.ndarray]
Detector = Callable[[str, Scene], Optional[Fov]]

# The decode keys that size each sampling mode's windows: a HALC decode
# names them when a window vanishes (its area over the image's underflows).
WINDOW_KEYS = {
    "exponential": ("lam", "exponent_offset", "n"),
    "normal": ("sigma", "n"),
    "random": ("n",),
    "center": ("lam", "exponent_offset", "n"),
    "original": ("lam", "n"),
}
SAMPLING_MODES = tuple(WINDOW_KEYS)
IDK_POLICIES = ("off", "literal", "confidence")
# The most FOV samples per HALC step: a triggered step whose windows differ
# copies its window pairs into two (n(n-1)/2, V) float64 buffers, 130 MB at
# n = 64, V≈4000.
MAX_FOV_SAMPLES = 64
# The largest amplification alpha. The contrast (1 + alpha) * f_e - alpha * f_a
# overflows, and the step rejects it as a non-finite logit, once it passes the
# largest float (about 1.8e308); up to this cap, logits within +-9e7 keep it
# finite.
MAX_ALPHA = 1e300


@dataclass(frozen=True)
class DecodeConfig:
    """All hyperparameters of the corrector and its baselines."""

    lam: float = 0.6
    n: int = 4
    m: int = 6
    k: int = 1
    alpha: float = 0.05
    beta: float = 0.1
    sampling_mode: Literal[SAMPLING_MODES] = "exponential"
    sigma: float = 40.0
    idk_policy: Literal[IDK_POLICIES] = "off"
    idk_confidence: float = 0.3
    max_tokens: int = 64
    seed: int = 0
    exponent_offset: int = -1

    def __post_init__(self) -> None:
        require = check_types(self, "decode")
        require("lam", self.lam > -1, "must be greater than -1")
        require("n", 2 <= self.n <= MAX_FOV_SAMPLES, f"must lie in [2, {MAX_FOV_SAMPLES}]")
        require("m", 1 <= self.m <= self.n * (self.n - 1) // 2, "must lie in [1, n*(n-1)/2]")
        require("k", self.k >= 1, "must be at least 1")
        require("alpha", 0 <= self.alpha <= MAX_ALPHA, f"must lie in [0, {MAX_ALPHA!r}]")
        require("beta", 0 < self.beta < 1, "must lie in (0, 1)")
        require("sigma", self.sigma > 0, "must be positive")
        require("idk_confidence", 0 <= self.idk_confidence <= 1, "must lie in [0, 1]")
        require("max_tokens", self.max_tokens >= 1, "must be at least 1")
        require("seed", self.seed >= 0, "must be nonnegative")
        exponents = self.exponents
        if exponents:
            # The growth is monotone in r, so the range's ends decide whether
            # every window keeps a finite, positive size.
            low = "lam" if self.sampling_mode == "original" else "exponent_offset"
            for key, r in ((low, exponents[0]), ("lam", exponents[-1])):
                try:
                    ok = _growth(self.lam, r) > 0
                    problem = f"growth (1 + {self.lam})**{r} underflows to 0"
                except InvalidParameterError as exc:  # it overflows
                    ok, problem = False, str(exc)
                require(key, ok, f"is out of range: {problem}")

    @property
    def exponents(self) -> Optional[range]:
        """The exponents r of the growth (1 + lam)**r that scale the mode's
        base window (None: the mode draws its windows). Expansions of the
        full image would all clamp back to it, so "original" only shrinks."""
        if self.sampling_mode in ("exponential", "center"):
            return range(self.exponent_offset, self.exponent_offset + self.n)
        if self.sampling_mode == "original":
            return range(1 - self.n, 1)
        return None


class BeamState(NamedTuple):
    tokens: tuple[str, ...]
    score: float = 0.0
    terminated: bool = False


@dataclass(slots=True)
class StepRecord:
    """One live beam's step. The policy fills in what the step did, with its
    (token, probability) candidates; the decode loop stamps the step and
    beam numbers and, once a candidate is kept, the kept token.

    A triggered step (`StepRecord.corrected`) holds its numbers packed, as
    callers keep the traces of whole corpora: `packed` is the bytes of one
    run of doubles, the n windows' (w, h, cx, cy) followed by the JSDs of
    the n(n-1)/2 window pairs in `_pair_index(n)` order. `fovs` and
    `jsd_matrix` build the windows and the symmetric n x n matrix, with a
    0.0 diagonal, from it on each access; a double read back keeps the bits
    of the float stored. An untriggered step has None for both and for
    `selected_pairs`."""

    triggered: bool
    detector_hit: bool
    model_call_count: int
    candidates: tuple[tuple[str, Optional[float]], ...] = ()
    packed: Optional[bytes] = None
    selected_pairs: Optional[list[tuple[int, int]]] = None
    step: int = 0
    beam: int = 0
    chosen_token: Optional[str] = None

    @classmethod
    def corrected(
        cls, detector_hit: bool, candidates: tuple, fovs: Sequence[Fov],
        divergence: Sequence[float], selected: list[tuple[int, int]],
    ) -> StepRecord:
        """The record of a correction step over `fovs`, with the proposing
        call among its model calls; divergence[k] is the JSD of pair k of
        `_pair_index(len(fovs))`."""
        values = [x for f in fovs for x in f.as_tuple()] + list(divergence)
        packed = struct.pack(f"{len(values)}d", *values)
        return cls(True, detector_hit, 1 + len(fovs), candidates, packed, selected)

    def _unpacked(self) -> tuple[int, list[float]]:
        """n and the packed values, 4n for the windows and n(n-1)/2 JSDs:
        2 * len(values) = n**2 + 7n."""
        values = memoryview(self.packed).cast("d").tolist()
        return (math.isqrt(49 + 8 * len(values)) - 7) // 2, values

    @property
    def fovs(self) -> Optional[tuple[Fov, ...]]:
        if self.packed is None:
            return None
        n, values = self._unpacked()
        return tuple(Fov(*values[k : k + 4]) for k in range(0, 4 * n, 4))

    @property
    def jsd_matrix(self) -> Optional[list[list[float]]]:
        if self.packed is None:
            return None
        n, values = self._unpacked()
        matrix = [[0.0] * n for _ in range(n)]
        for (i, j), value in zip(_pair_index(n)[0], values[4 * n :]):
            matrix[i][j] = matrix[j][i] = value
        return matrix

    def to_json(self) -> dict:
        fovs = self.fovs
        return {
            "step": self.step,
            "beam": self.beam,
            "triggered": self.triggered,
            "detector_hit": self.detector_hit,
            "model_calls": self.model_call_count,
            "fovs": [f.to_json() for f in fovs] if fovs else None,
            "jsd": self.jsd_matrix,
            "pairs": [list(p) for p in self.selected_pairs] if self.selected_pairs else None,
            "candidates": [token for token, _ in self.candidates],
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
# The decode loop and the baseline policies
# ---------------------------------------------------------------------------

# A candidate is a plain tuple, so that a step builds no object per
# candidate: (key, logp, grown, record). `key` is the beam grown by the
# proposed token, which matching-based selection dedupes and scores; `logp`
# the accumulated log-probability that log-prob selection ranks; `grown` the
# beam it becomes, `key` unless the abstention policy replaced the proposed
# token; `record` is the step that proposed it, None for an ended beam.
Key = tuple[tuple[str, ...], bool]
Candidate = tuple[Key, float, Key, Optional[StepRecord]]
Expand = Callable[[list[Candidate], BeamState], StepRecord]
Select = Callable[[list[Candidate]], Sequence[tuple[Candidate, float]]]


def _extend(tokens: tuple[str, ...], token: str) -> Key:
    """A beam grown by one token; the end token ends it and is dropped."""
    return (tokens, True) if token == END_TOKEN else (tokens + (token,), False)


def _decode(
    config: DecodeConfig, expand: Expand, select: Select
) -> tuple[list[BeamState], DecodeTrace]:
    """Grow beams from the empty caption one token per step, until every
    beam has ended or config.max_tokens steps have run.

    `expand(pool, beam)` adds the candidates of a live beam to the pool and
    returns the step's record; an ended beam joins the pool as it is.
    `select(pool)` returns the kept (candidate, score) pairs, which become
    the next beams; the record of a kept candidate gets the token that
    candidate adds, [END] if it ends the beam.
    """
    trace = DecodeTrace()
    beams = [BeamState(())]
    for step in range(config.max_tokens):
        pool: list[Candidate] = []
        for b, beam in enumerate(beams):
            if beam.terminated:
                key = (beam.tokens, True)
                pool.append((key, beam.score, key, None))
                continue
            record = expand(pool, beam)
            record.step, record.beam = step, b
            trace.steps.append(record)
            trace.model_calls += record.model_call_count
            if record.triggered:
                trace.triggered += 1
                trace.detector_calls += 1
        beams = []
        live = False
        for (_, _, (tokens, terminated), record), score in select(pool):
            if record is not None:
                record.chosen_token = END_TOKEN if terminated else tokens[-1]
            beams.append(BeamState(tokens, score, terminated))
            live = live or not terminated
        if not live:
            break
    return beams, trace


def decode_greedy(
    model: Optional[Model],
    scene: Scene,
    config: DecodeConfig,
) -> DecodeResult:
    """Argmax decoding on the full-image window until end token or budget:
    one beam, which proposes its argmax token."""
    model = model or toy_model_logits
    full = scene.image.full_fov()
    vocabulary = scene.vocabulary

    def expand(pool: list[Candidate], beam: BeamState) -> StepRecord:
        token = vocabulary[argmax_logit(model(scene, full, beam.tokens))]
        record = StepRecord(False, False, 1)
        grown = _extend(beam.tokens, token)
        pool.append((grown, 0.0, grown, record))
        return record

    beams, trace = _decode(config, expand, lambda pool: [(pool[0], 0.0)])
    return DecodeResult(beams[0].tokens, trace)


def _by_logp(pool: list[Candidate], k: int) -> list[tuple[Candidate, float]]:
    """The k candidates of highest accumulated log-probability, ties in
    pool order."""
    pool.sort(key=lambda cand: -cand[1])
    return [(cand, cand[1]) for cand in pool[:k]]


def decode_beam(
    model: Optional[Model],
    scene: Scene,
    k: int,
    config: DecodeConfig,
) -> DecodeResult:
    """Token-wise beam search on accumulated log probability, full image
    only: each live beam proposes its k most probable tokens, the k best
    candidates survive, and ended beams win over live ones."""
    if k < 1:
        raise InvalidParameterError("beam size must be at least 1")
    model = model or toy_model_logits
    full = scene.image.full_fov()
    vocabulary = scene.vocabulary

    def expand(pool: list[Candidate], beam: BeamState) -> StepRecord:
        tokens, score, _ = beam
        logprobs = np.log(softmax(model(scene, full, tokens)))
        for v in (-logprobs).argsort(kind="stable")[:k].tolist():
            grown = _extend(tokens, vocabulary[v])
            pool.append((grown, score + logprobs.item(v), grown, None))
        return StepRecord(False, False, 1)

    # A token of probability 0 gets log-probability -inf.
    with np.errstate(divide="ignore"):
        beams, trace = _decode(config, expand, lambda pool: _by_logp(pool, k))
    best = min(beams, key=lambda beam: (not beam.terminated, -beam.score))
    return DecodeResult(best.tokens, trace)


# ---------------------------------------------------------------------------
# Focal-contrast correction step
# ---------------------------------------------------------------------------


def _sample_fovs(
    scene: Scene,
    v_d: Optional[Fov],
    config: DecodeConfig,
    rng: np.random.Generator,
) -> tuple[Fov, ...]:
    image = scene.image
    mode = config.sampling_mode
    base = v_d  # "exponential" and "normal": the detection, None on a miss
    if mode == "center":
        base = Fov(image.width / 2.0, image.height / 2.0, image.width / 2.0, image.height / 2.0)
    elif mode == "original":
        base = image.full_fov()
    if base is None or mode == "random":
        return sample_fovs_random(image, config.n, rng)
    if mode == "normal":
        return sample_fovs_normal(base, config.sigma, config.n, rng, image)
    return sample_fovs_exponential(base, config.lam, config.n, image, config.exponents.start)


@functools.cache
def _pair_index(n: int) -> tuple[tuple[tuple[int, int], ...], np.ndarray, np.ndarray]:
    """The i < j pairs of n rows in lexicographic order, as tuples and as the
    two read-only index arrays of their first and second rows."""
    pairs = tuple(combinations(range(n), 2))
    first, second = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    first.flags.writeable = second.flags.writeable = False
    return pairs, first, second


@functools.lru_cache(maxsize=1)
def _pair_buffers(pairs: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Scratch (pairs, V) arrays for the first and second windows of each
    pair, reused while the shape stays the same: at V≈4000, two fresh
    arrays per step make the allocator grow and trim the heap on most
    steps."""
    return np.empty((pairs, size)), np.empty((pairs, size))


def top_m_pairs(
    pairs: Sequence[tuple[int, int]], divergence: Sequence[float], m: int
) -> list[tuple[int, int]]:
    """The m pairs of highest divergence, divergence[k] being that of
    pairs[k]; equal divergences keep their order in `pairs` (sorted is stable)."""
    ranked = sorted(range(len(pairs)), key=lambda k: -divergence[k])
    return [pairs[k] for k in ranked[:m]]


def halc_step(
    model: Optional[Model],
    detector: Detector,
    scene: Scene,
    beam: BeamState,
    proposed: str,
    config: DecodeConfig,
    rng: np.random.Generator,
) -> StepRecord:
    """One correction round for a tagged token already proposed by the base
    decoder: ground it, re-decode under n FOVs, contrast the top-m most
    divergent pairs bi-directionally and record the 2m candidates. The
    record counts the proposing call among its model calls.

    Pairs rank by JSD descending with ties in lexicographic pair order
    (`top_m_pairs`). Each pair contrasts (larger window as expert, smaller
    as amateur), then the reverse; the mask keeps p_e >= beta * max(p_e).

    When every window's logits have the bits of the first window's, as in a
    scene without a window-dependent token, the windows share that one row:
    it is softmaxed once, every pair gets JSD 0.0, which is what jsd(p, p)
    returns, and its one contrast with itself stands for all 2m candidates.
    Otherwise every window is its own row.
    """
    model = model or toy_model_logits
    v_d = detector(proposed, scene)
    fovs = _sample_fovs(scene, v_d, config, rng)
    logits = _as_array([model(scene, f, beam.tokens) for f in fovs], ndims=(2,))
    # Every row has the first row's bits iff each row after the first has
    # the bits of the row before it: one comparison of two runs of bytes.
    blob = logits.tobytes()
    size = len(blob) // len(logits)
    shared = blob.startswith(memoryview(blob)[:-size], size)
    if shared:
        logits = logits[:1]
    probs = softmax(logits)

    n = len(fovs)
    pairs, first, second = _pair_index(n)
    if shared:
        divergence = [0.0] * len(pairs)
    else:
        # mode="clip" lets take write into `out` without an intermediate
        # copy; the indices are in range.
        pair_first, pair_second = _pair_buffers(len(pairs), probs.shape[1])
        probs.take(first, axis=0, out=pair_first, mode="clip")
        probs.take(second, axis=0, out=pair_second, mode="clip")
        divergence = jsd(pair_first, pair_second).tolist()
    selected = top_m_pairs(pairs, divergence, config.m)

    if shared:
        experts = amateurs = [0]
    else:
        area = [f.area for f in fovs]
        # Rows (larger, smaller) and (smaller, larger) of each pair: column
        # 0 holds the experts and column 1 the amateurs.
        ends = []
        for i, j in selected:
            if area[i] < area[j]:
                i, j = j, i
            ends += (i, j, j, i)
        experts, amateurs = np.array(ends, dtype=np.intp).reshape(-1, 2).T
    tokens, top = contrast_rows(logits, probs, experts, amateurs, config.alpha, config.beta)
    candidates = tuple(zip(map(scene.vocabulary.__getitem__, tokens.tolist()), top.tolist()))
    if shared:  # its one candidate repeats for each of the 2m
        candidates *= 2 * len(selected)
    else:  # equal candidates share one tuple
        unique: dict = {}
        candidates = tuple([unique.setdefault(c, c) for c in candidates])
    return StepRecord.corrected(v_d is not None, candidates, fovs, divergence, selected)


def apply_idk_policy(
    original: str,
    corrected: str,
    detector_hit: bool,
    policy: str,
    corrected_prob: Optional[float] = None,
    confidence_threshold: float = 0.3,
) -> str:
    """Decide whether an uncorrected grounded token becomes the reserved
    abstention token. `confidence` abstains only below the threshold, and
    `corrected_prob` is 1.0 whenever the expert's plausibility mask keeps
    one token, as at most steps at beta 0.1: on a 40-scene default corpus
    (seed 7) HALC k=1 abstains 820 times under `literal`, never under
    `confidence` at beta 0.1 (threshold 0.3 or 0.99), 173 times at beta
    0.001 (threshold 0.99)."""
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


def select_beams(
    candidates: Sequence[Candidate],
    scorer: Scorer,
    k: int,
    scene: Scene,
) -> list[tuple[Candidate, float]]:
    """Keep the k best-scoring pairwise-distinct sequences.

    The pool is first reduced to the first candidate of each distinct
    (tokens, terminated) key, so the scorer, a pure function of the
    sequence and scene, runs once per distinct sequence. Scores come from the
    matching scorer on the full extended sequence; ties resolve by earlier
    candidate order. Fewer than k distinct sequences survive as-is.
    """
    if not candidates:
        raise InvalidParameterError("candidate pool is empty")
    distinct: dict[Key, Candidate] = {}
    for cand in candidates:
        distinct.setdefault(cand[0], cand)
    scored = [(cand, scorer(tokens, scene)) for (tokens, _), cand in distinct.items()]
    scored.sort(key=lambda item: -item[1])  # stable: ties keep pool order
    return scored[:k]


# ---------------------------------------------------------------------------
# The corrector's policy
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
    focal-contrast step on tagged tokens, apply the abstention policy to
    each candidate, pool candidates across beams and keep the k best by
    visual matching; the best-matching final beam wins.
    """
    model = model or toy_model_logits
    lexicon = lexicon if lexicon is not None else scene.lexicon
    rng = np.random.default_rng(config.seed)
    full = scene.image.full_fov()
    vocabulary = scene.vocabulary
    policy = config.idk_policy
    # Callers hold the traces of whole corpora: equal candidates tuples
    # share one object per decode, an untagged step's keyed by its token.
    shared: dict = {}

    def expand(pool: list[Candidate], beam: BeamState) -> StepRecord:
        proposed = vocabulary[argmax_logit(model(scene, full, beam.tokens))]
        if tag_token(lexicon, proposed) == "none":
            record = StepRecord(False, False, 1, shared.setdefault(proposed, ((proposed, None),)))
            grown = _extend(beam.tokens, proposed)
            pool.append((grown, 0.0, grown, record))
            return record
        record = halc_step(model, detector, scene, beam, proposed, config, rng)
        record.candidates = shared.setdefault(record.candidates, record.candidates)
        hit = record.detector_hit
        # select_beams keeps the first candidate of each key, and a repeated
        # token here repeats this beam's key.
        seen: set[str] = set()
        for token, prob in record.candidates:
            if token in seen:
                continue
            seen.add(token)
            key = _extend(beam.tokens, token)
            chosen = apply_idk_policy(proposed, token, hit, policy, prob, config.idk_confidence)
            grown = key if chosen == token else _extend(beam.tokens, chosen)
            pool.append((key, 0.0, grown, record))
        return record

    keys = WINDOW_KEYS[config.sampling_mode]
    with naming(("decode", key, getattr(config, key)) for key in keys):
        beams, trace = _decode(
            config, expand, lambda pool: select_beams(pool, scorer, config.k, scene)
        )
    best = max(range(len(beams)), key=lambda i: (scorer(beams[i].tokens, scene), -i))
    return DecodeResult(beams[best].tokens, trace)
