"""Hallucination and text-quality metrics over decoded captions.

Object matching is exact token equality: the synthetic vocabulary is closed,
so no synonym table is needed. All aggregations are pure and deterministic.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InvalidInputError
from .world import Scene

__all__ = [
    "CaptionRecord",
    "ChairReport",
    "OpopeReport",
    "CorpusStats",
    "hallucinated_objects",
    "chair",
    "build_corpus_stats",
    "POPE_MODES",
    "sample_query_objects",
    "opope",
    "f_beta_score",
    "corpus_bleu",
]

BLEU_EPSILON = 1e-9
POPE_MODES = ("random", "popular", "adversarial")


@dataclass(frozen=True)
class CaptionRecord:
    """A decoded caption plus its derived object mentions."""

    scene_id: str
    tokens: tuple[str, ...]
    mentioned: tuple[str, ...]

    @staticmethod
    def from_tokens(
        scene_id: str, tokens: Sequence[str], lexicon: Mapping[str, str]
    ) -> "CaptionRecord":
        seen: dict[str, None] = {}
        for tok in tokens:
            if lexicon.get(tok) == "noun":
                seen.setdefault(tok, None)
        return CaptionRecord(scene_id=scene_id, tokens=tuple(tokens), mentioned=tuple(seen))


def hallucinated_objects(caption: CaptionRecord, scene: Scene) -> set[str]:
    """Noun tokens mentioned by a caption that are not in the scene's
    ground-truth object set."""
    return set(caption.mentioned) - scene.ground_truth_names


@dataclass(frozen=True)
class ChairReport:
    chair_s: float
    chair_i: float
    captions: int
    hallucinated_captions: int
    mentions: int
    hallucinated_mentions: int


def chair(
    captions: Sequence[CaptionRecord],
    scenes: Mapping[str, Scene],
) -> ChairReport:
    """Sentence-level and instance-level hallucination ratios.

    chair_s is the share of captions with at least one hallucinated object;
    chair_i is the share of hallucinated object mentions over all mentions.
    Empty denominators yield 0.
    """
    n_captions = len(captions)
    bad_captions = 0
    mentions = 0
    bad_mentions = 0
    for cap in captions:
        scene = scenes.get(cap.scene_id)
        if scene is None:
            raise InvalidInputError(f"no scene for caption {cap.scene_id!r}")
        halluc = hallucinated_objects(cap, scene)
        mentions += len(cap.mentioned)
        bad_mentions += len(halluc)
        if halluc:
            bad_captions += 1
    return ChairReport(
        chair_s=bad_captions / n_captions if n_captions else 0.0,
        chair_i=bad_mentions / mentions if mentions else 0.0,
        captions=n_captions,
        hallucinated_captions=bad_captions,
        mentions=mentions,
        hallucinated_mentions=bad_mentions,
    )


# ---------------------------------------------------------------------------
# POPE-style object sampling and offline polling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusStats:
    """Object frequency and co-occurrence counts over a corpus."""

    frequency: Mapping[str, int]
    cooccurrence: Mapping[tuple[str, str], int]
    universe: frozenset[str]


def build_corpus_stats(scenes: Sequence[Scene]) -> CorpusStats:
    freq: Counter = Counter()
    cooc: Counter = Counter()
    for scene in scenes:
        names = sorted(scene.ground_truth_names)
        freq.update(names)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                cooc[(names[i], names[j])] += 1
    return CorpusStats(
        frequency=dict(freq),
        cooccurrence=dict(cooc),
        universe=frozenset(freq),
    )


def sample_query_objects(
    scene: Scene,
    corpus_stats: CorpusStats,
    mode: str,
    count: int,
    rng: np.random.Generator,
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Positive and negative probe objects for one scene.

    Negatives come from corpus objects absent from the scene: uniformly at
    random, by corpus frequency (popular) or by co-occurrence with the
    scene's objects (adversarial).
    """
    gt = sorted(scene.ground_truth_names)
    absent = sorted(corpus_stats.universe - scene.ground_truth_names)
    if len(absent) < count:
        raise InvalidInputError(
            f"corpus vocabulary too small: {len(absent)} absent objects, need {count}"
        )
    n_pos = min(count, len(gt))
    positives = tuple(
        gt[i] for i in sorted(rng.choice(len(gt), size=n_pos, replace=False).tolist())
    )
    if mode == "random":
        picks = rng.choice(len(absent), size=count, replace=False)
        negatives = tuple(absent[i] for i in sorted(picks.tolist()))
    elif mode == "popular":
        ranked = sorted(absent, key=lambda o: (-corpus_stats.frequency.get(o, 0), o))
        negatives = tuple(ranked[:count])
    elif mode == "adversarial":
        def affinity(obj: str) -> int:
            total = 0
            for g in gt:
                key = (obj, g) if obj < g else (g, obj)
                total += corpus_stats.cooccurrence.get(key, 0)
            return total

        ranked = sorted(absent, key=lambda o: (-affinity(o), o))
        negatives = tuple(ranked[:count])
    else:
        raise InvalidInputError(f"unknown sampling mode {mode!r}")
    return positives, negatives


def f_beta_score(precision: float, recall: float, beta: float) -> float:
    denom = beta * beta * precision + recall
    if denom == 0:
        return 0.0
    return (1.0 + beta * beta) * precision * recall / denom


@dataclass(frozen=True)
class OpopeReport:
    accuracy: float
    precision: float
    recall: float
    f_beta: float
    beta: float
    tp: int
    fp: int
    tn: int
    fn: int


def opope(
    captions: Sequence[CaptionRecord],
    scenes: Mapping[str, Scene],
    queries: Mapping[str, tuple[tuple[str, ...], tuple[str, ...]]],
    beta: float = 0.2,
) -> OpopeReport:
    """Offline polling: an object is predicted present iff its token appears
    in the caption. Positives are ground truth, negatives are absent."""
    tp = fp = tn = fn = 0
    for cap in captions:
        if cap.scene_id not in scenes:
            raise InvalidInputError(f"no scene for caption {cap.scene_id!r}")
        positives, negatives = queries[cap.scene_id]
        present = set(cap.tokens)
        for obj in positives:
            if obj in present:
                tp += 1
            else:
                fn += 1
        for obj in negatives:
            if obj in present:
                fp += 1
            else:
                tn += 1
    total = tp + fp + tn + fn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return OpopeReport(
        accuracy=(tp + tn) / total if total else 0.0,
        precision=precision,
        recall=recall,
        f_beta=f_beta_score(precision, recall, beta),
        beta=beta,
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
    )


# ---------------------------------------------------------------------------
# Corpus BLEU
# ---------------------------------------------------------------------------


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(
    candidates: Sequence[Sequence[str]],
    references: Sequence[Sequence[str]],
) -> float:
    """Corpus BLEU-4 with modified n-gram precision and brevity penalty.

    Convention: n-gram orders with no candidate n-grams anywhere in the
    corpus are skipped; a zero match count at an available order is smoothed
    to 1e-9 instead.
    """
    if not candidates or len(candidates) != len(references):
        raise InvalidInputError("need equal nonempty candidate/reference lists")
    cand_len = sum(len(c) for c in candidates)
    ref_len = sum(len(r) for r in references)
    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    orders = 0
    for n in range(1, 5):
        matches = 0
        total = 0
        for cand, ref in zip(candidates, references):
            cgrams = _ngrams(cand, n)
            rgrams = _ngrams(ref, n)
            total += sum(cgrams.values())
            matches += sum(min(c, rgrams.get(g, 0)) for g, c in cgrams.items())
        if total == 0:
            continue
        orders += 1
        p_n = matches / total if matches else BLEU_EPSILON
        log_sum += math.log(p_n)
    if orders == 0:
        return 0.0
    brevity = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return brevity * math.exp(log_sum / orders)

