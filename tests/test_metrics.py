import math
from collections import Counter

import numpy as np
import pytest

from halc.decoding import DecodeConfig
from halc.errors import InvalidInputError
from halc.harness import run_length_curve
from halc.metrics import (
    CaptionRecord,
    build_corpus_stats,
    chair,
    corpus_bleu,
    f_beta_score,
    hallucinated_objects,
    opope,
    sample_query_objects,
)


def record(scene, tokens):
    return CaptionRecord.from_tokens(scene.scene_id, tokens, scene.lexicon)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def oracle_bleu(candidates, references, max_n=4):
    """Brute-force n-gram counting with the documented conventions."""
    def grams(toks, n):
        return Counter(tuple(toks[i : i + n]) for i in range(len(toks) - n + 1))

    c_len = sum(len(c) for c in candidates)
    r_len = sum(len(r) for r in references)
    if c_len == 0:
        return 0.0
    logs = []
    for n in range(1, max_n + 1):
        match = total = 0
        for c, r in zip(candidates, references):
            cg, rg = grams(c, n), grams(r, n)
            total += sum(cg.values())
            for g, cnt in cg.items():
                match += min(cnt, rg.get(g, 0))
        if total == 0:
            continue
        logs.append(math.log(match / total if match else 1e-9))
    if not logs:
        return 0.0
    bp = 1.0 if c_len > r_len else math.exp(1 - r_len / c_len)
    return bp * math.exp(sum(logs) / len(logs))


# ---------------------------------------------------------------------------
# Hallucinated objects and CHAIR
# ---------------------------------------------------------------------------


def test_reference_caption_is_clean(demo):
    cap = record(demo, demo.reference_caption)
    assert hallucinated_objects(cap, demo) == set()


def test_surfboard_mention_is_hallucinated(demo):
    cap = record(demo, ["a", "man", "holds", "a", "surfboard"])
    assert hallucinated_objects(cap, demo) == {"surfboard"}


def test_caption_without_nouns(demo):
    cap = record(demo, ["a", "the", "on", "holds"])
    assert hallucinated_objects(cap, demo) == set()


def test_chair_hand_example(demo):
    # One caption, four object mentions, one hallucinated.
    cap = record(demo, ["a", "man", "holds", "a", "surfboard", "on", "the", "beach", "clock"])
    assert len(cap.mentioned) == 4
    report = chair([cap], {demo.scene_id: demo})
    assert report.chair_i == pytest.approx(0.25)
    assert report.chair_s == 1.0


def test_chair_all_clean(demo):
    caps = [record(demo, demo.reference_caption)] * 3
    report = chair(caps, {demo.scene_id: demo})
    assert (report.chair_s, report.chair_i) == (0.0, 0.0)


def test_chair_sentence_ratio(demo):
    dirty = record(demo, ["a", "surfboard"])
    clean = record(demo, ["a", "man"])
    report = chair([dirty] * 3 + [clean] * 7, {demo.scene_id: demo})
    assert report.chair_s == pytest.approx(0.3)


def test_chair_missing_scene_is_error(demo):
    cap = CaptionRecord("nowhere", ("a",), ())
    with pytest.raises(InvalidInputError):
        chair([cap], {demo.scene_id: demo})


def test_chair_mergeability(small_trap_corpus):
    scenes = {s.scene_id: s for s in small_trap_corpus}
    caps_a = [record(s, s.reference_caption) for s in small_trap_corpus[:8]]
    caps_b = [
        record(s, tuple(s.reference_caption) + ((s.trap.trap,) if s.trap else ()))
        for s in small_trap_corpus[8:]
    ]
    merged = chair(caps_a + caps_b, scenes)
    part_a, part_b = chair(caps_a, scenes), chair(caps_b, scenes)
    assert merged.mentions == part_a.mentions + part_b.mentions
    assert merged.hallucinated_mentions == (
        part_a.hallucinated_mentions + part_b.hallucinated_mentions
    )
    assert merged.chair_i == pytest.approx(
        (part_a.hallucinated_mentions + part_b.hallucinated_mentions)
        / (part_a.mentions + part_b.mentions)
    )


# ---------------------------------------------------------------------------
# POPE-style sampling and OPOPE
# ---------------------------------------------------------------------------


def test_sampler_reproducible(small_trap_corpus):
    stats = build_corpus_stats(small_trap_corpus)
    scene = small_trap_corpus[0]
    a = sample_query_objects(scene, stats, "random", 3, np.random.default_rng(5))
    b = sample_query_objects(scene, stats, "random", 3, np.random.default_rng(5))
    assert a == b


def test_sampler_negatives_disjoint_from_ground_truth(small_trap_corpus):
    stats = build_corpus_stats(small_trap_corpus)
    for scene in small_trap_corpus:
        for mode in ("random", "popular", "adversarial"):
            pos, neg = sample_query_objects(scene, stats, mode, 3, np.random.default_rng(1))
            assert not set(neg) & scene.ground_truth_names
            assert set(pos) <= scene.ground_truth_names


def test_sampler_popular_matches_brute_force_frequency(small_trap_corpus):
    stats = build_corpus_stats(small_trap_corpus)
    # Independent frequency table.
    freq = Counter()
    for s in small_trap_corpus:
        freq.update(sorted(s.ground_truth_names))
    scene = small_trap_corpus[0]
    absent = sorted(set(freq) - scene.ground_truth_names)
    expected = sorted(absent, key=lambda o: (-freq[o], o))[:3]
    _, neg = sample_query_objects(scene, stats, "popular", 3, np.random.default_rng(1))
    assert list(neg) == expected


def test_sampler_adversarial_matches_brute_force_cooccurrence(small_trap_corpus):
    stats = build_corpus_stats(small_trap_corpus)
    # Independent co-occurrence table over the corpus.
    cooc = Counter()
    for s in small_trap_corpus:
        names = sorted(s.ground_truth_names)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                cooc[(names[i], names[j])] += 1
    scene = small_trap_corpus[1]
    gt = scene.ground_truth_names
    absent = sorted(stats.universe - gt)

    def affinity(obj):
        return sum(cooc.get(tuple(sorted((obj, g))), 0) for g in gt)

    expected = sorted(absent, key=lambda o: (-affinity(o), o))[:3]
    _, neg = sample_query_objects(scene, stats, "adversarial", 3, np.random.default_rng(1))
    assert list(neg) == expected


def test_sampler_vocabulary_too_small(small_trap_corpus):
    stats = build_corpus_stats(small_trap_corpus)
    with pytest.raises(InvalidInputError):
        sample_query_objects(
            small_trap_corpus[0], stats, "random", 500, np.random.default_rng(1)
        )


def test_f_beta_arithmetic_example():
    # Independent evaluation of the F-beta formula.
    precision, recall, beta = 0.9, 0.4, 0.2
    oracle = (1 + beta**2) * precision * recall / (beta**2 * precision + recall)
    assert f_beta_score(precision, recall, beta) == pytest.approx(oracle, abs=1e-12)
    assert oracle == pytest.approx(0.8587155963302753)


def test_f_beta_one_is_harmonic_mean():
    p, r = 0.6, 0.3
    assert f_beta_score(p, r, 1.0) == pytest.approx(2 * p * r / (p + r))


def test_opope_perfect_captions(demo):
    cap = record(demo, demo.reference_caption)
    queries = {demo.scene_id: (("man", "beach"), ("surfboard", "book"))}
    report = opope([cap], {demo.scene_id: demo}, queries, beta=0.2)
    assert report.accuracy == report.precision == report.recall == report.f_beta == 1.0
    assert (report.tp, report.fp, report.tn, report.fn) == (2, 0, 2, 0)


def test_opope_confusion_identities(demo):
    cap = record(demo, ["a", "man", "holds", "a", "surfboard"])
    queries = {demo.scene_id: (("man", "beach", "clock"), ("surfboard", "book"))}
    report = opope([cap], {demo.scene_id: demo}, queries, beta=0.2)
    assert report.tp + report.fp + report.tn + report.fn == 5
    assert (report.tp, report.fn) == (1, 2)
    assert (report.fp, report.tn) == (1, 1)
    assert report.f_beta == pytest.approx(
        f_beta_score(report.precision, report.recall, 0.2)
    )


def test_opope_order_invariant(demo):
    queries = {demo.scene_id: (("man", "beach"), ("surfboard", "book"))}
    forward = record(demo, ["a", "man", "on", "the", "beach"])
    shuffled = record(demo, ["beach", "the", "man", "on", "a"])
    ra = opope([forward], {demo.scene_id: demo}, queries)
    rb = opope([shuffled], {demo.scene_id: demo}, queries)
    assert ra == rb


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------


def test_bleu_identity():
    corpus = [["a", "man", "holds", "a", "clock"], ["the", "beach"]]
    assert corpus_bleu(corpus, corpus) == pytest.approx(1.0)


def test_bleu_disjoint_is_tiny():
    assert corpus_bleu([["x", "y", "z"]], [["a", "b", "c"]]) <= 1e-2


def test_bleu_hand_example_matches_oracle():
    cand = [["the", "cat", "sat"]]
    ref = [["the", "cat", "sat", "down"]]
    assert corpus_bleu(cand, ref) == pytest.approx(oracle_bleu(cand, ref), abs=1e-9)


def test_bleu_ten_small_pairs_match_oracle():
    rng = np.random.default_rng(8)
    vocab = ["a", "b", "c", "d", "e"]
    for _ in range(10):
        cand = [[vocab[i] for i in rng.integers(0, 5, rng.integers(1, 8))]]
        ref = [[vocab[i] for i in rng.integers(0, 5, rng.integers(1, 8))]]
        assert corpus_bleu(cand, ref) == pytest.approx(oracle_bleu(cand, ref), abs=1e-9)


def test_bleu_empty_corpus_is_error():
    with pytest.raises(InvalidInputError):
        corpus_bleu([], [])


# ---------------------------------------------------------------------------
# Hallucination-vs-length table (harness.run_length_curve)
# ---------------------------------------------------------------------------


def test_length_table_single_row(small_clean_corpus):
    rows = run_length_curve(small_clean_corpus, DecodeConfig(seed=0), [8])
    assert [(r["method"], r["max_tokens"]) for r in rows] == [("greedy", 8), ("halc", 8)]
    assert rows[0]["chair_i"] == 0.0


def test_length_table_rejects_empty_grid(small_clean_corpus):
    with pytest.raises(InvalidInputError):
        run_length_curve(small_clean_corpus, DecodeConfig(seed=0), [])


@pytest.mark.parametrize("count,frac,seed", [(15, 1.0, 9), (25, 0.3, 7), (22, 0.5, 2)])
def test_greedy_hallucination_ratio_monotone_in_budget(count, frac, seed):
    # Trap placement must keep the cumulative ratio non-decreasing for any
    # trap count, not just for counts divisible by the tier cycle.
    from halc.world import CorpusSpec, generate_corpus

    scenes = generate_corpus(seed, count, CorpusSpec(scene_count=count, trap_fraction=frac))
    rows = run_length_curve(scenes, DecodeConfig(seed=0), [16, 32, 64])
    ratios = [r["chair_i"] for r in rows if r["method"] == "greedy"]
    assert ratios == sorted(ratios)
    assert ratios[-1] > 0.0
