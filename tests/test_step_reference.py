"""The batched focal-contrast step and the deduplicating beam selection,
checked against the per-pair and score-everything code they replaced.

The reference step below is the scalar implementation: one softmax, JSD and
contrast call per vector or pair, with its own copies of those formulas, so
the comparison does not lean on the batched code it checks.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from halc import decoding
from halc.decoding import (
    SAMPLING_MODES,
    BeamState,
    DecodeConfig,
    _Candidate,
    decode_halc,
    halc_step,
    select_beams,
)
from halc.errors import InvalidInputError
from halc.geometry import Fov, FovSampleSet
from halc.world import (
    CORPUS_DETECTOR_ETA,
    DEMO_DETECTOR_ETA,
    CorpusSpec,
    DetectorSim,
    generate_corpus,
    oracle_match_score,
    toy_model_logits,
)

CORPUS_DET = DetectorSim(CORPUS_DETECTOR_ETA)
DEMO_DET = DetectorSim(DEMO_DETECTOR_ETA)

# ---------------------------------------------------------------------------
# Scalar reference
# ---------------------------------------------------------------------------


def _ref_softmax(logits):
    arr = np.asarray(logits, dtype=float)
    top = arr.max()
    with np.errstate(invalid="ignore"):
        shifted = np.where(np.isneginf(arr), -np.inf, arr - top)
    expo = np.exp(shifted)
    return expo / expo.sum()


def _ref_kl2(p, m):
    mask = p > 0
    return float(np.sum(p[mask] * np.log2(p[mask] / m[mask])))


def _ref_jsd(p, q):
    m = 0.5 * (p + q)
    return 0.5 * _ref_kl2(p, m) + 0.5 * _ref_kl2(q, m)


def _ref_contrast_distribution(f_e, f_a, alpha, beta):
    p_e = _ref_softmax(f_e)
    allowed = {int(i) for i in np.flatnonzero(p_e >= beta * p_e.max())}
    masked = np.isneginf(f_e)
    with np.errstate(invalid="ignore"):
        contrasted = (1.0 + alpha) * f_e - alpha * f_a
    contrasted[masked] = -np.inf
    keep = np.zeros(contrasted.shape, dtype=bool)
    keep[list(allowed)] = True
    contrasted[~keep] = -np.inf
    return _ref_softmax(contrasted)


def _ref_top_m_pairs(dists, m):
    scored = []
    for i in range(len(dists)):
        for j in range(i + 1, len(dists)):
            scored.append((-_ref_jsd(dists[i], dists[j]), i, j))
    scored.sort()
    return [(i, j) for _, i, j in scored[:m]]


def reference_halc_step(model, detector, scene, beam, proposed, config, rng):
    """The per-pair correction step: returns (fovs, matrix, pairs, candidates)."""
    model = model or toy_model_logits
    v_d = detector(proposed, scene)
    fovs = decoding._sample_fovs(scene, v_d, config, rng)
    logit_rows = [np.asarray(model(scene, f, list(beam.tokens)), dtype=float) for f in fovs.samples]
    dists = [_ref_softmax(row) for row in logit_rows]

    n = len(dists)
    matrix = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = _ref_jsd(dists[i], dists[j])
    pairs = _ref_top_m_pairs(dists, config.m)

    candidates = []
    for i, j in pairs:
        if fovs.samples[i].area >= fovs.samples[j].area:
            larger, smaller = i, j
        else:
            larger, smaller = j, i
        for expert, amateur in ((larger, smaller), (smaller, larger)):
            dist = _ref_contrast_distribution(
                logit_rows[expert], logit_rows[amateur], config.alpha, config.beta
            )
            candidates.append((scene.vocabulary[int(np.argmax(dist))], dist))
    return fovs, matrix, pairs, candidates


def assert_steps_agree(model, detector, scene, beam, proposed, config, seed):
    fovs, matrix, pairs, candidates = reference_halc_step(
        model, detector, scene, beam, proposed, config, np.random.default_rng(seed)
    )
    result = halc_step(model, detector, scene, beam, proposed, config, np.random.default_rng(seed))
    assert result.fovs == fovs
    assert result.selected_pairs == pairs
    assert [tok for tok, _ in result.candidates] == [tok for tok, _ in candidates]
    for (_, got), (_, want) in zip(result.candidates, candidates):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(result.jsd_matrix, matrix, rtol=0, atol=1e-12)
    return result


# ---------------------------------------------------------------------------
# Property test over generated scenes
# ---------------------------------------------------------------------------


@st.composite
def step_cases(draw):
    spec = CorpusSpec(scene_count=1, trap_fraction=draw(st.sampled_from([0.0, 1.0])))
    scene = generate_corpus(draw(st.integers(0, 10_000)), 1, spec)[0]
    n = draw(st.integers(2, 8))
    config = DecodeConfig(
        n=n,
        m=draw(st.integers(1, n * (n - 1) // 2)),
        alpha=draw(st.floats(0.0, 3.0)),
        beta=draw(st.floats(1e-6, 0.999)),
        lam=draw(st.floats(0.1, 1.5)),
        sampling_mode=draw(st.sampled_from(SAMPLING_MODES)),
    )
    pos = draw(st.integers(0, len(scene.reference_caption) - 1))
    beam = BeamState(tokens=tuple(scene.reference_caption[:pos]))
    return scene, beam, scene.reference_caption[pos], config, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=step_cases())
def test_batched_step_matches_per_pair_reference(case):
    scene, beam, proposed, config, seed = case
    assert_steps_agree(None, CORPUS_DET, scene, beam, proposed, config, seed)


@pytest.mark.parametrize("n", range(2, 9))
def test_identical_fovs_tie_break_lexicographically(demo, n):
    # Grounding on the full image with nonnegative exponents clamps every
    # window back to the full image: all JSDs are zero and every pair ties.
    config = DecodeConfig(n=n, m=n * (n - 1) // 2, exponent_offset=0)
    beam = BeamState(tokens=tuple(demo.reference_caption[:4]))
    detector = lambda token, scene: scene.image.full_fov()
    result = assert_steps_agree(None, detector, demo, beam, "surfboard", config, 0)
    assert not np.any(result.jsd_matrix)
    assert result.selected_pairs == [(i, j) for i in range(n) for j in range(i + 1, n)]


def test_equal_area_windows_put_the_first_window_first(demo, monkeypatch):
    # Same-size windows at different centers: the pair's lower index is the
    # expert of its first contrast, as in the reference.
    windows = tuple(Fov(200.0, 200.0, 150.0 + 230.0 * i, 500.0) for i in range(4))
    monkeypatch.setattr(
        decoding, "_sample_fovs", lambda scene, v_d, config, rng: FovSampleSet(windows, ())
    )
    config = DecodeConfig(alpha=1.0, beta=1e-6)
    beam = BeamState(tokens=tuple(demo.reference_caption[:4]))
    result = assert_steps_agree(None, DEMO_DET, demo, beam, "surfboard", config, 0)
    first_pair = [tok for tok, _ in result.candidates[:2]]
    assert first_pair[0] != first_pair[1]


# ---------------------------------------------------------------------------
# Malformed logits still raise
# ---------------------------------------------------------------------------

BAD_ROWS = {
    "nan": ("logits must be finite or -inf", lambda row: np.where(np.arange(row.size) == 1, np.nan, row)),
    "posinf": ("logits must be finite or -inf", lambda row: np.where(np.arange(row.size) == 1, np.inf, row)),
    "all-masked": ("softmax of an all-masked logit vector", lambda row: np.full(row.size, -np.inf)),
}


@pytest.mark.parametrize("kind", sorted(BAD_ROWS))
def test_halc_step_rejects_malformed_window_logits(demo, kind):
    message, corrupt = BAD_ROWS[kind]

    def model(scene, fov, prefix):
        return corrupt(toy_model_logits(scene, fov, prefix))

    beam = BeamState(tokens=tuple(demo.reference_caption[:4]))
    with pytest.raises(InvalidInputError, match=message):
        halc_step(model, DEMO_DET, demo, beam, "surfboard", DecodeConfig(seed=0),
                  np.random.default_rng(0))


@pytest.mark.parametrize("kind", sorted(BAD_ROWS))
def test_decode_halc_rejects_malformed_proposal_logits(demo, kind):
    # The proposal is validated before it is tagged, so the first model call
    # raises and no window is ever decoded.
    message, corrupt = BAD_ROWS[kind]
    calls = []

    def model(scene, fov, prefix):
        calls.append(len(prefix))
        return corrupt(toy_model_logits(scene, fov, prefix))

    with pytest.raises(InvalidInputError, match=message):
        decode_halc(model, DEMO_DET, oracle_match_score, None, demo, DecodeConfig(seed=7))
    assert calls == [0]


@pytest.mark.parametrize("kind", sorted(BAD_ROWS))
def test_decode_halc_rejects_malformed_window_logits(demo, kind):
    # Full-image proposals stay well formed; the first triggered step's
    # sampled windows return malformed rows.
    message, corrupt = BAD_ROWS[kind]
    full = demo.image.full_fov()
    corrupted = []

    def model(scene, fov, prefix):
        row = toy_model_logits(scene, fov, prefix)
        if fov == full:
            return row
        corrupted.append(fov)
        return corrupt(row)

    with pytest.raises(InvalidInputError, match=message):
        decode_halc(model, DEMO_DET, oracle_match_score, None, demo, DecodeConfig(seed=7))
    assert corrupted


# ---------------------------------------------------------------------------
# Beam selection scores each distinct candidate once
# ---------------------------------------------------------------------------


def reference_select_beams(candidates, scorer, k, scene):
    """Score every candidate, then keep the first k distinct keys by score."""
    scored = [(cand, scorer(cand.tokens, scene)) for cand in candidates]
    order = sorted(range(len(scored)), key=lambda idx: (-scored[idx][1], idx))
    seen = set()
    kept = []
    for idx in order:
        cand, score = scored[idx]
        key = (cand.tokens, cand.terminated)
        if key in seen:
            continue
        seen.add(key)
        kept.append((cand, score))
        if len(kept) == k:
            break
    return kept


def tie_heavy_score(sequence, scene):
    """Pure, with many ties: depends on the sequence only through two counts."""
    return (len(set(sequence)) % 3) / 3 + 0.1 * math.fsum(len(tok) % 2 for tok in sequence)


def _candidate(tokens, terminated):
    return _Candidate(tokens, tokens[-1] if tokens else None, terminated, False, None, False, None, None)


pools = st.lists(
    st.tuples(st.lists(st.sampled_from(["a", "man", "clock", "."]), max_size=3), st.booleans()),
    min_size=1,
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(pool=pools, k=st.integers(1, 5))
def test_select_beams_scores_each_distinct_sequence_once(demo, pool, k):
    candidates = [_candidate(tuple(tokens), terminated) for tokens, terminated in pool]
    calls = []

    def counting_scorer(sequence, scene):
        calls.append(tuple(sequence))
        return tie_heavy_score(sequence, scene)

    kept = select_beams(candidates, counting_scorer, k, demo)
    distinct = {(c.tokens, c.terminated) for c in candidates}
    assert len(calls) == len(distinct)
    want = reference_select_beams(candidates, tie_heavy_score, k, demo)
    assert [(id(c), s) for c, s in kept] == [(id(c), s) for c, s in want]
