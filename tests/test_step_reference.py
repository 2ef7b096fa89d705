"""The batched focal-contrast step and the deduplicating beam selection,
checked against the per-pair and score-everything code they replaced.

The reference step below is the scalar implementation: one softmax, JSD and
contrast call per vector or pair, with its own copies of those formulas, so
the comparison does not lean on the batched code it checks.
"""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from halc import decoding
from halc.decoding import (
    SAMPLING_MODES,
    BeamState,
    DecodeConfig,
    StepRecord,
    decode_beam,
    decode_greedy,
    decode_halc,
    halc_step,
    select_beams,
)
from halc.distributions import _as_array, contrast_distribution, jsd, softmax
from halc.errors import InvalidInputError
from halc.geometry import Fov
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
    """The per-pair correction step: returns (fovs, matrix, pairs,
    candidates), each candidate a token and its contrast row."""
    model = model or toy_model_logits
    v_d = detector(proposed, scene)
    fovs = decoding._sample_fovs(scene, v_d, config, rng)
    logit_rows = [np.asarray(model(scene, f, list(beam.tokens)), dtype=float) for f in fovs]
    dists = [_ref_softmax(row) for row in logit_rows]

    n = len(dists)
    matrix = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = _ref_jsd(dists[i], dists[j])
    pairs = _ref_top_m_pairs(dists, config.m)

    candidates = []
    for i, j in pairs:
        if fovs[i].area >= fovs[j].area:
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
    # Each candidate is its reference row's top token and, bit for bit, that
    # token's probability in the row.
    assert [(tok, prob.hex()) for tok, prob in result.candidates] == [
        (tok, float(dist.max()).hex()) for tok, dist in candidates
    ]
    np.testing.assert_allclose(result.jsd_matrix, matrix, rtol=0, atol=1e-12)
    # The step's record counts the proposing call, and equal candidates
    # share one tuple, since whole corpora of traces are held in memory.
    assert result.triggered and result.model_call_count == 1 + len(fovs)
    assert len({id(c) for c in result.candidates}) == len(set(result.candidates))
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
    monkeypatch.setattr(decoding, "_sample_fovs", lambda scene, v_d, config, rng: windows)
    config = DecodeConfig(alpha=1.0, beta=1e-6)
    beam = BeamState(tokens=tuple(demo.reference_caption[:4]))
    result = assert_steps_agree(None, DEMO_DET, demo, beam, "surfboard", config, 0)
    first_pair = [tok for tok, _ in result.candidates[:2]]
    assert first_pair[0] != first_pair[1]


def test_successive_wide_steps_leave_earlier_results_intact():
    # The pair gathers reuse scratch buffers of one shape; at V~4032 two
    # steps of one scene share them, and neither result may hold or see them.
    spec = CorpusSpec(scene_count=1, trap_fraction=1.0, filler_count=4000)
    scene = generate_corpus(3, 1, spec)[0]
    caption = scene.reference_caption
    names = {obj.name for obj in scene.objects}
    first_at, second_at = [pos for pos, tok in enumerate(caption) if tok in names][:2]
    config = DecodeConfig(n=4, m=6)

    def step(pos, seed):
        beam = BeamState(tokens=tuple(caption[:pos]))
        return assert_steps_agree(None, CORPUS_DET, scene, beam, caption[pos], config, seed)

    first = step(first_at, 1)
    matrix = [row[:] for row in first.jsd_matrix]
    second = step(second_at, 2)
    assert len(scene.vocabulary) > 4000
    assert first.detector_hit and second.detector_hit
    assert any(map(any, matrix)) and second.jsd_matrix != matrix
    assert first.jsd_matrix == matrix
    # Candidates are (token, probability) pairs of Python objects, which
    # hold no view of the scratch buffers.
    for tok, prob in first.candidates + second.candidates:
        assert type(tok) is str and type(prob) is float


# ---------------------------------------------------------------------------
# Pairs rank through decoding.top_m_pairs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 3])
def test_each_triggered_step_ranks_its_pairs_once_through_top_m_pairs(
    demo, small_trap_corpus, monkeypatch, k
):
    # The benchmark's span recorder wraps decoding.top_m_pairs and counts its
    # calls as the steps' pair selections, so each step makes exactly one,
    # whether the step ranks its pairs itself or decode_halc ranks them with
    # other pending steps. A record keeps the list its one ranking returned,
    # so each ranking is matched to its step by identity, and every ranking
    # of a decode lands in one of its records before decode_halc returns.
    rank, step = decoding.top_m_pairs, decoding.halc_step
    rankings, steps = [], []
    deferred = 0

    def spy_rank(pairs, divergence, m):
        ranked = rank(pairs, divergence, m)
        rankings.append(ranked)
        return ranked

    def spy_step(model, detector, scene, beam, proposed, config, rng, **batch):
        nonlocal deferred
        result = step(model, detector, scene, beam, proposed, config, rng, **batch)
        deferred += result.selected_pairs is None
        steps.append({"scene": scene, "beam": beam, "config": config, "result": result})
        return result

    monkeypatch.setattr(decoding, "top_m_pairs", spy_rank)
    monkeypatch.setattr(decoding, "halc_step", spy_step)
    for scene in [demo, *small_trap_corpus[:4]]:
        decode_halc(None, CORPUS_DET, oracle_match_score, None, scene, DecodeConfig(k=k, seed=1))
        ranked = [id(r["result"].selected_pairs) for r in steps]
        assert sorted(map(id, rankings)) == sorted(ranked)
    assert len(steps) > 10 and deferred > 0
    assert len(rankings) == len(steps) == len(set(map(id, rankings)))
    for record in steps:
        scene, beam, result = record["scene"], record["beam"], record["result"]
        dists = [_ref_softmax(toy_model_logits(scene, f, beam.tokens)) for f in result.fovs]
        assert result.selected_pairs == _ref_top_m_pairs(dists, record["config"].m)


@pytest.mark.parametrize("filler_count", [96, 4000], ids=["V128", "V4032"])
def test_pending_steps_stay_under_the_cap_and_are_ranked_before_the_decode_returns(
    monkeypatch, filler_count
):
    # decode_halc holds the steps it has not ranked yet up to PENDING_CAP
    # bytes of window probabilities. At V≈128 one jsd call stacks the pairs
    # of several steps; at V≈4032 one step of distinct rows passes the cap,
    # so each jsd call gathers one step's pairs into the same pair buffers.
    spec = CorpusSpec(scene_count=1, trap_fraction=1.0, filler_count=filler_count)
    scene = generate_corpus(3, 1, spec)[0]
    config = DecodeConfig(seed=1)
    step, real_jsd = decoding.halc_step, decoding.jsd
    held, batches, records, jsd_rows = [], [], [], []
    deferred = 0

    def spy_step(*args, pending):
        nonlocal deferred
        held.append(sum(probs.nbytes for _, _, probs in pending))
        batches.append(pending)
        records.append(step(*args, pending=pending))
        deferred += records[-1].selected_pairs is None
        return records[-1]

    def spy_jsd(p, q):
        jsd_rows.append(len(p))
        return real_jsd(p, q)

    monkeypatch.setattr(decoding, "halc_step", spy_step)
    monkeypatch.setattr(decoding, "jsd", spy_jsd)
    decoding._pair_buffers.cache_clear()
    decode_halc(None, CORPUS_DET, oracle_match_score, None, scene, config)

    assert len(records) > 10 and deferred > 0 and jsd_rows
    assert max(held) <= decoding.PENDING_CAP
    assert not any(batches)
    assert all(r.packed is not None and r.selected_pairs is not None for r in records)
    pairs = config.n * (config.n - 1) // 2
    if filler_count == 4000:
        assert len(scene.vocabulary) > 4000
        assert set(jsd_rows) == {pairs}
        # One allocation, by the first step of distinct rows, reused after it.
        assert decoding._pair_buffers.cache_info().misses == 1
    else:
        assert max(held) > 0 and max(jsd_rows) > pairs


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


@pytest.mark.parametrize(
    "decode",
    [decode_greedy, lambda model, scene, config: decode_beam(model, scene, 2, config)],
    ids=["greedy", "beam"],
)
@pytest.mark.parametrize("kind", sorted(BAD_ROWS))
def test_baseline_decoders_reject_malformed_logits(demo, kind, decode):
    # Each step's logits are checked before a token is chosen, as in the
    # corrective decoder, so the first model call raises.
    message, corrupt = BAD_ROWS[kind]
    calls = []

    def model(scene, fov, prefix):
        calls.append(len(prefix))
        return corrupt(toy_model_logits(scene, fov, prefix))

    with pytest.raises(InvalidInputError, match=message):
        decode(model, demo, DecodeConfig(seed=7))
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
    scored = [(cand, scorer(cand[0][0], scene)) for cand in candidates]
    order = sorted(range(len(scored)), key=lambda idx: (-scored[idx][1], idx))
    seen = set()
    kept = []
    for idx in order:
        cand, score = scored[idx]
        key = cand[0]
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
    key = (tokens, terminated)
    return (key, 0.0, key, tokens[-1] if tokens else None, None)


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
    distinct = {c[0] for c in candidates}
    assert len(calls) == len(distinct)
    want = reference_select_beams(candidates, tie_heavy_score, k, demo)
    assert [(id(c), s) for c, s in kept] == [(id(c), s) for c, s in want]


# ---------------------------------------------------------------------------
# Windows with equal logits share one row
# ---------------------------------------------------------------------------


def per_window_halc_step(model, detector, scene, beam, proposed, config, rng):
    """halc_step as it was before windows with equal logits shared a row:
    one softmax row per window, one JSD per window pair and one contrast
    row per candidate, through the same halc.distributions calls."""
    model = model or toy_model_logits
    v_d = detector(proposed, scene)
    fovs = decoding._sample_fovs(scene, v_d, config, rng)
    logits = _as_array([model(scene, f, beam.tokens) for f in fovs], ndims=(2,))
    probs = softmax(logits)

    n = len(logits)
    pairs = list(combinations(range(n), 2))
    first, second = np.array(pairs).T
    divergence = jsd(probs[first], probs[second]).tolist()
    ranked = sorted(range(len(pairs)), key=lambda k: -divergence[k])
    selected = [pairs[k] for k in ranked[: config.m]]

    area = [f.area for f in fovs]
    experts, amateurs = [], []
    for i, j in selected:
        larger, smaller = (i, j) if area[i] >= area[j] else (j, i)
        experts += (larger, smaller)
        amateurs += (smaller, larger)
    dists = contrast_distribution(logits[experts], logits[amateurs], config.alpha, config.beta)
    tokens, top = dists.argmax(axis=-1), dists.max(axis=-1)
    candidates = tuple(zip(map(scene.vocabulary.__getitem__, tokens.tolist()), top.tolist()))
    record = StepRecord(True, v_d is not None, 1 + n, candidates)
    record._pack(fovs, divergence, selected)
    return record


class BucketModel:
    """The toy model with the windows of a step put into buckets: the k-th
    window of each step gets the logits of the first window of its bucket
    `buckets[k]`, plus that bucket's offset row, so windows of one bucket
    have the same bits. `corrupt(row, bucket)` may then spoil a row."""

    def __init__(self, buckets, offsets, corrupt=None):
        self.buckets, self.offsets, self.corrupt = buckets, offsets, corrupt
        self.calls = []

    def __call__(self, scene, fov, prefix):
        self.calls.append(fov)
        step = len(self.calls) - 1 - (len(self.calls) - 1) % len(self.buckets)
        bucket = self.buckets[len(self.calls) - 1 - step]
        first = step + self.buckets.index(bucket)
        row = toy_model_logits(scene, self.calls[first], prefix) + self.offsets[bucket]
        return row if self.corrupt is None else self.corrupt(row, bucket)


def _outcome(step, model, scene, beam, proposed, config, seed):
    """The step's result as comparable bits, or its rejection."""
    try:
        result = step(model, CORPUS_DET, scene, beam, proposed, config, np.random.default_rng(seed))
    except InvalidInputError as exc:
        return "error", str(exc)
    return (
        result.fovs,
        [[value.hex() for value in row] for row in result.jsd_matrix],
        result.selected_pairs,
        [(tok, type(prob), prob.hex()) for tok, prob in result.candidates],
        result.detector_hit,
        result.triggered,
        result.model_call_count,
        (result.step, result.beam, result.chosen_token),
    )


def assert_bucketed_steps_agree(buckets, offsets, scene, beam, proposed, config, seed, corrupt=None):
    want_model = BucketModel(buckets, offsets, corrupt)
    got_model = BucketModel(buckets, offsets, corrupt)
    want = _outcome(per_window_halc_step, want_model, scene, beam, proposed, config, seed)
    got = _outcome(halc_step, got_model, scene, beam, proposed, config, seed)
    assert got == want
    assert len(got_model.calls) == len(want_model.calls) == config.n
    return got


def _restricted_growth(draw, n):
    """Bucket labels of n windows in order of first appearance: 1..n buckets."""
    buckets = [0]
    for _ in range(n - 1):
        buckets.append(draw(st.integers(0, max(buckets) + 1)))
    return buckets


@st.composite
def bucketed_steps(draw):
    scene, beam, proposed, config, seed = draw(step_cases())
    buckets = _restricted_growth(draw, config.n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = (max(buckets) + 1, len(scene.vocabulary))
    kind = draw(st.sampled_from(["noise", "shift", "none"]))
    if kind == "noise":  # buckets differ in their logits
        offsets = rng.normal(0.0, draw(st.sampled_from([1e-9, 0.3, 3.0])), size)
    elif kind == "shift":  # buckets differ in bits but share probabilities
        offsets = np.repeat(rng.normal(0.0, 1.0, (size[0], 1)), size[1], axis=1)
    else:  # buckets differ only where their windows do
        offsets = np.zeros(size)
    return buckets, offsets, scene, beam, proposed, config, seed


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=bucketed_steps())
def test_step_on_windows_of_equal_logits_matches_the_per_window_step(case):
    assert_bucketed_steps_agree(*case)


# Non-adjacent duplicates put a pair's first window on the later row, so
# the row pair of (i, j) is read in the other orientation.
PATTERNS = [
    [0, 0], [0, 1], [0, 1, 0], [0, 0, 1], [0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0],
    [0, 1, 2, 0], [0, 0, 0, 0], [0, 1, 2, 3], [0, 1, 2, 1, 0, 3, 3, 2],
]


@pytest.mark.parametrize("buckets", PATTERNS, ids=["".join(map(str, p)) for p in PATTERNS])
@pytest.mark.parametrize("trap_fraction", [0.0, 1.0])
def test_bucket_patterns_match_the_per_window_step(buckets, trap_fraction):
    spec = CorpusSpec(scene_count=1, trap_fraction=trap_fraction)
    scene = generate_corpus(31, 1, spec)[0]
    names = {obj.name for obj in scene.objects}
    pos = next(p for p, tok in enumerate(scene.reference_caption) if tok in names)
    beam = BeamState(tuple(scene.reference_caption[:pos]))
    n = len(buckets)
    config = DecodeConfig(n=n, m=n * (n - 1) // 2, alpha=0.5, beta=0.05)
    offsets = np.random.default_rng(5).normal(0.0, 0.3, (max(buckets) + 1, len(scene.vocabulary)))
    got = assert_bucketed_steps_agree(buckets, offsets, scene, beam, scene.reference_caption[pos],
                                      config, 0)
    matrix = got[1]
    for i, j in combinations(range(n), 2):
        assert (matrix[i][j] == (0.0).hex()) == (buckets[i] == buckets[j])


@pytest.mark.parametrize("buckets", [[0, 0], [0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0, 1]])
@pytest.mark.parametrize("kind", sorted(BAD_ROWS))
def test_duplicated_malformed_rows_raise_as_before(demo, buckets, kind):
    message, spoil = BAD_ROWS[kind]
    beam = BeamState(tuple(demo.reference_caption[:4]))
    offsets = np.zeros((max(buckets) + 1, len(demo.vocabulary)))
    for bad in range(max(buckets) + 1):
        n = len(buckets)

        def corrupt(row, bucket):
            return spoil(row) if bucket == bad else row

        config = DecodeConfig(n=n, m=n * (n - 1) // 2, seed=0)
        got = assert_bucketed_steps_agree(buckets, offsets, demo, beam, "surfboard", config, 0,
                                          corrupt)
        assert got == ("error", message)


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("buckets", [[0, 1], [0, 1, 0], [1, 0, 1, 0], [0, 0, 1, 1]])
def test_duplicated_amateur_minus_inf_under_a_kept_token_raises_as_before(demo, buckets, alpha):
    # Bucket 1's windows keep one token that bucket 0's windows mask, so the
    # contrast with expert 1 and amateur 0 is +inf (or NaN at alpha 0).
    buckets = [b if buckets[0] == 0 else 1 - b for b in buckets]
    token = demo.token_id("clock")

    def corrupt(row, bucket):
        row[token] = -np.inf if bucket == 0 else row.max() + 5.0
        return row

    n = len(buckets)
    offsets = np.zeros((2, len(demo.vocabulary)))
    config = DecodeConfig(n=n, m=n * (n - 1) // 2, alpha=alpha, seed=0)
    beam = BeamState(tuple(demo.reference_caption[:4]))
    got = assert_bucketed_steps_agree(buckets, offsets, demo, beam, "surfboard", config, 0, corrupt)
    assert got == ("error", "logits must be finite or -inf")


@pytest.mark.parametrize("buckets", [[0, 0], [0, 1], [0, 1, 1, 0]])
def test_a_subnormal_beta_keeps_masked_tokens_off_the_contrast(demo, buckets):
    # Flattened rows keep max(p) below 0.5, where beta * max(p) underflows
    # to 0: each mask keeps every token, also those every window masks at
    # -inf, whose contrast, -inf - -inf, must be masked off, not checked.
    masked = [demo.token_id("clock"), demo.token_id("man")]

    def corrupt(row, bucket):
        row *= 0.01
        row[masked] = -np.inf
        return row

    n = len(buckets)
    offsets = np.random.default_rng(4).normal(0.0, 0.3, (2, len(demo.vocabulary)))
    config = DecodeConfig(n=n, m=n * (n - 1) // 2, alpha=0.5, beta=5e-324, seed=0)
    beam = BeamState(tuple(demo.reference_caption[:4]))
    got = assert_bucketed_steps_agree(buckets, offsets, demo, beam, "surfboard", config, 0, corrupt)
    assert got[0] != "error"


def test_steps_of_every_distinct_count_share_one_pair_buffer():
    # The scratch pair buffers keep the shape of n windows: a step with
    # fewer distinct rows uses their leading rows and allocates nothing.
    spec = CorpusSpec(scene_count=1, trap_fraction=1.0)
    scene = generate_corpus(3, 1, spec)[0]
    beam = BeamState(tuple(scene.reference_caption[:3]))
    config = DecodeConfig(n=5, m=10)
    offsets = np.random.default_rng(2).normal(0.0, 0.3, (5, len(scene.vocabulary)))

    def step(buckets):
        model = BucketModel(buckets, offsets)
        halc_step(model, CORPUS_DET, scene, beam, scene.reference_caption[3], config,
                  np.random.default_rng(0))

    step([0, 1, 2, 3, 4])
    info = decoding._pair_buffers.cache_info()
    for buckets in ([0, 0, 0, 0, 0], [0, 1, 0, 1, 0], [0, 1, 2, 0, 1], [0, 1, 2, 3, 0],
                    [0, 1, 2, 3, 4], [0, 0, 1, 1, 2]):
        step(buckets)
    after = decoding._pair_buffers.cache_info()
    assert after.misses == info.misses
    assert after.hits > info.hits
