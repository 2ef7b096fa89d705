"""The toy model with constant profiles folded into the scene, the one-pass
FOV samplers, the cheaper proposal check, the contrast masked per window and
the candidate pool that skips repeated tokens, each checked against the code
it replaced.

The references below are the replaced code, kept here verbatim apart from
names. Besides the unchanged profile formula, slot and co-occurrence
vectors, they share only softmax and contrast_logits with the code they
check; tests/test_distributions.py checks those two on their own.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from halc import decoding
from halc.decoding import SAMPLING_MODES, DecodeConfig, decode_halc
from halc.distributions import argmax_logit, contrast_logits, contrast_rows, softmax, window_softmax
from halc.errors import InvalidInputError, InvalidParameterError
from halc.geometry import (
    Fov,
    FovSampleSet,
    ImageSpec,
    clamp_to_image,
    expand_fov,
    sample_fovs_exponential,
    sample_fovs_random,
)
from halc.world import (
    CORPUS_DETECTOR_ETA,
    DEMO_DETECTOR_ETA,
    END_TOKEN,
    IDK_TOKEN,
    CorpusSpec,
    DetectorSim,
    Noisy,
    Peaking,
    SceneObject,
    StableHigh,
    demo_scene,
    generate_corpus,
    oracle_match_score,
    profile_value,
    toy_model_logits,
)

# ---------------------------------------------------------------------------
# The toy model: every object profile evaluated on every call
# ---------------------------------------------------------------------------

_PREPOSITIONS = frozenset({"on", "in", "under", "near", "beside", "above"})
_ARTICLES = frozenset({"a", "the"})


def reference_static_levels(scene):
    object_names = {o.name for o in scene.objects}
    levels = np.empty(len(scene.vocabulary), dtype=float)
    for i, tok in enumerate(scene.vocabulary):
        if tok == END_TOKEN:
            levels[i] = 2.0
        elif tok == IDK_TOKEN:
            levels[i] = -30.0
        elif tok in object_names:
            levels[i] = 0.0  # overwritten per FOV
        elif tok in scene.verbs:
            levels[i] = 3.0
        elif tok in _ARTICLES or tok in _PREPOSITIONS or tok == ".":
            levels[i] = 3.0
        else:
            levels[i] = 4.0
    return levels


def reference_model_logits(scene, fov, prefix):
    index = scene.token_index
    logits = reference_static_levels(scene)
    for obj in scene.objects:
        logits[index[obj.name]] = profile_value(obj.profile, fov, scene.image)
    if prefix is None:
        return logits
    for tok in prefix:
        if tok not in index:
            raise InvalidInputError(f"prefix token {tok!r} not in vocabulary")
    logits += scene._slot_vector(len(prefix))
    if prefix:
        cooc = scene._cooc_vector(prefix[-1])
        if cooc is not None:
            logits = logits + cooc
    return logits


def duplicate_name_scene():
    """The demo scene plus two objects that reuse a name: a constant after
    the peaking clock, and a noisy profile after the constant man. The last
    object of a name sets its logit."""
    demo = demo_scene()
    extra = (
        SceneObject("clock", Fov(80.0, 80.0, 500.0, 500.0), StableHigh(5.5)),
        SceneObject("man", Fov(90.0, 90.0, 300.0, 300.0), Noisy(amp=1.2, noise_seed=3, base=5.0)),
    )
    return dataclasses.replace(demo, objects=demo.objects + extra, vocabulary=())


def _windows(image):
    coords = st.tuples(
        st.floats(1.0, image.width), st.floats(1.0, image.height),
        st.floats(0.0, image.width), st.floats(0.0, image.height),
    )
    return coords.map(lambda c: clamp_to_image(Fov(*c), image))


SCENES = {"demo": demo_scene(), "duplicate-names": duplicate_name_scene()}


def _assert_model_agrees(scene, fov, prefix):
    got = toy_model_logits(scene, fov, prefix)
    want = reference_model_logits(scene, fov, prefix)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("name", sorted(SCENES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_folded_model_matches_per_object_loop(name, data):
    scene = SCENES[name]
    fov = data.draw(_windows(scene.image))
    cut = data.draw(st.integers(-1, len(scene.reference_caption)))
    prefix = None if cut < 0 else list(scene.reference_caption[:cut])
    _assert_model_agrees(scene, fov, prefix)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    trap_fraction=st.sampled_from([0.0, 1.0]),
    correctable=st.sampled_from([0.0, 1.0]),
    data=st.data(),
)
def test_folded_model_matches_on_generated_scenes(seed, trap_fraction, correctable, data):
    spec = CorpusSpec(scene_count=1, trap_fraction=trap_fraction, correctable_fraction=correctable)
    scene = generate_corpus(seed, 1, spec)[0]
    fov = data.draw(_windows(scene.image))
    for prefix in (None, [], list(scene.reference_caption[: data.draw(st.integers(1, 20))])):
        _assert_model_agrees(scene, fov, prefix)


def test_duplicate_names_last_object_wins():
    scene = duplicate_name_scene()
    index = scene.token_index
    full = scene.image.full_fov()
    near = Fov(300.0, 300.0, 640.0, 300.0)
    for fov in (full, near):
        logits = toy_model_logits(scene, fov, None)
        assert logits[index["clock"]] == 5.5
    man = [toy_model_logits(scene, f, None)[index["man"]] for f in (full, near)]
    assert man[0] != man[1]


def test_demo_scene_folds_only_constant_profiles(demo):
    index = demo.token_index
    varying = dict(demo._varying)
    assert sorted(varying) == sorted(index[t] for t in ("clock", "surfboard", "book"))
    assert isinstance(varying[index["clock"]], Peaking)
    assert demo._levels[index["man"]] == 6.0


# ---------------------------------------------------------------------------
# FOV samplers: one window, and one block of draws, per sample
# ---------------------------------------------------------------------------


def reference_sample_fovs_exponential(base, lam, n, image, offset=-1):
    if n < 2:
        raise InvalidParameterError("need n >= 2 samples to form divergence pairs")
    exponents = tuple(range(offset, offset + n))
    samples = tuple(clamp_to_image(expand_fov(base, lam, r), image) for r in exponents)
    return FovSampleSet(samples=samples, exponents_or_draws=exponents)


def reference_sample_fovs_random(image, n, rng):
    if n < 2:
        raise InvalidParameterError("need n >= 2 samples to form divergence pairs")
    samples = []
    draws = []
    for _ in range(n):
        w = rng.uniform(0.05, 1.0) * image.width
        h = rng.uniform(0.05, 1.0) * image.height
        cx = rng.uniform(w / 2.0, image.width - w / 2.0)
        cy = rng.uniform(h / 2.0, image.height - h / 2.0)
        draws.append((w, h, cx, cy))
        samples.append(Fov(w, h, cx, cy))
    return FovSampleSet(samples=tuple(samples), exponents_or_draws=tuple(draws))


def _bits(sample_set):
    """Every float of a sample set, as its exact bit pattern."""
    values = [v for fov in sample_set.samples for v in fov.as_tuple()]
    for draw in sample_set.exponents_or_draws:
        values += list(draw) if isinstance(draw, tuple) else [draw]
    return [type(v) for v in values], np.array(values, dtype=float).view(np.int64).tolist()


images = st.builds(ImageSpec, st.floats(10.0, 5000.0), st.floats(10.0, 5000.0))


@settings(max_examples=200, deadline=None)
@given(
    image=images,
    data=st.data(),
    lam=st.floats(-0.95, 3.0),
    n=st.integers(2, 10),
    offset=st.integers(-6, 3),
)
def test_exponential_sampler_is_bit_equal(image, data, lam, n, offset):
    base = data.draw(_windows(image))
    got = sample_fovs_exponential(base, lam, n, image, offset)
    want = reference_sample_fovs_exponential(base, lam, n, image, offset)
    assert got == want
    assert _bits(got) == _bits(want)


@settings(max_examples=200, deadline=None)
@given(image=images, n=st.integers(2, 10), seed=st.integers(0, 2**32 - 1))
def test_random_sampler_is_bit_equal_and_leaves_rng_in_step(image, n, seed):
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_fovs_random(image, n, got_rng)
    want = reference_sample_fovs_random(image, n, want_rng)
    assert got == want
    assert _bits(got) == _bits(want)
    assert got_rng.random() == want_rng.random()


@pytest.mark.parametrize(
    "lam, n, offset",
    [
        (-1.0, 4, -1),  # lambda at its bound
        (0.5, 1, -1),  # too few samples
        (-0.999, 2, 200),  # the window scale underflows to 0
    ],
)
def test_exponential_sampler_rejects_what_the_loop_rejected(lam, n, offset):
    image = ImageSpec(100.0, 100.0)
    base = Fov(10.0, 10.0, 5.0, 5.0)
    with pytest.raises(InvalidParameterError) as want:
        reference_sample_fovs_exponential(base, lam, n, image, offset)
    with pytest.raises(InvalidParameterError, match=str(want.value)):
        sample_fovs_exponential(base, lam, n, image, offset)


# ---------------------------------------------------------------------------
# Proposal check: one look at the winning logit
# ---------------------------------------------------------------------------


def reference_argmax_logit(logits):
    try:
        arr = np.asarray(logits, dtype=float)
    except ValueError as exc:
        raise InvalidInputError("logits must be numeric vectors of one length") from exc
    if arr.ndim != 1 or arr.shape[-1] == 0:
        raise InvalidInputError("logits must be a nonempty 1-D vector or (n, V) stack")
    top = arr.max(axis=-1, keepdims=True)
    if not (top < np.inf).all():
        raise InvalidInputError("logits must be finite or -inf")
    if (top == -np.inf).any():
        raise InvalidInputError("softmax of an all-masked logit vector")
    return int(np.argmax(arr))


def _outcome(fn, logits):
    try:
        return "ok", fn(logits)
    except InvalidInputError as exc:
        return "error", str(exc)


logit_entries = st.one_of(
    st.floats(-50.0, 50.0),
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, 1.0]),
)


@settings(max_examples=300, deadline=None)
@given(logits=st.lists(logit_entries, max_size=8))
def test_argmax_logit_rejects_exactly_what_it_rejected(logits):
    assert _outcome(argmax_logit, logits) == _outcome(reference_argmax_logit, logits)


@pytest.mark.parametrize("logits", [[[1.0, 2.0]], [[1.0], [2.0, 3.0]], 3.0, []])
def test_argmax_logit_rejects_bad_shapes_as_before(logits):
    assert _outcome(argmax_logit, logits) == _outcome(reference_argmax_logit, logits)


# ---------------------------------------------------------------------------
# Contrast rows: window masks built once, then indexed by expert
# ---------------------------------------------------------------------------


def reference_contrast_distribution(f_expert, f_amateur, alpha, beta):
    """The replaced batched contrast: a second softmax over the 2m expert rows
    builds their masks."""
    p_e = softmax(f_expert)
    keep = p_e >= beta * p_e.max(axis=-1, keepdims=True)
    return softmax(np.where(keep, contrast_logits(f_expert, f_amateur, alpha), -np.inf))


@st.composite
def window_stacks(draw):
    n = draw(st.integers(2, 6))
    size = draw(st.integers(1, 12))
    entry = st.floats(-30.0, 30.0)
    if draw(st.booleans()):
        entry = st.one_of(entry, st.just(-np.inf))
    rows = []
    for _ in range(n):
        row = draw(st.lists(entry, min_size=size, max_size=size))
        row[draw(st.integers(0, size - 1))] = draw(st.floats(-30.0, 30.0))  # one unmasked logit
        rows.append(row)
    ends = st.lists(st.integers(0, n - 1), min_size=2, max_size=12)
    experts = draw(ends)
    amateurs = draw(st.lists(st.integers(0, n - 1), min_size=len(experts), max_size=len(experts)))
    return rows, experts, amateurs


@settings(max_examples=300, deadline=None)
# A threshold that underflows to 0 keeps zero-probability tokens; a token
# masked in both windows must still come out masked, not NaN.
@example(case=([[0.0, 0.0, 0.0, -np.inf], [1.0, 0.0, 0.0, -np.inf]], [0, 1], [1, 0]),
         alpha=0.5, beta=5e-324)
@given(
    case=window_stacks(),
    alpha=st.floats(0.0, 3.0),
    beta=st.one_of(st.floats(1e-6, 0.999), st.just(5e-324)),
)
def test_contrast_rows_match_the_replaced_contrast(case, alpha, beta):
    rows, experts, amateurs = case
    logits, probs = window_softmax(rows)
    np.testing.assert_array_equal(probs, softmax(rows))
    stack = np.array(rows)
    want = _outcome(
        lambda _: reference_contrast_distribution(stack[experts], stack[amateurs], alpha, beta), None
    )
    got = _outcome(
        lambda _: contrast_rows(logits, probs, experts, amateurs, alpha, beta), None
    )
    assert got[0] == want[0]
    if got[0] == "ok":
        np.testing.assert_array_equal(got[1], want[1])
    else:
        assert got[1] == want[1]


# ---------------------------------------------------------------------------
# Candidate pool: one candidate per distinct token of a beam's step
# ---------------------------------------------------------------------------


def reference_step_candidates(beam_tokens, proposed, result, record, scene):
    """The replaced loop: one candidate per (token, distribution) pair."""
    pool = []
    for tok, dist in result.candidates:
        extended = beam_tokens if tok == END_TOKEN else beam_tokens + (tok,)
        pool.append(
            decoding._Candidate(
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
    return pool


def _first_by_key(pool):
    first = {}
    for cand in pool:
        first.setdefault((cand.tokens, cand.terminated), cand)
    return [
        (key, c.token, c.triggered, c.original, c.detector_hit, c.prob, id(c.record))
        for key, c in first.items()
    ]


def _recorded_pools(scene, detector, config):
    """Every pool decode_halc hands to select_beams, each paired with the
    pool the replaced loop would have built from the same steps."""
    steps, pairs = [], []
    real_step, real_select = decoding.halc_step, decoding.select_beams

    def step(model, detector, scene, beam, proposed, config, rng):
        result = real_step(model, detector, scene, beam, proposed, config, rng)
        steps.append((beam.tokens, proposed, result))
        return result

    def select(pool, scorer, k, scene):
        # Triggered candidates of one beam share that beam's step record and
        # sit together, in the order the steps ran.
        reference, done = [], set()
        for cand in pool:
            if not cand.triggered:
                reference.append(cand)
            elif id(cand.record) not in done:
                done.add(id(cand.record))
                beam_tokens, proposed, result = steps.pop(0)
                reference += reference_step_candidates(
                    beam_tokens, proposed, result, cand.record, scene
                )
        pairs.append((list(pool), reference))
        return real_select(pool, scorer, k, scene)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decoding, "halc_step", step)
        mp.setattr(decoding, "select_beams", select)
        decoded = decode_halc(None, detector, oracle_match_score, None, scene, config)
    assert not steps
    return decoded, pairs


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    k=st.integers(1, 3),
    mode=st.sampled_from(SAMPLING_MODES),
    n=st.integers(2, 6),
    data=st.data(),
)
def test_pool_keeps_the_first_candidate_of_every_sequence(seed, k, mode, n, data):
    scene = generate_corpus(seed, 1, CorpusSpec(scene_count=1, trap_fraction=1.0))[0]
    config = DecodeConfig(
        n=n, m=data.draw(st.integers(1, n * (n - 1) // 2)), k=k, sampling_mode=mode,
        alpha=data.draw(st.floats(0.0, 3.0)), seed=seed, max_tokens=40,
    )
    _, pairs = _recorded_pools(scene, DetectorSim(CORPUS_DETECTOR_ETA), config)
    assert pairs
    for pool, reference in pairs:
        assert _first_by_key(pool) == _first_by_key(reference)
        assert len(pool) <= len(reference)


def test_demo_pool_drops_repeats_and_keeps_the_correction(demo):
    decoded, pairs = _recorded_pools(demo, DetectorSim(DEMO_DETECTOR_ETA), DecodeConfig(seed=7))
    assert "clock" in decoded.tokens
    assert sum(len(ref) - len(pool) for pool, ref in pairs) > 0
    for pool, reference in pairs:
        assert _first_by_key(pool) == _first_by_key(reference)
