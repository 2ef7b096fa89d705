"""The toy model with constant profiles folded into the scene and its
bonus tables cut to the vocabulary head, the scene's token tables built
one token class at a time, the Peaking profile's
distance tuples built in place, the one-pass FOV samplers, the growth
check and the sampler's first exponent read from one exponent range per
sampling mode, the cheaper proposal check, the contrast masked per window and read out as each
row's top token and its probability, the one-token contrast of
single-token masks, the in-place JSD, the candidate pool that skips
repeated tokens and the oracle scorer that counts nouns by set lookups,
each checked against the code it replaced.

The references below are the replaced code, kept here verbatim apart from
names. The model reference builds its slot and co-occurrence bonuses from
the scene's skeleton and co-occurrence rows, V wide, and is compared by
bytes, so that a -0.0 counts. Besides the unchanged profile
formula, the references share only softmax, geometry's growth factor and
the unchanged input checks of halc.distributions with the code they check;
tests/test_distributions.py checks those on their own.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from halc import decoding
from halc.decoding import (
    IDK_POLICIES,
    MAX_ALPHA,
    SAMPLING_MODES,
    DecodeConfig,
    apply_idk_policy,
    decode_halc,
)
from halc.distributions import (
    _as_array,
    _check_pair,
    _plausible,
    argmax_logit,
    contrast_distribution,
    contrast_rows,
    jsd,
    softmax,
)
from halc.errors import InvalidInputError, InvalidParameterError
from halc.geometry import (
    Fov,
    ImageSpec,
    _growth,
    clamp_to_image,
    expand_fov,
    sample_fovs_exponential,
    sample_fovs_random,
)
from halc.world import (
    CORPUS_DETECTOR_ETA,
    DEMO_DETECTOR_ETA,
    END_LEVEL,
    END_TOKEN,
    FILLER_LEVEL,
    FUNCTION_LEVEL,
    IDK_LEVEL,
    IDK_TOKEN,
    VERB_LEVEL,
    ContextShift,
    CorpusSpec,
    DetectorSim,
    Noisy,
    NounSlot,
    Peaking,
    Scene,
    SceneObject,
    StableHigh,
    VerbSlot,
    WordSlot,
    demo_scene,
    generate_corpus,
    load_corpus,
    oracle_match_score,
    profile_value,
    save_corpus,
    tag_token,
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


def token_index(scene):
    """Each vocabulary token's id: its position in the vocabulary."""
    return {tok: i for i, tok in enumerate(scene.vocabulary)}


def reference_model_logits(scene, fov, prefix):
    index = token_index(scene)
    logits = reference_static_levels(scene)
    for obj in scene.objects:
        logits[index[obj.name]] = profile_value(obj.profile, fov, scene.image)
    if prefix is None:
        return logits
    for tok in prefix:
        if tok not in index:
            raise InvalidInputError(f"prefix token {tok!r} not in vocabulary")
    logits += reference_slot_bonus(scene, len(prefix))
    if prefix:
        cooc = reference_cooc_bonus(scene, prefix[-1])
        if cooc is not None:
            logits = logits + cooc
    return logits


def reference_slot_bonus(scene, position):
    pos = min(position, len(scene.skeleton))
    vec = np.zeros(len(scene.vocabulary), dtype=float)
    if pos == len(scene.skeleton):  # the end-of-sequence slot
        tokens = (END_TOKEN,)
    else:
        slot = scene.skeleton[pos]
        tokens = (slot.token,) if isinstance(slot, WordSlot) else slot.candidates
    for tok in tokens:
        vec[scene.vocabulary.index(tok)] = 8.0
    return vec


def reference_cooc_bonus(scene, prev):
    vec = None
    for (p, tok), bonus in scene.cooccurrence.items():
        if p == prev:
            if vec is None:
                vec = np.zeros(len(scene.vocabulary), dtype=float)
            vec[scene.vocabulary.index(tok)] += bonus
    return vec


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


def negative_zero_scene():
    """The demo scene plus objects whose profiles give -0.0 under some or
    every window, which a dense add of 0.0 would turn into 0.0."""
    demo = demo_scene()
    region = Fov(200.0, 200.0, 500.0, 500.0)
    extra = (
        SceneObject("zero-stable", region, StableHigh(-0.0)),
        SceneObject("zero-peak", region, Peaking(v_star=region, width=50.0, amp=-0.0, base=-0.0)),
        SceneObject("zero-shift", region, ContextShift(slope=0.0, base=-0.0)),
        SceneObject("zero-noise", region, Noisy(amp=-0.0, noise_seed=5, base=-0.0)),
    )
    return dataclasses.replace(demo, objects=demo.objects + extra, vocabulary=())


def bonus_last_scene():
    """The -0.0 scene with its vocabulary reversed: the fillers come first
    and the end token, a bonus token, last, so the vocabulary head is all
    of it."""
    scene = negative_zero_scene()
    return dataclasses.replace(scene, scene_id="bonus-last", vocabulary=scene.vocabulary[::-1])


def _windows(image):
    coords = st.tuples(
        st.floats(1.0, image.width), st.floats(1.0, image.height),
        st.floats(0.0, image.width), st.floats(0.0, image.height),
    )
    return coords.map(lambda c: clamp_to_image(Fov(*c), image))


SCENES = {
    "demo": demo_scene(),
    "duplicate-names": duplicate_name_scene(),
    "negative-zero": negative_zero_scene(),
    "bonus-last": bonus_last_scene(),
}


def _assert_model_agrees(scene, fov, prefix):
    # By bytes: assert_array_equal would take -0.0 for 0.0.
    got = toy_model_logits(scene, fov, prefix)
    want = reference_model_logits(scene, fov, prefix)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


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
    filler_count=st.integers(0, 4000),
    data=st.data(),
)
def test_folded_model_matches_on_generated_scenes(
    seed, trap_fraction, correctable, filler_count, data
):
    spec = CorpusSpec(
        scene_count=1,
        trap_fraction=trap_fraction,
        correctable_fraction=correctable,
        filler_count=filler_count,
    )
    scene = generate_corpus(seed, 1, spec)[0]
    fov = data.draw(_windows(scene.image))
    cut = data.draw(st.integers(1, len(scene.reference_caption)))
    for prefix in (None, [], list(scene.reference_caption[:cut])):
        _assert_model_agrees(scene, fov, prefix)


def test_the_vocabulary_head_bounds_the_bonus_tables():
    # Generated fillers come after every bonus token; a vocabulary with a
    # bonus token last keeps tables as wide as itself.
    demo, bonus_last = SCENES["demo"], SCENES["bonus-last"]
    assert demo._slots.shape[1] == demo.vocabulary.index("book") + 1 < len(demo.vocabulary)
    assert bonus_last._slots.shape[1] == len(bonus_last.vocabulary)
    assert {row.size for row in bonus_last._cooc.values()} == {len(bonus_last.vocabulary)}
    logits = toy_model_logits(SCENES["negative-zero"], demo.image.full_fov(), None)
    assert np.signbit(logits[SCENES["negative-zero"].token_id("zero-stable")])


def test_model_logits_keep_their_bits_through_a_corpus_round_trip(tmp_path):
    scenes = generate_corpus(3, 4, CorpusSpec(scene_count=4, filler_count=300))
    scenes += [SCENES["negative-zero"], SCENES["bonus-last"]]
    save_corpus(scenes, tmp_path / "corpus.json")
    for scene, loaded in zip(scenes, load_corpus(tmp_path / "corpus.json")):
        windows = [scene.image.full_fov(), *(o.region for o in scene.objects)]
        caption = scene.reference_caption
        for fov in windows:
            for prefix in (None, *(list(caption[:cut]) for cut in range(len(caption) + 1))):
                got = toy_model_logits(loaded, fov, prefix)
                assert got.tobytes() == toy_model_logits(scene, fov, prefix).tobytes()
                _assert_model_agrees(loaded, fov, prefix)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    width=st.floats(1e-3, 1e4),
    amp=st.floats(0.0, 50.0),
    base=st.floats(-50.0, 50.0),
)
def test_peaking_profile_builds_the_distance_tuples_in_place(data, width, amp, base):
    image = ImageSpec(1000.0, 800.0)
    fov, v_star = data.draw(_windows(image)), data.draw(_windows(image))
    d = math.dist(fov.as_tuple(), v_star.as_tuple())
    want = base + amp * math.exp(-(d * d) / (2.0 * width**2))
    got = profile_value(Peaking(v_star=v_star, width=width, amp=amp, base=base), fov, image)
    assert got.hex() == want.hex()


def test_duplicate_names_last_object_wins():
    scene = duplicate_name_scene()
    index = token_index(scene)
    full = scene.image.full_fov()
    near = Fov(300.0, 300.0, 640.0, 300.0)
    for fov in (full, near):
        logits = toy_model_logits(scene, fov, None)
        assert logits[index["clock"]] == 5.5
    man = [toy_model_logits(scene, f, None)[index["man"]] for f in (full, near)]
    assert man[0] != man[1]


def test_demo_scene_folds_only_constant_profiles(demo):
    index = token_index(demo)
    varying = dict(demo._varying)
    assert sorted(varying) == sorted(index[t] for t in ("clock", "surfboard", "book"))
    assert isinstance(varying[index["clock"]], Peaking)
    assert demo._levels[index["man"]] == 6.0


# ---------------------------------------------------------------------------
# Token tables: each token class written in one pass, lowest priority first
# ---------------------------------------------------------------------------


def reference_levels_and_profiles(self, index, by_name):
    """Logits that no window changes, and the (token id, profile) pairs
    of the object tokens whose logit depends on the window.

    StableHigh object levels are constants, so they are written here once
    rather than on every model call.
    """
    levels = np.empty(len(self.vocabulary), dtype=float)
    for tok, i in index.items():
        if tok == END_TOKEN:
            levels[i] = END_LEVEL
        elif tok == IDK_TOKEN:
            levels[i] = IDK_LEVEL
        elif tok in by_name:
            levels[i] = 0.0  # set below or per window
        elif tok in self.verbs:
            levels[i] = VERB_LEVEL
        elif tok in _ARTICLES or tok in _PREPOSITIONS or tok == ".":
            levels[i] = FUNCTION_LEVEL
        else:
            levels[i] = FILLER_LEVEL
    varying = []
    for name, obj in by_name.items():
        if isinstance(obj.profile, StableHigh):
            levels[index[name]] = obj.profile.level
        else:
            varying.append((index[name], obj.profile))
    return levels, tuple(varying)


def reference_build_lexicon(self):
    lex = {}
    for tok in self.vocabulary:
        if tok in self._by_name:
            lex[tok] = "noun"
        elif tok in self.verbs:
            lex[tok] = "verb"
        elif tok in _PREPOSITIONS:
            lex[tok] = "preposition"
        else:
            lex[tok] = "other"
    return lex


def reference_tag_token(lexicon, word):
    """Map a word to its hallucination category via its POS tag."""
    pos = lexicon.get(word, "other")
    if pos == "noun":
        return "existence"
    if pos in ("adjective", "adverb", "number", "verb", "pronoun"):
        return "attribute"
    if pos == "preposition":
        return "relationship"
    return "none"


# Object names and verbs that collide with every other token class.
_CLASH_NAMES = ("holds", "sees", "on", "in", "a", "the", ".", "w0", END_TOKEN, IDK_TOKEN, "dog")
_CLASH_VERBS = ("holds", "sees", "on", "a", ".", "w0", "dog")
_CLASH_FILLERS = ("w0", "w1", "on", "the", "dog", IDK_TOKEN)
# Words an explicit vocabulary may hold beyond the assembled one.
_EXTRA_WORDS = ("in", "under", ".", "w9")


@st.composite
def token_class_scenes(draw):
    region = Fov(20.0, 20.0, 50.0, 50.0)
    profiles = st.one_of(
        st.floats(-10.0, 10.0).map(StableHigh),
        st.just(Peaking(v_star=region, width=5.0, amp=1.0, base=0.5)),
        st.just(ContextShift(slope=0.5, base=1.0)),
        st.just(Noisy(amp=0.3, noise_seed=2, base=1.0)),
    )
    names = draw(st.lists(st.sampled_from(_CLASH_NAMES), min_size=1, max_size=6))
    scene = Scene(
        image=ImageSpec(100.0, 100.0),
        objects=tuple(SceneObject(name, region, draw(profiles)) for name in names),
        verbs=tuple(draw(st.lists(st.sampled_from(_CLASH_VERBS), max_size=3))),
        fillers=tuple(draw(st.lists(st.sampled_from(_CLASH_FILLERS), max_size=4))),
        skeleton=(),
        cooccurrence={},
        reference_caption=(),
    )
    if draw(st.booleans()):
        # An explicit vocabulary: [END], the objects and any of the rest, in any order.
        need = sorted({END_TOKEN, *names})
        optional = sorted(set(scene.vocabulary).union(_EXTRA_WORDS).difference(need))
        kept = draw(st.lists(st.sampled_from(optional), unique=True))
        vocabulary = tuple(draw(st.permutations(need + kept)))
        scene = dataclasses.replace(scene, vocabulary=vocabulary)
    return scene


@settings(max_examples=300, deadline=None)
@given(scene=token_class_scenes())
def test_token_tables_match_the_per_token_classifiers(scene):
    index = token_index(scene)
    by_name = {o.name: o for o in scene.objects}
    levels, varying = reference_levels_and_profiles(scene, index, by_name)
    lexicon = reference_build_lexicon(scene)
    assert scene._levels.dtype == levels.dtype
    assert scene._levels.tobytes() == levels.tobytes()
    assert scene._varying == varying
    # The lexicon holds the tagged tokens only; tag_token reads any other
    # token as "other".
    assert scene.lexicon == {tok: pos for tok, pos in lexicon.items() if pos != "other"}
    for i, tok in enumerate(scene.vocabulary):
        assert scene.token_id(tok) == i
    with pytest.raises(InvalidInputError, match="not in scene vocabulary"):
        scene.token_id("unknown-word")
    custom = {
        "n": "noun", "v": "verb", "p": "preposition", "adj": "adjective",
        "adv": "adverb", "num": "number", "pro": "pronoun", "o": "other",
    }
    cases = [(scene.lexicon, lexicon, tok) for tok in (*scene.vocabulary, "unknown-word")]
    cases += [(custom, custom, word) for word in (*custom, "unknown-word")]
    for lex, reference_lex, word in cases:
        assert tag_token(lex, word) == reference_tag_token(reference_lex, word)


def _clash_scene(fillers, vocabulary=()):
    """Two objects, two verbs (one outside the skeleton), the article "a",
    a co-occurrence row and the given fillers."""
    region = Fov(20.0, 20.0, 50.0, 50.0)
    return Scene(
        image=ImageSpec(100.0, 100.0),
        objects=(
            SceneObject("dog", region, StableHigh(5.0)),
            SceneObject("cat", region, ContextShift(slope=0.5, base=1.0)),
        ),
        verbs=("sees", "holds"),
        fillers=fillers,
        skeleton=(WordSlot("a"), NounSlot(("dog",)), VerbSlot(("sees",)), NounSlot(("cat",))),
        cooccurrence={("sees", "cat"): 0.2},
        reference_caption=("a", "dog", "sees", "cat"),
        vocabulary=vocabulary,
    )


# Fillers that stop the vocabulary from splitting into its head and the
# shared filler index: a repeated filler, named tokens (an object, a
# skeleton word, [END]) and tokens of a class the skeleton does not name (a
# verb, an article, a preposition, [IDK]).
_SPLIT_BREAKERS = ("w0", "dog", "cat", "a", END_TOKEN, "holds", "the", "in", IDK_TOKEN)


def test_clean_fillers_split_off_the_shared_index():
    fillers = ("w0", "w1", "w2")
    scene = _clash_scene(fillers)
    assert scene._fillers == {"w0": 0, "w1": 1, "w2": 2}
    assert len(scene._index) == len(scene.vocabulary) - 3
    assert [scene.token_id(tok) for tok in scene.vocabulary] == list(range(len(scene.vocabulary)))
    # A prefix may hold fillers; a token of neither index is named.
    _assert_model_agrees(scene, scene.image.full_fov(), ["a", "w2", "dog", "w0"])
    with pytest.raises(InvalidInputError, match="prefix token 'w3' not in vocabulary"):
        toy_model_logits(scene, scene.image.full_fov(), ["a", "w2", "w3"])
    # A head token that is also a filler is a repeated token.
    with pytest.raises(InvalidParameterError, match="vocabulary contains duplicates"):
        _clash_scene(fillers, ("w1", *scene.vocabulary))


@settings(max_examples=100, deadline=None)
@given(breaker=st.sampled_from(_SPLIT_BREAKERS), at=st.integers(0, 3), data=st.data())
def test_fillers_that_break_the_split_fall_back_to_one_index(breaker, at, data):
    fillers = ["w0", "w1", "w2"]
    fillers.insert(at, breaker)
    scene = _clash_scene(tuple(fillers))
    if data.draw(st.booleans(), label="explicit vocabulary"):
        # The rest in any order, then the fillers: the breaker lies in the tail.
        rest = [tok for tok in scene.vocabulary if tok not in fillers]
        vocabulary = (*data.draw(st.permutations(rest)), *fillers)
        if breaker == "w0":
            with pytest.raises(InvalidParameterError, match="vocabulary contains duplicates"):
                _clash_scene(tuple(fillers), vocabulary)
            return
        scene = _clash_scene(tuple(fillers), vocabulary)
    assert scene._fillers == {}
    assert [scene.token_id(tok) for tok in scene.vocabulary] == list(range(len(scene.vocabulary)))
    levels, varying = reference_levels_and_profiles(scene, token_index(scene), scene._by_name)
    assert scene._levels.tobytes() == levels.tobytes()
    assert scene._varying == varying
    assert scene.lexicon == {
        tok: pos for tok, pos in reference_build_lexicon(scene).items() if pos != "other"
    }
    caption = scene.reference_caption
    for prefix in (None, *(list(caption[:cut]) for cut in range(len(caption) + 1))):
        _assert_model_agrees(scene, scene.image.full_fov(), prefix)


# ---------------------------------------------------------------------------
# FOV samplers: one window, and one block of draws, per sample
# ---------------------------------------------------------------------------


def reference_sample_fovs_exponential(base, lam, n, image, offset=-1):
    if n < 2:
        raise InvalidParameterError("need n >= 2 samples to form divergence pairs")
    exponents = tuple(range(offset, offset + n))
    return tuple(clamp_to_image(expand_fov(base, lam, r), image) for r in exponents)


def reference_sample_fovs_random(image, n, rng):
    if n < 2:
        raise InvalidParameterError("need n >= 2 samples to form divergence pairs")
    samples = []
    for _ in range(n):
        w = rng.uniform(0.05, 1.0) * image.width
        h = rng.uniform(0.05, 1.0) * image.height
        cx = rng.uniform(w / 2.0, image.width - w / 2.0)
        cy = rng.uniform(h / 2.0, image.height - h / 2.0)
        samples.append(Fov(w, h, cx, cy))
    return tuple(samples)


def _bits(samples):
    """Every float of a sample set, as its exact bit pattern."""
    values = [v for fov in samples for v in fov.as_tuple()]
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
# Growth check: one exponent range per sampling mode
# ---------------------------------------------------------------------------


def reference_growth_ends(mode, lam, n, exponent_offset):
    """The lowest and highest exponent r of the growth (1 + lam)**r by
    which the sampling mode scales windows, each with the key to blame
    when it fails. The growth is monotone in r, so these ends decide
    whether every window keeps a finite, positive size."""
    if mode in ("exponential", "center"):
        low = exponent_offset
        return [("exponent_offset", low), ("lam", low + n - 1)]
    if mode == "original":
        return [("lam", 1 - n)]  # its highest exponent, 0, gives 1
    return []


def reference_growth_error(mode, lam, n, exponent_offset):
    """The replaced check loop's message, or None where it passed."""
    for key, r in reference_growth_ends(mode, lam, n, exponent_offset):
        try:
            ok = _growth(lam, r) > 0
            problem = f"growth (1 + {lam})**{r} underflows to 0"
        except InvalidParameterError as exc:  # it overflows
            ok, problem = False, str(exc)
        if not ok:
            value = exponent_offset if key == "exponent_offset" else lam
            return f"decode {key} is out of range: {problem}, got {value!r}"
    return None


def reference_exponential_call(image, v_d, mode, exponent_offset, n):
    """The base window and first exponent that the replaced `_sample_fovs`
    passed to sample_fovs_exponential, or None for the modes that draw."""
    if mode == "exponential":
        return v_d, exponent_offset
    if mode == "center":
        base = Fov(image.width / 2.0, image.height / 2.0, image.width / 2.0, image.height / 2.0)
        return base, exponent_offset
    if mode == "original":
        return image.full_fov(), -(n - 1)
    return None


GROWTH_LAMS = [math.nextafter(-1.0, 0.0), -0.99999, 0.6, 1e300]
GROWTH_OFFSETS = [sign * value for value in (0, 1, 820, 100_000) for sign in (1, -1)]


@settings(max_examples=400, deadline=None)
@given(
    mode=st.sampled_from(SAMPLING_MODES),
    lam=st.sampled_from(GROWTH_LAMS),
    n=st.integers(2, 64),
    offset=st.sampled_from(GROWTH_OFFSETS),
)
def test_growth_check_decides_as_the_per_mode_ends_it_replaced(mode, lam, n, offset):
    want = reference_growth_error(mode, lam, n, offset)
    try:
        config = DecodeConfig(lam=lam, n=n, m=1, sampling_mode=mode, exponent_offset=offset)
    except InvalidParameterError as exc:
        assert str(exc) == want
        return
    assert want is None
    scene = SCENES["demo"]
    v_d = Fov(120.0, 80.0, 300.0, 200.0)
    spy = mock.Mock(return_value="windows")
    with mock.patch.object(decoding, "sample_fovs_exponential", spy):
        got = decoding._sample_fovs(scene, v_d, config, np.random.default_rng(0))
    call = reference_exponential_call(scene.image, v_d, mode, offset, n)
    if call is None:
        assert config.exponents is None
        spy.assert_not_called()
    else:
        base, first = call
        assert got == "windows"
        spy.assert_called_once_with(base, lam, n, scene.image, first)
        assert config.exponents == range(first, first + n)


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


def reference_as_logits(values):
    """The logits as a float array, and the maximum of each vector."""
    arr = _as_array(values)
    top = arr.max(axis=-1, keepdims=True)
    if not (top < np.inf).all():  # the maximum propagates NaN
        raise InvalidInputError("logits must be finite or -inf")
    return arr, top


def reference_contrast_logits(f_expert, f_amateur, alpha):
    """Log-space contrast (1 + alpha) * f_expert - alpha * f_amateur.

    Entries masked (-inf) in the expert vector stay masked.
    """
    if alpha < 0:
        raise InvalidParameterError("amplification factor must be nonnegative")
    f_e, _ = reference_as_logits(f_expert)
    f_a, _ = reference_as_logits(f_amateur)
    if f_e.shape != f_a.shape:
        raise InvalidInputError("logit vectors must share a vocabulary size")
    masked = np.isneginf(f_e)
    with np.errstate(invalid="ignore"):
        out = (1.0 + alpha) * f_e - alpha * f_a
    out[masked] = -np.inf
    return out


def reference_contrast_distribution(f_expert, f_amateur, alpha, beta):
    """The replaced batched contrast: a second softmax over the 2m expert rows
    builds their masks."""
    p_e = softmax(f_expert)
    keep = p_e >= beta * p_e.max(axis=-1, keepdims=True)
    return softmax(np.where(keep, reference_contrast_logits(f_expert, f_amateur, alpha), -np.inf))


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
    stack = np.array(rows)
    assert _exact(contrast_rows, stack, softmax(stack), experts, amateurs, alpha, beta) == _exact(
        lambda: reference_top(
            reference_contrast_distribution(stack[experts], stack[amateurs], alpha, beta)
        )
    )


# ---------------------------------------------------------------------------
# Dense contrast: one softmax of the contrast with -inf off the mask
# ---------------------------------------------------------------------------


def reference_dense_softmax(arr):
    top = arr.max(axis=-1, keepdims=True)
    if not np.isfinite(top).all():
        if not (top < np.inf).all():  # the maximum propagates NaN
            raise InvalidInputError("logits must be finite or -inf")
        raise InvalidInputError("softmax of an all-masked logit vector")
    out = arr - top
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def reference_masked_contrast(f_e, f_a, keep, alpha):
    """The full (rows, V) contrast, -inf off the mask, then a dense
    softmax."""
    with np.errstate(invalid="ignore"):
        contrasted = np.where(keep, (1.0 + alpha) * f_e - alpha * f_a, -np.inf)
    return reference_dense_softmax(contrasted)


def reference_dense_contrast_distribution(f_expert, f_amateur, alpha, beta):
    f_e = _as_array(f_expert)
    keep = _plausible(reference_dense_softmax(f_e), beta) & (f_e > -np.inf)
    if alpha < 0:
        raise InvalidParameterError("amplification factor must be nonnegative")
    f_a, _ = reference_as_logits(f_amateur)
    if f_e.shape != f_a.shape:
        raise InvalidInputError("logit vectors must share a vocabulary size")
    return reference_masked_contrast(f_e, f_a, keep, alpha)


def reference_dense_contrast_rows(logits, probs, experts, amateurs, alpha, beta):
    if alpha < 0:
        raise InvalidParameterError("amplification factor must be nonnegative")
    keep = _plausible(probs, beta) & (logits > -np.inf)
    ends = np.array((experts, amateurs))
    f_e, f_a = logits[ends]
    return reference_masked_contrast(f_e, f_a, keep[ends[0]], alpha)


def reference_top(dists):
    """What contrast_rows returns for contrast rows `dists`: each row's most
    probable token, lowest id on ties, and that token's probability."""
    tokens = dists.argmax(axis=-1)
    return tokens, dists[np.arange(len(dists)), tokens]


def reference_top_contrast_rows(*args):
    return reference_top(reference_dense_contrast_rows(*args))


def _value_bits(value):
    if isinstance(value, tuple):
        return tuple(map(_value_bits, value))
    if isinstance(value, float):
        return "float", value.hex()
    return type(value), value.shape, value.dtype.str, value.tobytes()


def _exact(fn, *args):
    """The result's exact bits and types, or the rejection's type and message."""
    try:
        value = fn(*args)
    except (InvalidInputError, InvalidParameterError) as exc:
        return "error", type(exc), str(exc)
    return _value_bits(value)


def _exact_reference(fn, *args):
    """_exact of a dense reference, whose contrast may overflow. The code it
    is compared with runs without this errstate, so a RuntimeWarning that
    leaks from it fails the test."""
    with np.errstate(over="ignore"):
        return _exact(fn, *args)


@st.composite
def wide_window_stacks(draw):
    """n windows of V logits, each with a chosen number of tokens near its
    maximum (the plausible set at beta = 0.1 for 1..V tokens), the rest
    far below it. Some of the rest are -inf (masked) or so low that their
    probability underflows to 0; some amateur entries are -inf, also under
    tokens that other windows keep."""
    size = draw(st.integers(1, 5000))
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = rng.uniform(-60.0, -3.0, (n, size))
    for row in logits:
        near = rng.choice(size, size=draw(st.integers(1, size)), replace=False)
        row[near] = rng.uniform(-2.0, 0.0, len(near))
    low = draw(st.sampled_from([None, -np.inf, -1e4]))
    if low is not None:
        far = logits < -3.0
        logits[far & (rng.random((n, size)) < draw(st.sampled_from([0.1, 0.9])))] = low
    if draw(st.booleans()):
        window = draw(st.integers(0, n - 1))
        holes = rng.random(size) < draw(st.sampled_from([1e-3, 0.05]))
        holes[np.argmax(logits[window])] = False  # keep one unmasked logit
        logits[window, holes] = -np.inf
    experts = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12))
    amateurs = draw(st.lists(st.integers(0, n - 1), min_size=len(experts), max_size=len(experts)))
    return logits, experts, amateurs


BETAS = st.one_of(st.floats(1e-6, 0.999), st.just(0.1), st.just(5e-324))
ALPHAS = st.one_of(st.just(0.0), st.floats(0.0, 3.0))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=wide_window_stacks(), alpha=ALPHAS, beta=BETAS)
def test_contrast_distribution_matches_the_dense_reference(case, alpha, beta):
    stack, experts, amateurs = case
    f_e, f_a = stack[experts], stack[amateurs]
    assert _exact(contrast_distribution, f_e, f_a, alpha, beta) == _exact(
        reference_dense_contrast_distribution, f_e, f_a, alpha, beta
    )
    assert _exact(contrast_distribution, f_e[0], f_a[0], alpha, beta) == _exact(
        reference_dense_contrast_distribution, f_e[0], f_a[0], alpha, beta
    )


@pytest.mark.parametrize(
    "f_e,f_a,alpha,beta",
    [
        ([[-np.inf, -np.inf], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]], 0.5, 0.1),
        ([[-1e308, -np.inf]], [[0.0, 0.0]], 2.0, 0.1),
        ([[1e308, 0.0]], [[0.0, 0.0]], 2.0, 0.1),
        ([[0.0, 0.0, -5.0]], [[-np.inf, 0.0, 0.0]], 0.5, 0.1),
        ([[0.0, 0.0, -5.0]], [[-np.inf, 0.0, 0.0]], 0.0, 0.1),
        ([[0.0, -5.0]], [[0.0, -np.inf]], 0.5, 0.1),
        ([[0.0, -800.0, -np.inf]], [[0.0, -np.inf, -np.inf]], 0.5, 5e-324),
        ([[0.0, 1.0]], [[0.0, 0.0]], -0.5, 0.1),
        ([[0.0, 1.0]], [[0.0, 0.0]], 0.5, 1.0),
        ([[0.0, 1.0]], [[0.0, 1.0, 2.0]], 0.5, 0.1),
        ([[0.0, np.nan]], [[0.0, 0.0]], 0.5, 0.1),
        ([[0.0, 1.0]], [[np.inf, 0.0]], 0.5, 0.1),
    ],
    ids=[
        "all-masked-expert",
        "contrast-overflows-to-minus-inf",
        "contrast-overflows-to-inf",
        "amateur-minus-inf-under-kept",
        "alpha-zero-amateur-minus-inf",
        "amateur-minus-inf-off-the-mask",
        "subnormal-beta-keeps-zero-probabilities",
        "negative-alpha",
        "beta-one",
        "mismatched-sizes",
        "nan-expert",
        "inf-amateur",
    ],
)
def test_contrast_rejects_exactly_what_the_dense_reference_rejects(f_e, f_a, alpha, beta):
    f_e, f_a = np.array(f_e), np.array(f_a)
    assert _exact(contrast_distribution, f_e, f_a, alpha, beta) == _exact_reference(
        reference_dense_contrast_distribution, f_e, f_a, alpha, beta
    )
    if f_e.shape != f_a.shape or not np.isfinite(np.concatenate([f_e, f_a]).max(axis=-1)).all():
        return  # halc_step rejects such a stack before contrast_rows sees it
    logits = np.concatenate([f_e, f_a])
    probs = reference_dense_softmax(logits)
    ends = list(range(len(f_e))), list(range(len(f_e), len(logits)))
    assert _exact(contrast_rows, logits, probs, *ends, alpha, beta) == _exact_reference(
        reference_top_contrast_rows, logits, probs, *ends, alpha, beta
    )


# ---------------------------------------------------------------------------
# One-token contrast: every plausibility mask keeps a single token
# ---------------------------------------------------------------------------


@st.composite
def one_token_stacks(draw):
    """n windows of V logits, each with one dominant logit: the rest lie 40
    to 80 below it or are -inf, so every plausibility mask at beta >= 1e-6
    keeps that token alone. The dominant logits lie within +-1, +-9e7 or
    +-1e8, so that at the largest alpha the contrast comes near and past
    overflow, and the -inf entries let an amateur window mask the token its
    expert keeps. With `two`, one window gets a second token at its
    maximum, and its mask keeps both."""
    size = draw(st.sampled_from([1, 2, 3, 7, 64, 600]))
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 9e7, 1e8]))
    top = rng.uniform(-1.0, 1.0, n) * scale
    logits = top[:, None] - rng.uniform(40.0, 80.0, (n, size))
    dominant = rng.integers(size, size=n)
    holes = rng.random((n, size)) < draw(st.sampled_from([0.0, 0.3, 0.9]))
    holes[np.arange(n), dominant] = False
    logits[holes] = -np.inf
    logits[np.arange(n), dominant] = top
    two = size > 1 and draw(st.booleans())
    if two:
        window = draw(st.integers(0, n - 1))
        logits[window, (dominant[window] + draw(st.integers(1, size - 1))) % size] = top[window]
    experts = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12))
    amateurs = draw(st.lists(st.integers(0, n - 1), min_size=len(experts), max_size=len(experts)))
    return logits, np.array(experts, dtype=np.intp), np.array(amateurs, dtype=np.intp), two


ONE_TOKEN_ALPHAS = st.one_of(
    st.sampled_from([0.0, 0.05, 3.0, 1e150, MAX_ALPHA]), st.floats(0.0, MAX_ALPHA)
)


# Cases that the one-token path must reject or compute as the dense contrast
# does: an amateur -inf under the expert's kept token gives +inf, and NaN at
# alpha 0; one token is the softmax of a single logit; past overflow,
# 9e7 * (1 + 1e300) + 9e7 * 1e300 is +inf and 9e7 + 9e7 * 1e300 is finite.
ONE_TOKEN_EXAMPLES = [
    ((np.array([[0.0, -50.0], [-np.inf, 0.0]]), np.array([0]), np.array([1]), False), 0.5, 0.1),
    ((np.array([[0.0, -50.0], [-np.inf, 0.0]]), np.array([0, 1]), np.array([1, 0]), False),
     0.0, 0.1),
    ((np.array([[3.0], [-2.0]]), np.array([0, 1]), np.array([1, 0]), False), 2.0, 0.5),
    ((np.array([[9e7, 0.0], [-9e7, -1e8]]), np.array([0, 1]), np.array([1, 0]), False),
     MAX_ALPHA, 0.1),
]


def _with_examples(cases):
    def decorate(test):
        for case, alpha, beta in cases:
            test = example(case=case, alpha=alpha, beta=beta)(test)
        return test

    return decorate


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@_with_examples(ONE_TOKEN_EXAMPLES)
@given(case=one_token_stacks(), alpha=ONE_TOKEN_ALPHAS, beta=st.floats(1e-6, 0.999))
def test_one_token_contrast_distribution_matches_the_dense_contrast(case, alpha, beta):
    stack, experts, amateurs, two = case
    keep = _plausible(softmax(stack), beta) & (stack > -np.inf)
    assert np.count_nonzero(keep) == len(stack) + two  # the case drawn is the case claimed
    f_e, f_a = stack[experts], stack[amateurs]
    assert _exact(contrast_distribution, f_e, f_a, alpha, beta) == _exact_reference(
        reference_dense_contrast_distribution, f_e, f_a, alpha, beta
    )
    assert _exact(contrast_distribution, f_e[0], f_a[0], alpha, beta) == _exact_reference(
        reference_dense_contrast_distribution, f_e[0], f_a[0], alpha, beta
    )


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@_with_examples(ONE_TOKEN_EXAMPLES)
@given(
    case=st.one_of(one_token_stacks(), wide_window_stacks().map(lambda case: (*case, None))),
    alpha=st.one_of(ONE_TOKEN_ALPHAS, ALPHAS),
    beta=BETAS,
)
def test_contrast_rows_are_the_top_of_the_dense_rows(case, alpha, beta):
    # One-token stacks, with and without a window that keeps two tokens,
    # and wide stacks whose masks keep 1..V tokens: each row's token and
    # probability, or the rejection, are those of the dense reference row.
    stack, experts, amateurs, _ = case
    probs = softmax(stack)
    assert _exact(contrast_rows, stack, probs, experts, amateurs, alpha, beta) == _exact_reference(
        reference_top_contrast_rows, stack, probs, experts, amateurs, alpha, beta
    )


# ---------------------------------------------------------------------------
# JSD: each KL term computed in one temporary
# ---------------------------------------------------------------------------


def reference_kl2(p, m):
    return np.where(p > 0, p * np.log2(p / m), 0.0).sum(axis=-1)


def reference_jsd(p, q):
    p, q = _check_pair(p, q)
    m = 0.5 * (p + q)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = 0.5 * reference_kl2(p, m) + 0.5 * reference_kl2(q, m)
    return float(values) if values.ndim == 0 else values


@st.composite
def distribution_pairs(draw):
    """Softmaxes of random logits, with zeros from -inf logits and from
    underflow, or raw nonnegative vectors with exact zeros: two vectors, a
    vector and a stack in either order, or two stacks."""
    size = draw(st.integers(1, 5000))
    rows = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vector, stack = (size,), (rows, size)
    shapes = draw(st.sampled_from([(vector, vector), (vector, stack), (stack, vector), (stack, stack)]))
    zeros = draw(st.sampled_from([0.0, 0.01, 0.5]))
    raw = draw(st.booleans())
    pair = []
    for shape in shapes:
        if raw:
            values = rng.random(shape)
            values[rng.random(shape) < zeros] = 0.0
        else:
            logits = rng.uniform(-30.0, 30.0, shape)
            logits[rng.random(shape) < zeros] = draw(st.sampled_from([-np.inf, -1e4]))
            logits[..., 0] = 0.0  # one unmasked logit per vector
            values = softmax(logits)
        pair.append(values)
    return pair


@settings(max_examples=200, deadline=None)
@example(pair=[np.array([1.0, 0.0]), np.array([0.0, 1.0])])
@example(pair=[np.array([0.0, 0.0]), np.array([[0.0, 0.0], [0.5, 0.5]])])
@example(pair=[np.array([np.nan, 1.0]), np.array([0.5, 0.5])])
# Two-token stacks: a row of two NaNs that differ in sign, and rows of
# +inf and -inf, whose total is NaN though no row is.
@example(pair=[np.full((9, 2), 0.5), np.vstack([np.full((8, 2), 0.5), [[np.nan, -np.nan]]])])
@example(
    pair=[np.array([[1.0, 0.0], [1.0, 0.0], [0.2, 0.8]]), np.array([[-1.0, 2.0], [np.inf, 0.0], [0.6, 0.4]])]
)
@example(pair=[np.zeros((0, 3)), np.zeros((0, 3))])
@given(pair=distribution_pairs())
def test_in_place_jsd_matches_the_replaced_jsd(pair):
    p, q = pair
    assert _exact(jsd, p, q) == _exact(reference_jsd, p, q)
    assert _exact(jsd, q, p) == _exact(reference_jsd, q, p)


@pytest.mark.parametrize(
    "p,q",
    [([1.0], [[1.0, 0.0]]), ([[0.5, 0.5], [1.0, 0.0]], [[1.0, 0.0]]), (0.5, 0.5), ([], [])],
    ids=["sizes-differ", "stack-shapes-differ", "scalars", "empty-vectors"],
)
def test_in_place_jsd_rejects_exactly_what_it_rejected(p, q):
    assert _exact(jsd, p, q) == _exact(reference_jsd, p, q)


# ---------------------------------------------------------------------------
# Oracle scorer: nouns and matches counted in one pass
# ---------------------------------------------------------------------------


def reference_oracle_match_score(sequence, scene):
    """The comprehension with its hallucination weight at 1.0, the only
    weight any caller used, written out in the same float operations."""
    lex = scene.lexicon
    gt = scene.ground_truth_names
    nouns = [t for t in sequence if lex.get(t) == "noun"]
    if not nouns:
        return 0.5
    matched = sum(1 for t in nouns if t in gt)
    hallucinated = len(nouns) - matched
    raw = (matched - 1.0 * hallucinated) / len(nouns)
    return (raw + 1.0) / (1.0 + 1.0)


SCORED_SCENES = [demo_scene(), *generate_corpus(5, 4, CorpusSpec(scene_count=4, trap_fraction=0.5))]


@settings(max_examples=300, deadline=None)
@given(scene=st.sampled_from(SCORED_SCENES), data=st.data())
def test_one_pass_oracle_score_matches_the_comprehension(scene, data):
    token = st.one_of(st.sampled_from(scene.vocabulary), st.sampled_from(["unknown", ""]))
    sequence = tuple(data.draw(st.lists(token, max_size=80)))
    got = oracle_match_score(sequence, scene)
    assert type(got) is float
    assert got.hex() == reference_oracle_match_score(sequence, scene).hex()


def reference_lexicon_walk_score(sequence, scene):
    """The replaced one-pass walk: a token counts as a noun when the
    lexicon tags it so, and as matched when it is a ground-truth name."""
    lex = scene.lexicon
    gt = scene.ground_truth_names
    nouns = matched = 0
    for t in sequence:
        if lex.get(t) == "noun":
            nouns += 1
            if t in gt:
                matched += 1
    if not nouns:
        return 0.5
    raw = (matched - (nouns - matched)) / nouns
    return (raw + 1.0) / 2.0


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    trap_fraction=st.sampled_from([0.0, 1.0]),
    correctable=st.sampled_from([0.0, 1.0]),
    clauses=st.integers(1, 3),
    spare=st.integers(0, 6),
    data=st.data(),
)
def test_set_count_oracle_score_matches_the_lexicon_walk(
    seed, trap_fraction, correctable, clauses, spare, data
):
    spec = CorpusSpec(
        scene_count=1,
        trap_fraction=trap_fraction,
        correctable_fraction=correctable,
        clauses=clauses,
        noun_pool=3 * clauses + 1 + spare,
        filler_count=data.draw(st.integers(0, 12)),
        trap_clauses=(0,),
    )
    scene = generate_corpus(seed, 1, spec)[0]
    names = sorted({o.name for o in scene.objects})
    # The claim the scorer rests on: the lexicon's nouns are the object names.
    assert sorted(t for t, pos in scene.lexicon.items() if pos == "noun") == names
    token = st.one_of(
        st.sampled_from(scene.vocabulary),
        st.sampled_from(names),
        st.sampled_from(["unknown", "", END_TOKEN, IDK_TOKEN]),
    )
    sequence = data.draw(st.lists(token, max_size=60))
    at = data.draw(st.integers(0, len(sequence)))
    sequence[at:at] = [data.draw(st.sampled_from(names))] * data.draw(st.integers(0, 4))
    got = oracle_match_score(tuple(sequence), scene)
    assert type(got) is float
    assert got.hex() == reference_lexicon_walk_score(tuple(sequence), scene).hex()


# ---------------------------------------------------------------------------
# Candidate pool: one candidate per distinct token of a beam's step
# ---------------------------------------------------------------------------


def reference_step_candidates(beam_tokens, proposed, record, config, scene):
    """The replaced loop: one candidate per (token, probability) pair, each
    growing into the beam that the replaced post-selection branch built
    from it, with the token that branch recorded as chosen."""
    pool = []
    for tok, prob in record.candidates:
        extended = beam_tokens if tok == END_TOKEN else beam_tokens + (tok,)
        terminated = tok == END_TOKEN
        final_tok = apply_idk_policy(
            proposed,
            tok,
            record.detector_hit,
            config.idk_policy,
            prob,
            config.idk_confidence,
        )
        if final_tok == END_TOKEN:
            grown = (extended, True)
        elif final_tok == tok:
            grown = (extended, terminated)
        else:
            grown = (extended[:-1] + (final_tok,), False)
        pool.append(((extended, terminated), 0.0, grown, final_tok, record))
    return pool


def _chosen(cand):
    """A pool candidate as (key, logp, grown, chosen, record): a reference
    candidate names its chosen token; the loop records the grown beam's
    last token, or [END] for an ended one."""
    if len(cand) == 5:
        return cand
    key, logp, (tokens, terminated), record = cand
    chosen = None if record is None else END_TOKEN if terminated else tokens[-1]
    return key, logp, (tokens, terminated), chosen, record


def _first_by_key(pool):
    first = {}
    for cand in map(_chosen, pool):
        first.setdefault(cand[0], cand)
    return [
        (key, logp, grown, chosen, id(record))
        for key, (_, logp, grown, chosen, record) in first.items()
    ]


def _recorded_pools(scene, detector, config):
    """Every pool decode_halc hands to select_beams, each paired with the
    pool the replaced loop would have built from the same steps."""
    steps, pairs = [], []
    real_step, real_select = decoding.halc_step, decoding.select_beams

    def step(model, detector, scene, beam, proposed, config, rng):
        record = real_step(model, detector, scene, beam, proposed, config, rng)
        steps.append((beam.tokens, proposed, record))
        return record

    def select(pool, scorer, k, scene):
        # Triggered candidates of one beam share that beam's step record and
        # sit together, in the order the steps ran.
        reference, done = [], set()
        for cand in pool:
            record = cand[3]
            if record is None or not record.triggered:
                reference.append(cand)
            elif id(record) not in done:
                done.add(id(record))
                beam_tokens, proposed, stepped = steps.pop(0)
                assert stepped is record
                reference += reference_step_candidates(beam_tokens, proposed, record, config, scene)
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
    correctable = data.draw(st.sampled_from([0.0, 1.0]))
    spec = CorpusSpec(scene_count=1, trap_fraction=1.0, correctable_fraction=correctable)
    scene = generate_corpus(seed, 1, spec)[0]
    config = DecodeConfig(
        n=n, m=data.draw(st.integers(1, n * (n - 1) // 2)), k=k, sampling_mode=mode,
        alpha=data.draw(st.floats(0.0, 3.0)), seed=seed, max_tokens=40,
        idk_policy=data.draw(st.sampled_from(IDK_POLICIES)),
        idk_confidence=data.draw(st.floats(0.0, 1.0)),
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
