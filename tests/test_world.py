import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halc.decoding import DecodeConfig
from halc.distributions import argmax_logit
from halc.errors import InvalidInputError, InvalidParameterError
from halc.geometry import Fov, ImageSpec
from halc.harness import decode_corpus
from halc.schema import read, write
from halc.world import (
    DEMO_DETECTOR_ETA,
    MAX_CORPUS_WORDS,
    MAX_SCENE_COUNT,
    CorpusSpec,
    Scene,
    SceneObject,
    StableHigh,
    generate_corpus,
    load_corpus,
    noisy_match_score,
    oracle_match_score,
    profile_value,
    random_match_score,
    save_corpus,
    tag_token,
    toy_detector,
    toy_model_logits,
)


def trap_slot_prefix(scene):
    return list(scene.reference_caption[: scene.trap.position])


def test_peaking_profile_at_its_center(demo):
    clock = demo.find_object("clock")
    value = profile_value(clock.profile, clock.profile.v_star, demo.image)
    assert value == clock.profile.base + clock.profile.amp


def test_context_shift_log_area_ratio(demo):
    surf = demo.find_object("surfboard")
    full = demo.image.full_fov()
    half_area = Fov(1000.0, 500.0, 500.0, 750.0)
    diff = profile_value(surf.profile, full, demo.image) - profile_value(
        surf.profile, half_area, demo.image
    )
    assert diff == pytest.approx(surf.profile.slope * math.log(2.0))


def test_model_logits_bitwise_deterministic(demo):
    fov = Fov(200.0, 150.0, 420.0, 380.0)
    prefix = ["a", "man", "holds", "a"]
    a = toy_model_logits(demo, fov, prefix)
    b = toy_model_logits(demo, fov, prefix)
    np.testing.assert_array_equal(a, b)


def test_model_rejects_unknown_prefix_token(demo):
    with pytest.raises(InvalidInputError):
        toy_model_logits(demo, demo.image.full_fov(), ["not-a-token"])


@pytest.mark.parametrize("container", [list, tuple])
def test_model_names_the_first_bad_token_of_a_long_prefix(demo, container):
    # A valid prefix passes one lookup of all its tokens; a failing one is
    # scanned in order, so the message names the first bad token.
    caption = list(demo.reference_caption)
    prefix = (caption * (60 // len(caption) + 1))[:60]
    prefix[30], prefix[45] = "not-a-token", "also-bad"
    full = demo.image.full_fov()
    with pytest.raises(InvalidInputError, match=r"^prefix token 'not-a-token' not in vocabulary$"):
        toy_model_logits(demo, full, container(prefix))
    prefix[30] = caption[0]
    with pytest.raises(InvalidInputError, match=r"^prefix token 'also-bad' not in vocabulary$"):
        toy_model_logits(demo, full, container(prefix))
    prefix[45] = caption[0]
    assert toy_model_logits(demo, full, container(prefix)).shape == (len(demo.vocabulary),)


def test_peaking_value_decreases_with_distance(demo):
    clock = demo.find_object("clock")
    v_star = clock.profile.v_star
    rng = np.random.default_rng(0)
    for _ in range(50):
        near = Fov(
            v_star.width + rng.uniform(0, 30),
            v_star.height + rng.uniform(0, 30),
            v_star.center_x + rng.uniform(0, 20),
            v_star.center_y + rng.uniform(0, 20),
        )
        far = Fov(
            near.width + rng.uniform(10, 200),
            near.height + rng.uniform(10, 200),
            near.center_x + rng.uniform(10, 100),
            near.center_y + rng.uniform(10, 100),
        )
        assert math.dist(near.as_tuple(), v_star.as_tuple()) < math.dist(
            far.as_tuple(), v_star.as_tuple()
        )
        assert profile_value(clock.profile, near, demo.image) > profile_value(
            clock.profile, far, demo.image
        )


def test_detector_exact_region_without_perturbation(demo):
    clock = demo.find_object("clock")
    box = toy_detector("clock", demo, eta=(0.0, 0.0, 0.0, 0.0))
    assert box == clock.region
    assert toy_detector("clock", demo) == clock.region


def test_detector_absent_token(demo):
    assert toy_detector("w00", demo) is None


def test_detector_hallucinated_token_snaps_to_anchor(demo):
    clock = demo.find_object("clock")
    eta = (30.0, 30.0, 20.0, -15.0)
    box = toy_detector("surfboard", demo, eta=eta)
    assert box.width == pytest.approx(clock.region.width + eta[0])
    assert box.center_x == pytest.approx(clock.region.center_x + eta[2])


def test_detector_confidence_threshold(demo):
    # Hallucinated tokens are only located when the threshold is low enough.
    assert toy_detector("surfboard", demo, confidence_threshold=0.3) is not None
    assert toy_detector("surfboard", demo, confidence_threshold=0.6) is None
    assert toy_detector("clock", demo, confidence_threshold=0.6) is not None
    assert toy_detector("clock", demo, confidence_threshold=0.95) is None


def test_hash_noise_frozen_values():
    # Corpus stability depends on this hash never changing.
    from halc.world import hash_noise

    assert hash_noise(7, 150, 150, 660, 285) == pytest.approx(
        hash_noise(7, 150, 150, 660, 285)
    )
    assert hash_noise(1, 2, 3) != hash_noise(2, 2, 3)
    assert hash_noise(1, 2, 3) != hash_noise(1, 3, 2)
    values = [hash_noise(s, 10, 20, 30, 40) for s in range(200)]
    assert all(-1.0 <= v <= 1.0 for v in values)
    assert abs(sum(values) / len(values)) < 0.2


def reference_string_noise(seed: int, text: str) -> float:
    """The per-byte string mixer the seeded scorers used before they called
    hash_noise on the UTF-8 bytes."""
    mask = (1 << 64) - 1

    def mix(z):
        z = (z + 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return (z ^ (z >> 31)) & mask

    state = mix(seed & mask)
    for b in text.encode("utf-8"):
        state = mix(state ^ b)
    return (state >> 11) / float(1 << 53) * 2.0 - 1.0


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64 + 5),
    sequence=st.lists(st.text(max_size=6), max_size=4),
    amp=st.sampled_from([0.0, 0.1, 0.7]),
)
def test_seeded_scorers_keep_their_bits(demo, seed, sequence, amp):
    noise = reference_string_noise(seed, "\x1f".join(sequence))
    assert random_match_score(seed)(sequence, demo).hex() == ((noise + 1.0) / 2.0).hex()
    base = oracle_match_score(sequence, demo)
    want = min(1.0, max(0.0, base + amp * noise))
    assert noisy_match_score(amp, seed)(sequence, demo).hex() == float(want).hex()


def test_tag_token_category_mapping(demo):
    lex = demo.lexicon
    assert tag_token(lex, "surfboard") == "existence"
    assert tag_token(lex, "on") == "relationship"
    assert tag_token(lex, "holds") == "attribute"
    assert tag_token(lex, "the") == "none"
    assert tag_token(lex, "unknown-word") == "none"


def test_oracle_match_score_extremes(demo):
    assert oracle_match_score(["a", "man", "holds", "beach"], demo) == 1.0
    assert oracle_match_score(["surfboard", "book"], demo) == 0.0
    assert oracle_match_score(["a", "the", "on"], demo) == 0.5


def test_noisy_match_score_contract(demo):
    seq = ["a", "man", "holds", "a", "clock"]
    exact = noisy_match_score(0.0, 3)
    assert exact(seq, demo) == oracle_match_score(seq, demo)
    noisy = noisy_match_score(0.3, 3)
    assert noisy(seq, demo) == noisy(seq, demo)
    rng = np.random.default_rng(0)
    for _ in range(50):
        toks = [demo.vocabulary[i] for i in rng.integers(0, len(demo.vocabulary), 5)]
        assert 0.0 <= noisy(toks, demo) <= 1.0


# ---------------------------------------------------------------------------
# Demo fixture phenomena
# ---------------------------------------------------------------------------


def test_demo_greedy_argmax_at_detector_box_hallucinates(demo):
    # Direct decoding from the grounding box alone does not correct the trap.
    prefix = trap_slot_prefix(demo)
    v_d = toy_detector("surfboard", demo, eta=DEMO_DETECTOR_ETA)
    tok = demo.vocabulary[argmax_logit(toy_model_logits(demo, v_d, prefix))]
    full_tok = demo.vocabulary[argmax_logit(toy_model_logits(demo, demo.image.full_fov(), prefix))]
    assert full_tok == "surfboard"
    assert tok == "surfboard"


def test_demo_argmax_at_v_star_yields_victim(demo):
    prefix = trap_slot_prefix(demo)
    v_star = demo.find_object("clock").profile.v_star
    tok = demo.vocabulary[argmax_logit(toy_model_logits(demo, v_star, prefix))]
    assert tok == "clock"


# ---------------------------------------------------------------------------
# Corpus generation
# ---------------------------------------------------------------------------


def test_corpus_deterministic_across_runs():
    spec = CorpusSpec(scene_count=100, trap_fraction=0.5)
    a = generate_corpus(5, 100, spec)
    b = generate_corpus(5, 100, spec)
    assert len(a) == 100
    assert [write(s) for s in a] == [write(s) for s in b]


def test_trap_fraction_one_means_trap_everywhere():
    spec = CorpusSpec(scene_count=10, trap_fraction=1.0, clauses=3, trap_clauses=(1, 2))
    scenes = generate_corpus(3, 10, spec)
    for scene in scenes:
        assert scene.trap is not None
        assert not scene.find_object(scene.trap.trap).is_ground_truth
        assert scene.find_object(scene.trap.victim).is_ground_truth


def test_trap_free_corpus_has_no_hallucination_source(small_clean_corpus):
    from halc.decoding import DecodeConfig, decode_greedy
    from halc.metrics import CaptionRecord, chair

    captions = [
        CaptionRecord.from_tokens(
            s.scene_id, decode_greedy(None, s, DecodeConfig(seed=1)).tokens, s.lexicon
        )
        for s in small_clean_corpus
    ]
    report = chair(captions, {s.scene_id: s for s in small_clean_corpus})
    assert report.chair_i == 0.0
    assert report.chair_s == 0.0


def test_corpus_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        CorpusSpec(scene_count=0)
    with pytest.raises(InvalidParameterError):
        CorpusSpec(trap_fraction=1.5)
    with pytest.raises(InvalidParameterError):
        CorpusSpec(clauses=10, noun_pool=12)


@pytest.mark.parametrize(
    "count, spec",
    [
        (0, None),
        (MAX_SCENE_COUNT + 1, None),
        # 498 scenes of 4024 words: under MAX_SCENE_COUNT, over MAX_CORPUS_WORDS.
        (MAX_CORPUS_WORDS // 4024 + 1, CorpusSpec(scene_count=1, filler_count=4000)),
    ],
    ids=["zero", "over-scene-count", "over-corpus-words"],
)
def test_generate_corpus_caps_count_before_building_a_scene(count, spec):
    with pytest.raises(InvalidParameterError, match="corpus count"):
        generate_corpus(0, count, spec)


def test_wide_corpus_tables_do_not_grow_with_the_fillers():
    # The slot and co-occurrence tables and each scene's token index span
    # the vocabulary head, which ends before the fillers, and the scenes
    # share one filler index: 10 scenes at V of about 32k hold about 10 MB,
    # where a token index per scene held 28 MB and V-wide tables 210 MB.
    tracemalloc.start()
    try:
        corpus = generate_corpus(7, 10, CorpusSpec(scene_count=10, filler_count=31_900))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 12e6
    assert peak <= 60e6
    assert len(corpus[0]._fillers) == 31_900
    assert all(scene._fillers is corpus[0]._fillers for scene in corpus)
    narrow, wide = (
        generate_corpus(7, 3, CorpusSpec(scene_count=3, filler_count=f)) for f in (96, 4000)
    )
    for a, b in zip(narrow, wide):
        assert a._slots.nbytes == b._slots.nbytes
        assert {k: v.size for k, v in a._cooc.items()} == {k: v.size for k, v in b._cooc.items()}


def test_hallucinated_object_requires_anchor():
    with pytest.raises(InvalidParameterError):
        SceneObject(
            "ghost", Fov(10, 10, 5, 5), StableHigh(1.0), is_ground_truth=False
        )


def test_reference_caption_must_use_ground_truth(demo):
    with pytest.raises(InvalidParameterError):
        Scene(
            image=ImageSpec(100, 100),
            objects=(
                SceneObject("cat", Fov(10, 10, 50, 50), StableHigh(5.0)),
                SceneObject(
                    "dog", Fov(10, 10, 50, 50), StableHigh(5.0),
                    is_ground_truth=False, anchor="cat",
                ),
            ),
            verbs=("sees",),
            fillers=("w0",),
            skeleton=(),
            cooccurrence={},
            reference_caption=("dog",),
        )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_scene_json_field_name_contract(demo):
    # Field names are part of the corpus file contract.
    doc = write(demo)
    assert {"image", "vocabulary", "objects", "cooccurrence", "reference"} <= set(doc)
    assert set(doc["image"]) == {"w", "h"}
    obj = doc["objects"][0]
    assert {"name", "region", "profile", "ground_truth", "anchor"} <= set(obj)
    assert set(obj["region"]) == {"w", "h", "cx", "cy"}
    assert "kind" in obj["profile"]
    hallucinated = next(o for o in doc["objects"] if not o["ground_truth"])
    assert hallucinated["anchor"]


def test_oracle_score_range_on_random_sequences(demo):
    rng = np.random.default_rng(12)
    for _ in range(200):
        toks = [demo.vocabulary[i] for i in rng.integers(0, len(demo.vocabulary), 8)]
        assert 0.0 <= oracle_match_score(toks, demo) <= 1.0


def test_scene_json_round_trip(demo):
    doc = write(demo)
    rebuilt = read(Scene, doc)
    assert write(rebuilt) == doc
    fov = Fov(220.0, 180.0, 600.0, 310.0)
    prefix = trap_slot_prefix(demo)
    np.testing.assert_array_equal(
        toy_model_logits(demo, fov, prefix), toy_model_logits(rebuilt, fov, prefix)
    )


def test_saved_corpus_decodes_as_generated(tmp_path):
    # The windows of a corpus file are kept exactly, so the loaded corpus
    # decodes to the same tokens and the same rounded traces.
    scenes = generate_corpus(21, 20, CorpusSpec(scene_count=20))
    path = tmp_path / "corpus.json"
    save_corpus(scenes, path)
    config = DecodeConfig(seed=21)
    want_captions, want_traces = decode_corpus(scenes, "halc", config)
    got_captions, got_traces = decode_corpus(load_corpus(path), "halc", config)
    assert [c.tokens for c in got_captions] == [c.tokens for c in want_captions]
    got, want = ([json.dumps(t.to_json()) for t in traces] for traces in (got_traces, want_traces))
    assert got == want


def test_corpus_round_trip_keeps_every_id_and_shares_one_filler_index(tmp_path):
    scenes = generate_corpus(5, 4, CorpusSpec(scene_count=4, filler_count=300))
    path = tmp_path / "corpus.json"
    save_corpus(scenes, path)
    loaded = load_corpus(path)
    for scene, back in zip(scenes, loaded):
        assert back.vocabulary == scene.vocabulary
        ids = [back.token_id(tok) for tok in back.vocabulary]
        assert ids == [scene.token_id(tok) for tok in scene.vocabulary]
        assert ids == list(range(len(scene.vocabulary)))
    assert len(loaded[0]._fillers) == 300
    assert all(scene._fillers is loaded[0]._fillers for scene in loaded)


def test_corpus_file_round_trip(tmp_path, small_trap_corpus):
    path = tmp_path / "corpus.json"
    save_corpus(small_trap_corpus, path)
    loaded = load_corpus(path)
    assert [write(s) for s in loaded] == [
        write(s) for s in small_trap_corpus
    ]
