import dataclasses
import gc
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from halc import decoding
from halc.decoding import (
    SAMPLING_MODES,
    BeamState,
    DecodeConfig,
    apply_idk_policy,
    decode_beam,
    decode_greedy,
    decode_halc,
    halc_step,
    select_beams,
)
from halc.distributions import argmax_logit
from halc.errors import InvalidParameterError
from halc.world import (
    CORPUS_DETECTOR_ETA,
    DEMO_DETECTOR_ETA,
    END_TOKEN,
    CorpusSpec,
    DetectorSim,
    IDK_TOKEN,
    constant_match_score,
    generate_corpus,
    oracle_match_score,
    toy_model_logits,
)

DEMO_DET = DetectorSim(DEMO_DETECTOR_ETA)
CORPUS_DET = DetectorSim(CORPUS_DETECTOR_ETA)


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        DecodeConfig(n=1)
    with pytest.raises(InvalidParameterError):
        DecodeConfig(n=4, m=7)
    with pytest.raises(InvalidParameterError):
        DecodeConfig(beta=0.0)
    with pytest.raises(InvalidParameterError):
        DecodeConfig(alpha=-0.1)
    with pytest.raises(InvalidParameterError):
        DecodeConfig(sampling_mode="bogus")


def test_greedy_demo_hallucinates(demo):
    result = decode_greedy(None, demo, DecodeConfig(seed=0))
    assert "surfboard" in result.tokens
    assert "clock" not in result.tokens


def test_greedy_single_token_budget(demo):
    result = decode_greedy(None, demo, DecodeConfig(max_tokens=1, seed=0))
    assert len(result.tokens) == 1


def test_greedy_trace_counts_one_call_per_step(demo):
    result = decode_greedy(None, demo, DecodeConfig(seed=0))
    assert result.trace.model_calls == len(result.trace.steps)
    assert result.trace.triggered == 0


def test_beam_k1_equals_greedy(demo, small_trap_corpus):
    for scene in [demo] + list(small_trap_corpus[:4]):
        cfg = DecodeConfig(seed=1)
        assert decode_beam(None, scene, 1, cfg).tokens == decode_greedy(None, scene, cfg).tokens


def test_beam_deterministic(demo):
    cfg = DecodeConfig(seed=4)
    a = decode_beam(None, demo, 3, cfg)
    b = decode_beam(None, demo, 3, cfg)
    assert a.tokens == b.tokens


def test_beam_prefers_terminated_high_probability(demo):
    result = decode_beam(None, demo, 2, DecodeConfig(seed=0, max_tokens=32))
    assert result.tokens[-1] == "."  # full skeleton decoded to the end token


def test_halc_step_demo_candidates_contain_victim(demo):
    cfg = DecodeConfig(seed=0)
    beam = BeamState(tokens=tuple(demo.reference_caption[:4]))
    rng = np.random.default_rng(0)
    result = halc_step(None, DEMO_DET, demo, beam, "surfboard", cfg, rng)
    tokens = {tok for tok, _ in result.candidates}
    assert "clock" in tokens
    assert result.detector_hit
    assert len(result.candidates) == 2 * min(cfg.m, cfg.n * (cfg.n - 1) // 2)


def test_halc_step_degenerate_identical_fovs(demo):
    # With the full image as grounding and nonnegative exponents every sample
    # clamps back to the full image, so all JSDs vanish and every candidate
    # equals the uncontrasted argmax.
    cfg = DecodeConfig(seed=0, exponent_offset=0)
    beam = BeamState(tokens=tuple(demo.reference_caption[:4]))
    detector = lambda token, scene: scene.image.full_fov()
    result = halc_step(None, detector, demo, beam, "surfboard", cfg, np.random.default_rng(0))
    assert all(row == pytest.approx(0.0, abs=1e-15) for line in result.jsd_matrix for row in line)
    assert result.selected_pairs == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert {tok for tok, _ in result.candidates} == {"surfboard"}


def test_halc_step_pair_count_n2_m1(demo):
    cfg = DecodeConfig(n=2, m=1, seed=0)
    beam = BeamState(tokens=tuple(demo.reference_caption[:4]))
    result = halc_step(None, DEMO_DET, demo, beam, "surfboard", cfg, np.random.default_rng(0))
    assert len(result.candidates) == 2


def _first_tagged_step(trap_fraction):
    """A scene of seed 3 and the beam and proposal of its first tagged token."""
    scene = generate_corpus(3, 1, CorpusSpec(scene_count=1, trap_fraction=trap_fraction))[0]
    names = {obj.name for obj in scene.objects}
    pos = next(p for p, tok in enumerate(scene.reference_caption) if tok in names)
    return scene, BeamState(tuple(scene.reference_caption[:pos])), scene.reference_caption[pos]


def _spied_step(monkeypatch, trap_fraction, cfg):
    """halc_step on _first_tagged_step, with each window's logits and the
    softmax, jsd and _masked_contrast results it got."""
    scene, beam, proposed = _first_tagged_step(trap_fraction)
    calls = {"rows": [], "softmax": [], "jsd": [], "_masked_contrast": []}

    def model(scene, fov, prefix):
        row = toy_model_logits(scene, fov, prefix)
        calls["rows"].append(row.tobytes())
        return row

    def spy(name):
        real = getattr(decoding, name)

        def wrapper(*args):
            out = real(*args)
            calls[name].append(out)
            return out

        monkeypatch.setattr(decoding, name, wrapper)

    for name in ("softmax", "jsd", "_masked_contrast"):
        spy(name)
    result = halc_step(model, CORPUS_DET, scene, beam, proposed, cfg, np.random.default_rng(0))
    return scene, result, calls


@pytest.mark.parametrize("trap_fraction", [0.0, 1.0], ids=["untrapped", "trapped"])
def test_halc_step_computes_a_shared_row_once(monkeypatch, trap_fraction):
    # An untrapped scene has no window-dependent token, so its windows share
    # one row: one softmax row, no JSD call and one contrast row for all 2m
    # candidates. A trapped scene's windows differ, one row each. At beta
    # 1e-6 each mask keeps several tokens, so the step builds contrast rows.
    cfg = DecodeConfig(n=4, m=6, beta=1e-6)
    scene, result, calls = _spied_step(monkeypatch, trap_fraction, cfg)
    assert len(result.candidates) == 2 * cfg.m
    [probs] = calls["softmax"]
    [dists] = calls["_masked_contrast"]
    tokens, top = dists.argmax(axis=-1), dists.max(axis=-1)
    if trap_fraction == 0.0:
        assert len(set(calls["rows"])) == 1
        assert (len(probs), len(calls["jsd"]), len(tokens)) == (1, 0, 1)
        assert not any(map(any, result.jsd_matrix))
        assert set(result.candidates) == {(scene.vocabulary[tokens[0]], top[0])}
    else:
        assert len(set(calls["rows"])) == cfg.n
        assert (len(probs), len(calls["jsd"]), len(tokens)) == (cfg.n, 1, 2 * cfg.m)


@pytest.mark.parametrize("trap_fraction", [0.0, 1.0], ids=["untrapped", "trapped"])
def test_halc_step_builds_no_contrast_row_when_every_window_keeps_one_token(
    monkeypatch, trap_fraction
):
    # At the default beta every window's mask keeps the same one token: each
    # candidate is that token with probability 1.0 and no contrast row is
    # built. The step still ranks its pairs: windows that share one row need
    # no JSD call, distinct rows one.
    cfg = DecodeConfig(n=4, m=6)
    scene, result, calls = _spied_step(monkeypatch, trap_fraction, cfg)
    [probs] = calls["softmax"]
    shared = trap_fraction == 0.0
    assert len(set(calls["rows"])) == len(probs) == (1 if shared else cfg.n)
    assert calls["_masked_contrast"] == []
    assert len(calls["jsd"]) == (0 if shared else 1)
    token = scene.vocabulary[int(probs[0].argmax())]
    assert result.candidates == ((token, 1.0),) * (2 * cfg.m)
    assert len(result.selected_pairs) == cfg.m


def test_halc_step_detector_miss_uses_random_windows(demo):
    cfg = DecodeConfig(seed=0)
    beam = BeamState(tokens=())
    detector = lambda token, scene: None
    result = halc_step(None, detector, demo, beam, "man", cfg, np.random.default_rng(3))
    assert not result.detector_hit
    assert len(result.fovs) == cfg.n


@pytest.mark.parametrize("mode", ["center", "original"])
def test_modes_that_never_read_the_detection_sample_their_windows_on_a_miss(monkeypatch, mode):
    # On ablate's default corpus the corpus detector finds nothing on about
    # 40% of triggered steps; the centre and full-image modes still grow
    # their own base window there, and never draw random windows.
    spy = mock.Mock(wraps=decoding.sample_fovs_random)
    monkeypatch.setattr(decoding, "sample_fovs_random", spy)
    grown = mock.Mock(wraps=decoding.sample_fovs_exponential)
    monkeypatch.setattr(decoding, "sample_fovs_exponential", grown)
    triggered = misses = 0
    cfg = DecodeConfig(seed=21, sampling_mode=mode)
    for scene in generate_corpus(21, 30, CorpusSpec(scene_count=30)):
        steps = decode_halc(None, CORPUS_DET, oracle_match_score, None, scene, cfg).trace.steps
        triggered += sum(step.triggered for step in steps)
        misses += sum(step.triggered and not step.detector_hit for step in steps)
    assert misses > 0
    assert spy.call_count == 0
    assert grown.call_count == triggered


def test_halc_step_propagates_model_failure(demo):
    def broken_model(scene, fov, prefix):
        raise RuntimeError("backend down")

    beam = BeamState(tokens=())
    with pytest.raises(RuntimeError, match="backend down"):
        halc_step(broken_model, DEMO_DET, demo, beam, "man", DecodeConfig(seed=0),
                  np.random.default_rng(0))


@pytest.mark.parametrize("mode", ["normal", "random", "center", "original", "exponential"])
def test_decode_halc_sampling_modes(demo, mode):
    cfg = DecodeConfig(seed=7, sampling_mode=mode)
    first = decode_halc(None, DEMO_DET, oracle_match_score, None, demo, cfg)
    second = decode_halc(None, DEMO_DET, oracle_match_score, None, demo, cfg)
    assert first.tokens == second.tokens
    assert first.trace.model_calls == second.trace.model_calls
    if mode == "exponential":
        # Expansion from the grounding reaches the peak; a concentrated normal
        # sampler around a badly perturbed detection legitimately may not.
        assert "surfboard" not in first.tokens


def _mk_candidate(tokens):
    """A live candidate that appends the last of `tokens`."""
    key = (tuple(tokens), False)
    return (key, 0.0, key, tokens[-1], None)


def _tokens(candidate):
    (tokens, _), *_ = candidate
    return tokens


def test_select_beams_dedupes_identical(demo):
    pool = [_mk_candidate(("a", "man")) for _ in range(5)]
    kept = select_beams(pool, constant_match_score(), 3, demo)
    assert len(kept) == 1


def test_select_beams_k1_best_scoring(demo):
    pool = [
        _mk_candidate(("a", "surfboard")),
        _mk_candidate(("a", "man")),
        _mk_candidate(("a", "book")),
    ]
    kept = select_beams(pool, oracle_match_score, 1, demo)
    assert _tokens(kept[0][0]) == ("a", "man")


def test_select_beams_oracle_ranks_ground_truth_first(demo):
    pool = [
        _mk_candidate(("a", "man", "holds", "a", "surfboard")),
        _mk_candidate(("a", "man", "holds", "a", "clock")),
        _mk_candidate(("a", "man", "holds", "a", "book")),
    ]
    kept = select_beams(pool, oracle_match_score, 3, demo)
    assert _tokens(kept[0][0])[-1] == "clock"
    scores = [score for _, score in kept]
    assert scores == sorted(scores, reverse=True)
    assert len({_tokens(cand) for cand, _ in kept}) == len(kept)


def test_apply_idk_policy_table():
    assert apply_idk_policy("cat", "dog", True, "off") == "dog"
    assert apply_idk_policy("cat", "cat", True, "off") == "cat"
    assert apply_idk_policy("cat", "cat", True, "literal") == IDK_TOKEN
    assert apply_idk_policy("cat", "cat", False, "literal") == "cat"
    assert apply_idk_policy("cat", "dog", True, "literal") == "dog"
    assert apply_idk_policy("cat", "cat", True, "confidence", 0.1, 0.3) == IDK_TOKEN
    assert apply_idk_policy("cat", "cat", True, "confidence", 0.9, 0.3) == "cat"


def test_decode_halc_demo_correction(demo):
    cfg = DecodeConfig(seed=7)
    result = decode_halc(None, DEMO_DET, oracle_match_score, None, demo, cfg)
    assert "clock" in result.tokens
    assert "surfboard" not in result.tokens


def test_decode_halc_deterministic_trace(demo):
    cfg = DecodeConfig(seed=7)
    a = decode_halc(None, DEMO_DET, oracle_match_score, None, demo, cfg)
    b = decode_halc(None, DEMO_DET, oracle_match_score, None, demo, cfg)
    assert a.tokens == b.tokens
    assert json.dumps(a.trace.to_json()) == json.dumps(b.trace.to_json())


def test_decode_halc_call_accounting(demo):
    cfg = DecodeConfig(seed=7)
    result = decode_halc(None, DEMO_DET, oracle_match_score, None, demo, cfg)
    trace = result.trace
    base = len(trace.steps)
    triggered = sum(1 for s in trace.steps if s.triggered)
    assert trace.model_calls == base + triggered * cfg.n
    assert trace.detector_calls == triggered == trace.triggered


def test_alpha_zero_degenerates_to_greedy(small_clean_corpus):
    cfg = DecodeConfig(alpha=0.0, beta=1e-9, k=1, seed=3)
    for scene in small_clean_corpus:
        greedy = decode_greedy(None, scene, cfg)
        corrected = decode_halc(
            None, CORPUS_DET, constant_match_score(), None, scene, cfg
        )
        assert corrected.tokens == greedy.tokens


def test_candidate_count_invariant(small_trap_corpus):
    scene = next(s for s in small_trap_corpus if s.trap and s.trap.correctable)
    for n, m in ((2, 1), (3, 2), (4, 6)):
        cfg = DecodeConfig(n=n, m=m, seed=0)
        beam = BeamState(tokens=tuple(scene.reference_caption[: scene.trap.position]))
        result = halc_step(
            None, CORPUS_DET, scene, beam, scene.trap.trap, cfg, np.random.default_rng(0)
        )
        assert len(result.candidates) == 2 * min(m, n * (n - 1) // 2)


def test_baseline_decoders_never_emit_idk(small_trap_corpus):
    for scene in small_trap_corpus[:5]:
        cfg = DecodeConfig(seed=2)
        assert IDK_TOKEN not in decode_greedy(None, scene, cfg).tokens
        assert IDK_TOKEN not in decode_beam(None, scene, 3, cfg).tokens


def test_idk_appears_only_when_policy_enabled():
    spec = CorpusSpec(scene_count=4, trap_fraction=1.0, correctable_fraction=0.0,
                      clauses=2, trap_clauses=(1,))
    scenes = generate_corpus(23, 4, spec)
    for scene in scenes:
        off = decode_halc(None, CORPUS_DET, oracle_match_score, None, scene,
                          DecodeConfig(seed=1))
        assert IDK_TOKEN not in off.tokens
        literal = decode_halc(None, CORPUS_DET, oracle_match_score, None, scene,
                              DecodeConfig(seed=1, idk_policy="literal"))
        assert IDK_TOKEN in literal.tokens


def test_trap_corpus_strict_improvement(small_trap_corpus):
    from halc.metrics import CaptionRecord, chair

    scene_map = {s.scene_id: s for s in small_trap_corpus}
    caps = {"greedy": [], "halc": []}
    for idx, scene in enumerate(small_trap_corpus):
        cfg = DecodeConfig(seed=100 + idx)
        caps["greedy"].append(
            CaptionRecord.from_tokens(
                scene.scene_id, decode_greedy(None, scene, cfg).tokens, scene.lexicon
            )
        )
        caps["halc"].append(
            CaptionRecord.from_tokens(
                scene.scene_id,
                decode_halc(None, CORPUS_DET, oracle_match_score, None, scene, cfg).tokens,
                scene.lexicon,
            )
        )
    greedy_report = chair(caps["greedy"], scene_map)
    halc_report = chair(caps["halc"], scene_map)
    assert halc_report.chair_i < greedy_report.chair_i


def test_full_trap_corpus_strict_improvement():
    from halc.metrics import CaptionRecord, chair

    spec = CorpusSpec(scene_count=20, trap_fraction=1.0, clauses=2, trap_clauses=(1,))
    scenes = generate_corpus(29, 20, spec)
    scene_map = {s.scene_id: s for s in scenes}
    greedy_caps, halc_caps = [], []
    for idx, scene in enumerate(scenes):
        cfg = DecodeConfig(seed=idx)
        greedy_caps.append(
            CaptionRecord.from_tokens(
                scene.scene_id, decode_greedy(None, scene, cfg).tokens, scene.lexicon
            )
        )
        halc_caps.append(
            CaptionRecord.from_tokens(
                scene.scene_id,
                decode_halc(None, CORPUS_DET, oracle_match_score, None, scene, cfg).tokens,
                scene.lexicon,
            )
        )
    greedy_report = chair(greedy_caps, scene_map)
    assert greedy_report.chair_s == 1.0  # every scene hallucinates under greedy
    assert chair(halc_caps, scene_map).chair_i < greedy_report.chair_i


def test_beam_size_two_still_corrects(demo):
    cfg = DecodeConfig(seed=7, k=2)
    result = decode_halc(None, DEMO_DET, oracle_match_score, None, demo, cfg)
    assert "clock" in result.tokens


def test_trace_json_schema(demo):
    cfg = DecodeConfig(seed=7)
    result = decode_halc(None, DEMO_DET, oracle_match_score, None, demo, cfg)
    doc = result.trace.to_json()
    assert set(doc) == {"steps", "totals"}
    assert set(doc["totals"]) == {"model_calls", "detector_calls", "triggered"}
    triggered_steps = [s for s in doc["steps"] if s["triggered"]]
    assert triggered_steps
    for step in triggered_steps:
        assert len(step["fovs"]) == cfg.n
        assert len(step["candidates"]) == 2 * min(cfg.m, cfg.n * (cfg.n - 1) // 2)
        assert step["chosen"] is not None


# ---------------------------------------------------------------------------
# One step record
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 3])
def test_step_records_count_their_calls_and_list_their_candidates(small_trap_corpus, k):
    for idx, scene in enumerate(small_trap_corpus):
        config = DecodeConfig(seed=idx, k=k, idk_policy="literal")
        trace = decode_halc(None, CORPUS_DET, oracle_match_score, None, scene, config).trace
        assert sum(record.model_call_count for record in trace.steps) == trace.model_calls
        untagged = {}
        for record in trace.steps:
            doc = record.to_json()
            assert doc["candidates"] == [tok for tok, _ in record.candidates]
            if record.triggered:
                assert record.model_call_count == 1 + len(record.fovs)
                assert len(record.candidates) == 2 * len(record.selected_pairs)
            else:
                assert record.model_call_count == 1
                [(proposed, prob)] = record.candidates
                assert prob is None and record.chosen_token in (None, proposed)
                # The untagged steps of a decode share one tuple per token.
                assert untagged.setdefault(proposed, record.candidates) is record.candidates


@pytest.mark.parametrize("mode", SAMPLING_MODES)
def test_halc_step_called_directly_gives_the_traced_record(small_trap_corpus, mode):
    # At k = 1 each step grows the one beam by its kept token, so the
    # steps can be replayed on the same rng.
    config = DecodeConfig(seed=3, sampling_mode=mode, idk_policy="literal")
    replayed = 0
    for scene in small_trap_corpus[:6]:
        trace = decode_halc(None, CORPUS_DET, oracle_match_score, None, scene, config).trace
        rng = np.random.default_rng(config.seed)
        full = scene.image.full_fov()
        prefix = ()
        for record in trace.steps:
            if record.triggered:
                proposed = scene.vocabulary[argmax_logit(toy_model_logits(scene, full, prefix))]
                beam = BeamState(prefix)
                direct = halc_step(None, CORPUS_DET, scene, beam, proposed, config, rng)
                assert (direct.step, direct.beam, direct.chosen_token) == (0, 0, None)
                stamped = dataclasses.replace(
                    direct, step=record.step, beam=record.beam, chosen_token=record.chosen_token
                )
                assert stamped == record
                replayed += 1
            if record.chosen_token != END_TOKEN:
                prefix += (record.chosen_token,)
    assert replayed >= 6


def test_held_halc_traces_stay_small():
    # Corpus runs hold every trace. Equal candidates of a step share one
    # tuple, and the untagged steps of a decode one tuple per token: the
    # 40 traces below hold about 1.1 MB, and 2.8 MB when each triggered
    # step held n Fov objects and an n x n list matrix.
    scenes = generate_corpus(7, 20, CorpusSpec(scene_count=20))
    decode_halc(None, CORPUS_DET, oracle_match_score, None, scenes[0], DecodeConfig(max_tokens=4))
    gc.collect()
    tracemalloc.start()
    try:
        traces = [
            decode_halc(None, CORPUS_DET, oracle_match_score, None, scene,
                        DecodeConfig(seed=idx, k=k)).trace
            for k in (1, 3)
            for idx, scene in enumerate(scenes)
        ]
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(record.triggered for trace in traces for record in trace.steps) > 1000
    assert held <= 3.2e6


def test_triggered_steps_hold_their_numbers_packed():
    # A triggered step holds its windows and pair JSDs as one run of
    # doubles, and equal candidates tuples share one object per decode: 20
    # default scenes at HALC k=1 hold about 700 bytes of trace per
    # triggered step, where n Fov objects and an n x n list matrix per step
    # held about 1,750.
    scenes = generate_corpus(1, 20, CorpusSpec(scene_count=20))

    def traces():
        return [
            decode_halc(None, CORPUS_DET, oracle_match_score, None, scene,
                        DecodeConfig(seed=idx)).trace
            for idx, scene in enumerate(scenes)
        ]

    traces()  # the step's caches
    gc.collect()
    tracemalloc.start()
    try:
        held_traces = traces()
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    triggered = [record for trace in held_traces for record in trace.steps if record.triggered]
    assert len(triggered) >= 500
    assert held / len(triggered) <= 1000
    assert all(len(record.fovs) == len(record.jsd_matrix) == 4 for record in triggered)
