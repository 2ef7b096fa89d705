"""The one decode loop and its greedy, log-prob beam and corrective step
policies, checked against the three loops they replaced.

The references below are the replaced code, kept here verbatim apart from
names: greedy's own loop with an unchecked argmax, the beam loop
over (tokens, logp, terminated) tuples, and the corrective loop with its
8-field candidate, the selection over it and the abstention rewrite applied
after selection. They share the correction step (`halc_step`), the
abstention table (`apply_idk_policy`), the trace records and the
distribution helpers with the code they check; tests/test_step_reference.py
and tests/test_decoding.py check those on their own.
"""

import json
import zlib
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from halc import decoding
from halc.decoding import (
    IDK_POLICIES,
    MAX_ALPHA,
    SAMPLING_MODES,
    BeamState,
    DecodeConfig,
    DecodeResult,
    DecodeTrace,
    StepRecord,
    apply_idk_policy,
    decode_beam,
    decode_greedy,
    decode_halc,
    halc_step,
)
from halc.distributions import argmax_logit, softmax
from halc.errors import InvalidInputError, InvalidParameterError
from halc.world import (
    CORPUS_DETECTOR_ETA,
    DEMO_DETECTOR_ETA,
    END_TOKEN,
    CorpusSpec,
    DetectorSim,
    generate_corpus,
    oracle_match_score,
    tag_token,
    toy_model_logits,
)

CORPUS_DET = DetectorSim(CORPUS_DETECTOR_ETA)
DEMO_DET = DetectorSim(DEMO_DETECTOR_ETA)

# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def reference_decode_greedy(model, scene, config):
    """Argmax decoding on the full-image window until end token or budget."""
    model = model or toy_model_logits
    full = scene.image.full_fov()
    trace = DecodeTrace()
    tokens: list[str] = []
    for step in range(config.max_tokens):
        logits = model(scene, full, tokens)
        trace.model_calls += 1
        tok = scene.vocabulary[int(np.argmax(logits))]
        trace.steps.append(
            StepRecord(False, False, 1, step=step, beam=0, chosen_token=tok)
        )
        if tok == END_TOKEN:
            break
        tokens.append(tok)
    return DecodeResult(tuple(tokens), trace)


def reference_decode_beam(model, scene, k, config):
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
            trace.steps.append(StepRecord(False, False, 1, step=step, beam=b))
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


@dataclass
class ReferenceCandidate:
    tokens: tuple[str, ...]  # full extended sequence (token already applied)
    token: Optional[str]  # newly appended token; None for pass-through beams
    terminated: bool
    triggered: bool
    original: Optional[str]
    detector_hit: bool
    prob: Optional[float]
    record: Optional[StepRecord]


def reference_select_beams(candidates: Sequence[ReferenceCandidate], scorer, k, scene):
    """Keep the k best-scoring pairwise-distinct sequences."""
    if not candidates:
        raise InvalidParameterError("candidate pool is empty")
    distinct: dict[tuple, ReferenceCandidate] = {}
    for cand in candidates:
        distinct.setdefault((cand.tokens, cand.terminated), cand)
    scored = [(cand, scorer(cand.tokens, scene)) for cand in distinct.values()]
    scored.sort(key=lambda item: -item[1])  # stable: ties keep pool order
    return scored[:k]


def reference_decode_halc(model, detector, scorer, lexicon, scene, config):
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
        pool: list[ReferenceCandidate] = []
        for b, beam in enumerate(beams):
            if beam.terminated:
                pool.append(
                    ReferenceCandidate(beam.tokens, None, True, False, None, False, None, None)
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
                matrix = result.jsd_matrix
                record = StepRecord(True, result.detector_hit, 1 + config.n, result.candidates)
                record._pack(
                    result.fovs,
                    [matrix[i][j] for i, j in combinations(range(config.n), 2)],
                    result.selected_pairs,
                )
                record.step, record.beam = step, b
                trace.steps.append(record)
                # select_beams keeps the first candidate of each sequence, and
                # a repeated token here repeats this beam's sequence.
                seen: set[str] = set()
                for tok, prob in result.candidates:
                    if tok in seen:
                        continue
                    seen.add(tok)
                    extended = beam.tokens if tok == END_TOKEN else beam.tokens + (tok,)
                    pool.append(
                        ReferenceCandidate(
                            tokens=extended,
                            token=tok,
                            terminated=tok == END_TOKEN,
                            triggered=True,
                            original=proposed,
                            detector_hit=result.detector_hit,
                            prob=prob,
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
                    candidates=((proposed, None),),
                )
                trace.steps.append(record)
                extended = beam.tokens if proposed == END_TOKEN else beam.tokens + (proposed,)
                pool.append(
                    ReferenceCandidate(
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
        selected = reference_select_beams(pool, scorer, config.k, scene)
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


# ---------------------------------------------------------------------------
# The live decoders against the references
# ---------------------------------------------------------------------------


def _recorded(decode, noise, salt, spread):
    """The decode's result, or the error it raised, with every model call
    as (fov, prefix) and every scorer call as the scored sequence, in call
    order. The model is the toy model plus `noise` times a standard normal
    vector seeded by `salt` and the prefix: the toy model's next token
    depends on the prefix only through its length and last token, so
    without noise the greedy beam leads every other beam, and all beams end
    at once. A step's first window off the full image gets its whole row
    raised by `spread`, its second lowered by it, which leaves their
    probabilities about as they were; at alpha MAX_ALPHA a spread of 1.7e8
    makes the contrast of that one pair overflow, and only that pair's."""
    calls, scored = [], []
    run = 0  # the windows since the last full-image call

    def model(scene, fov, prefix):
        nonlocal run
        calls.append((fov, tuple(prefix)))
        logits = toy_model_logits(scene, fov, prefix)
        if noise:
            draw = np.random.default_rng([salt, zlib.crc32(" ".join(prefix).encode())])
            logits = logits + noise * draw.standard_normal(logits.size)
        run = 0 if fov == scene.image.full_fov() else run + 1
        if spread and run in (1, 2):
            logits = logits + (spread if run == 1 else -spread)
        return logits

    def scorer(sequence, scene):
        scored.append(tuple(sequence))
        return oracle_match_score(sequence, scene)

    try:
        return decode(model, scorer), calls, scored
    except InvalidInputError as exc:
        return exc, calls, scored


def _candidate_bits(trace):
    """Each step's (token, probability) candidates, probabilities as hex."""
    return [
        [(tok, None if prob is None else prob.hex()) for tok, prob in step.candidates]
        for step in trace.steps
    ]


def assert_decoders_agree(scene, config, noise=0.0, salt=0, spread=0.0,
                          detector=CORPUS_DET):
    """Each live decoder and its reference make the same calls and give the
    same tokens and trace, or raise the same error; the HALC decode's result
    or error is returned."""
    pairs = {
        "greedy": (
            lambda model, scorer: decode_greedy(model, scene, config),
            lambda model, scorer: reference_decode_greedy(model, scene, config),
        ),
        "beam": (
            lambda model, scorer: decode_beam(model, scene, config.k, config),
            lambda model, scorer: reference_decode_beam(model, scene, config.k, config),
        ),
        "halc": (
            lambda model, scorer: decode_halc(model, detector, scorer, None, scene, config),
            lambda model, scorer: reference_decode_halc(model, detector, scorer, None, scene, config),
        ),
    }
    for name, (live, reference) in pairs.items():
        got, got_calls, got_scored = _recorded(live, noise, salt, spread)
        want, want_calls, want_scored = _recorded(reference, noise, salt, spread)
        if isinstance(want, Exception) or isinstance(got, Exception):
            assert repr(got) == repr(want), name
        else:
            assert got.tokens == want.tokens, name
            assert json.dumps(got.trace.to_json()) == json.dumps(want.trace.to_json()), name
            assert _candidate_bits(got.trace) == _candidate_bits(want.trace), name
        assert got_calls == want_calls, name
        assert got_scored == want_scored, name
    return got


def _scene(seed, **spec):
    return generate_corpus(seed, 1, CorpusSpec(scene_count=1, **spec))[0]


OVERFLOW_CASE = (_scene(2, trap_fraction=1.0), DecodeConfig(n=3, m=3, alpha=MAX_ALPHA, seed=1),
                 0.0, 0, 1.7e8)


@st.composite
def decode_cases(draw):
    # Short captions end within the budget, so ended beams compete too.
    clauses = draw(st.integers(1, 7))
    scene = _scene(
        draw(st.integers(0, 10_000)),
        trap_fraction=draw(st.sampled_from([0.0, 1.0])),
        correctable_fraction=draw(st.sampled_from([0.0, 1.0])),
        clauses=clauses,
        trap_clauses=tuple(range(clauses)),
        # V≈4032: one step's window probabilities pass decode_halc's
        # PENDING_CAP, so its pairs are ranked at once
        filler_count=draw(st.sampled_from([96, 96, 96, 4000])),
    )
    n = draw(st.integers(2, 6))
    config = DecodeConfig(
        n=n,
        m=draw(st.integers(1, n * (n - 1) // 2)),
        k=draw(st.integers(1, 3)),
        alpha=draw(st.one_of(st.sampled_from([0.0, MAX_ALPHA]), st.floats(0.0, 3.0))),
        beta=draw(st.one_of(st.just(0.1), st.floats(1e-6, 0.999))),
        sampling_mode=draw(st.sampled_from(SAMPLING_MODES)),
        idk_policy=draw(st.sampled_from(IDK_POLICIES)),
        idk_confidence=draw(st.floats(0.0, 1.0)),
        max_tokens=draw(st.one_of(st.integers(1, 8), st.integers(1, 64))),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    noise = draw(st.sampled_from([0.0, 0.5, 2.0, 8.0]))
    salt = draw(st.integers(0, 99))
    return scene, config, noise, salt, draw(st.sampled_from([0.0, 0.0, 0.0, 1.7e8]))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
# The literal abstention policy replaces uncorrectable trap tokens.
@example(case=(_scene(23, trap_fraction=1.0, correctable_fraction=0.0),
               DecodeConfig(k=2, idk_policy="literal", seed=1), 0.0, 0, 0.0))
# The budget ends with a live beam ahead of an ended one, which wins.
@example(case=(_scene(6, clauses=1, trap_clauses=(0,)), DecodeConfig(k=3, max_tokens=9), 8.0, 6,
               0.0))
# Every window keeps the same one token, but one pair's contrast overflows:
# the step ranks its own pairs and raises as the reference does.
@example(case=OVERFLOW_CASE)
@given(case=decode_cases())
def test_decode_loop_matches_the_three_replaced_loops(case):
    assert_decoders_agree(*case)


def test_an_overflowing_pair_of_agreeing_windows_raises_at_its_step(monkeypatch):
    # The first triggered step's windows all keep one token, with the
    # contrast of one pair non-finite: it must not wait in the pending batch.
    agreed = []
    real = decoding._agreed_token

    def spy(logits, keep, alpha):
        kept = {tuple(np.flatnonzero(row)) for row in keep}
        agreed.append((len(kept) == 1 and len(min(kept)) == 1, real(logits, keep, alpha)))
        return agreed[-1][1]

    monkeypatch.setattr(decoding, "_agreed_token", spy)
    error = assert_decoders_agree(*OVERFLOW_CASE)
    assert repr(error) == repr(InvalidInputError("logits must be finite or -inf"))
    assert agreed == [(True, None)] * 2  # the first triggered step, live and reference


def test_demo_decoders_match_the_replaced_loops(demo):
    for config in (DecodeConfig(seed=7), DecodeConfig(seed=7, k=3, idk_policy="confidence",
                                                       idk_confidence=0.9)):
        assert_decoders_agree(demo, config, detector=DEMO_DET)
