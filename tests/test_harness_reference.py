"""The ablate sweeps and the length curve, checked against the code they
replaced.

The references below are the replaced code, kept here verbatim apart from
names and the ablate detector, which the caller now passes in:
`run_ablations` with its four copied sweep loops over `_averaged_halc_eval`,
and `run_length_curve` with its decoder closures over
`metrics.hallucination_vs_length`. They share the corpus decoding
(`decode_corpus`), the caption metrics and the POPE queries with the code
they check; tests/test_harness_cli.py and tests/test_metrics.py check those
on their own. Random window sampling draws from the decode seed, so only
`sampling_mode: random` tells one decode seed for every scene apart from
one seed per scene.
"""

import dataclasses
import json
from typing import Callable, Mapping, Optional, Sequence

import pytest

from halc.config import AblateSection, ScorerSpec
from halc.decoding import DecodeConfig, DecodeResult, DecodeTrace, decode_greedy, decode_halc
from halc.errors import InvalidInputError
from halc.harness import (
    _pope_queries,
    decode_corpus,
    evaluate_captions,
    resolve_scorer,
    run_ablations,
    run_length_curve,
)
from halc.metrics import CaptionRecord, chair
from halc.schema import parse
from halc.world import (
    CORPUS_DETECTOR_ETA,
    CorpusSpec,
    DetectorSim,
    Scene,
    Scorer,
    generate_corpus,
    oracle_match_score,
)

# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def reference_averaged_halc_eval(
    scenes: Sequence[Scene],
    config: DecodeConfig,
    queries,
    seeds: Sequence[int],
    detector,
    scorer_spec,
    beta: float = 0.2,
) -> dict:
    acc: dict[str, float] = {}
    for s in seeds:
        cfg = dataclasses.replace(config, seed=s)
        scorer = resolve_scorer(scorer_spec, seed=s)
        captions, _ = decode_corpus(scenes, "halc", cfg, detector, scorer)
        result = evaluate_captions(scenes, captions, queries, beta)
        for key, value in result.items():
            acc[key] = acc.get(key, 0.0) + value
    return {key: value / len(seeds) for key, value in acc.items()}


def reference_run_ablations(
    scenes: Sequence[Scene],
    config: DecodeConfig,
    seed: int,
    options: AblateSection | Mapping | None = None,
    detector=None,
) -> dict[str, list[dict]]:
    options = parse(AblateSection, {} if options is None else options, "ablate")
    queries = _pope_queries(scenes, seed, options.pope_mode, 3)
    scorer_seeds = options.scorer_seeds or [seed + i for i in range(5)]
    single = [seed]

    tables: dict[str, list[dict]] = {}

    rows = []
    for init in options.inits:
        mode = "exponential" if init == "detector" else init
        cfg = dataclasses.replace(config, sampling_mode=mode)
        row = {"init": init}
        row.update(reference_averaged_halc_eval(scenes, cfg, queries, single, detector, "oracle"))
        rows.append(row)
    tables["init"] = rows

    rows = []
    for lam in options.lambdas:
        cfg = dataclasses.replace(config, lam=lam)
        row = {"lambda": lam}
        row.update(reference_averaged_halc_eval(scenes, cfg, queries, single, detector, "oracle"))
        rows.append(row)
    tables["lambda"] = rows

    rows = []
    for k in options.beams:
        cfg = dataclasses.replace(config, k=k)
        row = {"k": k}
        row.update(reference_averaged_halc_eval(scenes, cfg, queries, single, detector, "oracle"))
        rows.append(row)
    tables["beam"] = rows

    rows = []
    for scorer_spec in options.scorers:
        row = {"scorer": scorer_spec}
        row.update(
            reference_averaged_halc_eval(
                scenes, config, queries, scorer_seeds, detector, scorer_spec
            )
        )
        rows.append(row)
    tables["scorer"] = rows
    return tables


def reference_hallucination_vs_length(
    corpus: Sequence[Scene],
    decoder: Callable[[Scene, int], Sequence[str]],
    max_token_grid: Sequence[int],
) -> list[dict]:
    if not max_token_grid:
        raise InvalidInputError("max-token grid must be nonempty")
    rows = []
    scenes = {s.scene_id: s for s in corpus}
    for budget in max_token_grid:
        captions = []
        for scene in corpus:
            tokens = decoder(scene, budget)
            captions.append(CaptionRecord.from_tokens(scene.scene_id, tokens, scene.lexicon))
        report = chair(captions, scenes)
        rows.append(
            {
                "max_tokens": budget,
                "objects": report.mentions,
                "hallucinated": report.hallucinated_mentions,
                "chair_i": report.chair_i,
            }
        )
    return rows


def reference_run_length_curve(
    scenes: Sequence[Scene],
    config: DecodeConfig,
    grid: Sequence[int],
    detector=None,
    scorer: Optional[Scorer] = None,
    trace_sink: Optional[list[DecodeTrace]] = None,
) -> list[dict]:
    detector = detector or DetectorSim(CORPUS_DETECTOR_ETA)
    scorer = scorer or oracle_match_score

    def record(result: DecodeResult) -> Sequence[str]:
        if trace_sink is not None:
            trace_sink.append(result.trace)
        return result.tokens

    def greedy_decoder(scene: Scene, budget: int) -> Sequence[str]:
        cfg = dataclasses.replace(config, max_tokens=budget)
        return record(decode_greedy(None, scene, cfg))

    def halc_decoder(scene: Scene, budget: int) -> Sequence[str]:
        cfg = dataclasses.replace(config, max_tokens=budget)
        return record(decode_halc(None, detector, scorer, None, scene, cfg))

    rows = []
    for method, decoder in (("greedy", greedy_decoder), ("halc", halc_decoder)):
        for entry in reference_hallucination_vs_length(scenes, decoder, grid):
            row = {"method": method}
            row.update(entry)
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

MODES = ("exponential", "normal", "random")
# One scorer spec per beam size k: the mapping forms and a kind string.
SCORERS = {1: {"kind": "noisy", "amp": 0.5}, 2: {"kind": "random"}, 3: "noisy"}


@pytest.fixture(scope="module")
def corpus():
    spec = CorpusSpec(scene_count=4, trap_fraction=0.5, clauses=3, trap_clauses=(1, 2))
    return generate_corpus(31, 4, spec)


def _spec(scorer):
    """A scorer as a config section gives it: a kind or a ScorerSpec."""
    return scorer if isinstance(scorer, str) else parse(ScorerSpec, scorer, "scorer")


def _rows(tables):
    """Each row with its keys in order and its values as exact reprs."""
    return {name: [list(map(repr, row.items())) for row in rows] for name, rows in tables.items()}


@pytest.mark.parametrize(
    "mode, k", [("exponential", 3), ("normal", 2), ("random", 1), ("random", 3)]
)
def test_ablations_match_the_four_sweep_loops(corpus, mode, k):
    config = DecodeConfig(sampling_mode=mode, k=k, max_tokens=24, seed=11)
    options = {
        "inits": ["detector", "random"],
        "lambdas": [0.9],
        "beams": [1, 3],
        "scorers": [SCORERS[1], SCORERS[2], {"kind": "oracle"}],
        "scorer_seeds": [4, 9],
    }
    detector = DetectorSim((5.0, -3.0, 2.0, 1.0), 0.6)
    got = run_ablations(corpus, config, 5, options, detector)
    want = reference_run_ablations(corpus, config, 5, options, detector)
    assert list(got) == list(want) == ["init", "lambda", "beam", "scorer"]
    assert _rows(got) == _rows(want)


def test_ablations_default_scorer_seeds_match(corpus):
    config = DecodeConfig(sampling_mode="random", max_tokens=16, seed=3)
    options = {"inits": ["center"], "lambdas": [0.6], "beams": [2], "scorers": [SCORERS[1]]}
    assert _rows(run_ablations(corpus, config, 7, options)) == _rows(
        reference_run_ablations(corpus, config, 7, options)
    )


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("mode", MODES)
def test_length_curve_matches_the_decoder_closures(corpus, mode, k):
    config = DecodeConfig(sampling_mode=mode, k=k, seed=13)
    scorer = resolve_scorer(_spec(SCORERS[k]), seed=13)
    detector = DetectorSim(CORPUS_DETECTOR_ETA)
    got_traces: list[DecodeTrace] = []
    want_traces: list[DecodeTrace] = []
    got = run_length_curve(corpus, config, [4, 12, 40], detector, scorer, got_traces)
    want = reference_run_length_curve(corpus, config, [4, 12, 40], detector, scorer, want_traces)
    assert [list(map(repr, row.items())) for row in got] == [
        list(map(repr, row.items())) for row in want
    ]
    assert [json.dumps(t.to_json()) for t in got_traces] == [
        json.dumps(t.to_json()) for t in want_traces
    ]


def test_length_curve_defaults_and_empty_grid_match(corpus):
    config = DecodeConfig(sampling_mode="random", seed=2)
    assert run_length_curve(corpus, config, [8, 30]) == reference_run_length_curve(
        corpus, config, [8, 30]
    )
    for run in (run_length_curve, reference_run_length_curve):
        with pytest.raises(InvalidInputError, match="max-token grid must be nonempty"):
            run(corpus, config, [])
