"""The ablate sweeps, the oracle study and the corpus region draw,
checked against the code they replaced.

The references below are the replaced code, kept here verbatim apart from
names and the ablate detector, which the caller now passes in:
`run_ablations` with its four copied sweep loops over `_averaged_halc_eval`,
`run_oracle_study` with its grid built for every scene, `grid_fovs` with
its unclamped window per grid point, and `world._random_region` with its
four scalar uniform draws. They share the corpus decoding
(`decode_corpus`), the caption metrics, the POPE queries, greedy decoding
and the model with the code they check; tests/test_harness_cli.py,
tests/test_metrics.py and the other reference files check those on their
own.
"""

import contextlib
import dataclasses
from typing import Mapping, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halc import harness, world
from halc.config import DEFAULT_GRID_SCALES, AblateSection
from halc.decoding import DecodeConfig, decode_greedy
from halc.distributions import argmax_logit
from halc.errors import InvalidParameterError
from halc.geometry import Fov, ImageSpec, clamp_to_image
from halc.harness import (
    CATEGORIES,
    OracleStudyReport,
    _pope_queries,
    decode_corpus,
    evaluate_captions,
    grid_fovs,
    resolve_scorer,
    run_ablations,
    run_oracle_study,
)
from halc.schema import parse
from halc.world import (
    CorpusSpec,
    DetectorSim,
    Scene,
    _random_region,
    generate_corpus,
    tag_token,
    toy_model_logits,
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


def reference_grid_fovs(
    image,
    positions: int = 8,
    scales: Sequence[float] = DEFAULT_GRID_SCALES,
) -> list[Fov]:
    fovs = []
    for s in scales:
        w, h = s * image.width, s * image.height
        for i in range(positions):
            for j in range(positions):
                cx = (i + 0.5) * image.width / positions
                cy = (j + 0.5) * image.height / positions
                fovs.append(clamp_to_image(Fov(w, h, cx, cy), image))
    return fovs


def reference_run_oracle_study(
    scenes: Sequence[Scene],
    config: DecodeConfig,
    positions: int = 8,
    scales: Sequence[float] = DEFAULT_GRID_SCALES,
) -> OracleStudyReport:
    observed = {cat: 0 for cat in CATEGORIES}
    eliminated = {cat: 0 for cat in CATEGORIES}
    for scene in scenes:
        result = decode_greedy(None, scene, config)
        tokens = result.tokens
        lexicon = scene.lexicon
        gt = scene.ground_truth_names
        reference = scene.reference_caption
        grid = reference_grid_fovs(scene.image, positions, scales)
        for t, tok in enumerate(tokens):
            category = tag_token(lexicon, tok)
            if category == "none" or t >= len(reference):
                continue
            if category == "existence":
                hallucinated = tok not in gt
            else:
                hallucinated = tok != reference[t]
            if not hallucinated:
                continue
            observed[category] += 1
            prefix = list(tokens[:t])
            target = scene.token_id(reference[t])
            for fov in grid:
                if argmax_logit(toy_model_logits(scene, fov, prefix)) == target:
                    eliminated[category] += 1
                    break
    return OracleStudyReport(observed=observed, eliminated=eliminated)


def reference_random_region(rng: np.random.Generator, image: ImageSpec) -> Fov:
    s = rng.uniform(0.15, 0.3)
    w = s * image.width
    h = s * rng.uniform(0.85, 1.15) * image.height
    cx = rng.uniform(w / 2.0, image.width - w / 2.0)
    cy = rng.uniform(h / 2.0, image.height - h / 2.0)
    return Fov(w, h, cx, cy)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

# Scorer specs in the mapping form an ablate section lists them in.
SCORERS = ({"kind": "noisy", "amp": 0.5}, {"kind": "random"})


@pytest.fixture(scope="module")
def corpus():
    spec = CorpusSpec(scene_count=4, trap_fraction=0.5, clauses=3, trap_clauses=(1, 2))
    return generate_corpus(31, 4, spec)


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
        "scorers": [*SCORERS, {"kind": "oracle"}],
        "scorer_seeds": [4, 9],
    }
    detector = DetectorSim((5.0, -3.0, 2.0, 1.0), 0.6)
    got = run_ablations(corpus, config, 5, options, detector)
    want = reference_run_ablations(corpus, config, 5, options, detector)
    assert list(got) == list(want) == ["init", "lambda", "beam", "scorer"]
    assert _rows(got) == _rows(want)


def test_ablations_default_scorer_seeds_match(corpus):
    config = DecodeConfig(sampling_mode="random", max_tokens=16, seed=3)
    options = {"inits": ["center"], "lambdas": [0.6], "beams": [2], "scorers": [SCORERS[0]]}
    assert _rows(run_ablations(corpus, config, 7, options)) == _rows(
        reference_run_ablations(corpus, config, 7, options)
    )


def _hex(fov: Fov) -> list[str]:
    return [value.hex() for value in fov.as_tuple()]


def _exact_grid(build, image, positions, scales):
    """Each window's fields as float hex, or the rejection's type and message."""
    try:
        return [_hex(fov) for fov in build(image, positions, scales)]
    except InvalidParameterError as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(
    width=st.floats(1.0, 5000.0),
    height=st.floats(1.0, 5000.0),
    positions=st.integers(1, 6),
    scales=st.lists(
        st.floats(0.01, 3.0) | st.sampled_from([1.0, 0.0, -0.5]), min_size=1, max_size=4
    ),
)
def test_grid_windows_match_the_unclamped_windows_clamped(width, height, positions, scales):
    image = ImageSpec(width, height)
    assert _exact_grid(grid_fovs, image, positions, scales) == _exact_grid(
        reference_grid_fovs, image, positions, scales
    )


@contextlib.contextmanager
def recorded_calls():
    """The (scene id, window, prefix) of every model call, from the study
    (through the harness module global) and from the reference, and the
    images the study built a grid for."""
    calls = {"study": [], "reference": [], "grids": []}

    def recorder(name):
        def model(scene, fov, prefix):
            calls[name].append((scene.scene_id, fov, tuple(prefix)))
            return world.toy_model_logits(scene, fov, prefix)

        return model

    def counted_grid(image, positions, scales):
        calls["grids"].append(image)
        return grid_fovs(image, positions, scales)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "toy_model_logits", recorder("study"))
        patch.setattr(harness, "grid_fovs", counted_grid)
        patch.setitem(globals(), "toy_model_logits", recorder("reference"))
        yield calls


def _check_study(scenes, config, positions, scales):
    with recorded_calls() as calls:
        got = run_oracle_study(scenes, config, positions, scales)
        want = reference_run_oracle_study(scenes, config, positions, scales)
    assert (got.observed, got.eliminated) == (want.observed, want.eliminated)
    assert calls["study"] == calls["reference"]
    images = [scene.image for scene in scenes]
    assert calls["grids"] == [b for a, b in zip([None] + images, images) if a != b]
    return got, calls


# A few scenes of every kind: trapped and correctable, trapped and not, and
# untrapped, with captions long enough to reach the traps.
STUDY_SPEC = CorpusSpec(
    scene_count=3, trap_fraction=2 / 3, correctable_fraction=0.5, clauses=3, trap_clauses=(1, 2)
)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    positions=st.integers(1, 4),
    scales=st.lists(st.sampled_from([0.1, 0.25, 0.4, 0.9, 1.0, 1.3, 2.5]), min_size=1, max_size=3),
)
def test_oracle_study_matches_a_grid_per_scene(seed, positions, scales):
    scenes = generate_corpus(seed, 3, STUDY_SPEC)
    _check_study(scenes, DecodeConfig(max_tokens=24), positions, scales)


def test_oracle_study_rebuilds_the_grid_when_the_image_changes():
    first = generate_corpus(5, 3, STUDY_SPEC)
    wide = dataclasses.replace(STUDY_SPEC, scene_count=4, image_width=1600.0, image_height=700.0)
    second = generate_corpus(6, 4, wide)
    scenes = [first[0], first[1], second[3], first[2]]  # images A, A, B, A
    report, calls = _check_study(scenes, DecodeConfig(max_tokens=24), 3, (0.2, 0.6, 1.2))
    assert [image.width for image in calls["grids"]] == [1000.0, 1600.0, 1000.0]
    assert report.total_observed > 0 and calls["study"]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.floats(1.0, 5000.0),
    height=st.floats(1.0, 5000.0),
    regions=st.integers(1, 25),
)
def test_region_draw_matches_four_uniform_draws(seed, width, height, regions):
    image = ImageSpec(width, height)
    got, want = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(regions):
        assert _hex(_random_region(got, image)) == _hex(reference_random_region(want, image))
    assert got.bit_generator.state == want.bit_generator.state
