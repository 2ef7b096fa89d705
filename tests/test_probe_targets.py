"""The benchmark's traced runs wrap halc functions by module attribute
(`perfbench/probes.py` SPANS) and call some of them directly. A name that
is renamed or deleted, or a call shape that changes, breaks `--trace 1` or
leaves a span reading 0 calls, so each target is checked here.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from probes import SPANS  # noqa: E402

from halc.decoding import BeamState, DecodeConfig, decode_beam, halc_step  # noqa: E402
from halc.world import DEMO_DETECTOR_ETA, DetectorSim  # noqa: E402

TARGETS = [(span, path, attr) for span, targets in SPANS.items() for path, attr in targets]


@pytest.mark.parametrize(
    "span, path, attr", TARGETS, ids=[f"{path}.{attr}" for _, path, attr in TARGETS]
)
def test_every_span_target_resolves_to_a_callable(span, path, attr):
    module, _, cls = path.partition(".")
    owner = importlib.import_module(f"halc.{module}")
    if cls:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr))


def test_decode_beam_takes_the_width_positionally(demo):
    result = decode_beam(None, demo, 3, DecodeConfig(seed=0, max_tokens=12))
    assert result.tokens and set(result.tokens) <= set(demo.vocabulary)


def test_halc_step_candidates_are_token_value_pairs(demo):
    beam = BeamState(tokens=tuple(demo.reference_caption[:4]))
    result = halc_step(
        None, DetectorSim(DEMO_DETECTOR_ETA), demo, beam, "surfboard", DecodeConfig(seed=0),
        np.random.default_rng(0),
    )
    assert result.candidates
    tokens = {tok for tok, _ in result.candidates}
    assert tokens <= set(demo.vocabulary)
