"""Malformed config documents through the CLI: every run ends with exit
code 0, 2 (config error) or 3 (I/O error) and never with a traceback.

The documents mix valid, wrong-typed, wrong-length and unknown values in
the `theorem` and `decode` sections; the valid values include combinations
that TheoremConfig, DecodeConfig or the exponential-sampling conditions
reject. Sizes are capped (trials <= 500, at most two n values <= 8, a
2-scene corpus, short captions) so that each run takes milliseconds.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from halc.cli import main
from halc.decoding import IDK_POLICIES, SAMPLING_MODES

WRONG = st.sampled_from(["abc", None, True, [1], {"a": 1}, 1e300, -1, 0, [1, 2], []])
NUMBER = st.sampled_from([0.25, 0.5, 1, 1.0, 2.0])
VECTOR = st.sampled_from([[0, 0, 0], [0.8, 0.6, 0.0], [4.0, 4.0, 0.0], [2, 1, 0.5]])

THEOREM_REQUIRED = {
    "trials": st.integers(100, 500),
    "n_values": st.lists(st.integers(1, 8), min_size=1, max_size=2),
}
THEOREM_OPTIONAL = {
    "v_star": VECTOR,
    "amp": NUMBER,
    "divergence": st.sampled_from(["tv", "jsd"]),
    "samplers": st.lists(st.sampled_from(["normal", "exponential"]), min_size=1, max_size=2),
    "etas": st.lists(VECTOR, min_size=1, max_size=2),
    "sigmas": st.lists(NUMBER, min_size=1, max_size=2),
    "epsilons": st.lists(NUMBER, min_size=1, max_size=2),
    "eta_scale": st.sampled_from([0.5, 0.25, -1.0, -2.0]),
    "exp_epsilon": st.sampled_from([0.05, 1.0, 2.0]),
    "lam": NUMBER,
    "r_min": st.sampled_from([-5.0, -1.0]),
    "r_max": st.sampled_from([5.0, 1.0]),
}
DECODE_REQUIRED = {"max_tokens": st.sampled_from([1, 4, 8])}
DECODE_OPTIONAL = {
    "lam": st.sampled_from([0.4, 0.6]),
    "n": st.sampled_from([2, 3, 4]),
    "m": st.sampled_from([1, 2, 3]),
    "k": st.sampled_from([1, 2]),
    "alpha": st.sampled_from([0.0, 0.05]),
    "beta": st.sampled_from([0.1, 0.5]),
    "sampling_mode": st.sampled_from(SAMPLING_MODES),
    "sigma": st.sampled_from([20.0, 40.0]),
    "idk_policy": st.sampled_from(IDK_POLICIES),
    "idk_confidence": st.sampled_from([0.3, 0.9]),
    "seed": st.integers(0, 9),
    "exponent_offset": st.sampled_from([-1, 0]),
}


@st.composite
def sections(draw, required, optional):
    """A section of valid values in which up to two keys, possibly unknown
    ones, carry a wrong-typed or wrong-length value; now and then the whole
    section is such a value."""
    if draw(st.integers(0, 9)) == 0:
        return draw(WRONG)
    section = draw(st.fixed_dictionaries(required, optional=optional))
    keys = sorted({*required, *optional, "bogus"})
    for key in draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)):
        section[key] = draw(WRONG)
    return section


@settings(max_examples=120, deadline=None)
@given(
    scenario=st.sampled_from(["decode", "theorem-verify"]),
    theorem=sections(THEOREM_REQUIRED, THEOREM_OPTIONAL),
    decode=sections(DECODE_REQUIRED, DECODE_OPTIONAL),
    seed=st.integers(0, 9),
)
def test_fuzzed_config_exits_0_2_or_3_without_traceback(scenario, theorem, decode, seed):
    doc = {
        "seed": seed,
        "corpus": {"count": 2, "trap_fraction": 0.5, "clauses": 2, "trap_clauses": [1]},
        "theorem": theorem,
        "decode": decode,
    }
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "c.json"
        cfg.write_text(json.dumps(doc))
        out = Path(tmp) / "out"
        with contextlib.redirect_stderr(stderr):
            code = main([scenario, "--config", str(cfg), "--out", str(out)])
        assert (out / "manifest.json").exists() == (code == 0)
    assert code in (0, 2, 3)
    assert "Traceback" not in stderr.getvalue()
    if code:
        assert stderr.getvalue().splitlines()[-1].startswith(("config error: ", "i/o error: "))
