"""Malformed config documents through the CLI: every run ends with exit
code 0, 2 (config error) or 3 (I/O error) and never with a traceback.

The documents mix valid, wrong-typed, wrong-length and unknown values in
the `theorem` and `decode` sections, in the sections of the corpus
scenarios (`compare`, `oracle_study`, `ablate`, `emit_curve`,
`length_curve`), in the `corpus` section and among the top-level keys
(`seed`, `scene_index`, `detector_eta`, `detector_confidence`, `scorer`
and unknown ones); the valid values include combinations that
TheoremConfig, DecodeConfig, CorpusSpec or the exponential-sampling
conditions reject. The valid numbers include extremes and boundaries: the
smallest subnormal, 1 -+ 1 ulp, about ln of the largest float, the largest
float and -0.0. Sizes are capped (trials <= 500, at most two n values <= 8,
a 2-scene corpus, short captions, small grids) so that each run takes
milliseconds.

`test_fuzzed_config_keeps_the_whole_exit_contract` holds every run to the
whole exit contract: exit 0 leaves an empty stderr and no nan or inf in any
CSV or JSON it wrote, and exit 2 or 3 prints exactly one line.
`test_fuzzed_theorem_vectors_keep_the_whole_exit_contract` holds valid
theorem sections that always carry `etas` to it; some pool vectors are
huge in two or three positions, so that a norm overflows. The last two
tests are not fuzzed: they set every numeric key in turn (a vector key at
each of its positions, then at all of them) to the largest float, to
+-1e300 and, for an integer key, to the JSON integer 10**400, and then to
the in-range values 0, -0.0, 5e-324, 1e-300, 0.05, -1, 3 and 1e20, and
hold each run to that contract with one more rule, that an exit 2 names
the key.
"""

import contextlib
import csv
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halc.cli import SCENARIOS, main
from halc.config import ABLATE_INITS
from halc.decoding import IDK_POLICIES, SAMPLING_MODES
from halc.metrics import POPE_MODES

WRONG = st.sampled_from(["abc", None, True, [1], {"a": 1}, 1e300, -1, 0, [1, 2], []])
EXTREMES = [5e-324, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 709.78,
            sys.float_info.max, -0.0]
NUMBER = st.sampled_from([0.25, 0.5, 1, 1.0, 2.0, *EXTREMES])
# The last three are huge in two or three positions, where a norm or a
# square overflows though each value alone is a float.
VECTOR = st.sampled_from([[0, 0, 0], [0.8, 0.6, 0.0], [4.0, 4.0, 0.0], [2, 1, 0.5],
                          [1.7e308, 1.7e308, 0], [1e300, -1e300, 1e300],
                          [sys.float_info.max] * 3])

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
    "eta_scale": st.sampled_from([0.5, 0.25, -1.0, -2.0, *EXTREMES]),
    "exp_epsilon": st.sampled_from([0.05, 1.0, 2.0, *EXTREMES]),
    "lam": NUMBER,
    "r_min": st.sampled_from([-5.0, -1.0]),
    "r_max": st.sampled_from([5.0, 1.0]),
}
DECODE_REQUIRED = {"max_tokens": st.sampled_from([1, 4, 8])}
DECODE_OPTIONAL = {
    "lam": st.sampled_from([0.4, 0.6, *EXTREMES]),
    "n": st.sampled_from([2, 3, 4]),
    "m": st.sampled_from([1, 2, 3]),
    "k": st.sampled_from([1, 2]),
    "alpha": st.sampled_from([0.0, 0.05, *EXTREMES]),
    "beta": st.sampled_from([0.1, 0.5, *EXTREMES]),
    "sampling_mode": st.sampled_from(SAMPLING_MODES),
    "sigma": st.sampled_from([20.0, 40.0, *EXTREMES]),
    "idk_policy": st.sampled_from(IDK_POLICIES),
    "idk_confidence": st.sampled_from([0.3, 0.9, *EXTREMES]),
    "seed": st.integers(0, 9),
    "exponent_offset": st.sampled_from([-1, 0]),
}


@st.composite
def sections(draw, required, optional, wrong=True):
    """A section of valid values in which, if `wrong`, up to two keys,
    possibly unknown ones, carry a wrong-typed or wrong-length value, and
    now and then the whole section is such a value."""
    if wrong and draw(st.integers(0, 9)) == 0:
        return draw(WRONG)
    section = draw(st.fixed_dictionaries(required, optional=optional))
    if not wrong:
        return section
    keys = sorted({*required, *optional, "bogus"})
    for key in draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)):
        section[key] = draw(WRONG)
    return section


CORPUS = {"count": 2, "trap_fraction": 0.5, "clauses": 2, "trap_clauses": [1]}


@st.composite
def theorem_and_decode_docs(draw, wrong=True):
    scenario = draw(st.sampled_from(["decode", "theorem-verify"]))
    doc = {
        "seed": draw(st.integers(0, 9)),
        "corpus": CORPUS,
        "theorem": draw(sections(THEOREM_REQUIRED, THEOREM_OPTIONAL, wrong)),
        "decode": draw(sections(DECODE_REQUIRED, DECODE_OPTIONAL, wrong)),
    }
    return scenario, doc


@settings(max_examples=120, deadline=None)
@given(case=theorem_and_decode_docs())
def test_fuzzed_config_exits_0_2_or_3_without_traceback(case):
    _assert_clean_exit(*case)


def _run(scenario, doc):
    """The run's exit code, its stderr, and the nan and inf values of the
    CSV and JSON files it wrote."""
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "c.json"
        cfg.write_text(json.dumps(doc))
        out = Path(tmp) / "out"
        with contextlib.redirect_stderr(stderr):
            code = main([scenario, "--config", str(cfg), "--out", str(out)])
        assert (out / "manifest.json").exists() == (code == 0)
        return code, stderr.getvalue(), _nonfinite_values(out)


def _nonfinite_values(out):
    found = []
    for path in sorted(out.rglob("*")):
        if path.suffix == ".csv":
            with open(path, newline="", encoding="utf-8") as fh:
                found += [cell for row in csv.reader(fh) for cell in row if _nonfinite_text(cell)]
        elif path.suffix == ".json":
            found += [v for v in _leaves(json.loads(path.read_text())) if _nonfinite_number(v)]
    return found


def _nonfinite_text(cell):
    if cell.lstrip("-").isdigit():  # an integer, exact however long (a 10**400 from the config)
        return False
    try:
        return not math.isfinite(float(cell))
    except ValueError:
        return False


def _nonfinite_number(value):
    return isinstance(value, float) and not math.isfinite(value)


def _leaves(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def _assert_clean_exit(scenario, doc):
    code, stderr, _ = _run(scenario, doc)
    assert code in (0, 2, 3)
    assert "Traceback" not in stderr
    if code:
        assert stderr.splitlines()[-1].startswith(("config error: ", "i/o error: "))


SCENARIO_KEYS = {
    "compare": {
        "pope_mode": st.sampled_from(POPE_MODES),
        "pope_count": st.integers(1, 3),
        "beta": NUMBER,
    },
    "oracle_study": {
        "grid_positions": st.integers(1, 2),
        "grid_scales": st.lists(st.sampled_from([0.2, 0.5, 1.0, *EXTREMES]), min_size=1,
                                max_size=2),
    },
    "ablate": {
        "pope_mode": st.sampled_from(POPE_MODES),
        "scorer_seeds": st.lists(st.integers(0, 9), min_size=1, max_size=2),
        "inits": st.lists(st.sampled_from(ABLATE_INITS), min_size=1, max_size=2),
        "lambdas": st.lists(st.sampled_from([0.4, 0.6, -1.0, *EXTREMES]), min_size=1, max_size=2),
        "beams": st.lists(st.integers(1, 2), min_size=1, max_size=2),
        "scorers": st.lists(
            st.sampled_from(["oracle", "random", "noisy", {"kind": "noisy", "amp": 0.2}]),
            min_size=1,
            max_size=2,
        ),
    },
    "emit_curve": {
        "tokens": st.sampled_from([None, [], ["the", "."], ["nope"]]),
        "r_grid": st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1e308, -2000, *EXTREMES]), max_size=2),
        "anchor": st.sampled_from([None, "the"]),
    },
    "length_curve": {"grid": st.lists(st.integers(1, 8), min_size=1, max_size=2)},
}


@st.composite
def scenario_section_docs(draw, wrong=True):
    scenario = draw(st.sampled_from(
        ["compare", "oracle-study", "ablate", "emit-curve", "length-curve", "decode"]
    ))
    options = {name: sections({}, keys, wrong) for name, keys in SCENARIO_KEYS.items()}
    doc = {
        "seed": draw(st.integers(0, 9)),
        "corpus": CORPUS,
        "decode": {"max_tokens": 4},
        "scene_index": draw(st.one_of(st.integers(-1, 2), WRONG) if wrong else st.integers(0, 1)),
        "detector_confidence": draw(st.one_of(st.just(0.3), WRONG) if wrong else NUMBER),
        **draw(st.fixed_dictionaries({}, optional=options)),
    }
    return scenario, doc


@settings(max_examples=80, deadline=None)
@given(case=scenario_section_docs())
def test_fuzzed_scenario_sections_exit_0_2_or_3_without_traceback(case):
    _assert_clean_exit(*case)


CORPUS_REQUIRED = {
    "count": st.one_of(st.integers(1, 2), st.just(10**30)),
    "clauses": st.sampled_from([2, 3]),
    "trap_clauses": st.lists(st.integers(-1, 3), max_size=2),
}
CORPUS_OPTIONAL = {
    "trap_fraction": st.sampled_from([0, 0.5, 1.0, 1.5]),
    "correctable_fraction": st.sampled_from([0.0, 1.0]),
    "noun_pool": st.sampled_from([7, 24]),
    "filler_count": st.sampled_from([0, 4]),
    "image_width": st.sampled_from([100, 1000.0, *EXTREMES]),
    "image_height": st.sampled_from([100, 1000.0, *EXTREMES]),
    "path": st.just("no-such-corpus.json"),
}
TOP_LEVEL_OPTIONAL = {
    "scene_index": st.integers(-1, 2),
    "detector_eta": st.sampled_from([[12, -9, 7, 5], [30.0, 30.0, 20.0, -15.0]]),
    "detector_confidence": st.sampled_from([0.1, 0.3, *EXTREMES]),
    "scorer": st.sampled_from(
        ["oracle", "random", "noisy", {"kind": "noisy", "amp": 0.2}, {"kind": "random"}]
    ),
}
# Small settings of the sections that are not fuzzed here.
SMALL_SECTIONS = {
    "decode": {"max_tokens": 4},
    "theorem": {"trials": 100, "n_values": [2], "samplers": ["exponential"]},
    "oracle_study": {"grid_positions": 1, "grid_scales": [1.0]},
    "ablate": {"inits": ["center"], "lambdas": [0.6], "beams": [1], "scorers": ["oracle"],
               "scorer_seeds": [1]},
    "length_curve": {"grid": [2]},
}


@st.composite
def top_level_docs(draw, wrong=True):
    scenario = draw(st.sampled_from(SCENARIOS))
    doc = draw(sections(
        {"seed": st.integers(0, 9), "corpus": sections(CORPUS_REQUIRED, CORPUS_OPTIONAL, wrong)},
        TOP_LEVEL_OPTIONAL,
        wrong,
    ))
    if isinstance(doc, dict):
        doc = {**SMALL_SECTIONS, **doc}
    return scenario, doc


@settings(max_examples=100, deadline=None)
@given(case=top_level_docs())
def test_fuzzed_top_level_and_corpus_exit_0_2_or_3_without_traceback(case):
    _assert_clean_exit(*case)


@settings(max_examples=200, deadline=None)
@given(case=st.one_of(*(
    docs(wrong) for docs in (theorem_and_decode_docs, scenario_section_docs, top_level_docs)
    for wrong in (False, True)
)))
def test_fuzzed_config_keeps_the_whole_exit_contract(case):
    _assert_whole_contract(*case)


# A valid theorem section that always holds etas, whose norms may overflow.
@settings(max_examples=40, deadline=None)
@given(theorem=sections(
    {**THEOREM_REQUIRED, "etas": THEOREM_OPTIONAL["etas"]},
    {key: pool for key, pool in THEOREM_OPTIONAL.items() if key != "etas"},
    wrong=False,
))
def test_fuzzed_theorem_vectors_keep_the_whole_exit_contract(theorem):
    _assert_whole_contract("theorem-verify", {"seed": 1, "corpus": CORPUS, "theorem": theorem})


def _assert_whole_contract(scenario, doc):
    code, stderr, nonfinite = _run(scenario, doc)
    if code == 0:
        assert stderr == ""
        assert nonfinite == []
    else:
        assert code in (2, 3)
        assert stderr.count("\n") == 1 and stderr.endswith("\n")


def _listed(v):
    return [v]


def _scalar(v):
    return v


def _vector(base):
    """A vector key's shapes: the number at each position of `base` in turn,
    then at every position."""
    at = [lambda v, i=i: [v if j == i else x for j, x in enumerate(base)] for i in range(len(base))]
    return [*at, lambda v: [v] * len(base)]


# Every numeric key of the document (None: the top level), with the JSON
# shapes its number takes.
EDGE_KEYS = {
    "decode": dict.fromkeys(["lam", "alpha", "beta", "sigma", "idk_confidence", "n", "m", "k",
                             "max_tokens", "seed", "exponent_offset"], [_scalar]),
    "corpus": {
        **dict.fromkeys(["trap_fraction", "correctable_fraction", "image_width", "image_height",
                         "count", "clauses", "noun_pool", "filler_count"], [_scalar]),
        "trap_clauses": [_listed],
    },
    "cost_model": dict.fromkeys(["t_lvlm", "t_detector", "trigger_rate", "tokens", "n"], [_scalar]),
    "compare": dict.fromkeys(["beta", "pope_count"], [_scalar]),
    "oracle_study": {"grid_scales": [_listed], "grid_positions": [_scalar]},
    "ablate": dict.fromkeys(["lambdas", "scorer_seeds", "beams"], [_listed]),
    "length_curve": {"grid": [_listed]},
    "emit_curve": {"r_grid": [_listed]},
    "theorem": {
        **dict.fromkeys(["amp", "eta_scale", "exp_epsilon", "lam", "r_min", "r_max", "trials"],
                        [_scalar]),
        **dict.fromkeys(["sigmas", "epsilons", "n_values"], [_listed]),
        "v_star": _vector([4.0, 4.0, 0.0]),
        "etas": [lambda v, at=at: [at(v)] for at in _vector([0.8, 0.6, 0.0])],
    },
    None: {
        **dict.fromkeys(["detector_confidence", "seed", "scene_index"], [_scalar]),
        "detector_eta": _vector([12, -9, 7, 5]),
        "scorer": [lambda v: {"kind": "noisy", "amp": v}],
    },
}
# The integer keys, which take the JSON integer 10**400 as well.
INTEGER_KEYS = {
    "n", "m", "k", "max_tokens", "seed", "exponent_offset", "count", "clauses", "noun_pool",
    "filler_count", "trap_clauses", "tokens", "pope_count", "grid_positions", "scorer_seeds",
    "beams", "grid", "trials", "n_values", "scene_index",
}
# The scenario that reads each section; the top-level keys are read by decode.
EDGE_SCENARIOS = {
    "decode": "decode", "corpus": "compare", "cost_model": "cost-model", "compare": "compare",
    "oracle_study": "oracle-study", "ablate": "ablate", "length_curve": "length-curve",
    "emit_curve": "emit-curve", "theorem": "theorem-verify", None: "decode",
}
EDGE_VALUES = {"max": sys.float_info.max, "1e300": 1e300, "-1e300": -1e300, "10**400": 10**400}
# Values inside the float range, at and near the boundaries of the keys'
# ranges, each given to every numeric key.
IN_RANGE_VALUES = {"0": 0, "-0.0": -0.0, "5e-324": 5e-324, "1e-300": 1e-300, "0.05": 0.05,
                   "-1": -1, "3": 3, "1e20": 1e20}


def _key_cases(values, applies=lambda key, value: True):
    for section, keys in EDGE_KEYS.items():
        for key, shapes in keys.items():
            for position, shape in enumerate(shapes):
                for label, value in values.items():
                    if applies(key, value):
                        name = f"{section or 'top'}-{key}-{position}-{label}"
                        yield pytest.param(section, key, shape(value), id=name)


def _edge_value_applies(key, value):
    return isinstance(value, float) or key in INTEGER_KEYS


@pytest.mark.parametrize("section,key,value", list(_key_cases(EDGE_VALUES, _edge_value_applies)))
def test_every_numeric_key_at_the_overflow_edge_runs_or_names_itself(section, key, value):
    _assert_runs_or_names_its_key(section, key, value)


@pytest.mark.parametrize("section,key,value", list(_key_cases(IN_RANGE_VALUES)))
def test_every_numeric_key_at_in_range_values_runs_or_names_itself(section, key, value):
    _assert_runs_or_names_its_key(section, key, value)


def _assert_runs_or_names_its_key(section, key, value):
    doc = {"seed": 1, "corpus": dict(CORPUS), **SMALL_SECTIONS,
           "theorem": {"trials": 100, "n_values": [2]}}
    if section is None:
        doc[key] = value
    else:
        doc[section] = {**doc.get(section, {}), key: value}
    code, stderr, nonfinite = _run(EDGE_SCENARIOS[section], doc)
    if code == 0:
        assert (stderr, nonfinite) == ("", [])
    else:
        assert code == 2
        assert stderr.count("\n") == 1 and stderr.endswith("\n")
        assert re.search(rf"\b{key}\b", stderr), stderr
