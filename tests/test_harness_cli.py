import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import halc
from halc import harness, theory
from halc.cli import SCENARIOS, main
from halc.decoding import SAMPLING_MODES, DecodeConfig, decode_greedy, decode_halc
from halc.errors import InvalidInputError, InvalidParameterError
from halc.config import MAX_THEOREM_SCORES, ScorerSpec, TheoremSection
from halc.harness import (
    CostModel,
    cost_estimate,
    decode_corpus,
    emit_profile_curve,
    grid_fovs,
    resolve_scorer,
    run_ablations,
    run_compare,
    run_length_curve,
    run_oracle_study,
    run_theorem_verify,
    verify_cost_accounting,
    write_csv,
    write_manifest,
)
from halc.metrics import chair
from halc.schema import parse, write
from halc.world import (
    CORPUS_DETECTOR_ETA,
    DEMO_DETECTOR_ETA,
    CorpusSpec,
    DetectorSim,
    demo_scene,
    generate_corpus,
    noisy_match_score,
    oracle_match_score,
    random_match_score,
)

DET = DetectorSim(CORPUS_DETECTOR_ETA)


def read_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------


def test_cost_sequential_ratio_exact():
    estimate = cost_estimate(CostModel(tokens=64, t_lvlm=1.0, t_detector=0.0, n=4, trigger_rate=0.35))
    assert estimate.sequential_ratio == 2.4


def test_cost_zero_trigger_rate():
    estimate = cost_estimate(CostModel(trigger_rate=0.0))
    assert estimate.sequential_ratio == 1.0
    assert estimate.parallel_ratio == 1.0


def test_cost_parallel_worst_case_exact():
    estimate = cost_estimate(CostModel(t_lvlm=1.0, t_detector=1.0, n=4, trigger_rate=0.35))
    assert estimate.parallel_ratio == 1.7


def test_cost_ratio_affine_in_rate_and_n():
    rates = (0.1, 0.2, 0.3)
    vals = [cost_estimate(CostModel(trigger_rate=r, n=4)).sequential_ratio for r in rates]
    assert vals[2] - vals[1] == pytest.approx(vals[1] - vals[0], abs=1e-12)
    ns = (2, 4, 6)
    vals = [cost_estimate(CostModel(trigger_rate=0.35, n=n)).sequential_ratio for n in ns]
    assert vals[2] - vals[1] == pytest.approx(vals[1] - vals[0], abs=1e-12)


def test_cost_accounting_greedy_and_halc(demo):
    cfg = DecodeConfig(seed=7)
    greedy = decode_greedy(None, demo, cfg)
    model = CostModel(n=cfg.n)
    assert verify_cost_accounting(greedy.trace, model)
    corrected = decode_halc(None, DetectorSim(DEMO_DETECTOR_ETA), oracle_match_score, None, demo, cfg)
    assert verify_cost_accounting(corrected.trace, model)


def test_cost_accounting_rejects_tampering(demo):
    cfg = DecodeConfig(seed=7)
    result = decode_greedy(None, demo, cfg)
    result.trace.model_calls += 1
    assert not verify_cost_accounting(result.trace, CostModel(n=cfg.n))


# ---------------------------------------------------------------------------
# Compare scenario
# ---------------------------------------------------------------------------


def test_compare_trap_corpus_improvement(small_trap_corpus):
    rows = run_compare(small_trap_corpus, DecodeConfig(seed=3), 3, detector=DET)
    by_method = {r["method"]: r for r in rows}
    assert by_method["halc"]["chair_i"] < by_method["greedy"]["chair_i"]
    assert set(by_method) == {"greedy", "beam", "halc"}


def test_compare_trap_free_corpus_all_clean(small_clean_corpus):
    rows = run_compare(small_clean_corpus, DecodeConfig(seed=3), 3, detector=DET)
    for row in rows:
        assert row["chair_s"] == 0.0
        assert row["chair_i"] == 0.0


def test_compare_rerun_byte_identical(tmp_path, small_trap_corpus):
    paths = []
    for name in ("a", "b"):
        rows = run_compare(small_trap_corpus, DecodeConfig(seed=3), 3, detector=DET)
        path = tmp_path / f"{name}.csv"
        write_csv(path, rows)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


# ---------------------------------------------------------------------------
# Oracle study scenario
# ---------------------------------------------------------------------------


def test_oracle_study_fully_correctable_corpus():
    spec = CorpusSpec(scene_count=20, trap_fraction=1.0, correctable_fraction=1.0,
                      clauses=3, trap_clauses=(1, 2))
    scenes = generate_corpus(19, 20, spec)
    report = run_oracle_study(scenes, DecodeConfig(seed=1))
    assert report.total_observed == 20
    assert report.elimination_rate == 1.0


def test_oracle_study_single_cell_grid_never_corrects():
    spec = CorpusSpec(scene_count=10, trap_fraction=1.0, correctable_fraction=1.0,
                      clauses=3, trap_clauses=(1, 2))
    scenes = generate_corpus(19, 10, spec)
    report = run_oracle_study(scenes, DecodeConfig(seed=1), positions=1, scales=(1.0,))
    assert report.elimination_rate == 0.0


def test_grid_size():
    image = demo_scene().image
    assert len(grid_fovs(image, positions=8, scales=(0.1, 0.2))) == 128


# ---------------------------------------------------------------------------
# Theorem scenario
# ---------------------------------------------------------------------------


def test_theorem_verify_rows_have_bounds():
    rows = run_theorem_verify({"trials": 1000, "n_values": [2, 4]}, seed=5)
    assert rows
    for row in rows:
        assert 0.0 <= row["empirical_miss"] <= 1.0
        assert 0.0 <= row["analytic_miss"] <= 1.0
        assert row["violation_fraction"] <= 0.05


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ablation_tables(small_trap_corpus):
    return run_ablations(
        small_trap_corpus,
        DecodeConfig(seed=2),
        2,
        {"scorer_seeds": [2, 3, 4, 5, 6]},
    )


def test_lambda_sweep_emits_five_rows(ablation_tables):
    assert len(ablation_tables["lambda"]) == 5


def test_detector_init_beats_random(ablation_tables):
    rows = {r["init"]: r for r in ablation_tables["init"]}
    assert rows["detector"]["chair_i"] < rows["random"]["chair_i"]


def test_random_scorer_never_beats_oracle(ablation_tables):
    rows = {r["scorer"]: r for r in ablation_tables["scorer"]}
    assert rows["oracle"]["chair_i"] <= rows["random"]["chair_i"]


def test_beam_sweep_rows(ablation_tables):
    assert [r["k"] for r in ablation_tables["beam"]] == [1, 2, 3, 5, 8]


# ---------------------------------------------------------------------------
# Length curve
# ---------------------------------------------------------------------------


def test_length_curve_rows(small_trap_corpus):
    rows = run_length_curve(small_trap_corpus, DecodeConfig(seed=5), [8, 16], detector=DET)
    assert len(rows) == 4
    greedy = [r for r in rows if r["method"] == "greedy"]
    assert greedy[0]["max_tokens"] == 8


def test_length_curve_rejects_an_empty_grid(small_trap_corpus):
    with pytest.raises(InvalidInputError, match="^max-token grid must be nonempty$"):
        run_length_curve(small_trap_corpus, DecodeConfig(seed=5), [])


# Trapped and untrapped scenes, with captions long enough to reach the traps.
LENGTH_SPEC = CorpusSpec(scene_count=4, trap_fraction=0.5, clauses=3, trap_clauses=(1, 2))


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("mode", SAMPLING_MODES)
def test_length_curve_is_chair_over_decode_corpus_at_each_budget(mode, k):
    # Each budget's row and traces are those of the corpus decode that
    # compare runs at that max_tokens, scene i seeded with seed + i.
    scenes = generate_corpus(31, 4, LENGTH_SPEC)
    scene_map = {scene.scene_id: scene for scene in scenes}
    config = DecodeConfig(sampling_mode=mode, k=k, seed=13)
    scorer = resolve_scorer("noisy", seed=13)
    grid = [4, 12, 40]
    got_traces = []
    got = run_length_curve(scenes, config, grid, scorer=scorer, trace_sink=got_traces)
    want, want_traces = [], []
    for method in ("greedy", "halc"):
        for budget in grid:
            cfg = dataclasses.replace(config, max_tokens=budget)
            captions, traces = decode_corpus(scenes, method, cfg, scorer=scorer)
            report = chair(captions, scene_map)
            want.append({"method": method, "max_tokens": budget, "objects": report.mentions,
                         "hallucinated": report.hallucinated_mentions,
                         "chair_i": report.chair_i})
            want_traces.extend(traces)
    assert [list(map(repr, row.items())) for row in got] == [
        list(map(repr, row.items())) for row in want
    ]
    assert [json.dumps(t.to_json()) for t in got_traces] == [
        json.dumps(t.to_json()) for t in want_traces
    ]


@pytest.mark.parametrize("count", [0, 2], ids=["no-scenes", "two-scenes"])
def test_decode_corpus_rejects_an_unknown_method_before_any_decode(small_trap_corpus, count):
    scenes = small_trap_corpus[:count]
    refuse = mock.Mock(side_effect=AssertionError("decoded"))
    with mock.patch.object(harness, "decode_greedy", refuse), \
            mock.patch.object(harness, "decode_beam", refuse), \
            mock.patch.object(harness, "decode_halc", refuse), \
            pytest.raises(InvalidParameterError, match="^unknown decode method 'vcd'$"):
        decode_corpus(scenes, "vcd", DecodeConfig(seed=5))
    refuse.assert_not_called()


def test_cli_compare_and_length_curve_agree_at_the_same_budget(tmp_path):
    # Random windows draw from the decode seed, so only one seeding rule
    # gives both scenarios the same HALC captions at max_tokens 64.
    cfg = _config_file(tmp_path, {"seed": 21, "corpus": {"count": 40},
                                  "decode": {"sampling_mode": "random"}})
    for scenario in ("compare", "length-curve"):
        assert main([scenario, "--config", str(cfg), "--out", str(tmp_path / scenario)]) == 0
    compare = {row["method"]: row for row in read_csv(tmp_path / "compare" / "compare.csv")}
    curve = read_csv(tmp_path / "length-curve" / "length_curve.csv")
    halc_64 = [row for row in curve if (row["method"], row["max_tokens"]) == ("halc", "64")]
    assert [row["hallucinated"] for row in halc_64] == ["10"]
    assert halc_64[0]["chair_i"] == compare["halc"]["chair_i"] == "0.011904761904761904"


# ---------------------------------------------------------------------------
# Profile curve
# ---------------------------------------------------------------------------


def test_profile_curve_demo_shape(demo):
    grid = [round(-2.0 + 0.5 * i, 6) for i in range(11)]
    rows = emit_profile_curve(
        demo,
        ["beach", "clock", "surfboard"],
        grid,
        detector=DetectorSim(DEMO_DETECTOR_ETA),
        anchor_token="surfboard",
    )
    assert len(rows) == 3 * len(grid)
    series = {}
    for row in rows:
        series.setdefault(row["token"], []).append(row["logprob"])
    beach = series["beach"]
    assert max(beach) - min(beach) < 0.5
    clock = series["clock"]
    peak = clock.index(max(clock))
    assert 0 < peak < len(clock) - 1


def test_profile_curve_token_textures(demo):
    # Qualitative shapes: stable objects flat, the hallucination shifting
    # monotonically, the decoy noisy, the victim peaked.
    grid = [round(-2.0 + 0.25 * i, 6) for i in range(21)]
    rows = emit_profile_curve(
        demo,
        ["beach", "man", "clock", "surfboard", "book"],
        grid,
        detector=DetectorSim(DEMO_DETECTOR_ETA),
        anchor_token="surfboard",
    )
    series = {}
    for row in rows:
        series.setdefault(row["token"], []).append(row["logprob"])

    def direction_changes(vals):
        return sum(
            1
            for i in range(1, len(vals) - 1)
            if (vals[i] - vals[i - 1]) * (vals[i + 1] - vals[i]) < 0
        )

    assert max(series["beach"]) - min(series["beach"]) < 0.5
    assert max(series["man"]) - min(series["man"]) < 0.5
    assert direction_changes(series["surfboard"]) == 0
    assert direction_changes(series["book"]) >= 5
    assert max(series["clock"]) - min(series["clock"]) > 2.0


def test_profile_curve_single_point(demo):
    rows = emit_profile_curve(demo, ["beach"], [0.0], detector=DetectorSim(DEMO_DETECTOR_ETA))
    assert len(rows) == 1


def test_profile_curve_unknown_token(demo):
    with pytest.raises(InvalidInputError):
        emit_profile_curve(demo, ["nope"], [0.0])


# ---------------------------------------------------------------------------
# CSV plumbing
# ---------------------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    rows = [{"a": 1.5, "b": "x"}, {"a": 2.25, "b": "y"}]
    path = tmp_path / "t.csv"
    write_csv(path, rows)
    back = read_csv(path)
    assert [{"a": float(r["a"]), "b": r["b"]} for r in back] == rows


def test_write_csv_refuses_empty(tmp_path):
    with pytest.raises(InvalidInputError):
        write_csv(tmp_path / "e.csv", [])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

CLI_CORPUS = {"count": 6, "trap_fraction": 0.5, "clauses": 2, "trap_clauses": [1]}
TOO_LARGE = "cost model values are too large: the estimate overflows, from "
# The keys an exponential theorem row names after exp_epsilon, v_star and eta_scale.
EXP_ROW = "lam 0.6, r_min -5.0 and r_max 5.0: "
# ablate's "original" init row grows its windows by (1 - 0.99999)**-63, which
# overflows, where the decode section's own exponential windows do not.
ABLATE_ORIGINAL_OVERFLOWS = {
    "decode": {"lam": -0.99999, "n": 64, "m": 1, "max_tokens": 4},
    "corpus": {"count": 2, "trap_fraction": 0, "noun_pool": 30},
}
# Theorem values that only an exponential theorem row rejects, where
# theorem-verify builds it: 1 + lam rounds to 1, or the detection's norm
# overflows.
THEOREM_ROW_VALUES = [
    {"theorem": {"lam": 1e-17}},
    {"theorem": {"eta_scale": 1.7976931348623157e308}},
    {"theorem": {"eta_scale": 4e307}},
]


def _config_file(tmp_path, extra=None):
    doc = {"seed": 4, "corpus": CLI_CORPUS, "decode": {"max_tokens": 24}}
    doc.update(extra or {})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_requires_seed(capsys):
    assert main(["compare"]) == 2


def test_cli_bad_config_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["compare", "--config", str(bad), "--seed", "1"]) == 2


def test_cli_config_not_utf8_exits_2_with_one_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"seed": \xff}')
    out = tmp_path / "out"
    assert main(["compare", "--config", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config file is not valid JSON")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "extra,named",
    [
        ({"detector_eta": [1, 2]}, "detector_eta must be a list of 4 values"),
        ({"decode": [1, 2]}, "decode section must be a JSON object"),
        ({"corpus": {"bogus": 1}}, "unknown corpus keys ['bogus']"),
        ({"seed": "abc"}, "seed must be an integer"),
        ({"decode": {"seed": "abc"}}, "decode seed must be an integer"),
        ({"decode": {"lam": "x"}}, "decode lam must be a finite number"),
        ({"decode": {"max_tokens": 2.5}}, "decode max_tokens must be an integer"),
        ({"seed": -1}, "seed must be nonnegative"),
        ({"decode": {"seed": -1}}, "decode seed must be nonnegative"),
        ({"decod": {"lam": 0.5}}, "unknown top-level keys ['decod']"),
        ({"corpus": {"count": 2.5}}, "corpus count must be an integer"),
        ({"corpus": {"image_width": "x"}}, "corpus image_width must be a finite number, got 'x'"),
        ({"corpus": {"image_width": float("inf")}}, "corpus image_width must be a finite number"),
        ({"corpus": {"filler_count": 2.5}}, "corpus filler_count must be an integer"),
        ({"corpus": {"trap_clauses": [-9]}}, "corpus trap_clauses "),
        ({"corpus": {"trap_clauses": [], "trap_fraction": 0}}, "corpus trap_clauses "),
        ({"corpus": {"path": 0}}, "corpus path must be a string"),
        ({"corpus": {"path": True}}, "corpus path must be a string"),
        ({"corpus": {"scene_count": 3}}, "unknown corpus keys ['scene_count']"),
        ({"corpus": {"clauses": 0, "trap_fraction": 0}}, "corpus clauses must be at least 1"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"seed": "3"}, "seed must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"corpus": {"count": 10**30}}, "corpus count must lie in [1, 10000]"),
        ({"corpus": {"path": "c2.json", "count": 5}}, "corpus count cannot be given with path"),
        ({"decode": {"sampling_mode": "detector"}}, "decode sampling_mode must be one of"),
        ({"theorem": {"trials": 5}}, "theorem trials must be at least 100, got 5"),
        ({"theorem": {"n_values": [2, 0]}}, "theorem n_values must be at least 1, got (2, 0)"),
        ({"theorem": {"epsilons": [0.5, 0.0]}}, "theorem epsilons must be positive"),
        ({"theorem": {"sigmas": [-1.0]}}, "theorem sigmas must be positive, got (-1.0,)"),
        ({"theorem": {"exp_epsilon": 0}}, "theorem exp_epsilon must be positive, got 0"),
        ({"theorem": {"lam": -3.0}}, "theorem lam must be positive, got -3.0"),
        ({"theorem": {"amp": 800}}, "theorem amp must be at most 709.78"),
        ({"theorem": {"r_min": 5.0}}, "theorem r_min must be less than r_max, got 5.0"),
        ({"theorem": {"r_min": 1.0, "r_max": -1.0}}, "theorem r_min must be less than r_max"),
        ({"theorem": {"trials": 10**30}}, "theorem trials x max(n_values) must be at most 10000000"),
        ({"theorem": {"n_values": [2, 10**30]}}, "theorem trials x max(n_values) must be at most"),
        ({"decode": {"n": 5000, "m": 1}}, "decode n must lie in [2, 64], got 5000"),
        ({"corpus": {"noun_pool": 10**9}}, "corpus count x (noun_pool + filler_count) must"),
        ({"corpus": {"filler_count": 10**9}}, "corpus count x (noun_pool + filler_count) must"),
        ({"oracle_study": {"grid_positions": 10**6}}, "oracle_study grid_positions squared x "),
        ({"decode": {"lam": 1e300}}, "growth (1 + 1e+300)**2 overflows"),
        ({"decode": {"exponent_offset": 100000}}, "growth (1 + 0.6)**100000 overflows"),
        (
            {"decode": {"exponent_offset": -100000}},
            "decode exponent_offset is out of range: growth (1 + 0.6)**-100000 underflows to 0",
        ),
        (
            {"decode": {"sampling_mode": "original", "lam": -0.99999999, "n": 64, "m": 1}},
            "decode lam is out of range: growth (1 + -0.99999999)**-63 overflows",
        ),
        ({"decode": {"lam": -2}}, "decode lam must be greater than -1, got -2"),
        ({"decode": {"sigma": 0, "sampling_mode": "normal"}}, "decode sigma must be positive, got 0"),
        ({"decode": {"sigma": 0}}, "decode sigma must be positive, got 0"),
        ({"ablate": {"lambdas": [0.5, -1.0]}}, "ablate lambdas must be greater than -1, got (0.5, -1.0)"),
        ({"decode": {"idk_confidence": -5.0}}, "decode idk_confidence must lie in [0, 1], got -5.0"),
        ({"decode": {"idk_confidence": 7.0}}, "decode idk_confidence must lie in [0, 1], got 7.0"),
        ({"detector_confidence": -5.0}, "detector_confidence must lie in [0, 1], got -5.0"),
        ({"detector_confidence": 7.0}, "detector_confidence must lie in [0, 1], got 7.0"),
    ],
    ids=[
        "short-detector-eta",
        "decode-not-object",
        "unknown-corpus-key",
        "non-integer-seed",
        "non-integer-decode-seed",
        "string-decode-lam",
        "fractional-max-tokens",
        "negative-seed",
        "negative-decode-seed",
        "unknown-top-level-key",
        "fractional-corpus-count",
        "string-image-width",
        "infinite-image-width",
        "fractional-filler-count",
        "negative-trap-clause",
        "empty-trap-clauses",
        "int-corpus-path",
        "bool-corpus-path",
        "scene-count-spelling",
        "zero-clauses",
        "fractional-seed",
        "string-seed",
        "bool-seed",
        "huge-corpus-count",
        "corpus-path-with-count",
        "detector-sampling-alias",
        "theorem-few-trials",
        "theorem-zero-n",
        "theorem-zero-epsilon",
        "theorem-negative-sigma",
        "theorem-zero-exp-epsilon",
        "theorem-negative-lam",
        "theorem-amp-overflows-exp",
        "theorem-r-min-at-r-max",
        "theorem-r-range-reversed",
        "theorem-huge-trials",
        "theorem-huge-n",
        "huge-decode-n",
        "huge-noun-pool",
        "huge-filler-count",
        "huge-oracle-grid",
        "overflowing-decode-lam",
        "overflowing-exponent-offset",
        "underflowing-exponent-offset",
        "overflowing-original-lam-near-minus-one",
        "decode-lam-at-most-minus-one",
        "zero-sigma-normal-sampling",
        "zero-sigma-exponential-sampling",
        "ablate-lambda-at-most-minus-one",
        "negative-idk-confidence",
        "idk-confidence-above-one",
        "negative-detector-confidence",
        "detector-confidence-above-one",
    ],
)
def test_cli_malformed_config_exits_2_with_one_line(tmp_path, capsys, extra, named):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 1, **extra}))
    out = tmp_path / "out"
    assert main(["decode", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1
    assert named in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "theorem",
    [
        {"trials": "abc"},
        {"epsilons": ["x"]},
        [1, 2],
        {"n_values": 4},
        {"etas": [[1, 2]]},
        {"v_star": [1, 2]},
        {"bogus": 1},
        {"samplers": []},
        {"samplers": ["exponential"], "eta_scale": -1.0, "trials": 100, "n_values": [2]},
        {"samplers": ["normal"], "epsilons": [1e300], "trials": 100, "n_values": [2]},
        {"sigmas": [1e-200]},
        {"samplers": ["normal"], "sigmas": [1e200], "trials": 100, "n_values": [2]},
        {"trials": 10**30},
        {"n_values": [10**30]},
    ],
    ids=[
        "string-trials",
        "string-epsilon",
        "section-not-object",
        "n-values-not-list",
        "short-eta",
        "short-v-star",
        "unknown-key",
        "empty-grid",
        "zero-size-detection",
        "overflowing-epsilon",
        "sigma-square-underflows",
        "huge-normal-sigma",
        "huge-trials",
        "huge-n",
    ],
)
def test_cli_malformed_theorem_config_exits_2_with_one_line(tmp_path, capsys, theorem):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"theorem": theorem}))
    out = tmp_path / "out"
    assert main(["theorem-verify", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1
    assert not (out / "manifest.json").exists()


# The whole line of each emit-curve r_grid case: the entry, and the decode
# lam its window grows by.
EMIT_CURVE_ERRORS = {
    1e308: "emit_curve r_grid 1e+308 and decode lam 0.6: growth (1 + 0.6)**1e+308 overflows",
    1e20: "emit_curve r_grid 1e+20 and decode lam 0.6: growth (1 + 0.6)**1e+20 overflows",
    -2000: "emit_curve r_grid -2000 and decode lam 0.6: fov dimensions must be positive",
}


@pytest.mark.parametrize(
    "scenario,extra",
    [
        ("compare", {"compare": {"pope_count": "x"}}),
        ("compare", {"compare": [1]}),
        ("compare", {"compare": {"pope_mode": "bogus"}}),
        ("compare", {"compare": {"pope_count": 0}}),
        ("compare", {"compare": {"beta": 1e300}}),
        ("oracle-study", {"oracle_study": [1]}),
        ("oracle-study", {"oracle_study": {"grid_scales": []}}),
        ("ablate", {"ablate": 3}),
        ("ablate", {"ablate": {"pope_mode": "bogus"}}),
        ("ablate", {"ablate": {"inits": []}}),
        ("emit-curve", {"emit_curve": {"tokens": 5}}),
        ("emit-curve", {"emit_curve": {"r_grid": [1e308]}}),
        ("emit-curve", {"emit_curve": {"r_grid": [1e20]}}),
        ("emit-curve", {"emit_curve": {"r_grid": [-2000]}}),
        ("emit-curve", {"emit_curve": {"tokens": ["zzz"]}}),
        ("emit-curve", {"emit_curve": {"anchor": "zzz"}}),
        ("length-curve", {"length_curve": {"grid": 3}}),
        ("length-curve", {"length_curve": {"grid": []}}),
        ("decode", {"scene_index": "abc"}),
        ("decode", {"scene_index": True}),
        ("decode", {"detector_confidence": "x"}),
    ],
    ids=[
        "string-pope-count",
        "compare-not-object",
        "unknown-pope-mode",
        "zero-pope-count",
        "overflowing-f-beta-weight",
        "oracle-study-not-object",
        "empty-grid-scales",
        "ablate-not-object",
        "unknown-ablate-pope-mode",
        "empty-ablate-inits",
        "emit-tokens-not-list",
        "overflowing-emit-r",
        "overflowing-emit-growth",
        "underflowing-emit-window",
        "emit-token-outside-vocabulary",
        "emit-anchor-outside-vocabulary",
        "length-grid-not-list",
        "empty-length-grid",
        "string-scene-index",
        "bool-scene-index",
        "string-detector-confidence",
    ],
)
def test_cli_malformed_section_exits_2_with_one_line(tmp_path, capsys, scenario, extra):
    cfg = _config_file(tmp_path, {"corpus": {**CLI_CORPUS, "count": 2}, **extra})
    out = tmp_path / "out"
    assert main([scenario, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1
    assert not (out / "manifest.json").exists()
    section = extra.get("emit_curve", {})
    for r in section.get("r_grid", []):
        assert err == f"config error: {EMIT_CURVE_ERRORS[r]}\n"
    for key in ("tokens", "anchor"):
        if section.get(key) in (["zzz"], "zzz"):
            assert err == f"config error: emit_curve {key} 'zzz' not in scene vocabulary\n"


def test_cli_emit_curve_anchor_without_grounding_is_an_io_error(tmp_path, capsys):
    # "[END]" is in every scene's vocabulary, but the detector grounds no
    # box for it: that is the scene's data, not the config's.
    cfg = _config_file(tmp_path, {"emit_curve": {"anchor": "[END]"}})
    out = tmp_path / "out"
    assert main(["emit-curve", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "i/o error: no grounding available for '[END]'\n"


@pytest.mark.parametrize(
    "scenario,extra,named",
    [
        ("cost-model", {"cost_model": {"n": 2.5}}, "cost_model n "),
        ("cost-model", {"cost_model": {"tokens": True}}, "cost_model tokens "),
        ("cost-model", {"cost_model": {"n": "x"}}, "cost_model n "),
        ("cost-model", {"cost_model": {"n": [1]}}, "cost_model n "),
        ("cost-model", {"cost_model": {"trigger_rate": "x"}}, "cost_model trigger_rate "),
        ("cost-model", {"cost_model": {"t_lvlm": 0}}, "cost_model t_lvlm "),
        ("cost-model", {"cost_model": [1]}, "cost_model section"),
        # Values the float estimate cannot hold, named: an int too large to
        # convert, times that overflow, and a time ratio t_detector / t_lvlm
        # that overflows to inf, which either key set back to its default
        # keeps finite.
        ("cost-model", {"cost_model": {"tokens": 10**400}}, TOO_LARGE + "cost_model tokens\n"),
        ("cost-model", {"cost_model": {"n": 10**400}}, TOO_LARGE + "cost_model n\n"),
        ("cost-model", {"cost_model": {"t_lvlm": 1.7976931348623157e308}},
         TOO_LARGE + "cost_model t_lvlm\n"),
        ("cost-model", {"cost_model": {"t_detector": 1e308}}, TOO_LARGE + "cost_model t_detector\n"),
        (
            "cost-model",
            {"cost_model": {"t_lvlm": 1e-300, "t_detector": 1e300}},
            TOO_LARGE + "cost_model t_lvlm, t_detector\n",
        ),
        # Only both times set back make it finite; n alone is harmless.
        (
            "cost-model",
            {"cost_model": {"t_lvlm": 1e308, "t_detector": 1e308, "n": 5}},
            TOO_LARGE + "cost_model t_lvlm, t_detector\n",
        ),
        ("cost-model", {"cost_model": {"bogus": 1}}, "'bogus'"),
        ("decode", {"scorer": {"kind": "noisy", "bogus": 1}}, "'bogus'"),
        ("compare", {"scorer": {"kind": "oracle", "amp": 0.2}}, "'amp'"),
        ("ablate", {"ablate": {"scorers": [{"kind": "random", "bogus": 1}]}}, "'bogus'"),
        ("ablate", {"ablate": {"detector_eta": [12, -9, 7, 5]}}, "ablate keys ['detector_eta']"),
        ("cost-model", {"corpus": {"count": 2.5}}, "corpus count "),
        ("cost-model", {"corpus": {"image_width": 0}}, "corpus image_width "),
    ],
    ids=[
        "fractional-n",
        "bool-tokens",
        "string-n",
        "list-n",
        "string-trigger-rate",
        "zero-t-lvlm",
        "cost-model-not-object",
        "huge-tokens",
        "huge-n",
        "largest-t-lvlm",
        "huge-t-detector",
        "infinite-ratio",
        "huge-times-beside-a-harmless-n",
        "unknown-cost-model-key",
        "unknown-noisy-scorer-key",
        "amp-on-oracle-scorer",
        "unknown-ablate-scorer-key",
        "ablate-section-detector",
        "cost-model-with-bad-corpus",
        "cost-model-with-zero-image-width",
    ],
)
def test_cli_malformed_cost_model_or_scorer_exits_2_naming_the_key(
    tmp_path, capsys, scenario, extra, named
):
    cfg = _config_file(tmp_path, {"corpus": {**CLI_CORPUS, "count": 2}, **extra})
    out = tmp_path / "out"
    assert main([scenario, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1
    assert named in err
    assert not (out / "manifest.json").exists()


def test_cli_cost_model_rows_for_valid_configs(tmp_path, capsys):
    cfg = _config_file(tmp_path, {"cost_model": {"tokens": 10, "n": 3, "t_detector": 0.5}})
    out = tmp_path / "out"
    assert main(["cost-model", "--config", str(cfg), "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "cost_model.csv").open()))
    expected = cost_estimate(CostModel(tokens=10, n=3, t_detector=0.5)).to_json()
    assert rows == [
        {"tokens": "10", "t_lvlm": "1.0", "t_detector": "0.5", "n": "3", "trigger_rate": "0.35",
         **{key: str(value) for key, value in expected.items()}}
    ]


def test_failed_manifest_write_leaves_no_files(tmp_path):
    with pytest.raises(TypeError):
        write_manifest(tmp_path, "decode", 1, {"unserializable": object()})
    assert list(tmp_path.iterdir()) == []


def test_cli_missing_corpus_file(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 1, "corpus": {"path": str(tmp_path / "gone.json")}}))
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 3
    assert not (out / "manifest.json").exists()


def test_cli_corpus_file_without_image_exits_3_with_one_line(tmp_path, capsys, small_clean_corpus):
    from halc.world import save_corpus

    corpus_path = tmp_path / "corpus.json"
    save_corpus(small_clean_corpus, corpus_path)
    doc = json.loads(corpus_path.read_text())
    del doc["scenes"][0]["image"]
    corpus_path.write_text(json.dumps(doc))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 2, "corpus": {"path": str(corpus_path)}}))
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: malformed corpus file ")
    assert err.count("\n") == 1
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("scenario", ["compare", "ablate", "oracle-study", "length-curve"])
@pytest.mark.parametrize(
    "image,got",
    [
        ({"image_width": 1e308}, "1e+308 x 1000.0"),
        ({"image_width": 1e160, "image_height": 1e160}, "1e+160 x 1e+160"),
        ({"image_width": 1e-200, "image_height": 1e-200}, "1e-200 x 1e-200"),
    ],
    ids=["wide", "both-large", "underflow"],
)
def test_cli_corpus_image_area_out_of_range_exits_2_naming_the_keys(
    tmp_path, capsys, scenario, image, got
):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 1, "corpus": {**image, "count": 3}}))
    out = tmp_path / "out"
    assert main([scenario, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    area = "corpus image_width x image_height must be a finite positive area"
    want = f"config error: {area}, got {got}\n"
    assert err == want
    assert not out.exists()


ORACLE_IMAGE = "corpus image_width 1000.0 and image_height 1000.0: "
# HALC windows shrunk by (1 + 1e300)**-1 around each detection: their area
# underflows once a scene decodes.
SHRUNK_WINDOWS = {
    "corpus": {"count": 3, "trap_fraction": 1.0},
    "decode": {"lam": 1e300, "n": 2, "m": 1, "max_tokens": 40},
}
SHRUNK_KEYS = "decode lam 1e+300, exponent_offset -1 and n 2: "


@pytest.mark.parametrize(
    "scenario,extra,named",
    [
        (
            "decode",
            {"corpus": {"count": 4}, "decode": {"exponent_offset": -820}},
            "decode lam 0.6, exponent_offset -820 and n 4: ",
        ),
        (
            "compare",
            {"corpus": {"count": 4}, "decode": {"exponent_offset": -830}},
            "decode lam 0.6, exponent_offset -830 and n 4: ",
        ),
        (
            "compare",
            {"corpus": {"count": 4, "image_width": 1e-160, "image_height": 1e-162}},
            "decode lam 0.6, exponent_offset -1 and n 4: ",
        ),
        (
            "decode",
            {
                "corpus": {"count": 4, "image_width": 1e154, "image_height": 1e154},
                "decode": {"exponent_offset": -1400},
            },
            "decode lam 0.6, exponent_offset -1400 and n 4: ",
        ),
        ("decode", SHRUNK_WINDOWS, SHRUNK_KEYS),
        ("compare", SHRUNK_WINDOWS, SHRUNK_KEYS),
        ("ablate", SHRUNK_WINDOWS, "ablate inits 'center': " + SHRUNK_KEYS),
        ("length-curve", SHRUNK_WINDOWS, SHRUNK_KEYS),
        # The keys named are those that size the sampling mode's windows.
        (
            "compare",
            {
                "corpus": {"count": 4, "image_width": 1e-160, "image_height": 1e-162},
                "decode": {"sampling_mode": "normal"},
            },
            "decode sigma 40.0 and n 4: ",
        ),
        (
            "compare",
            {
                "corpus": {"count": 4, "image_width": 1e-160, "image_height": 1e-162},
                "decode": {"sampling_mode": "random"},
            },
            "decode n 4: ",
        ),
        (
            "compare",
            {
                "corpus": {"count": 4},
                "decode": {"sampling_mode": "original", "lam": 1e300, "n": 2, "m": 1},
            },
            "decode lam 1e+300 and n 2: ",
        ),
        (
            "decode",
            {
                "corpus": {"count": 4, "image_width": 1e-160, "image_height": 1e-162},
                "decode": {"sampling_mode": "normal"},
            },
            "decode sigma 40.0 and n 4: ",
        ),
        (
            "decode",
            {
                "corpus": {"count": 4, "image_width": 1e-160, "image_height": 1e-162},
                "decode": {"sampling_mode": "random"},
            },
            "decode n 4: ",
        ),
        (
            "decode",
            {
                "corpus": {"count": 4},
                "decode": {"sampling_mode": "original", "lam": 1e300, "n": 2, "m": 1},
            },
            "decode lam 1e+300 and n 2: ",
        ),
        (
            "oracle-study",
            {"corpus": {"count": 2, "trap_fraction": 1.0}, "oracle_study": {"grid_scales": [1e-200]}},
            "oracle_study grid_scales 1e-200, " + ORACLE_IMAGE,
        ),
        (
            "oracle-study",
            {"corpus": {"count": 2, "trap_fraction": 1.0}, "oracle_study": {"grid_scales": [5e-324]}},
            "oracle_study grid_scales 5e-324, " + ORACLE_IMAGE,
        ),
    ],
    ids=[
        "decode-offset",
        "compare-offset",
        "compare-tiny-image",
        "decode-huge-image-positive-window",
        "decode-shrunk-windows",
        "compare-shrunk-windows",
        "ablate-shrunk-windows",
        "length-curve-shrunk-windows",
        "compare-normal-tiny-image",
        "compare-random-tiny-image",
        "compare-original-shrunk-windows",
        "decode-normal-tiny-image",
        "decode-random-tiny-image",
        "decode-original-shrunk-windows",
        "oracle-tiny-scale",
        "oracle-subnormal-scale",
    ],
)
def test_cli_window_area_ratio_underflow_exits_2_with_one_line(
    tmp_path, capsys, scenario, extra, named
):
    # A ContextShift profile takes the log of a window's area over the image
    # area; where that ratio underflows to 0, even for a window of positive
    # area, the run stops with one line instead of a traceback. A HALC
    # decode names the decode keys that size its windows, and an ablate row
    # its entry. The oracle study measures its grid windows before any
    # scene decodes, and names the scale and the image.
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 1, **extra}))
    out = tmp_path / "out"
    assert main([scenario, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {named}window area ")
    assert err.endswith(" underflows to 0\n")
    assert err.count("\n") == 1
    assert not (out / "manifest.json").exists()


def test_decode_halc_names_the_keys_that_size_its_windows():
    # The decoder itself names them, so a direct call reads as the CLI's.
    scene = generate_corpus(1, 3, CorpusSpec(scene_count=3, trap_fraction=1.0))[0]
    cfg = DecodeConfig(**SHRUNK_WINDOWS["decode"], seed=1)
    with pytest.raises(InvalidParameterError) as raised:
        decode_halc(None, DET, oracle_match_score, None, scene, cfg)
    assert str(raised.value).startswith(SHRUNK_KEYS + "window area ")


@pytest.mark.parametrize("scenario,key", [("compare", "compare.pope_count"), ("ablate", "ablate")])
@pytest.mark.parametrize(
    "corpus,absent",
    [({"count": 1}, 0), ({"clauses": 1, "noun_pool": 4, "count": 5, "trap_clauses": [0]}, 1)],
    ids=["one-scene", "small-pool"],
)
def test_cli_generated_corpus_too_small_for_pope_exits_2(
    tmp_path, capsys, scenario, key, corpus, absent
):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 1, "corpus": corpus}))
    out = tmp_path / "out"
    assert main([scenario, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (
        "config error: generated corpus keys count, clauses and noun_pool leave a scene "
        f"{absent} absent objects, fewer than the 3 POPE negatives of {key}\n"
    )
    assert not out.exists()


def test_cli_corpus_file_too_small_for_pope_exits_3(tmp_path, capsys):
    from halc.world import save_corpus

    corpus_path = tmp_path / "corpus.json"
    save_corpus(generate_corpus(1, 1, CorpusSpec(scene_count=1)), corpus_path)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 1, "corpus": {"path": str(corpus_path)}}))
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "i/o error: corpus vocabulary too small: 0 absent objects, need 3\n"
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_cli_theorem_ranges_fail_every_scenario(tmp_path, capsys, scenario):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"theorem": {"trials": 5, "sigmas": [-1.0], "lam": -3.0}}))
    out = tmp_path / "out"
    assert main([scenario, "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: theorem trials must be at least 100, got 5\n"
    assert not out.exists()


def _edit_profile(kind, key, value):
    def edit(doc):
        profile = next(o["profile"] for o in doc["objects"] if o["profile"]["kind"] == kind)
        profile[key] = value

    return edit


def _edit_region(key, value):
    def edit(doc):
        doc["objects"][0]["region"][key] = value

    return edit


@pytest.mark.parametrize(
    "edit, named",
    [
        (_edit_profile("noisy", "noise_seed", 1.5), "noisy profile noise_seed must be an integer"),
        (_edit_profile("context_shift", "slope", "0.8"), "context_shift profile slope "),
        (_edit_profile("noisy", "base", "1.5"), "noisy profile base must be a finite number"),
        (_edit_region("cx", "330"), "fov cx must be a finite number, got '330'"),
        (_edit_profile("stable_high", "level", "6"), "stable_high profile level "),
        (_edit_profile("peaking", "amp", True), "peaking profile amp "),
        (lambda doc: doc["image"].update(w="1280"), "image w "),
        (lambda doc: doc["cooccurrence"][0].__setitem__(2, "abc"), "cooccurrence bonus "),
        (lambda doc: doc["trap"].update(position=4.0), "trap position must be an integer"),
        (lambda doc: doc["skeleton"][1].update(candidates="abc"), "noun slot candidates must be a list"),
        (lambda doc: doc["objects"][0].update(ground_truth="no"), "object ground_truth must be true or false"),
        (lambda doc: doc["reference"].__setitem__(1, 7), "reference must be a string, got 7"),
        (lambda doc: doc.update(verbs="rides"), "verbs must be a list, got 'rides'"),
        (lambda doc: doc["trap"].update(correctable=1), "trap correctable must be true or false"),
    ],
    ids=[
        "fractional-noise-seed",
        "string-slope",
        "string-noisy-base",
        "string-region-cx",
        "string-stable-level",
        "bool-peak-amp",
        "string-image-width",
        "string-cooccurrence-bonus",
        "fractional-trap-position",
        "string-noun-candidates",
        "string-ground-truth",
        "int-reference-token",
        "string-verbs",
        "int-trap-correctable",
    ],
)
def test_cli_corpus_file_with_a_mistyped_number_exits_3_naming_the_key(
    tmp_path, capsys, demo, edit, named
):
    doc = write(demo)
    edit(doc)
    corpus_path = tmp_path / "corpus.json"
    corpus_path.write_text(json.dumps({"scenes": [doc]}))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 2, "corpus": {"path": str(corpus_path)}}))
    out = tmp_path / "out"
    assert main(["decode", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"i/o error: malformed corpus file {corpus_path}: ")
    assert err.count("\n") == 1
    assert named in err
    assert not (out / "manifest.json").exists()


def test_cli_emit_curve_on_a_scene_without_objects_exits_3_with_one_line(tmp_path, capsys, demo):
    doc = {**write(demo), "objects": [], "trap": None}
    corpus_path = tmp_path / "corpus.json"
    corpus_path.write_text(json.dumps({"scenes": [doc]}))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 2, "corpus": {"path": str(corpus_path)}}))
    out = tmp_path / "out"
    assert main(["emit-curve", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "i/o error: scene 'demo' has no object to anchor the curve\n"
    assert not (out / "manifest.json").exists()


def _run_on_corpus_file(tmp_path, capsys, doc, scenario="decode"):
    """The exit code and stderr of a scenario run on a corpus file holding `doc`."""
    corpus_path = tmp_path / "corpus.json"
    corpus_path.write_text(json.dumps(doc))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 2, "corpus": {"path": str(corpus_path)}}))
    out = tmp_path / "out"
    code = main([scenario, "--config", str(cfg), "--out", str(out)])
    assert not (out / "manifest.json").exists()
    return code, capsys.readouterr().err


def _peaking(doc):
    return next(o["profile"] for o in doc["objects"] if o["profile"]["kind"] == "peaking")


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda doc: doc.update(anchr="clock"), "unknown scene keys ['anchr']"),
        (lambda doc: doc["objects"][0].update(anchr="man"), "unknown object keys ['anchr']"),
        (lambda doc: doc["objects"][0]["region"].update(x=1), "unknown fov keys ['x']"),
        (lambda doc: _peaking(doc).update(sigma=1), "unknown peaking profile keys ['sigma']"),
        (lambda doc: _peaking(doc)["v_star"].update(cz=1), "unknown fov keys ['cz']"),
        (lambda doc: doc["skeleton"][0].update(tok="a"), "unknown word slot keys ['tok']"),
        (lambda doc: doc["trap"].update(victims=[]), "unknown trap keys ['victims']"),
        (lambda doc: doc["image"].update(d=3), "unknown image keys ['d']"),
        (
            lambda doc: doc["objects"][0]["profile"].update(kind="bumpy"),
            "object profile kind must be one of 'stable_high', 'peaking', 'context_shift', "
            "'noisy', got 'bumpy'",
        ),
        (
            lambda doc: doc["skeleton"][0].update(kind="adjective"),
            "scene skeleton kind must be one of 'word', 'noun', 'verb', got 'adjective'",
        ),
    ],
    ids=[
        "scene", "object", "region", "profile", "v-star", "slot", "trap", "image",
        "profile-kind", "slot-kind",
    ],
)
def test_cli_corpus_file_with_an_unknown_key_or_kind_exits_3_naming_it(
    tmp_path, capsys, demo, edit, named
):
    doc = write(demo)
    edit(doc)
    code, err = _run_on_corpus_file(tmp_path, capsys, {"scenes": [doc]})
    assert code == 3
    assert err == f"i/o error: malformed corpus file {tmp_path / 'corpus.json'}: {named}\n"


@pytest.mark.parametrize(
    "edit, token",
    [
        (lambda doc: doc["skeleton"][0].update(token="zzz"), "zzz"),
        (lambda doc: doc["cooccurrence"].append(["a", "zzz", 0.3]), "zzz"),
        (lambda doc: doc["vocabulary"].remove("[END]"), "[END]"),
        (lambda doc: doc["objects"].append({**doc["objects"][0], "name": "x"}), "x"),
    ],
    ids=["skeleton-token", "cooccurrence-token", "no-end-token", "object-name"],
)
def test_cli_corpus_file_naming_a_token_outside_the_vocabulary_exits_3_naming_it(
    tmp_path, capsys, demo, edit, token
):
    doc = write(demo)
    edit(doc)
    code, err = _run_on_corpus_file(tmp_path, capsys, {"scenes": [doc]})
    assert code == 3
    path = tmp_path / "corpus.json"
    assert err == (
        f"i/o error: malformed corpus file {path}: scene tokens [{token!r}] missing from vocabulary\n"
    )


@pytest.mark.parametrize(
    "wrap, named",
    [
        (lambda docs: {"scenes": docs, "meta": 1}, ": unknown corpus file keys ['meta']"),
        # The value shown is cut short, not the whole corpus.
        (lambda docs: docs, ": corpus file must be a JSON object, got [{"),
    ],
    ids=["unknown-key", "list"],
)
def test_cli_corpus_file_with_a_malformed_top_level_exits_3_with_one_short_line(
    tmp_path, capsys, small_clean_corpus, wrap, named
):
    docs = [write(s) for s in small_clean_corpus]
    code, err = _run_on_corpus_file(tmp_path, capsys, wrap(docs))
    assert code == 3
    assert named in err
    assert err.count("\n") == 1 and len(err) < 400


def test_cli_corpus_file_with_a_repeated_scene_id_exits_3_naming_it(tmp_path, capsys):
    # Scenes without an id all default to "scene"; keyed by id, the metrics
    # would score every caption against the last of them.
    docs = [write(s) for s in generate_corpus(3, 4, CorpusSpec(scene_count=4))]
    for doc in docs:
        del doc["id"]
    code, err = _run_on_corpus_file(tmp_path, capsys, {"scenes": docs}, "compare")
    assert code == 3
    path = tmp_path / "corpus.json"
    assert err == f"i/o error: malformed corpus file {path}: scene id 'scene' is repeated\n"


@pytest.mark.parametrize(
    "scenario", ["decode", "compare", "oracle-study", "ablate", "length-curve", "emit-curve"]
)
def test_cli_corpus_file_without_scenes_fails_every_corpus_scenario(tmp_path, capsys, scenario):
    code, err = _run_on_corpus_file(tmp_path, capsys, {"scenes": []}, scenario)
    assert code == 3
    path = tmp_path / "corpus.json"
    assert err == f"i/o error: malformed corpus file {path}: scenes must not be empty\n"


def test_cli_decode_demo(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["decode", "--seed", "7", "--out", str(out)]) == 0
    doc = json.loads((out / "decode.json").read_text())
    assert "surfboard" in doc["greedy"]["tokens"]
    assert "clock" in doc["halc"]["tokens"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"] == "decode"
    assert manifest["seed"] == 7


@pytest.mark.parametrize(
    "scenario",
    ["compare", "oracle-study", "ablate", "length-curve", "cost-model", "emit-curve"],
)
def test_cli_scenarios_rerun_byte_identical(tmp_path, scenario, capsys):
    cfg = _config_file(
        tmp_path,
        {
            "length_curve": {"grid": [8, 16]},
            "ablate": {"beams": [1, 2], "lambdas": [0.4, 0.6], "scorer_seeds": [4, 5]},
            "oracle_study": {"grid_positions": 4},
            "theorem": {"trials": 500, "n_values": [2]},
        },
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{scenario}-{name}"
        assert main([scenario, "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    files = sorted(p.name for p in outs[0].iterdir())
    assert files
    for f in files:
        assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()


def test_cli_ablate_names_mapping_scorers_as_given(tmp_path, capsys):
    ablate = {"inits": ["center"], "lambdas": [0.6], "beams": [1], "scorer_seeds": [4],
              "scorers": ["noisy", {"kind": "noisy", "amp": 0.2}]}
    cfg = _config_file(tmp_path, {"corpus": {**CLI_CORPUS, "count": 2}, "ablate": ablate})
    out = tmp_path / "out"
    assert main(["ablate", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "ablate_scorer.csv")
    assert [r["scorer"] for r in rows] == ["noisy", "{'kind': 'noisy', 'amp': 0.2}"]


def test_cli_ablate_uses_the_top_level_detector(tmp_path, capsys):
    ablate = {"inits": ["detector"], "lambdas": [0.6], "beams": [1], "scorers": ["oracle"],
              "scorer_seeds": [4]}
    detectors = {
        "default": {},
        "same": {"detector_eta": list(CORPUS_DETECTOR_ETA), "detector_confidence": 0.3},
        "whole-image-box": {"detector_eta": [2000, 2000, 0, 0]},
        "trap-blind": {"detector_confidence": 0.6},
    }
    tables = {}
    for name, detector in detectors.items():
        cfg = _config_file(tmp_path, {"ablate": ablate, **detector})
        out = tmp_path / name
        assert main(["ablate", "--config", str(cfg), "--out", str(out)]) == 0
        tables[name] = [(out / f"ablate_{t}.csv").read_bytes() for t in ("init", "beam")]
    assert tables["default"] == tables["same"]
    assert tables["whole-image-box"] != tables["default"] != tables["trap-blind"]


def test_resolve_scorer_kinds_and_specs(demo):
    tokens = ["a", "man", "holds", "a", "surfboard"]

    def score(scorer):
        return scorer(tokens, demo)

    assert score(resolve_scorer("oracle", 3)) == score(oracle_match_score)
    assert score(resolve_scorer("random", 3)) == score(random_match_score(3))
    assert score(resolve_scorer("noisy", 3)) == score(noisy_match_score(0.1, 3))
    noisy = resolve_scorer(ScorerSpec(kind="noisy", amp=0.4), 3)
    assert score(noisy) == score(noisy_match_score(0.4, 3))
    assert score(noisy) != score(resolve_scorer("noisy", 3))
    assert score(resolve_scorer("random", 3)) != score(resolve_scorer("random", 4))


def test_cli_decode_seed_defaults_to_the_run_seed(tmp_path, capsys):
    traces = []
    for name, decode in (("run", {}), ("same", {"seed": 7}), ("other", {"seed": 8})):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"seed": 7, "decode": {"sampling_mode": "random", **decode}}))
        out = tmp_path / name
        assert main(["decode", "--config", str(cfg), "--out", str(out)]) == 0
        traces.append((out / "trace_halc.json").read_bytes())
    assert traces[0] == traces[1] != traces[2]


def test_cli_demo_scene_uses_the_demo_detector(tmp_path, capsys, demo):
    out = tmp_path / "out"
    assert main(["decode", "--seed", "7", "--out", str(out)]) == 0
    written = json.loads((out / "trace_halc.json").read_text())
    traces = {
        eta: json.loads(json.dumps(decode_halc(
            None, DetectorSim(eta), oracle_match_score, None, demo, DecodeConfig(seed=7)
        ).trace.to_json()))
        for eta in (DEMO_DETECTOR_ETA, CORPUS_DETECTOR_ETA)
    }
    assert written == traces[DEMO_DETECTOR_ETA] != traces[CORPUS_DETECTOR_ETA]


@pytest.mark.parametrize(
    "scenario,samplers",
    [("decode", ["normal", "exponential"]), ("theorem-verify", ["exponential"])],
    ids=["decode", "theorem-verify"],
)
def test_cli_huge_sigma_runs_where_nothing_squares_it(tmp_path, capsys, scenario, samplers):
    # A sigma of 1e200 overflows in s**2. Only a normal grid point's constant
    # squares it, and only theorem-verify builds the grid points, so only
    # theorem-verify with that sampler on rejects it (exit 2, tested below).
    theorem = {"sigmas": [1e200], "samplers": samplers, "trials": 100, "n_values": [2]}
    cfg = _config_file(tmp_path, {"theorem": theorem})
    out = tmp_path / "out"
    assert main([scenario, "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()


def _cli_process(tmp_path, doc, scenario="theorem-verify"):
    """`python -m halc.cli <scenario> --seed 1` on the config `doc` in a
    fresh interpreter, whose stderr (unlike capsys) shows numpy's warnings."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    source = str(Path(halc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "out"
    args = [scenario, "--config", str(cfg), "--seed", "1", "--out", str(out)]
    result = subprocess.run(
        [sys.executable, "-m", "halc.cli", *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    return result, out


def test_loading_a_config_imports_neither_the_theory_module_nor_scipy():
    # Each theorem grid point's constant is checked where theorem-verify
    # builds it, not with the rest of the config: halc.theory imports
    # scipy.special, which would slow and grow every other scenario.
    code = (
        "import sys, halc.cli; halc.cli.load_config(None, 1); "
        "print(sorted(m for m in sys.modules if m == 'halc.theory' or m.startswith('scipy')))"
    )
    source = str(Path(halc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


def test_cli_huge_theorem_values_run_silently_with_exact_norms(tmp_path):
    # eta_norm and the window distances are 1e200, whose squares overflow.
    theorem = {"etas": [[1e200, 0, 0]], "epsilons": [1e300], "sigmas": [1e-10],
               "samplers": ["normal"], "n_values": [2], "trials": 100}
    result, out = _cli_process(tmp_path, {"theorem": theorem})
    assert (result.returncode, result.stderr) == (0, "")
    (row,) = read_csv(out / "theorem.csv")
    assert float(row["eta_norm"]) == 1e200
    assert float(row["analytic_c"]) == 1.0
    assert float(row["empirical_miss"]) == 0.0


def test_cli_huge_lam_draws_its_trials_silently(tmp_path):
    # (1 + lam)**r overflows to inf for every positive exponent r.
    theorem = {"lam": 1e300, "samplers": ["exponential"], "n_values": [2], "trials": 100}
    result, out = _cli_process(tmp_path, {"theorem": theorem})
    assert (result.returncode, result.stderr) == (0, "")
    (row,) = read_csv(out / "theorem.csv")
    assert float(row["empirical_miss"]) == 1.0


def test_cli_detection_at_infinity_reads_no_hits(tmp_path):
    # v_star + eta overflows to an infinite detection width, which no window
    # scale brings within epsilon of the optimum.
    theorem = {"v_star": [1e308, 0, 0], "eta_scale": 1.0, "samplers": ["exponential"],
               "n_values": [2], "trials": 100}
    result, out = _cli_process(tmp_path, {"theorem": theorem})
    assert (result.returncode, result.stderr) == (0, "")
    (row,) = read_csv(out / "theorem.csv")
    assert float(row["analytic_c"]) == 0.0
    assert float(row["analytic_miss"]) == float(row["empirical_miss"]) == 1.0
    assert float(row["violation_fraction"]) == 0.0


def test_cli_alpha_beyond_its_cap_prints_one_line(tmp_path):
    # Uncapped, the contrast overflowed: numpy warned, then the step
    # rejected the logits as an i/o error.
    result, out = _cli_process(tmp_path, {"decode": {"alpha": 1e308}}, "decode")
    assert result.returncode == 2
    assert result.stderr.startswith("config error: decode alpha")
    assert result.stderr.count("\n") == 1
    assert not (out / "manifest.json").exists()


def test_cli_overflowing_normal_sigma_prints_one_line(tmp_path):
    result, out = _cli_process(tmp_path, {"theorem": {"sigmas": [1e200]}})
    assert result.returncode == 2
    assert result.stderr.startswith(
        "config error: theorem epsilons 0.5, etas (0.0, 0.0, 0.0) and sigmas 1e+200: "
    )
    assert result.stderr.count("\n") == 1
    assert not (out / "manifest.json").exists()


def test_cli_noncentrality_beyond_the_ball_mass_prints_one_line(tmp_path):
    # chndtr gives NaN at a noncentrality |eta|^2 / sigma^2 of 1e200.
    theorem = {"etas": [[1e100, 0, 0]], "epsilons": [1.0], "sigmas": [1.0],
               "samplers": ["normal"], "n_values": [2], "trials": 100}
    result, out = _cli_process(tmp_path, {"theorem": theorem})
    assert result.returncode == 2
    assert result.stderr == (
        "config error: theorem epsilons 1.0, etas (1e+100, 0, 0) and sigmas 1.0: "
        "the hit constant C is NaN\n"
    )
    assert result.stderr.count("\n") == 1
    assert not (out / "manifest.json").exists()
    assert not (out / "theorem.csv").exists()


@pytest.mark.parametrize(
    "scenario,doc,named",
    [
        ("theorem-verify", {"theorem": {"sigmas": [1e200]}},
         "theorem epsilons 0.5, etas (0.0, 0.0, 0.0) and sigmas 1e+200: the hit constant C "
         "overflows"),
        ("theorem-verify", {"theorem": {"epsilons": [1e300]}},
         "theorem epsilons 1e+300, etas (0.0, 0.0, 0.0) and sigmas 0.5: the hit constant C "
         "overflows"),
        ("theorem-verify", {"theorem": {"exp_epsilon": 1e300}},
         "theorem exp_epsilon 1e+300, v_star (4.0, 4.0, 0.0), eta_scale 0.5, " + EXP_ROW
         + "the hit constant C overflows"),
        ("theorem-verify", {"theorem": {"etas": [[1.7e308, 1.7e308, 0]], "samplers": ["normal"],
                                        "n_values": [2], "trials": 100}},
         "theorem epsilons 0.5, etas (1.7e+308, 1.7e+308, 0) and sigmas 0.5: the norm of eta "
         "overflows"),
        ("theorem-verify", {"theorem": {"eta_scale": 1e300}}, "eta_scale 1e+300"),
        ("theorem-verify", {"theorem": {"v_star": [1.7e308, 1.7e308, 0], "lam": 1e300}},
         "theorem v_star (1.7e+308, 1.7e+308, 0), eta_scale 0.5, lam 1e+300, r_min -5.0 and "
         "r_max 5.0: a window scale (1 + lam)**r of 0 or inf times a detected side of inf or 0 "
         "is NaN"),
        ("theorem-verify", {"theorem": {"v_star": [0, 4, 0], "lam": 1e300}},
         "theorem v_star (0, 4, 0), eta_scale 0.5, lam 1e+300, r_min -5.0 and r_max 5.0: a "
         "window scale"),
        ("theorem-verify", {"theorem": {"v_star": [1e300, 4, 0]}}, "v_star (1e+300, 4, 0)"),
        ("theorem-verify", {"theorem": {"exp_epsilon": 0.05}},
         "theorem exp_epsilon 0.05, v_star (4.0, 4.0, 0.0), eta_scale 0.5, " + EXP_ROW
         + "center offset exceeds the neighborhood radius"),
        ("theorem-verify", {"theorem": {"eta_scale": -1}},
         "theorem exp_epsilon 1.0, v_star (4.0, 4.0, 0.0), eta_scale -1, " + EXP_ROW
         + "the detection window must have a nonzero size"),
        ("theorem-verify", {"theorem": {"r_min": -1e308, "r_max": 1e308}},
         "theorem r_min must keep r_max - r_min finite, got -1e+308"),
        ("ablate", {"ablate": {"lambdas": [0.6, 1e300]}},
         "ablate lambdas 1e+300: decode lam is out of range: growth (1 + 1e+300)**2 overflows"),
        ("compare", {"corpus": {"count": 2, "image_width": 5e-324}},
         "corpus image_width 5e-324 and image_height 1000.0 are too small for a scene's windows"),
        ("ablate", ABLATE_ORIGINAL_OVERFLOWS,
         "ablate inits 'original': decode lam is out of range: growth (1 + -0.99999)**-63 "
         "overflows"),
        ("theorem-verify", THEOREM_ROW_VALUES[0],
         "theorem exp_epsilon 1.0, v_star (4.0, 4.0, 0.0), eta_scale 0.5, lam 1e-17, r_min -5.0 "
         "and r_max 5.0: lambda must be positive, with 1 + lambda above 1"),
        ("theorem-verify", THEOREM_ROW_VALUES[1],
         "theorem exp_epsilon 1.0, v_star (4.0, 4.0, 0.0), eta_scale 1.7976931348623157e+308, "
         + EXP_ROW + "the norm of eta overflows"),
        ("theorem-verify", THEOREM_ROW_VALUES[2],
         "theorem exp_epsilon 1.0, v_star (4.0, 4.0, 0.0), eta_scale 4e+307, " + EXP_ROW
         + "the norm of eta overflows"),
        ("oracle-study", {"seed": 1, "corpus": {"count": 2, "trap_fraction": 1.0},
                          "oracle_study": {"grid_scales": [1e-320], "grid_positions": 1}},
         "oracle_study grid_scales 1e-320, corpus image_width 1000.0 and image_height 1000.0: "
         "window area 0.0 over image area 1000000.0 underflows to 0"),
        ("oracle-study", {"seed": 1, "corpus": {"count": 2, "trap_fraction": 1.0,
                                                "image_height": 1e-300},
                          "oracle_study": {"grid_scales": [1e-30], "grid_positions": 1}},
         "oracle_study grid_scales 1e-30, corpus image_width 1000.0 and image_height 1e-300: "
         "fov dimensions must be positive"),
    ],
    ids=["sigma", "epsilon", "exp-epsilon", "eta-norm", "eta-scale", "scale-0-x-inf",
         "scale-inf-x-0", "v-star", "exp-epsilon-in-the-offset", "zero-size-detection",
         "r-range", "ablate-lambda", "subnormal-image-width", "ablate-init-original",
         "theorem-lam-lost-beside-1", "theorem-eta-scale-overflows-detection",
         "theorem-eta-scale-overflows-detection-norm", "oracle-grid-area-underflows",
         "oracle-grid-window-has-no-height"],
)
def test_cli_overflowing_value_exits_2_naming_its_key_before_the_run(
    tmp_path, capsys, scenario, doc, named
):
    # These failed in the bound's constants (a Python float ** 2, the
    # exponential sampling conditions), in DecodeConfig's check of an ablate
    # sweep's decode config, in a generated scene's windows or in the oracle
    # study's grid windows, and named no key, or decode lam, or were
    # rejected by the theorem section in every scenario. They are rejected,
    # naming their keys, before any trial is drawn or any scene decoded.
    cfg = _config_file(tmp_path, {"corpus": {**CLI_CORPUS, "count": 2}, **doc})
    out = tmp_path / "out"
    refuse = mock.Mock(side_effect=AssertionError("ran"))
    with mock.patch.object(theory, "draw_trials", refuse), \
            mock.patch.object(harness, "decode_corpus", refuse), \
            mock.patch.object(harness, "decode_greedy", refuse):
        assert main([scenario, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert named in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "scenario,doc",
    [("decode", doc) for doc in [*THEOREM_ROW_VALUES, ABLATE_ORIGINAL_OVERFLOWS]]
    + [("theorem-verify", {"theorem": {"lam": 1e-17, "samplers": ["normal"], "n_values": [2],
                                       "trials": 100}})],
    ids=["decode-theorem-lam-lost-beside-1", "decode-theorem-eta-scale-overflows-detection",
         "decode-theorem-eta-scale-overflows-detection-norm", "decode-ablate-init-original",
         "theorem-lam-beside-normal-rows-only"],
)
def test_cli_values_of_rows_the_run_never_builds_run_cleanly(tmp_path, capsys, scenario, doc):
    # Each value above fails only in a row that this run does not build: no
    # normal theorem row reads lam, and decode builds no theorem or ablate row.
    cfg = _config_file(tmp_path, doc)
    assert main([scenario, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


def test_theorem_scores_are_capped_by_trials_times_pairs():
    # A trial set holds 16 bytes a trial for each of its (eta, sigma) pairs.
    grid = {"etas": [[0, 0, 0], [0.8, 0.6, 0], [1, 0, 0], [0, 1, 0]], "sigmas": [0.5, 1, 1.5, 2],
            "n_values": [1]}
    refuse = mock.Mock(side_effect=AssertionError("ran"))
    with mock.patch.object(theory, "draw_trials", refuse), \
            pytest.raises(InvalidParameterError) as error:
        run_theorem_verify({**grid, "trials": 10_000_000})
    assert str(error.value) == (
        "theorem trials x the (eta, sigma) pairs of a trial set must be at most 40000000, "
        "got 10000000 x 16"
    )
    assert MAX_THEOREM_SCORES == 40_000_000
    # At the cap, and with exponential sampling only, whose set has 1 pair.
    assert parse(TheoremSection, {**grid, "trials": 2_500_000, "n_values": [4]}, "theorem")
    assert parse(TheoremSection, {**grid, "trials": 10_000_000, "samplers": ["exponential"]},
                 "theorem")
    # Duplicate pairs share their scores.
    doubled = {**grid, "etas": grid["etas"] * 2, "sigmas": grid["sigmas"] * 2}
    assert parse(TheoremSection, {**doubled, "trials": 2_500_000, "n_values": [4]}, "theorem")


def test_cli_theorem_verify(tmp_path, capsys):
    cfg = _config_file(tmp_path, {"theorem": {"trials": 500, "n_values": [2]}})
    out = tmp_path / "tv"
    assert main(["theorem-verify", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "theorem.csv")
    assert rows


def test_cli_seed_flag_overrides_config(tmp_path, capsys):
    cfg = _config_file(tmp_path)
    out_a = tmp_path / "seed-cfg"
    out_b = tmp_path / "seed-flag"
    assert main(["compare", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["compare", "--config", str(cfg), "--seed", "99", "--out", str(out_b)]) == 0
    manifest = json.loads((out_b / "manifest.json").read_text())
    assert manifest["seed"] == 99
    assert json.loads((out_a / "manifest.json").read_text())["seed"] == 4


def test_cli_decode_scene_index(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 4, "corpus": CLI_CORPUS, "scene_index": 2}))
    out = tmp_path / "out"
    assert main(["decode", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "decode.json").read_text())
    assert doc["scene"] == "scene0002"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"seed": 4, "corpus": CLI_CORPUS, "scene_index": 50}))
    assert main(["decode", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2


def test_cli_manifest_reproduces_run(tmp_path, capsys):
    cfg = _config_file(tmp_path)
    first = tmp_path / "first"
    assert main(["compare", "--config", str(cfg), "--out", str(first)]) == 0
    second = tmp_path / "second"
    manifest = first / "manifest.json"
    assert main(["compare", "--config", str(manifest), "--out", str(second)]) == 0
    assert (first / "compare.csv").read_bytes() == (second / "compare.csv").read_bytes()


def test_cli_manifest_rerun_keeps_the_seed_flag(tmp_path, capsys):
    cfg = _config_file(tmp_path)
    first = tmp_path / "first"
    assert main(["compare", "--config", str(cfg), "--seed", "99", "--out", str(first)]) == 0
    second = tmp_path / "second"
    assert main(["compare", "--config", str(first / "manifest.json"), "--out", str(second)]) == 0
    assert (first / "compare.csv").read_bytes() == (second / "compare.csv").read_bytes()
    assert (first / "manifest.json").read_bytes() == (second / "manifest.json").read_bytes()


def test_cli_corpus_file_input(tmp_path, capsys, small_clean_corpus):
    from halc.world import save_corpus

    corpus_path = tmp_path / "corpus.json"
    save_corpus(small_clean_corpus, corpus_path)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 2, "corpus": {"path": str(corpus_path)}}))
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "compare.csv")
    assert all(float(r["chair_i"]) == 0.0 for r in rows)
