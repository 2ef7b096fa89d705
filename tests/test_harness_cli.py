import json

import pytest

from halc.cli import main
from halc.decoding import DecodeConfig, decode_greedy, decode_halc
from halc.errors import InvalidInputError
from halc.harness import (
    CostModel,
    cost_estimate,
    emit_profile_curve,
    grid_fovs,
    read_csv,
    run_ablations,
    run_compare,
    run_length_curve,
    run_oracle_study,
    run_theorem_verify,
    verify_cost_accounting,
    write_csv,
    write_manifest,
)
from halc.world import (
    CORPUS_DETECTOR_ETA,
    DEMO_DETECTOR_ETA,
    CorpusSpec,
    DetectorSim,
    demo_scene,
    generate_corpus,
    oracle_match_score,
)

DET = DetectorSim(CORPUS_DETECTOR_ETA)


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


@pytest.mark.parametrize(
    "extra",
    [
        {"detector_eta": [1, 2]},
        {"decode": [1, 2]},
        {"corpus": {"bogus": 1}},
        {"seed": "abc"},
    ],
    ids=["short-detector-eta", "decode-not-object", "unknown-corpus-key", "non-integer-seed"],
)
def test_cli_malformed_config_exits_2_with_one_line(tmp_path, capsys, extra):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 1, **extra}))
    out = tmp_path / "out"
    assert main(["decode", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1
    assert not (out / "manifest.json").exists()


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


def test_report_csv_rows(demo):
    from halc.metrics import CaptionRecord, chair, opope

    cap = CaptionRecord.from_tokens(
        demo.scene_id, ["a", "man", "holds", "a", "surfboard"], demo.lexicon
    )
    chair_rows = chair([cap], {demo.scene_id: demo}).to_csv_rows()
    assert [r["metric"] for r in chair_rows] == ["chair_s", "chair_i"]
    queries = {demo.scene_id: (("man", "beach"), ("surfboard", "book"))}
    opope_rows = opope([cap], {demo.scene_id: demo}, queries).to_csv_rows()
    assert [r["metric"] for r in opope_rows] == [
        "accuracy", "precision", "recall", "f_beta",
    ]


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
