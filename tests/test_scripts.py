"""Smoke tests of the command-line scripts, run in-process at small sizes."""

import json
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(monkeypatch, capsys, name, *args) -> list[str]:
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_verify_bounds_prints_a_bound_row_per_sampler_and_n(monkeypatch, capsys):
    header, *lines = _run(monkeypatch, capsys, "verify_bounds.py", "--trials", "200")
    assert header.split() == [
        "sampler", "n", "C", "miss(mc)", "miss(an)", "bound", "E[min", "dev]", "viol%",
    ]
    rows = [line.split() for line in lines]
    assert [(r[0], int(r[1])) for r in rows] == [
        (sampler, n) for sampler in ("normal", "exponential") for n in (1, 2, 4, 8, 16)
    ]
    for _, _, c, miss_mc, miss_an, bound, mean_dev, violations in rows:
        assert 0 < float(c) < 1
        assert 0 <= float(miss_mc) <= 1 and 0 <= float(miss_an) <= 1
        assert float(mean_dev) <= float(bound)
        assert 0 <= float(violations) <= 100


def test_run_demo_shows_the_corrected_caption(monkeypatch, capsys):
    greedy, halc, _, *steps = _run(monkeypatch, capsys, "run_demo.py")
    assert greedy.startswith("greedy : ") and "surfboard" in greedy
    assert halc.startswith("halc   : ") and "clock" in halc and "surfboard" not in halc
    assert any(line.startswith("step ") and "-> chosen 'clock'" in line for line in steps)
    assert steps[-1].startswith("model calls ")


def test_reproduce_results_writes_every_scenario_with_its_manifest(monkeypatch, capsys, tmp_path):
    out = tmp_path / "results"
    with pytest.raises(SystemExit) as exited:
        _run(monkeypatch, capsys, "reproduce_results.py", "--scenes", "2", "--out", str(out))
    assert exited.value.code == 0
    scenarios = ["decode", "compare", "oracle-study", "theorem-verify", "length-curve", "ablate",
                 "cost-model", "emit-curve"]
    assert sorted(p.name for p in out.iterdir()) == sorted(scenarios)
    for scenario in scenarios:
        manifest = json.loads((out / scenario / "manifest.json").read_text())
        assert manifest["scenario"] == scenario
