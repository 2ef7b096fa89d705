"""Golden output bytes: every scenario run at a small fixed size and seed
must write exactly the files it wrote when these digests were recorded,
`manifest.json` included. A change that claims to keep outputs identical is
checked here rather than by hand with `diff -r`.

numpy picks its exp and log loops by the CPU it runs on, and its AVX-512
loops round some results differently in the last bit from its AVX2 ones. So
each scenario runs in a child process with every dispatch target of numpy
switched off through NPY_DISABLE_CPU_FEATURES: numpy then runs only its
baseline loops, which every CPU its build supports has, and the digests are
those of that baseline on any such CPU. They were recorded with numpy 2.4.6
on x86-64, the version the CI job pins.

A scenario may have more than one case: `theorem-verify-jsd` runs
`theorem-verify` under JSD, and `decode-idk` runs `decode` with the
confidence abstention policy and a plausibility threshold low enough that
most contrast masks keep several tokens. To re-record after a deliberate output change,
run `python tests/test_golden_outputs.py OUT CASE` for every case under
the same environment (`_pinned_digests` shows it) and say in the change
which files moved and why.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__

import halc
from halc.cli import SCENARIOS, main

SMALL_CORPUS = {"count": 4, "clauses": 2, "trap_clauses": [1]}

CONFIGS = {
    "decode": {"seed": 3},
    "compare": {"seed": 5, "corpus": SMALL_CORPUS, "detector_eta": [5, -3, 2, 1]},
    "oracle-study": {
        "seed": 6,
        "corpus": {**SMALL_CORPUS, "trap_fraction": 1.0},
        "oracle_study": {"grid_positions": 3},
    },
    "theorem-verify": {"seed": 7, "theorem": {"trials": 200, "n_values": [2, 4]}},
    "ablate": {
        "seed": 8,
        "corpus": {**SMALL_CORPUS, "count": 3},
        "ablate": {"lambdas": [0.4, 1.0], "beams": [1, 2], "scorer_seeds": [1, 2]},
    },
    "length-curve": {"seed": 9, "corpus": SMALL_CORPUS, "length_curve": {"grid": [8, 16]}},
    "cost-model": {"seed": 10, "cost_model": {"n": 3, "trigger_rate": 0.5}},
    "emit-curve": {"seed": 11},
    "theorem-verify-jsd": {
        "seed": 7,
        "theorem": {"trials": 200, "n_values": [2, 4], "divergence": "jsd"},
    },
    "decode-idk": {
        "seed": 3,
        "corpus": {"count": 4},
        "scene_index": 2,
        "decode": {"beta": 0.001, "idk_policy": "confidence", "idk_confidence": 0.99},
    },
}

# Cases beyond the one per scenario, with the scenario each runs.
SCENARIO_OF = {"theorem-verify-jsd": "theorem-verify", "decode-idk": "decode"}
CASES = [*SCENARIOS, *SCENARIO_OF]

GOLDEN = {
    "ablate": {
        "ablate_beam.csv": "9cd108852f6339c54f8b21d3cd4555425b69a012f0056e4724451fa911e8ea86",
        "ablate_init.csv": "41ef91cb9d19bc97472caa24e64789b6e3d808e8fcc9292e30d9b494a7cadada",
        "ablate_lambda.csv": "8635c79f9908815834c0379ed221a1a74e5d7a449ec3a82f49c5fa2168e787d0",
        "ablate_scorer.csv": "c5514b560d7cd129669ae34adfd686698cc59f5d57cdfc9d0fe7cea409e53a44",
        "manifest.json": "5b2ee81bce31043c529c741938c3cdd6f513cdeab8877dd1c9dea2033e535987",
    },
    "compare": {
        "compare.csv": "487abd9f5214286e493cbed8ca535dc54730fa2df3b8a857976ef726dd593ced",
        "manifest.json": "5729a454ee7b8eca19c6f131ab9457c0edbfdce1cd89f3051ff559090d982b8a",
    },
    "cost-model": {
        "cost_model.csv": "786d17f700190f4540f2b630e298979ee89b3dc2e5dc52997ab90ffe64db81f6",
        "cost_model.json": "40dc102bf58544ae5cd389230fc50192ac74c40942c0316898cad5a12e2fc460",
        "manifest.json": "c9baa67b8f276c225020c711821d51607f12a6f179b6f26d531a13cfc55da036",
    },
    "decode": {
        "decode.json": "252aa67b3ed680be0057153b951f09fab4863016135ab2785096bbba4d57261c",
        "manifest.json": "c95e01b009e0305a714fe1a2d21a88042c956fe3519a239c6b6b2d0c36ca2d1c",
        "trace_greedy.json": "fe626499255941a2f9af3831c237b75926e8a591b150f3a7399107df17bb21cd",
        "trace_halc.json": "20ccf1dbd0cad8e94d637e76bf5ddd911fb748ce1922e3053b5881193a03f341",
    },
    "decode-idk": {
        "decode.json": "31c790eaeab99eb739b9c3e8a049659093c48bc55b3bc0d99b08f734dd8326dc",
        "manifest.json": "137e21ff0f72979c13cffbcc33bcb475a6fc9755e208656cc774abefb56924d5",
        "trace_greedy.json": "5ae44ad962bc008760ba266144624b619d346dec7273d18c706763ec03b1e599",
        "trace_halc.json": "328e9aec1742e5e4af1082ee23d3dd2968ee9190b88fd4a5f2056871ed7519d0",
    },
    "emit-curve": {
        "manifest.json": "cc0174d8255f9006c0e4b19e6eefe36ec190bd71bd50d11e4daf964fcae20e6a",
        "profile_curve.csv": "81c08dbd9be463f4dec8c1854358490f5090dbaed8a80dea06baaf6eb2439284",
    },
    "length-curve": {
        "length_curve.csv": "93c2797dc96323a9ff1d0cc3431f6961cd76b455874458b65f2d51411bd937bb",
        "manifest.json": "f63753ff2e385902ba1633e19b6832b83478ba20cdce09ffb5c4cbe482ff0e1d",
    },
    "oracle-study": {
        "manifest.json": "d82ea7862ed7c7293c4f1ac6b4ed84b9a1f054ef6affa54f39bab90ea89bbba3",
        "oracle_study.csv": "e164d85e45570e71e4d4b90699357c83ca9e52e78c6d68eabdc88c82ee5864ca",
    },
    "theorem-verify": {
        "manifest.json": "fc42b7081bb36f1b5196ddc50b1933f55c9ac36acdd1fdaab2ccbd7fee6996c1",
        "theorem.csv": "1c31aadf0ed13ded6894430743e424e459b502bcedfa1b488e530c81eac0e52a",
    },
    "theorem-verify-jsd": {
        "manifest.json": "491732a50980411ccd9599a5abbdea0733bca10839bd1fbe169e4ffae72aee55",
        "theorem.csv": "787de7851cf6692c66a7211acdf9c2b266a41a38386938c8231724ca9c60861a",
    },
}


def _digests(tmp_path, case):
    cfg = tmp_path / f"{case}.json"
    cfg.write_text(json.dumps(CONFIGS[case]))
    out = tmp_path / case
    assert main([SCENARIO_OF.get(case, case), "--config", str(cfg), "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def _pinned_digests(tmp_path, case):
    """_digests of the case in a child process that runs numpy's baseline
    loops only."""
    source = str(Path(halc.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "NPY_DISABLE_CPU_FEATURES": " ".join(__cpu_dispatch__),
        "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])),
    }
    subprocess.run([sys.executable, __file__, str(tmp_path), case], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return json.loads((tmp_path / "digests.json").read_text())


def test_every_scenario_has_a_golden_run():
    assert sorted(CONFIGS) == sorted(CASES) == sorted(GOLDEN)
    assert set(SCENARIO_OF.values()) <= set(SCENARIOS)


@pytest.mark.parametrize("scenario", CASES)
def test_scenario_output_bytes_match_golden(tmp_path, scenario):
    assert _pinned_digests(tmp_path, scenario) == GOLDEN[scenario]


if __name__ == "__main__":
    where, case = Path(sys.argv[1]), sys.argv[2]
    (where / "digests.json").write_text(json.dumps(_digests(where, case)))
