"""Command-line front door for the experiment scenarios.

Usage: halc <scenario> [--config cfg.json] [--seed N] [--out DIR]

Scenarios: decode, compare, oracle-study, theorem-verify, ablate,
length-curve, cost-model, emit-curve. The JSON config file carries scenario
parameters; --seed and --out override it. Exit codes: 0 success, 2 config
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .decoding import SAMPLING_MODES, DecodeConfig, decode_greedy, decode_halc
from .errors import ConfigError, InvalidInputError, InvalidParameterError
from .harness import (
    DEFAULT_GRID_SCALES,
    CostModel,
    check_choice,
    check_integer,
    check_list,
    check_number,
    check_section,
    cost_estimate,
    corpus_from_spec,
    emit_profile_curve,
    resolve_scorer,
    run_ablations,
    run_compare,
    run_length_curve,
    run_oracle_study,
    run_theorem_verify,
    write_csv,
    write_json,
    write_manifest,
)
from .metrics import POPE_MODES
from .world import DEMO_DETECTOR_ETA, CORPUS_DETECTOR_ETA, DetectorSim, demo_scene

SCENARIOS = (
    "decode",
    "compare",
    "oracle-study",
    "theorem-verify",
    "ablate",
    "length-curve",
    "cost-model",
    "emit-curve",
)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    if "config" in doc and "scenario" in doc:
        # A manifest from a previous run reproduces that run.
        inner = dict(doc["config"])
        inner.setdefault("seed", doc.get("seed"))
        return inner
    return doc


def _decode_config(doc: dict, seed: int) -> DecodeConfig:
    params = doc.get("decode", {})
    if not isinstance(params, dict):
        raise ConfigError("decode section must be a JSON object")
    params = dict(params)
    params.setdefault("seed", seed)
    try:
        return DecodeConfig(**params)
    except TypeError as exc:
        raise ConfigError(f"bad decode config: {exc}") from exc


def _eta(label: str, value) -> tuple:
    if not (
        isinstance(value, (list, tuple))
        and len(value) == 4
        and all(isinstance(v, (int, float)) for v in value)
    ):
        raise ConfigError(f"{label} must be a list of 4 numbers, got {value!r}")
    return tuple(value)


def _detector(doc: dict, default_eta) -> DetectorSim:
    eta = _eta("detector_eta", doc.get("detector_eta", default_eta))
    confidence = check_number("detector_confidence", doc.get("detector_confidence", 0.3))
    return DetectorSim(eta, confidence)


def _positive_number(label: str, value):
    if check_number(label, value) <= 0:
        raise ConfigError(f"{label} must be positive, got {value!r}")
    return value


def _positive_integer(label: str, value):
    if check_integer(label, value) < 1:
        raise ConfigError(f"{label} must be at least 1, got {value!r}")
    return value


def _f_weight(label: str, value):
    """The F-beta weight: nonnegative, with a square that stays finite."""
    if not 0 <= check_number(label, value) <= 1e150:
        raise ConfigError(f"{label} must lie in [0, 1e150], got {value!r}")
    return value


def _string(label: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{label} must be a string, got {value!r}")
    return value


def _scorer_spec(label: str, value):
    """A scorer spec that resolve_scorer accepts."""
    resolve_scorer(value)
    return value


def _optional(check):
    """A check that also lets JSON null through."""
    return lambda label, value: None if value is None else check(label, value)


def _options(doc: dict, section: str, checks: dict) -> dict:
    """The keys present in a scenario section, each checked by its entry of
    `checks`, before the scenario does any work."""
    opts = check_section(section, doc.get(section), frozenset(checks))
    return {key: checks[key](f"{section} {key}", value) for key, value in opts.items()}


def _list_of(item, nonempty: bool = True):
    return lambda label, value: check_list(label, value, item, nonempty)


def _choice(choices):
    return lambda label, value: check_choice(label, value, choices)


COMPARE_CHECKS = {
    "pope_mode": _choice(POPE_MODES),
    "pope_count": _positive_integer,
    "beta": _f_weight,
}
ORACLE_CHECKS = {
    "grid_positions": _positive_integer,
    "grid_scales": _list_of(_positive_number),
}
ABLATE_CHECKS = {
    "detector_eta": _eta,
    "pope_mode": _choice(POPE_MODES),
    "scorer_seeds": _list_of(check_integer),
    "inits": _list_of(_choice(SAMPLING_MODES)),
    "lambdas": _list_of(check_number),
    "beams": _list_of(_positive_integer),
    "scorers": _list_of(_scorer_spec),
}
COST_MODEL_KEYS = frozenset(field.name for field in dataclasses.fields(CostModel))
LENGTH_CHECKS = {"grid": _list_of(_positive_integer)}
EMIT_CHECKS = {
    "tokens": _optional(_list_of(_string, nonempty=False)),
    "r_grid": _optional(_list_of(check_number, nonempty=False)),
    "anchor": _optional(_string),
}


def _default_eta(doc: dict):
    return DEMO_DETECTOR_ETA if doc.get("corpus") is None else CORPUS_DETECTOR_ETA


def _scene_for_decode(doc: dict, seed: int):
    index = check_integer("scene_index", doc.get("scene_index", 0))
    corpus = doc.get("corpus")
    if corpus is None:
        return demo_scene()
    scenes = corpus_from_spec(corpus, seed)
    if not 0 <= index < len(scenes):
        raise ConfigError(f"scene_index {index} outside corpus of {len(scenes)}")
    return scenes[index]


def run_scenario(scenario: str, doc: dict, seed: int, out: Path) -> None:
    """Write the scenario's outputs under `out`, then its manifest, so a run
    that fails leaves no manifest behind."""
    _write_outputs(scenario, doc, seed, out, _decode_config(doc, seed))
    write_manifest(out, scenario, seed, doc)


def _write_outputs(scenario: str, doc: dict, seed: int, out: Path, config: DecodeConfig) -> None:
    # Each branch checks the config sections it reads before it builds a
    # corpus or decodes anything.
    if scenario == "decode":
        detector = _detector(doc, _default_eta(doc))
        scorer = resolve_scorer(doc.get("scorer"), seed)
        scene = _scene_for_decode(doc, seed)
        greedy = decode_greedy(None, scene, config)
        corrected = decode_halc(None, detector, scorer, None, scene, config)
        write_json(
            out / "decode.json",
            {
                "scene": scene.scene_id,
                "greedy": {"tokens": list(greedy.tokens), "caption": greedy.caption},
                "halc": {"tokens": list(corrected.tokens), "caption": corrected.caption},
            },
        )
        write_json(out / "trace_greedy.json", greedy.trace.to_json())
        write_json(out / "trace_halc.json", corrected.trace.to_json())
        return

    if scenario == "compare":
        opts = _options(doc, "compare", COMPARE_CHECKS)
        detector = _detector(doc, CORPUS_DETECTOR_ETA)
        scorer = resolve_scorer(doc.get("scorer"), seed)
        scenes = corpus_from_spec(doc.get("corpus"), seed)
        rows = run_compare(
            scenes,
            config,
            seed,
            pope_mode=opts.get("pope_mode", "random"),
            pope_count=opts.get("pope_count", 3),
            beta=opts.get("beta", 0.2),
            detector=detector,
            scorer=scorer,
        )
        write_csv(out / "compare.csv", rows)
        return

    if scenario == "oracle-study":
        opts = _options(doc, "oracle_study", ORACLE_CHECKS)
        corpus = doc.get("corpus", {"count": 200, "trap_fraction": 1.0, "correctable_fraction": 0.845})
        scenes = corpus_from_spec(corpus, seed)
        report = run_oracle_study(
            scenes,
            config,
            positions=opts.get("grid_positions", 8),
            scales=tuple(opts.get("grid_scales", DEFAULT_GRID_SCALES)),
        )
        write_csv(out / "oracle_study.csv", report.to_rows())
        return

    if scenario == "theorem-verify":
        rows = run_theorem_verify(doc.get("theorem", {}), seed)
        write_csv(out / "theorem.csv", rows)
        return

    if scenario == "ablate":
        opts = _options(doc, "ablate", ABLATE_CHECKS)
        corpus = doc.get("corpus", {"count": 30})
        scenes = corpus_from_spec(corpus, seed)
        tables = run_ablations(scenes, config, seed, opts)
        for name, rows in tables.items():
            write_csv(out / f"ablate_{name}.csv", rows)
        return

    if scenario == "length-curve":
        grid = _options(doc, "length_curve", LENGTH_CHECKS).get("grid", [16, 32, 64])
        detector = _detector(doc, CORPUS_DETECTOR_ETA)
        scorer = resolve_scorer(doc.get("scorer"), seed)
        scenes = corpus_from_spec(doc.get("corpus"), seed)
        rows = run_length_curve(scenes, config, grid, detector=detector, scorer=scorer)
        write_csv(out / "length_curve.csv", rows)
        return

    if scenario == "cost-model":
        params = check_section("cost_model", doc.get("cost_model"), COST_MODEL_KEYS)
        model = CostModel(**params)
        estimate = cost_estimate(model)
        payload = {"model": params, "estimate": estimate.to_json()}
        write_json(out / "cost_model.json", payload)
        write_csv(
            out / "cost_model.csv",
            [
                {
                    "tokens": model.tokens,
                    "t_lvlm": model.t_lvlm,
                    "t_detector": model.t_detector,
                    "n": model.n,
                    "trigger_rate": model.trigger_rate,
                    **estimate.to_json(),
                }
            ],
        )
        return

    if scenario == "emit-curve":
        opts = _options(doc, "emit_curve", EMIT_CHECKS)
        detector = _detector(doc, _default_eta(doc))
        scene = _scene_for_decode(doc, seed)
        tokens = opts.get("tokens") or [o.name for o in scene.objects]
        r_grid = opts.get("r_grid") or [round(-2.0 + 0.5 * i, 6) for i in range(11)]
        rows = emit_profile_curve(
            scene,
            tokens,
            r_grid,
            lam=config.lam,
            detector=detector,
            anchor_token=opts.get("anchor"),
        )
        write_csv(out / "profile_curve.csv", rows)
        return

    raise ConfigError(f"unknown scenario {scenario!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="halc", description=__doc__)
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="overrides the config seed")
    parser.add_argument("--out", default="halc_out", help="output directory")
    args = parser.parse_args(argv)

    try:
        doc = _load_config(args.config)
        seed = args.seed if args.seed is not None else doc.get("seed")
        if seed is None:
            raise ConfigError("a seed is required (config 'seed' or --seed)")
        try:
            seed = int(seed)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"seed must be an integer, got {seed!r}") from exc
        if seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {seed}")
        run_scenario(args.scenario, doc, seed, Path(args.out))
    except (ConfigError, InvalidParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, InvalidInputError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
