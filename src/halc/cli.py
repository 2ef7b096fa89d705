"""Command-line front door for the experiment scenarios.

Usage: halc <scenario> [--config cfg.json] [--seed N] [--out DIR]

Scenarios: decode, compare, oracle-study, theorem-verify, ablate,
length-curve, cost-model, emit-curve. The JSON config file carries scenario
parameters; --seed and --out override it. Exit codes: 0 success, 2 config
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .decoding import DecodeConfig, decode_greedy, decode_halc
from .errors import ConfigError, InvalidInputError, InvalidParameterError
from .harness import (
    CostModel,
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


def _detector(doc: dict, default_eta) -> DetectorSim:
    eta = doc.get("detector_eta", default_eta)
    if not (
        isinstance(eta, (list, tuple))
        and len(eta) == 4
        and all(isinstance(v, (int, float)) for v in eta)
    ):
        raise ConfigError(f"detector_eta must be a list of 4 numbers, got {eta!r}")
    return DetectorSim(tuple(eta), doc.get("detector_confidence", 0.3))


def _scene_for_decode(doc: dict, seed: int):
    corpus = doc.get("corpus")
    if corpus is None:
        return demo_scene(), DEMO_DETECTOR_ETA
    scenes = corpus_from_spec(corpus, seed)
    index = int(doc.get("scene_index", 0))
    if not 0 <= index < len(scenes):
        raise ConfigError(f"scene_index {index} outside corpus of {len(scenes)}")
    return scenes[index], CORPUS_DETECTOR_ETA


def run_scenario(scenario: str, doc: dict, seed: int, out: Path) -> None:
    """Write the scenario's outputs under `out`, then its manifest, so a run
    that fails leaves no manifest behind."""
    _write_outputs(scenario, doc, seed, out, _decode_config(doc, seed))
    write_manifest(out, scenario, seed, doc)


def _write_outputs(scenario: str, doc: dict, seed: int, out: Path, config: DecodeConfig) -> None:
    if scenario == "decode":
        scene, default_eta = _scene_for_decode(doc, seed)
        detector = _detector(doc, default_eta)
        scorer = resolve_scorer(doc.get("scorer"), seed)
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
        scenes = corpus_from_spec(doc.get("corpus"), seed)
        opts = doc.get("compare", {})
        rows = run_compare(
            scenes,
            config,
            seed,
            pope_mode=opts.get("pope_mode", "random"),
            pope_count=opts.get("pope_count", 3),
            beta=opts.get("beta", 0.2),
            detector=_detector(doc, CORPUS_DETECTOR_ETA),
            scorer=resolve_scorer(doc.get("scorer"), seed),
        )
        write_csv(out / "compare.csv", rows)
        return

    if scenario == "oracle-study":
        corpus = doc.get("corpus", {"count": 200, "trap_fraction": 1.0, "correctable_fraction": 0.845})
        scenes = corpus_from_spec(corpus, seed)
        opts = doc.get("oracle_study", {})
        report = run_oracle_study(
            scenes,
            config,
            positions=opts.get("grid_positions", 8),
            scales=tuple(opts.get("grid_scales", (0.1, 0.2, 0.3, 0.4, 0.6, 0.9))),
        )
        write_csv(out / "oracle_study.csv", report.to_rows())
        return

    if scenario == "theorem-verify":
        rows = run_theorem_verify(doc.get("theorem", {}), seed)
        write_csv(out / "theorem.csv", rows)
        return

    if scenario == "ablate":
        corpus = doc.get("corpus", {"count": 30})
        scenes = corpus_from_spec(corpus, seed)
        tables = run_ablations(scenes, config, seed, doc.get("ablate", {}))
        for name, rows in tables.items():
            write_csv(out / f"ablate_{name}.csv", rows)
        return

    if scenario == "length-curve":
        scenes = corpus_from_spec(doc.get("corpus"), seed)
        grid = doc.get("length_curve", {}).get("grid", [16, 32, 64])
        rows = run_length_curve(
            scenes,
            config,
            grid,
            detector=_detector(doc, CORPUS_DETECTOR_ETA),
            scorer=resolve_scorer(doc.get("scorer"), seed),
        )
        write_csv(out / "length_curve.csv", rows)
        return

    if scenario == "cost-model":
        params = doc.get("cost_model", {})
        try:
            model = CostModel(**params)
        except TypeError as exc:
            raise ConfigError(f"bad cost model: {exc}") from exc
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
        scene, default_eta = _scene_for_decode(doc, seed)
        opts = doc.get("emit_curve", {})
        tokens = opts.get("tokens") or [o.name for o in scene.objects]
        r_grid = opts.get("r_grid") or [round(-2.0 + 0.5 * i, 6) for i in range(11)]
        rows = emit_profile_curve(
            scene,
            tokens,
            r_grid,
            lam=config.lam,
            detector=_detector(doc, default_eta),
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
