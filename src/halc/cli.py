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
import sys
from pathlib import Path

from .config import Config, load_config
from .decoding import decode_greedy, decode_halc
from .errors import InvalidInputError, InvalidParameterError
from .harness import (
    ABLATE_POPE_COUNT,
    build_corpus,
    cost_estimate,
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
from .world import DEMO_DETECTOR_ETA, CORPUS_DETECTOR_ETA, CorpusSpec, DetectorSim, demo_scene

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
ORACLE_STUDY_CORPUS = CorpusSpec(scene_count=200, trap_fraction=1.0, correctable_fraction=0.845)
ABLATE_CORPUS = CorpusSpec(scene_count=30)


def _detector(config: Config, demo: bool) -> DetectorSim:
    """The configured detector; its default eta is the demo scene's when
    the scenario decodes the demo scene."""
    default = DEMO_DETECTOR_ETA if demo else CORPUS_DETECTOR_ETA
    return DetectorSim(config.detector_eta or default, config.detector_confidence)


def _scenes(config: Config, default: CorpusSpec = CorpusSpec()) -> list:
    return build_corpus(config.corpus or default, config.seed)


def _polled_scenes(config: Config, default: CorpusSpec, count: int, key: str) -> list:
    """The scenes of a scenario that polls `count` absent objects per scene.

    A generated corpus always holds the same objects for the same keys, so
    one that leaves some scene fewer is a config error; a corpus file is
    data, and sample_query_objects rejects it as such.
    """
    spec = config.corpus or default
    scenes = build_corpus(spec, config.seed)
    if spec.path is None:
        universe = frozenset().union(*(s.ground_truth_names for s in scenes))
        fewest = min(len(universe - s.ground_truth_names) for s in scenes)
        if fewest < count:
            raise InvalidParameterError(
                "generated corpus keys count, clauses and noun_pool leave a scene "
                f"{fewest} absent objects, fewer than the {count} POPE negatives of {key}"
            )
    return scenes


def _scene_for_decode(config: Config):
    if config.corpus is None:
        return demo_scene()
    scenes = _scenes(config)
    if not 0 <= config.scene_index < len(scenes):
        raise InvalidParameterError(
            f"scene_index {config.scene_index} outside corpus of {len(scenes)}"
        )
    return scenes[config.scene_index]


def _write_outputs(scenario: str, config: Config, out: Path, echo: dict) -> None:
    seed, decode = config.seed, config.decode
    if scenario == "decode":
        detector = _detector(config, demo=config.corpus is None)
        scorer = resolve_scorer(config.scorer, seed)
        scene = _scene_for_decode(config)
        greedy = decode_greedy(None, scene, decode)
        corrected = decode_halc(None, detector, scorer, None, scene, decode)
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
        rows = run_compare(
            _polled_scenes(config, CorpusSpec(), config.compare.pope_count, "compare.pope_count"),
            decode,
            seed,
            config.compare,
            detector=_detector(config, demo=False),
            scorer=resolve_scorer(config.scorer, seed),
        )
        write_csv(out / "compare.csv", rows)
        return

    if scenario == "oracle-study":
        opts = config.oracle_study
        report = run_oracle_study(
            _scenes(config, ORACLE_STUDY_CORPUS),
            decode,
            positions=opts.grid_positions,
            scales=opts.grid_scales,
        )
        write_csv(out / "oracle_study.csv", report.to_rows())
        return

    if scenario == "theorem-verify":
        write_csv(out / "theorem.csv", run_theorem_verify(config.theorem, seed))
        return

    if scenario == "ablate":
        scenes = _polled_scenes(config, ABLATE_CORPUS, ABLATE_POPE_COUNT, "ablate")
        detector = _detector(config, demo=False)
        tables = run_ablations(scenes, decode, seed, config.ablate, detector)
        for name, rows in tables.items():
            write_csv(out / f"ablate_{name}.csv", rows)
        return

    if scenario == "length-curve":
        rows = run_length_curve(
            _scenes(config),
            decode,
            config.length_curve.grid,
            detector=_detector(config, demo=False),
            scorer=resolve_scorer(config.scorer, seed),
        )
        write_csv(out / "length_curve.csv", rows)
        return

    if scenario == "cost-model":
        model = config.cost_model
        estimate = cost_estimate(model)
        # The model as given: only the keys the document sets.
        payload = {"model": echo.get("cost_model", {}), "estimate": estimate.to_json()}
        write_json(out / "cost_model.json", payload)
        write_csv(out / "cost_model.csv", [{**dataclasses.asdict(model), **estimate.to_json()}])
        return

    if scenario == "emit-curve":
        opts = config.emit_curve
        scene = _scene_for_decode(config)
        given = [("tokens", token) for token in opts.tokens or ()]
        if opts.anchor is not None:
            given.append(("anchor", opts.anchor))
        for key, token in given:
            if token not in scene.vocabulary:
                raise InvalidParameterError(f"emit_curve {key} {token!r} not in scene vocabulary")
        rows = emit_profile_curve(
            scene,
            opts.tokens or [o.name for o in scene.objects],
            opts.r_grid or [round(-2.0 + 0.5 * i, 6) for i in range(11)],
            lam=decode.lam,
            detector=_detector(config, demo=config.corpus is None),
            anchor_token=opts.anchor,
        )
        write_csv(out / "profile_curve.csv", rows)
        return

    raise InvalidParameterError(f"unknown scenario {scenario!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="halc", description=__doc__)
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="overrides the config seed")
    parser.add_argument("--out", default="halc_out", help="output directory")
    args = parser.parse_args(argv)

    try:
        doc, config = load_config(args.config, args.seed)
        out = Path(args.out)
        _write_outputs(args.scenario, config, out, doc)
        # The manifest echoes the document as given. It is written last, so
        # a run that fails leaves no manifest behind.
        write_manifest(out, args.scenario, config.seed, doc)
    except InvalidParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, InvalidInputError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
