#!/usr/bin/env python3
"""Decode the canonical demo scene and show the correction step by step."""

import argparse

from halc.decoding import DecodeConfig, decode_greedy, decode_halc
from halc.world import DEMO_DETECTOR_ETA, DetectorSim, demo_scene, oracle_match_score


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    scene = demo_scene()
    config = DecodeConfig(seed=args.seed)
    detector = DetectorSim(DEMO_DETECTOR_ETA)

    greedy = decode_greedy(None, scene, config)
    corrected = decode_halc(None, detector, oracle_match_score, None, scene, config)

    print(f"greedy : {greedy.caption}")
    print(f"halc   : {corrected.caption}")
    print()
    for step in corrected.trace.steps:
        if not step.triggered:
            continue
        pairs = ", ".join(f"({i},{j})" for i, j in step.selected_pairs[:3])
        cands = sorted({token for token, _ in step.candidates})
        print(
            f"step {step.step:2d}: detector_hit={step.detector_hit} "
            f"top pairs {pairs} candidates {cands} -> chosen {step.chosen_token!r}"
        )
    totals = corrected.trace
    print(
        f"\nmodel calls {totals.model_calls} "
        f"(triggered {totals.triggered} tokens, {totals.detector_calls} detector calls)"
    )


if __name__ == "__main__":
    main()
