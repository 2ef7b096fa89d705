#!/usr/bin/env python3
"""Sweep the sampling-robustness bound over n and print a compact table:
the rows of `halc theorem-verify` for normal sampling at one (epsilon, eta,
sigma) and exponential sampling at epsilon, for n from 1 to 16."""

import argparse

from halc.harness import run_theorem_verify


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sigma", type=float, default=1.0)
    parser.add_argument("--epsilon", type=float, default=1.0)
    args = parser.parse_args()

    theorem = {
        "n_values": [1, 2, 4, 8, 16],
        "trials": args.trials,
        "etas": [[0.8, 0.6, 0]],
        "sigmas": [args.sigma],
        "epsilons": [args.epsilon],
        "exp_epsilon": args.epsilon,
    }
    print(f"{'sampler':<12}{'n':>3} {'C':>8} {'miss(mc)':>9} {'miss(an)':>9} "
          f"{'bound':>8} {'E[min dev]':>11} {'viol%':>6}")
    for r in run_theorem_verify(theorem, args.seed):
        print(
            f"{r['sampler']:<12}{r['n']:>3} {r['analytic_c']:>8.4f} {r['empirical_miss']:>9.4f} "
            f"{r['analytic_miss']:>9.4f} {r['bound']:>8.4f} {r['mean_min_deviation']:>11.4f} "
            f"{100 * r['violation_fraction']:>6.2f}"
        )


if __name__ == "__main__":
    main()
