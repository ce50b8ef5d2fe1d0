#!/usr/bin/env python3
"""Success/abort statistics of the spot-checking protocol over seeded trials.

Runs the catalog CHSH optimal and classical devices across a grid of score
thresholds and reports how many of the seeded runs succeed.  Useful for
picking a threshold with a comfortable statistical margin: at N rounds the
accumulated score is Binomial(N, q*w), so thresholds within a couple of
standard deviations of the mean flip a visible fraction of runs.  Each
observed count is printed next to its exact predicted probability: the
Binomial(N, q*w) tail at the least integer score meeting the program's
float threshold chi*q*N, with w the device's Born-rule winning probability.

Usage: python scripts/protocol_statistics.py --n 100000 --q 0.05 --trials 100
"""

import argparse
import math

from randx import catalog, scoring
from randx.protocol import ProtocolParams, binomial_tail, simulate_outcomes


def predicted_success(game, device, n, q, chi):
    """Success probability of a fresh-state run with 0/1 game scores."""
    w = scoring.eps_score(game, device, 0.0)
    return binomial_tail(n, q * w, math.ceil(ProtocolParams(n, q, chi).threshold))


def run_grid(game, device, n, q, chis, trials, seed):
    rows = []
    for chi in chis:
        runs = simulate_outcomes(game, device, ProtocolParams(n, q, chi, seed=seed), trials)
        succ = sum(success for _, success in runs)
        rows.append((chi, succ))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=100_000)
    ap.add_argument("--q", type=float, default=0.05)
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--chis", default="0.80,0.82,0.83,0.84")
    args = ap.parse_args()

    entry = catalog.chsh()
    chis = [float(c) for c in args.chis.split(",")]
    w = catalog.CHSH_QUANTUM

    print(f"N={args.n} q={args.q} trials={args.trials}")
    mean = args.n * args.q * w
    sd = math.sqrt(args.n * args.q * w * (1 - args.q * w))
    print(f"optimal device: score mean {mean:.1f}, sd {sd:.1f}")
    optimal = entry.devices["optimal"]
    for chi, succ in run_grid(entry.game, optimal, args.n, args.q, chis, args.trials, args.seed):
        z = (mean - ProtocolParams(args.n, args.q, chi).threshold) / sd
        p = predicted_success(entry.game, optimal, args.n, args.q, chi)
        print(f"  chi={chi}: {succ}/{args.trials} succeed, predicted P(success) = {p:.4f} "
              f"(threshold {z:+.2f} sd below mean)")
    print("classical device:")
    classical = entry.devices["classical"]
    for chi, succ in run_grid(entry.game, classical, args.n, args.q, chis, args.trials, args.seed):
        p = 1.0 - predicted_success(entry.game, classical, args.n, args.q, chi)
        print(f"  chi={chi}: {args.trials - succ}/{args.trials} abort, predicted P(abort) = {p:.4f}")


if __name__ == "__main__":
    main()
