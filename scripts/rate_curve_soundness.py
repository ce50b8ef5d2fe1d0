#!/usr/bin/env python3
"""Sweep random CHSH-compatible devices against the quadratic rate curve.

For each device and each eps the script records the smoothed score, the
fixed-input randomness, and the slack [pi(W^eps) - R^eps]/eps; the worst
slack per eps is the quantity whose boundedness backs the rate-curve
soundness claim.  Emits a CSV of per-device rows plus a stderr summary.

Usage: python scripts/rate_curve_soundness.py --devices 200 --seed 1 > sweep.csv
"""

import argparse
import math
import sys

import numpy as np

from randx import catalog, scoring


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--devices", type=int, default=200)
    ap.add_argument("--seed", type=int, default=20250810)
    ap.add_argument("--eps", default="0.1,0.05,0.02,0.01")
    args = ap.parse_args()

    eps_grid = [float(e) for e in args.eps.split(",")]
    game = catalog.chsh().game
    curve = scoring.quadratic_rate_curve(0.75, 4)
    rng = np.random.default_rng(args.seed)
    devices = [catalog.random_chsh_device(rng, perturbed=(i % 2 == 0)) for i in range(args.devices)]

    print("device,eps,score,randomness,slack_over_eps")
    worst = {eps: -math.inf for eps in eps_grid}
    for i, dev in enumerate(devices):
        for eps in eps_grid:
            w = scoring.eps_score(game, dev, eps)
            r = scoring.eps_randomness((0, 0), dev, eps)
            slack = (curve.evaluate(w) - r) / eps
            worst[eps] = max(worst[eps], slack)
            print(f"{i},{eps},{w:.12g},{r:.12g},{slack:.12g}")
    for eps in eps_grid:
        print(f"eps={eps}: worst slack/eps = {worst[eps]:.4f}", file=sys.stderr)


if __name__ == "__main__":
    main()
