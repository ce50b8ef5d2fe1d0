#!/usr/bin/env python3
"""Full magic-square report: enumeration, device profiles, and the demo.

Prints the exact classical value, the per-input win probabilities of every
catalog device, the known-values table, and the not-randomness-generating
demo checks.
"""

from randx import catalog
from randx.classicaloracle import classical_value, known_values


def win_profile(game, device):
    return {a: catalog.expected_win(game, device, a) for a in game.input_alphabet}


def main():
    entry = catalog.magic_square()
    game = entry.game

    enum = classical_value(game)
    print(f"classical value (exact enumeration over {enum.count} strategies): "
          f"{enum.best_value} = 8/9")

    row = known_values("magic-square")
    print(f"known values: classical {row.w_classical:.9f}, "
          f"witnessed quantum lower bound {row.w_quantum:.9f}")
    print(f"  note: {row.notes['w_quantum_abar']}")

    for name in ("mixture", "cross-mixture", "combined"):
        profile = win_profile(game, entry.devices[name])
        print(f"\n{name} win probabilities by input:")
        for a, w in profile.items():
            print(f"  {a}: {w:.12f}")

    print("\nnot-randomness-generating demo:")
    report = catalog.demo_not_randomness_generating()
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"  [{status}] {check.name}: {check.computed:.12f} vs {check.expected:.12f}")
    print(f"overall: {'pass' if report.ok else 'FAIL'}")


if __name__ == "__main__":
    main()
