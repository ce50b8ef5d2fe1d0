"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines as they complete.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from randx import catalog, convexity, scoring
from randx.catalog import random_chsh_device
from randx.classicaloracle import classical_value, known_values, seesaw
from randx.protocol import (
    ProtocolParams,
    binomial_tail,
    entropy_lower_bound,
    enumerate_success_state,
    simulate_outcomes,
)

CHSH_W = 0.5 + math.sqrt(2.0) / 4.0


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_chsh_quantum_value():
    """Catalog optimal device scores 1/2 + sqrt(2)/4 at eps = 0 (tol 1e-9, < 1 s)."""
    entry = catalog.chsh()
    t0 = time.monotonic()
    value = scoring.eps_score(entry.game, entry.devices["optimal"], 0.0)
    elapsed = time.monotonic() - t0
    ok = abs(value - CHSH_W) <= 1e-9 and elapsed < 1.0
    _report(1, ok, f"eps_score(0) = {value!r} (target {CHSH_W!r}), {elapsed:.3f}s")
    assert abs(value - CHSH_W) <= 1e-9
    assert elapsed < 1.0


def test_criterion_02_chsh_classical_and_constrained_values():
    """Enumeration gives exactly 3/4; constrained see-saw stays at 3/4 over 20
    restarts (never exceeding by more than 1e-6); < 30 s."""
    t0 = time.monotonic()
    game = catalog.chsh().game
    enum = classical_value(game)
    res = seesaw(game, (2, 2), constrain_abar=True, restarts=20, seed=0)
    elapsed = time.monotonic() - t0
    ok = (
        enum.best_value == 0.75
        and res.value <= 0.75 + 1e-6
        and res.value >= 0.75 - 1e-6
        and elapsed < 30.0
    )
    _report(
        2,
        ok,
        f"enumeration = {enum.best_value!r}, constrained see-saw = {res.value!r}, "
        f"{elapsed:.1f}s",
    )
    assert enum.best_value == 0.75
    assert res.value <= 0.75 + 1e-6
    assert res.value >= 0.75 - 1e-6
    assert elapsed < 30.0


def test_criterion_03_chsh_noise_tolerance():
    """known_values reports the gap quantum minus predictable cap, about 10.3%."""
    row = known_values("chsh")
    target = CHSH_W - 0.75
    ok = abs(row.noise_tolerance - target) <= 1e-6 and abs(target - 0.1035533) < 1e-6
    _report(3, ok, f"noise tolerance = {row.noise_tolerance!r} (target {target!r})")
    assert abs(row.noise_tolerance - target) <= 1e-6


def test_criterion_04_magic_square_suite():
    """Classical value exactly 8/9; mixture average and combined-device losing
    probability match their closed forms; the demo verifies every claim; < 60 s."""
    t0 = time.monotonic()
    entry = catalog.magic_square()
    game = entry.game

    enum = classical_value(game)
    exact_classical = enum.best_value == 8.0 / 9.0

    avg = scoring.eps_score(game, entry.devices["mixture"], 0.0)
    avg_target = 5.0 / 9.0 + (4.0 / 9.0) * CHSH_W
    avg_ok = abs(avg - avg_target) <= 1e-9

    beta = 0.5 - math.sqrt(2.0) / 4.0
    loss_target = 0.2 * beta / (0.2 + beta)
    combined = entry.devices["combined"]
    losses = [1.0 - catalog.expected_win(game, combined, a) for a in game.input_alphabet]
    loss_ok = abs(max(losses) - loss_target) <= 1e-9
    constant_ok = max(losses) - min(losses) <= 1e-12

    demo = catalog.demo_not_randomness_generating()
    elapsed = time.monotonic() - t0
    ok = exact_classical and avg_ok and loss_ok and constant_ok and demo.ok and elapsed < 60.0
    _report(
        4,
        ok,
        f"classical = {enum.best_value!r}, mixture avg = {avg:.12f}, "
        f"loss = {max(losses):.12f} (spread {max(losses) - min(losses):.2e}), "
        f"demo {'pass' if demo.ok else 'FAIL'}, {elapsed:.1f}s",
    )
    assert exact_classical
    assert avg_ok
    assert loss_ok
    assert constant_ok
    assert demo.ok
    assert elapsed < 60.0


def test_criterion_05_convexity_property_suites():
    """10^4 randomized instances per suite (dims 2-8, eps in the standard
    grid) with zero violations at margin >= -1e-10; < 5 min."""
    t0 = time.monotonic()
    results = {
        suite: convexity.run_suite(suite, trials=10_000, seed=20_250_810)
        for suite in convexity.SUITES
    }
    elapsed = time.monotonic() - t0
    violations = {name: r.violations for name, r in results.items()}
    min_margins = {name: r.min_margin for name, r in results.items()}
    ok = all(v == 0 for v in violations.values()) and elapsed < 300.0
    _report(
        5,
        ok,
        f"violations = {violations}, min margins = "
        + ", ".join(f"{k}: {v:.3e}" for k, v in min_margins.items())
        + f", {elapsed:.1f}s",
    )
    assert all(v == 0 for v in violations.values())
    assert all(m >= -1e-10 for m in min_margins.values())
    assert elapsed < 300.0


def test_criterion_06_rate_curve_soundness_sweep():
    """For 200 random CHSH-compatible devices the worst slack
    [pi(W^eps) - R^eps]/eps is finite at every eps and non-increasing along
    the sweep eps = 0.1, 0.05, 0.02, 0.01; < 5 min.

    The observed worst slack is strongly negative (about -2 at eps = 0.1 down
    to about -20 at eps = 0.01 across master seeds, with cross-seed noise
    well under 0.5), so the monotonicity tolerance is 0.5 and the finiteness
    bound 50 is far above anything reachable.
    """
    t0 = time.monotonic()
    game = catalog.chsh().game
    curve = scoring.quadratic_rate_curve(0.75, 4)
    rng = np.random.default_rng(20_250_810)
    devices = [random_chsh_device(rng, perturbed=(i % 2 == 0)) for i in range(200)]
    eps_grid = (0.1, 0.05, 0.02, 0.01)
    worst = {}
    for eps in eps_grid:
        ratios = [
            (curve.evaluate(scoring.eps_score(game, d, eps))
             - scoring.eps_randomness((0, 0), d, eps)) / eps
            for d in devices
        ]
        worst[eps] = max(ratios)
    elapsed = time.monotonic() - t0
    finite = all(math.isfinite(v) for v in worst.values())
    bounded = all(v < 50.0 for v in worst.values())
    monotone = all(
        worst[eps_grid[i + 1]] <= worst[eps_grid[i]] + 0.5
        for i in range(len(eps_grid) - 1)
    )
    ok = finite and bounded and monotone and elapsed < 300.0
    _report(
        6,
        ok,
        "worst slack/eps = "
        + ", ".join(f"{e}: {v:.3f}" for e, v in worst.items())
        + f", {elapsed:.1f}s",
    )
    assert finite
    assert bounded
    assert monotone
    assert elapsed < 300.0


def test_criterion_07_protocol_statistics():
    """Stated criterion: the optimal device at N = 1e5, q = 0.05, chi = 0.84
    succeeds in >= 99/100 seeded trials and the classical device at
    chi = 0.80 aborts in >= 99/100; < 2 min.

    Note on the first half: the accumulated score is Binomial(N, q*w) with
    w = 0.8535534, so the threshold chi*q*N = 4200 sits only 1.06 standard
    deviations (sd = 63.9) below the mean 4267.8.  The exact Binomial tail at
    the least integer meeting the float threshold gives a per-trial success
    probability of 0.8573, so a 99/100 success count has probability about
    3.6e-6 under any faithful implementation of the per-round Bernoulli(q)
    protocol; the assertion is kept as stated and expected to fail, with the
    observed count reported beside both predictions.
    """
    entry = catalog.chsh()
    g = entry.game
    t0 = time.monotonic()
    # trial k of simulate_outcomes is simulate at seed k, bit for bit
    successes = sum(
        success for _, success in simulate_outcomes(
            g, entry.devices["optimal"], ProtocolParams(n_rounds=10**5, q=0.05, chi=0.84), 100)
    )
    aborts = sum(
        not success for _, success in simulate_outcomes(
            g, entry.devices["classical"], ProtocolParams(n_rounds=10**5, q=0.05, chi=0.80), 100)
    )
    elapsed = time.monotonic() - t0
    w = scoring.eps_score(g, entry.devices["optimal"], 0.0)
    need = math.ceil(ProtocolParams(n_rounds=10**5, q=0.05, chi=0.84).threshold)
    p_trial = binomial_tail(10**5, 0.05 * w, need)
    ok = successes >= 99 and aborts >= 99 and elapsed < 120.0
    _report(
        7,
        ok,
        f"optimal successes = {successes}/100 (need >= 99; predicted P(success) = "
        f"{p_trial:.4f} per trial, P(>= 99/100) = {binomial_tail(100, p_trial, 99):.1e}), "
        f"classical aborts = {aborts}/100 (need >= 99), {elapsed:.1f}s",
    )
    assert aborts >= 99
    assert elapsed < 120.0
    assert successes >= 99  # see docstring: statistically unattainable as stated


def test_criterion_08_enumeration_simulation_consistency():
    """For N = 3, q = 0.3, chi = 0.8 the empirical success frequency over
    1e5 seeded trials matches the enumerated mass within 3 binomial standard
    deviations; < 2 min."""
    entry = catalog.chsh()
    g, opt = entry.game, entry.devices["optimal"]
    t0 = time.monotonic()
    summary = enumerate_success_state(g, opt, 3, q=0.3, chi=0.8, eps=0.1)
    trials = 100_000
    hits = sum(
        success for _, success in simulate_outcomes(
            g, opt, ProtocolParams(n_rounds=3, q=0.3, chi=0.8), trials)
    )
    elapsed = time.monotonic() - t0
    freq = hits / trials
    sd = math.sqrt(summary.mass * (1.0 - summary.mass) / trials)
    dev = abs(freq - summary.mass)
    ok = dev <= 3.0 * sd and elapsed < 120.0
    _report(
        8,
        ok,
        f"mass = {summary.mass:.6f}, freq = {freq:.6f}, |diff| = {dev:.2e} "
        f"({dev / sd:.2f} sd), {elapsed:.1f}s",
    )
    assert dev <= 3.0 * sd
    assert elapsed < 120.0


def test_criterion_09_entropy_pipeline():
    """N = 4 enumeration at eps = 0.1: per-round randomness positive for the
    optimal device and at most 0.01 for a device deterministic on the
    distinguished input; the min-entropy bound reproduces its defining
    arithmetic exactly."""
    entry = catalog.chsh()
    g = entry.game
    s_opt = enumerate_success_state(g, entry.devices["optimal"], 4, q=0.3, chi=0.0, eps=0.1)
    s_cls = enumerate_success_state(g, entry.devices["classical"], 4, q=0.3, chi=0.0, eps=0.1)
    rate_opt = s_opt.renyi_randomness / 4.0
    rate_cls = s_cls.renyi_randomness / 4.0

    bound = entropy_lower_bound(s_opt, 2.0 ** -3)
    identity = abs(
        bound.hmin_lower - (s_opt.renyi_randomness - (1.0 + 2.0 * 3.0) / 0.1)
    )
    ok = rate_opt > 0.0 and rate_cls <= 0.01 and identity == 0.0
    _report(
        9,
        ok,
        f"optimal rate = {rate_opt:.4f} (> 0), deterministic rate = {rate_cls:.2e} "
        f"(<= 0.01), bound identity defect = {identity:.1e}",
    )
    assert rate_opt > 0.0
    assert rate_cls <= 0.01
    assert identity == 0.0


def test_criterion_10_determinism():
    """Any subcommand rerun with the same seed yields byte-identical output."""
    commands = [
        ["simulate", "--n", "1000", "--q", "0.1", "--chi", "0.5", "--seed", "42",
         "--trials", "5"],
        ["verify", "--suite", "uniform-convexity", "--trials", "100", "--seed", "4",
         "--out", "csv"],
        ["enumerate", "--n", "3", "--q", "0.3", "--chi", "0.8", "--eps", "0.1"],
        ["seesaw", "--game", "chsh", "--restarts", "2", "--seed", "5"],
    ]
    identical = True
    for argv in commands:
        a = subprocess.run([sys.executable, "-m", "randx.cli", *argv], capture_output=True)
        b = subprocess.run([sys.executable, "-m", "randx.cli", *argv], capture_output=True)
        if a.returncode != 0 or a.stdout != b.stdout:
            identical = False
    _report(10, identical, f"{len(commands)} subcommands rerun byte-identically")
    assert identical
