"""Workload definitions: the steps each run executes and the checks on their outputs.

A step is either a CLI invocation (an argv list for ``randx.cli.main``) or a
call into a public API function.  Inputs depend only on the workload name and
the seed.  Each workload's checks compare its outputs with an independent
route (a closed form, an exact distribution, or a second program path) and
run outside the timed region.

This module imports only the standard library, so the child process can load
it before the timed import of ``randx.cli``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

# CHSH optimal winning probability cos^2(pi/8), in closed form.
CHSH_QUANTUM = 0.5 + math.sqrt(2.0) / 4.0

SIM_SHORT = {"n": 3, "q": 0.3, "chi": 0.8, "trials": 2500}
SIM_LONG = {"n": 100000, "q": 0.05, "trials": 100, "chi_optimal": 0.84, "chi_classical": 0.80}
ENTROPY = {"n": 4, "q": 0.3, "chi": 0.5, "eps": 0.2, "delta": 0.125}
REPORT_EPS = (0.01, 0.05, 0.1, 0.2, 0.5, 1.0)
VERIFY_SUITES = ("uniform-convexity", "binary-disturbance", "chain-disturbance")
VERIFY_TRIALS = 1000
# The see-saw stops early once converged, after a seed-dependent number of
# sweeps; capping the sweeps keeps its work nearly the same for every seed.
SEESAW_ITERS = 10

MARGIN_FLOOR = -1e-10  # the suites' own violation threshold
SD_LIMIT = 4.0  # binomial standard deviations a frequency may stray


@dataclass(frozen=True)
class Step:
    """One CLI call (``argv``) or one API call (``api`` with its argument)."""

    label: str
    argv: tuple[str, ...] | None = None
    api: str | None = None
    arg: float | None = None


def _cli(*argv) -> Step:
    argv = tuple(str(a) for a in argv)
    return Step(label=" ".join(argv), argv=argv)


def steps(workload: str, seed: int) -> list[Step]:
    """The fixed step list of a workload; ``seed`` keys every seeded step."""
    s = seed % 2**32
    if workload == "sim-short":
        p = SIM_SHORT
        return [_cli("simulate", "--n", p["n"], "--q", p["q"], "--chi", p["chi"],
                     "--trials", p["trials"], "--seed", s)]
    if workload == "sim-long":
        p = SIM_LONG
        common = ("--n", p["n"], "--q", p["q"], "--trials", p["trials"], "--seed", s)
        return [
            _cli("simulate", "--chi", p["chi_optimal"], *common),
            _cli("simulate", "--device", "chsh:classical", "--chi", p["chi_classical"], *common),
        ]
    if workload == "exact":
        e = ENTROPY
        return [
            _cli("enumerate", "--n", 5, "--q", 0.3, "--chi", 0.8, "--eps", 0.1),
            _cli("enumerate", "--n", 3, "--q", 0.3, "--chi", 0.8, "--eps", 0.1, "--memory"),
            _cli("entropy-bound", "--n", e["n"], "--q", e["q"], "--chi", e["chi"],
                 "--eps", e["eps"], "--delta", e["delta"]),
            _cli("enumerate", "--game", "magic-square", "--device", "magic-square:combined",
                 "--n", 2, "--q", 0.3, "--chi", 0.5, "--eps", 0.1),
            _cli("classical-value", "--game", "magic-square"),
            _cli("magic-square-demo"),
        ] + [
            Step(label=f"scoring.randomness_report magic-square combined eps={eps}",
                 api="randomness_report", arg=eps)
            for eps in REPORT_EPS
        ]
    if workload == "suites":
        return [
            _cli("verify", "--suite", suite, "--trials", VERIFY_TRIALS, "--seed", s)
            for suite in VERIFY_SUITES
        ] + [
            _cli("seesaw", "--game", "chsh", "--dims", "2,2", "--constrain-abar",
                 "--restarts", 20, "--seed", s),
            _cli("seesaw", "--game", "magic-square", "--dims", "4,4", "--restarts", 2,
                 "--iters", SEESAW_ITERS, "--seed", s),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("sim-short", "sim-long", "exact", "suites")


def run_api(step: Step, randx) -> str:
    """Run an API step and return its result as canonical JSON text."""
    if step.api == "randomness_report":
        game = randx.catalog.get_game("magic-square")
        device = randx.catalog.get_device("magic-square:combined")
        rep = randx.scoring.randomness_report(game, device, step.arg)
        return json.dumps(
            {"eps": rep.eps, "w_eps": rep.w_eps, "r_input": rep.r_input, "r_game": rep.r_game},
            sort_keys=True,
        ) + "\n"
    raise ValueError(f"unknown API step {step.api!r}")


# ---------------------------------------------------------------------------
# output checks


def binomial_tail(n: int, p: float, k: int) -> float:
    """P(X >= k) for X ~ Binomial(n, p), summed exactly in log space."""
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    lp, lq = math.log(p), math.log1p(-p)
    head = math.lgamma(n + 1)
    lower = sum(
        math.exp(head - math.lgamma(j + 1) - math.lgamma(n - j + 1) + j * lp + (n - j) * lq)
        for j in range(k)
    )
    return max(0.0, 1.0 - lower)


def _success_rule_count(threshold: float) -> int:
    """Least integer score c with c >= threshold (the program's success rule)."""
    return math.ceil(threshold)


def _frequency_check(successes: int, trials: int, p: float, what: str) -> str | None:
    sd = math.sqrt(trials * p * (1.0 - p))
    dev = abs(successes - trials * p)
    if dev > SD_LIMIT * max(sd, 1e-12):
        return (f"{what}: {successes}/{trials} successes, expected {trials * p:.3f} "
                f"(sd {sd:.3f}, {dev / max(sd, 1e-12):.2f} sd off)")
    return None


def check(workload: str, outputs: list[str], randx) -> list[tuple[int, str]]:
    """Return (step index, message) for every failed output check.

    ``outputs`` holds each step's stdout; steps that did not exit 0 are
    already failed and their outputs are skipped here.
    """
    fails: list[tuple[int, str]] = []

    def load(i):
        return json.loads(outputs[i])

    def guard(i, fn):
        if outputs[i] is None:
            return
        try:
            msg = fn(i)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            msg = f"unreadable output: {exc!r}"
        if msg:
            fails.append((i, msg))

    if workload == "sim-short":
        p = SIM_SHORT
        entry = randx.catalog.chsh()
        ref = randx.protocol.enumerate_success_state(
            entry.game, entry.device, p["n"], q=p["q"], chi=p["chi"], eps=0.1
        ).mass
        guard(0, lambda i: _frequency_check(
            load(i)["successes"], p["trials"], ref, "optimal device vs enumerated mass"))
    elif workload == "sim-long":
        p = SIM_LONG
        thr = p["chi_optimal"] * p["q"] * p["n"]
        ref = binomial_tail(p["n"], p["q"] * CHSH_QUANTUM, _success_rule_count(thr))
        guard(0, lambda i: _frequency_check(
            load(i)["successes"], p["trials"], ref, "optimal device vs Binomial(N, q*w) tail"))

        def classical(i):
            aborts = p["trials"] - load(i)["successes"]
            if aborts < p["trials"] - 1:
                return f"classical device aborted only {aborts}/{p['trials']} trials"
            return None

        guard(1, classical)
    elif workload == "exact":
        def tree_mass(i):
            # every CHSH test win scores 1, so the success mass is a binomial tail
            out = load(i)
            ref = binomial_tail(5, 0.3 * CHSH_QUANTUM, _success_rule_count(0.8 * 0.3 * 5))
            if abs(out["mass"] - ref) > 1e-9:
                return f"enumerated mass {out['mass']!r} != binomial tail {ref!r}"
            return None

        def identity(i):
            e = ENTROPY
            out = load(i)
            entry = randx.catalog.chsh()
            k = randx.protocol.enumerate_success_state(
                entry.game, entry.device, e["n"], q=e["q"], chi=e["chi"], eps=e["eps"]
            ).renyi_randomness
            expected = k - (1.0 + 2.0 * math.log2(1.0 / e["delta"])) / e["eps"]
            if out["hmin_lower"] != expected or out["bits_per_round"] != expected / e["n"]:
                return (f"entropy bound {out['hmin_lower']!r} / {out['bits_per_round']!r} "
                        f"!= K - penalty {expected!r}")
            return None

        def classical_value(i):
            value = load(i)["value"]
            if abs(value - 8.0 / 9.0) > 1e-12:
                return f"magic-square classical value {value!r} != 8/9"
            return None

        def demo(i):
            last = outputs[i].rstrip("\n").rsplit("\n", 1)[-1]
            return None if last == "overall: pass" else f"demo reports {last!r}"

        def report(i):
            out = load(i)
            if abs(out["r_input"]) > 1e-9:
                return f"r_input {out['r_input']!r} at eps {out['eps']} is not 0"
            if out["eps"] <= 0.5 and not out["w_eps"] > 8.0 / 9.0:
                return f"w_eps {out['w_eps']!r} at eps {out['eps']} is not above 8/9"
            return None

        guard(0, tree_mass)
        guard(2, identity)
        guard(4, classical_value)
        guard(5, demo)
        for i in range(6, 6 + len(REPORT_EPS)):
            guard(i, report)
    elif workload == "suites":
        def suite(i):
            out = load(i)
            if out["trials"] != VERIFY_TRIALS or out["violations"] != 0:
                return f"{out['suite']}: {out['violations']} violations in {out['trials']} trials"
            if out["min_margin"] < MARGIN_FLOOR:
                return f"{out['suite']}: min margin {out['min_margin']!r}"
            return None

        def chsh_constrained(i):
            value = load(i)["value"]
            if abs(value - 0.75) > 1e-6:
                return f"constrained CHSH see-saw value {value!r} is not 3/4"
            return None

        def magic_square(i):
            value = load(i)["value"]
            if value > 1.0 + 1e-12:
                return f"magic-square see-saw value {value!r} exceeds 1"
            return None

        for i in range(len(VERIFY_SUITES)):
            guard(i, suite)
        guard(3, chsh_constrained)
        guard(4, magic_square)
    return fails
