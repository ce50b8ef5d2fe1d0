"""Command-line frontend.

Subcommands: classical-value, seesaw, rate-curve, simulate, enumerate,
entropy-bound, verify, magic-square-demo, validate.

Exit codes: 0 success; 1 usage error, invalid file or any other ValueError,
OSError or KeyError (``error:`` on stderr); 2 computational guard
(``guard:``): enumeration or branch caps, unsupported game sizes or
see-saw dims.

--game and --device take a catalog name or a file.  A file is checked once,
at load: a malformed file is an error naming the path, and a game that breaks
a rule as it is built (``gamedefs.GameError``) or a device that
``validate_device`` rejects is an error naming its violations, except under
validate, which prints the report.

Output is streamed: every subcommand hands its text to one sink, stdout or
the --output file, in pieces as it is made (JSON in chunks of at most 2^14
parts plus one matrix or block of records, CSV in blocks of rows), so no
output is held whole.  A payload the JSON walk cannot write, such as a
matrix with a non-finite entry (a program bug), fails after part of its text
is written: exit 1, with ``error:`` on stderr.

The seed is --seed, else RANDX_SEED, else 0; a non-integer RANDX_SEED is a
usage error wherever --seed applies.  Run seeds lie in [0, 2^128), and trial
k of a multi-trial simulate is keyed by seed + k.  Identical argv and seed
produce byte-identical output apart from the versioned header.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import os
import sys
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from . import __version__, catalog, classicaloracle, convexity, protocol, scoring
from .devicemodel import (
    Device,
    ValidationReport,
    _RECORD_BLOCK,
    _Records,
    json_write,
    load_device,
    save_device,
    validate_device,
)
from .gamedefs import Game, GameError, load_game, save_game

HEADER = f"# randx {__version__}"


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.print_usage(sys.stderr)
        raise UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        # the parser is built once per process, so --seed reads RANDX_SEED
        # here, when its own (sub)command line is parsed
        for action in self._actions:
            if action.dest == "seed":
                action.default = os.environ.get("RANDX_SEED") or "0"
        return super().parse_known_args(args, namespace)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@contextlib.contextmanager
def _emit(path: str | None) -> Iterator[Callable[[str], Any]]:
    """The one sink: the write method of stdout, or of the file ``path``
    opened with ``open(path, "w")``, so /dev/stdout and FIFOs work too."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh.write
    else:
        yield sys.stdout.write


def _emit_json(obj: Any, path: str | None) -> None:
    with _emit(path) as write:
        json_write({"version": __version__, **obj}, 2, write)
        write("\n")


def _emit_csv(header_row: list[str], rows: Iterable[list[str]], path: str | None) -> None:
    """HEADER, the header row and each of ``rows`` on its own line, the rows
    taken and written ``_RECORD_BLOCK`` at a time."""
    rows = iter(rows)
    with _emit(path) as write:
        write(HEADER + "\n" + ",".join(header_row) + "\n")
        while block := list(itertools.islice(rows, _RECORD_BLOCK)):
            write("\n".join(map(",".join, block)) + "\n")


def _resolve(spec: str, from_catalog, load, validate):
    """The catalog object named ``spec``, else the one in the file ``spec``.
    A file's object must pass ``validate`` unless it is None; catalog objects
    are not checked again."""
    try:
        return from_catalog(spec)
    except KeyError as exc:
        if not os.path.exists(spec):
            raise UsageError(f"{exc.args[0]} (not a catalog name or file)") from None
    obj = load(spec)
    if validate is not None and not (report := validate(obj)).ok:
        raise UsageError(f"invalid file {spec!r}: {report.summary()}")
    return obj


def _checked_game(spec: str) -> tuple[Game | None, ValidationReport]:
    """The game ``spec`` names and its report.  A game is checked as it is
    built, so a file's game that breaks a rule is None, with the report its
    GameError carries."""
    try:
        return _resolve(spec, catalog.get_game, load_game, None), ValidationReport()
    except GameError as exc:
        if exc.report is None:
            raise
        return None, exc.report


def _resolve_game(spec: str) -> Game:
    game, report = _checked_game(spec)
    if game is None:
        raise UsageError(f"invalid file {spec!r}: {report.summary()}")
    return game


def _resolve_device(spec: str) -> Device:
    return _resolve(spec, catalog.get_device, load_device, validate_device)


def _letterstr(letter) -> str:
    if isinstance(letter, tuple):
        return "".join(_letterstr(v) for v in letter)
    return str(letter)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_classical_value(args) -> int:
    game = _resolve_game(args.game)
    result = classicaloracle.classical_value(game)
    strategy = [
        {_letterstr(a): _letterstr(x) for a, x in player.items()}
        for player in result.best_strategy
    ]
    _emit_json(
        {
            "game": game.name,
            "value": result.best_value,
            "count": result.count,
            "strategy": strategy,
            "provenance": "exact deterministic enumeration",
        },
        args.output,
    )
    return 0


def _cmd_seesaw(args) -> int:
    game = _resolve_game(args.game)
    try:
        d1, d2 = map(int, args.dims.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --dims {args.dims!r}, expected two integers such as 2,2") from exc
    result = classicaloracle.seesaw(
        game,
        (d1, d2),
        constrain_abar=args.constrain_abar,
        restarts=args.restarts,
        iters=args.iters,
        seed=args.seed,
    )
    if args.dump_device:
        save_device(result.device, args.dump_device)
    _emit_json(
        {
            "game": game.name,
            "value": result.value,
            "iterations": result.iterations,
            "restarts": result.restarts,
            "constrained": result.constrained,
            "provenance": "see-saw lower bound, best found (not a proven supremum)",
            "device": None if args.dump_device else result.device,
        },
        args.output,
    )
    return 0


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, count = spec.split(":")
        return np.linspace(float(start), float(stop), int(count))
    except Exception as exc:
        raise UsageError(f"bad grid {spec!r}, expected start:stop:count") from exc


def _curve_for(args) -> scoring.RateCurve:
    if args.w is not None and args.r is not None:
        return scoring.quadratic_rate_curve(args.w, args.r)
    if args.game:
        kv = classicaloracle.known_values(args.game)
        if kv.w_quantum_abar is None:
            raise UsageError(
                f"no closed-form threshold for {args.game!r}; pass --w and --r explicitly"
            )
        game = _resolve_game(args.game)
        return scoring.quadratic_rate_curve(kv.w_quantum_abar, len(game.output_alphabet))
    raise UsageError("pass --game or both --w and --r")


def _cmd_rate_curve(args) -> int:
    curve = _curve_for(args)
    xs = _parse_grid(args.grid)
    rows = ([_fmt(x), _fmt(curve.evaluate(x)), _fmt(curve.derivative(x))] for x in xs)
    if args.out == "csv":
        _emit_csv(["x", "pi", "pi_prime"], rows, args.output)
    else:
        _emit_json(
            {
                "w": curve.w,
                "r": curve.r,
                "label": curve.label,
                "points": [
                    {"x": float(r[0]), "pi": float(r[1]), "pi_prime": float(r[2])}
                    for r in rows
                ],
            },
            args.output,
        )
    return 0


def _cmd_simulate(args) -> int:
    game = _resolve_game(args.game)
    device = _resolve_device(args.device)
    fresh = not args.memory
    params = protocol.ProtocolParams(n_rounds=args.n, q=args.q, chi=args.chi, seed=args.seed)
    if args.out == "csv" and args.trials == 1:
        transcript = protocol.simulate(game, device, params, fresh_state=fresh)
        rows = (
            [str(i), str(t), _letterstr(a), _letterstr(x), _fmt(s)]
            for i, (t, a, x, s) in enumerate(transcript.rounds())
        )
        _emit_csv(["round", "t", "a", "x", "score"], rows, args.output)
        return 0

    # two flat columns, 9 bytes a run, written a block of records at a time
    c, success = protocol.simulate_outcomes(game, device, params, args.trials, fresh_state=fresh)
    if args.out == "csv":
        rows = (
            [str(k), _fmt(ck), "1" if sk else "0"] for k, (ck, sk) in enumerate(zip(c, success))
        )
        _emit_csv(["trial", "c", "success"], rows, args.output)
    else:
        _emit_json(
            {
                "game": game.name,
                "device": device.name,
                "n": args.n,
                "q": args.q,
                "chi": args.chi,
                "seed": args.seed,
                "trials": args.trials,
                "fresh_state": fresh,
                "threshold": params.threshold,
                "successes": int(success.sum()),
                "runs": _Records(
                    {"c": c, "seed": range(args.seed, args.seed + args.trials), "success": success}
                ),
            },
            args.output,
        )
    return 0


def _cmd_enumerate(args) -> int:
    game = _resolve_game(args.game)
    device = _resolve_device(args.device)
    summary = protocol.enumerate_success_state(
        game,
        device,
        n_rounds=args.n,
        q=args.q,
        chi=args.chi,
        eps=args.eps,
        fresh_state=not args.memory,
        branch_cap=args.branch_cap,
    )
    _emit_json(
        {
            "game": game.name,
            "device": device.name,
            "n": summary.n_rounds,
            "q": summary.q,
            "chi": summary.chi,
            "eps": summary.eps,
            "mass": summary.mass,
            "renyi_randomness": summary.renyi_randomness,
            "renyi_randomness_per_round": summary.renyi_randomness / summary.n_rounds,
            "branches": summary.branches,
        },
        args.output,
    )
    return 0


def _cmd_entropy_bound(args) -> int:
    if args.b is not None:
        curve = _curve_for(args)
        bound = protocol.extractable_bits(
            curve, args.chi, args.q, args.b, args.n, slack_constant=args.slack_constant
        )
        payload = dict(vars(bound))
        # with q ~ log^2(N)/N the input seed cost scales as log^3(N) bits,
        # up to a game-dependent constant; reported for orientation only
        payload["seed_bits_scale_log2n_cubed"] = math.log2(args.n) ** 3
        _emit_json(payload, args.output)
        return 0
    game = _resolve_game(args.game)
    device = _resolve_device(args.device)
    summary = protocol.enumerate_success_state(
        game, device, n_rounds=args.n, q=args.q, chi=args.chi, eps=args.eps,
        fresh_state=not args.memory,
    )
    bound = protocol.entropy_lower_bound(summary, args.delta)
    _emit_json(dict(vars(bound)), args.output)
    return 0


def _cmd_verify(args) -> int:
    result = convexity.run_suite(args.suite, trials=args.trials, seed=args.seed)
    if args.out == "csv":
        rows = (
            [str(r.trial), str(r.dim), _fmt(r.eps), _fmt(r.lhs), _fmt(r.rhs), _fmt(r.margin)]
            for r in result.rows
        )
        _emit_csv(["trial", "dim", "eps", "lhs", "rhs", "margin"], rows, args.output)
    else:
        _emit_json(
            {
                "suite": result.suite,
                "trials": len(result.rows),
                "seed": result.seed,
                "min_margin": result.min_margin,
                "violations": result.violations,
            },
            args.output,
        )
    return 0 if result.violations == 0 else 1


def _cmd_magic_square_demo(args) -> int:
    report = catalog.demo_not_randomness_generating()
    if args.out == "json":
        _emit_json(
            {
                "checks": [
                    {
                        "name": c.name,
                        "computed": c.computed,
                        "expected": c.expected,
                        "tolerance": c.tolerance,
                        "pass": c.passed,
                    }
                    for c in report.checks
                ],
                "ok": report.ok,
            },
            args.output,
        )
    else:
        with _emit(args.output) as write:
            write(HEADER + "\nmagic square: superclassical but not randomness generating\n")
            for c in report.checks:
                write(f"  {c.name}: computed {_fmt(c.computed)} expected {_fmt(c.expected)} "
                      f"[{'pass' if c.passed else 'FAIL'}]\n")
            write(f"overall: {'pass' if report.ok else 'FAIL'}\n")
    return 0 if report.ok else 1


def _cmd_validate(args) -> int:
    reports = {}
    if args.game:
        game, reports["game"] = _checked_game(args.game)
        if args.dump and game is not None:
            save_game(game, args.dump)
    if args.device:
        device = _resolve(args.device, catalog.get_device, load_device, None)
        reports["device"] = validate_device(device)
        if args.dump and not args.game:
            save_device(device, args.dump)
    if not reports:
        raise UsageError("pass --game and/or --device")
    _emit_json(
        {
            kind: {
                "ok": rep.ok,
                "violations": [
                    {"check": v.check, "deviation": v.deviation, "detail": v.detail}
                    for v in rep.violations
                ],
            }
            for kind, rep in reports.items()
        },
        args.output,
    )
    return 0 if all(rep.ok for rep in reports.values()) else 1


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process (``main`` parses with it)."""
    parser = _Parser(prog="randx", description=__doc__)
    parser.add_argument("--version", action="version", version=f"randx {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--output", help="write to a file instead of stdout")
        if seed:
            p.add_argument("--seed", type=int, help="base seed (env RANDX_SEED)")

    p = sub.add_parser("classical-value", help="exact classical game value by enumeration")
    p.add_argument("--game", required=True)
    common(p, seed=False)
    p.set_defaults(fn=_cmd_classical_value)

    p = sub.add_parser("seesaw", help="see-saw lower bound on the (restricted) quantum value")
    p.add_argument("--game", required=True)
    p.add_argument("--dims", default="2,2", help="per-player dims, e.g. 2,2")
    p.add_argument("--constrain-abar", action="store_true",
                   help="restrict to devices deterministic on the distinguished input")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--dump-device", help="write the witnessing device to a file")
    common(p)
    p.set_defaults(fn=_cmd_seesaw)

    p = sub.add_parser("rate-curve", help="emit a rate curve over a grid")
    p.add_argument("--game")
    p.add_argument("--w", type=float, help="threshold (overrides --game)")
    p.add_argument("--r", type=int, help="output alphabet size (overrides --game)")
    p.add_argument("--grid", required=True, help="start:stop:count")
    p.add_argument("--out", choices=("json", "csv"), default="csv")
    common(p, seed=False)
    p.set_defaults(fn=_cmd_rate_curve)

    p = sub.add_parser("simulate", help="run the spot-checking protocol")
    p.add_argument("--game", default="chsh")
    p.add_argument("--device", default="chsh:optimal")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--chi", type=float, required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--memory", action="store_true",
                   help="strict in-place memory semantics instead of fresh per-round state")
    p.add_argument("--out", choices=("json", "csv"), default="json")
    common(p)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("enumerate", help="exact success-state enumeration")
    p.add_argument("--game", default="chsh")
    p.add_argument("--device", default="chsh:optimal")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--chi", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--branch-cap", type=int, default=protocol.BRANCH_CAP)
    p.add_argument("--memory", action="store_true")
    common(p, seed=False)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("entropy-bound", help="min-entropy / extractable-bits bounds")
    p.add_argument("--game", default="chsh")
    p.add_argument("--device", default="chsh:optimal")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--chi", type=float, required=True)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.125)
    p.add_argument("--b", type=float,
                   help="soundness exponent; switches to the rate-curve pipeline")
    p.add_argument("--w", type=float)
    p.add_argument("--r", type=int)
    p.add_argument("--slack-constant", type=float)
    p.add_argument("--memory", action="store_true")
    common(p, seed=False)
    p.set_defaults(fn=_cmd_entropy_bound)

    p = sub.add_parser("verify", help="randomized norm-inequality suites")
    p.add_argument("--suite", required=True, choices=convexity.SUITES)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--out", choices=("json", "csv"), default="json")
    common(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("magic-square-demo", help="verify the magic-square constructions")
    p.add_argument("--out", choices=("text", "json"), default="text")
    common(p, seed=False)
    p.set_defaults(fn=_cmd_magic_square_demo)

    p = sub.add_parser("validate", help="validate game/device files or catalog entries")
    p.add_argument("--game")
    p.add_argument("--device")
    p.add_argument("--dump", help="also write the resolved object to a file")
    common(p, seed=False)
    p.set_defaults(fn=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except protocol.GuardError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
