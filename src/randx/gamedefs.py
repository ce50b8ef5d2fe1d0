"""Game definitions and their file format.

A game is an input alphabet with a distribution and a distinguished input, an
output alphabet, and a scoring table with values in [0, 1] (or [0, inf) when
the unbounded flag is set).  Nonlocal games carry a per-player product
structure; contextual games use sequences of base letters as their letters.

A game is valid by construction: however it is built (``Game``,
``nonlocal_game``, ``dataclasses.replace`` or a game file), tables that break
a rule raise ``GameError`` carrying the ``ValidationReport`` of every violated
check.  Negative, NaN and infinite scores and NaN or infinite probabilities
are refused.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Mapping, Sequence

from .devicemodel import (
    CONTEXTUAL,
    Device,
    Letter,
    ValidationReport,
    _letter_from_json,
    _load,
    json_write,
)

NONLOCAL = "nonlocal"
GAME_KINDS = (NONLOCAL, CONTEXTUAL)

PROB_TOL = 1e-12


class GameError(ValueError):
    """A game error.  A game that breaks a rule carries its ``report``, the
    ValidationReport of every violated check; other game errors carry None."""

    def __init__(self, message: str, report: ValidationReport | None = None):
        super().__init__(message)
        self.report = report


# eq=False: a game compares and hashes by identity, as a device does
@dataclass(frozen=True, eq=False)
class Game:
    """A single-round game with a distinguished input letter.  Building one
    copies its tables read-only and checks every rule in the same pass."""

    name: str
    kind: str  # "nonlocal" or "contextual"
    input_alphabet: tuple[Letter, ...]
    output_alphabet: tuple[Letter, ...]
    distribution: Mapping[Letter, float]
    scores: Mapping[tuple[Letter, Letter], float]
    distinguished_input: Letter
    unbounded: bool = False
    # nonlocal structure: per-player alphabets
    player_inputs: tuple[tuple[Letter, ...], ...] | None = None
    player_outputs: tuple[tuple[Letter, ...], ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "distribution", MappingProxyType(dict(self.distribution)))
        object.__setattr__(self, "scores", MappingProxyType(dict(self.scores)))
        report = ValidationReport()
        total = sum(self.prob(a) for a in self.input_alphabet)
        if abs(total - 1.0) > PROB_TOL:
            report.add("distribution-normalization", abs(total - 1.0))
        for a in self.input_alphabet:
            if self.prob(a) < 0:
                report.add("distribution-negative", -self.prob(a), f"input {a!r}")
            elif not math.isfinite(self.prob(a)):
                report.add("distribution-finite", self.prob(a), f"input {a!r}")
        for (a, x), h in self.scores.items():
            if a not in self.input_alphabet:
                report.add("score-input", 1.0, f"unknown input {a!r}")
            if x not in self.output_alphabet:
                report.add("score-output", 1.0, f"unknown output {x!r}")
            if not (0.0 <= h < math.inf and (self.unbounded or h <= 1.0)):
                report.add("score-range", float(h), f"H({a!r}, {x!r})")
        if self.distinguished_input not in self.input_alphabet:
            report.add("distinguished-input", 1.0, f"{self.distinguished_input!r} not in alphabet")
        if self.kind == NONLOCAL:
            for side, players, alphabet in (
                ("inputs", self.player_inputs, self.input_alphabet),
                ("outputs", self.player_outputs, self.output_alphabet),
            ):
                # the players' letters must combine into exactly the joint alphabet
                if players is not None:
                    stray = set(itertools.product(*players)) ^ set(alphabet)
                    if stray:
                        report.add("player-structure", len(stray), f"player {side}")
        if self.kind not in GAME_KINDS:
            report.add("kind", 1.0, f"unknown kind {self.kind!r}")
        if not report.ok:
            raise GameError(report.summary(), report)

    def prob(self, a: Letter) -> float:
        return float(self.distribution.get(a, 0.0))

    def score(self, a: Letter, x: Letter) -> float:
        return float(self.scores.get((a, x), 0.0))


def nonlocal_game(
    name: str,
    player_inputs: Sequence[Sequence[Letter]],
    player_outputs: Sequence[Sequence[Letter]],
    distribution: Mapping[Letter, float],
    scores: Mapping[tuple[Letter, Letter], float],
    distinguished_input: Letter,
) -> Game:
    """Assemble a bounded nonlocal game; joint letters are tuples of per-player letters."""
    return Game(
        name=name,
        kind=NONLOCAL,
        input_alphabet=tuple(itertools.product(*player_inputs)),
        output_alphabet=tuple(itertools.product(*player_outputs)),
        distribution=distribution,
        scores=scores,
        distinguished_input=distinguished_input,
        player_inputs=tuple(tuple(p) for p in player_inputs),
        player_outputs=tuple(tuple(p) for p in player_outputs),
    )


def check_compatibility(g: Game, d: Device) -> ValidationReport:
    """Device/game compatibility: matching descriptors and alphabets.

    Contextual games require contextual devices and vice versa; nonlocal
    games accept component devices as well as general devices whose joint
    letters match.
    """
    report = ValidationReport()
    if g.kind == CONTEXTUAL and d.kind != CONTEXTUAL:
        report.add("descriptor", 1.0, f"contextual game with {d.kind} device")
    if g.kind == NONLOCAL and d.kind == CONTEXTUAL:
        report.add("descriptor", 1.0, "nonlocal game with contextual device")
    if set(g.input_alphabet) != set(d.input_alphabet):
        report.add("input-alphabet", 1.0, "game and device input alphabets differ")
    if set(g.output_alphabet) != set(d.output_alphabet):
        report.add("output-alphabet", 1.0, "game and device output alphabets differ")
    return report


def require_compatible(g: Game, d: Device) -> None:
    report = check_compatibility(g, d)
    if not report.ok:
        raise GameError(report.summary())


# ---------------------------------------------------------------------------
# file format


def game_to_dict(g: Game) -> dict:
    data: dict[str, Any] = {
        "name": g.name,
        "kind": g.kind,
        "input_alphabet": list(g.input_alphabet),
        "output_alphabet": list(g.output_alphabet),
        "distribution": [g.prob(a) for a in g.input_alphabet],
        "scoring": [
            {"input": a, "output": x, "score": float(h)}
            for (a, x), h in g.scores.items()
            if h != 0.0
        ],
        "distinguished_input": g.distinguished_input,
        "unbounded": g.unbounded,
    }
    if g.player_inputs is not None:
        data["players"] = [
            {
                "inputs": list(g.player_inputs[i]),
                "outputs": list(g.player_outputs[i]),
            }
            for i in range(len(g.player_inputs))
        ]
    return data


def game_from_dict(data: Mapping) -> Game:
    """The game a game file's dict describes.  Keys of other formats, such
    as ``base_inputs`` and ``base_outputs``, are ignored."""
    inputs = tuple(_letter_from_json(a) for a in data["input_alphabet"])
    outputs = tuple(_letter_from_json(x) for x in data["output_alphabet"])
    dist_list = data["distribution"]
    if len(dist_list) != len(inputs):
        raise GameError("distribution length does not match the input alphabet")
    distribution = {a: float(p) for a, p in zip(inputs, dist_list)}
    scores = {
        (_letter_from_json(s["input"]), _letter_from_json(s["output"])): float(s["score"])
        for s in data.get("scoring", [])
    }
    player_inputs = player_outputs = None
    if "players" in data:
        player_inputs = tuple(
            tuple(_letter_from_json(a) for a in p["inputs"]) for p in data["players"]
        )
        player_outputs = tuple(
            tuple(_letter_from_json(x) for x in p["outputs"]) for p in data["players"]
        )
    return Game(
        name=data.get("name", ""),
        kind=data["kind"],
        input_alphabet=inputs,
        output_alphabet=outputs,
        distribution=distribution,
        scores=scores,
        distinguished_input=_letter_from_json(data["distinguished_input"]),
        unbounded=bool(data.get("unbounded", False)),
        player_inputs=player_inputs,
        player_outputs=player_outputs,
    )


def save_game(g: Game, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json_write(game_to_dict(g), 1, fh.write)
        fh.write("\n")


def load_game(path) -> Game:
    """The game in the file at ``path``: a file that is not well formed raises
    GameError naming the path, and a game that breaks a rule raises the
    GameError that carries its report."""
    return _load(path, game_from_dict, GameError)
