"""Game definitions and the spot-checking transform.

A game is an input alphabet with a distribution and a distinguished input, an
output alphabet, and a scoring table with values in [0, 1] (or [0, inf) when
the unbounded flag is set).  Nonlocal games carry a per-player product
structure; contextual games use sequences over base alphabets.

The spot-checking transform G -> G_q produces the unbounded game whose input
alphabet is {0,1} x A:

    p_q((1, a)) = q * p(a)          H_q((1, a), x) = H(a, x) / q
    p_q((0, abar)) = 1 - q          H_q((0, a), x) = 0
    p_q((0, a)) = 0   for a != abar

The 1/q weight compensates for game rounds occurring only with frequency q,
so the expected H_q score of any device against G_q equals its expected H
score against G.
"""

from __future__ import annotations

import itertools
import json
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
    _letter_to_json,
    _load,
)

NONLOCAL = "nonlocal"
GAME_KINDS = (NONLOCAL, CONTEXTUAL)

PROB_TOL = 1e-12


class GameError(ValueError):
    pass


# eq=False: a game compares and hashes by identity, as a device does
@dataclass(frozen=True, eq=False)
class Game:
    """A single-round game with a distinguished input letter."""

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
    # contextual structure: base alphabets
    base_inputs: tuple[Letter, ...] | None = None
    base_outputs: tuple[Letter, ...] | None = None

    def __post_init__(self) -> None:
        # however a game is built, its tables are read-only copies
        object.__setattr__(self, "distribution", MappingProxyType(dict(self.distribution)))
        object.__setattr__(self, "scores", MappingProxyType(dict(self.scores)))

    def prob(self, a: Letter) -> float:
        return float(self.distribution.get(a, 0.0))

    def score(self, a: Letter, x: Letter) -> float:
        return float(self.scores.get((a, x), 0.0))


@dataclass(frozen=True)
class SpotCheckGame:
    """The game G_q: inputs are (t, a) with t = 1 on test rounds."""

    base: Game
    q: float

    @property
    def name(self) -> str:
        return f"{self.base.name}_q={self.q}"

    @property
    def input_alphabet(self) -> tuple[Letter, ...]:
        abar = self.base.distinguished_input
        letters = [(0, abar)]
        letters.extend((1, a) for a in self.base.input_alphabet)
        letters.extend((0, a) for a in self.base.input_alphabet if a != abar)
        return tuple(letters)

    @property
    def output_alphabet(self) -> tuple[Letter, ...]:
        return self.base.output_alphabet

    @property
    def distinguished_input(self) -> Letter:
        return (0, self.base.distinguished_input)

    @property
    def unbounded(self) -> bool:
        return True

    def prob(self, i: Letter) -> float:
        t, a = i
        if t == 1:
            return self.q * self.base.prob(a)
        return (1.0 - self.q) if a == self.base.distinguished_input else 0.0

    def score(self, i: Letter, x: Letter) -> float:
        t, a = i
        if t == 1:
            return self.base.score(a, x) / self.q
        return 0.0


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


def validate_game(g: Game) -> ValidationReport:
    """Check normalization, score ranges, and alphabet structure.  A NaN or
    infinite probability or score is a violation."""
    report = ValidationReport()
    total = sum(g.prob(a) for a in g.input_alphabet)
    if abs(total - 1.0) > PROB_TOL:
        report.add("distribution-normalization", abs(total - 1.0))
    for a in g.input_alphabet:
        if g.prob(a) < 0:
            report.add("distribution-negative", -g.prob(a), f"input {a!r}")
        elif not math.isfinite(g.prob(a)):
            report.add("distribution-finite", g.prob(a), f"input {a!r}")
    for (a, x), h in g.scores.items():
        if a not in g.input_alphabet:
            report.add("score-input", 1.0, f"unknown input {a!r}")
        if x not in g.output_alphabet:
            report.add("score-output", 1.0, f"unknown output {x!r}")
        if not (0.0 <= h < math.inf and (g.unbounded or h <= 1.0)):
            report.add("score-range", float(h), f"H({a!r}, {x!r})")
    if g.distinguished_input not in g.input_alphabet:
        report.add("distinguished-input", 1.0, f"{g.distinguished_input!r} not in alphabet")
    if g.kind == NONLOCAL and g.player_inputs is not None:
        expected = 1
        for p in g.player_inputs:
            expected *= len(p)
        if expected != len(g.input_alphabet):
            report.add("player-structure", abs(expected - len(g.input_alphabet)))
    if g.kind not in GAME_KINDS:
        report.add("kind", 1.0, f"unknown kind {g.kind!r}")
    return report


def check_compatibility(g: Game, d: Device) -> ValidationReport:
    """Device/game compatibility: matching descriptors and alphabets.

    Contextual games require contextual (or abstract) devices and vice versa;
    nonlocal games accept component devices as well as general and abstract
    devices whose joint letters match.
    """
    report = ValidationReport()
    if g.kind == CONTEXTUAL and d.kind not in (CONTEXTUAL, "abstract"):
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


def spot_check(g: Game, q: float) -> SpotCheckGame:
    """The spot-checking transform G -> G_q."""
    if not 0.0 < q < 1.0:
        raise GameError(f"q must lie strictly between 0 and 1, got {q}")
    return SpotCheckGame(base=g, q=float(q))


# ---------------------------------------------------------------------------
# file format


def game_to_dict(g: Game) -> dict:
    data: dict[str, Any] = {
        "name": g.name,
        "kind": g.kind,
        "input_alphabet": [_letter_to_json(a) for a in g.input_alphabet],
        "output_alphabet": [_letter_to_json(x) for x in g.output_alphabet],
        "distribution": [g.prob(a) for a in g.input_alphabet],
        "scoring": [
            {"input": _letter_to_json(a), "output": _letter_to_json(x), "score": float(h)}
            for (a, x), h in g.scores.items()
            if h != 0.0
        ],
        "distinguished_input": _letter_to_json(g.distinguished_input),
        "unbounded": g.unbounded,
    }
    if g.player_inputs is not None:
        data["players"] = [
            {
                "inputs": [_letter_to_json(a) for a in g.player_inputs[i]],
                "outputs": [_letter_to_json(x) for x in g.player_outputs[i]],
            }
            for i in range(len(g.player_inputs))
        ]
    if g.base_inputs is not None:
        data["base_inputs"] = [_letter_to_json(b) for b in g.base_inputs]
        data["base_outputs"] = [_letter_to_json(y) for y in (g.base_outputs or ())]
    return data


def game_from_dict(data: Mapping) -> Game:
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
    base_inputs = base_outputs = None
    if "base_inputs" in data:
        base_inputs = tuple(_letter_from_json(b) for b in data["base_inputs"])
        base_outputs = tuple(_letter_from_json(y) for y in data.get("base_outputs", []))
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
        base_inputs=base_inputs,
        base_outputs=base_outputs,
    )


def save_game(g: Game, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(game_to_dict(g), fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_game(path) -> Game:
    return _load(path, game_from_dict, GameError)
