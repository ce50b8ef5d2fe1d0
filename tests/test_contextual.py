"""End-to-end coverage of the contextual route: game, device, scoring."""

import dataclasses

import numpy as np
import pytest

from randx import scoring
from randx.devicemodel import (
    CONTEXTUAL,
    load_device,
    save_device,
    validate_device,
)
from randx.gamedefs import (
    Game,
    GameError,
    check_compatibility,
    load_game,
    save_game,
)
from tests.test_devicemodel import commuting_contextual_device


def parity_context_game() -> Game:
    """Score 1 when the two-letter context's outcomes agree."""
    contexts = (("A",), ("B",), ("A", "B"))
    outputs = ((0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1))
    scores = {(("A", "B"), (y, y)): 1.0 for y in (0, 1)}
    return Game(
        name="parity-context",
        kind=CONTEXTUAL,
        input_alphabet=contexts,
        output_alphabet=outputs,
        distribution={("A",): 0.25, ("B",): 0.25, ("A", "B"): 0.5},
        scores=scores,
        distinguished_input=("A",),
    )


def test_contextual_game_validates():
    # a game checks its rules as it is built; an output outside the alphabet is refused
    g = parity_context_game()
    with pytest.raises(GameError, match="score-output"):
        dataclasses.replace(g, scores={**g.scores, (("A",), (2,)): 1.0})


def test_contextual_compatibility():
    g = parity_context_game()
    d = commuting_contextual_device()
    assert check_compatibility(g, d).ok


def test_contextual_score_and_randomness():
    g = parity_context_game()
    d = commuting_contextual_device()
    # maximally mixed state, independent commuting bits: agreement prob 1/2
    score = scoring.eps_score(g, d, 0.0)
    assert score == pytest.approx(0.5 * 0.5, abs=1e-12)
    rand = scoring.eps_randomness(("A",), d, 1.0)
    assert rand == pytest.approx(0.0, abs=1e-9)  # diagonal state is undisturbed


def test_contextual_device_file_roundtrip(tmp_path):
    d = commuting_contextual_device()
    path = tmp_path / "ctx_device.json"
    save_device(d, path)
    loaded = load_device(path)
    assert loaded.kind == CONTEXTUAL
    assert loaded.input_alphabet == d.input_alphabet
    assert validate_device(loaded).ok
    for a in d.input_alphabet:
        for x, p in d.measurements[a].items():
            assert np.allclose(loaded.measurements[a][x], p)


def test_contextual_game_file_roundtrip(tmp_path):
    g = parity_context_game()
    path = tmp_path / "ctx_game.json"
    save_game(g, path)
    loaded = load_game(path)
    assert loaded.kind == CONTEXTUAL
    assert loaded.input_alphabet == g.input_alphabet
    assert loaded.output_alphabet == g.output_alphabet
    assert dict(loaded.scores) == dict(g.scores)
