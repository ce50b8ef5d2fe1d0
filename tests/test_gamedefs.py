import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randx import catalog, scoring
from randx.gamedefs import (
    GameError,
    check_compatibility,
    game_from_dict,
    game_to_dict,
    load_game,
    nonlocal_game,
    save_game,
    spot_check,
    validate_game,
)
from tests.test_devicemodel import commuting_contextual_device, random_device


def test_catalog_games_valid():
    assert validate_game(catalog.chsh().game).ok
    assert validate_game(catalog.magic_square().game).ok


def test_bad_normalization_flagged():
    g = catalog.chsh().game
    broken = nonlocal_game(
        "broken",
        player_inputs=g.player_inputs,
        player_outputs=g.player_outputs,
        distribution={a: 0.225 for a in g.input_alphabet},
        scores=dict(g.scores),
        distinguished_input=(0, 0),
    )
    rep = validate_game(broken)
    assert any(v.check == "distribution-normalization" for v in rep.violations)


def test_nonlocal_game_incompatible_with_contextual_device():
    rep = check_compatibility(catalog.chsh().game, commuting_contextual_device())
    assert any(v.check == "descriptor" for v in rep.violations)


def test_general_device_with_matching_alphabets_is_compatible():
    # classical mixture devices are block-diagonal general devices
    rep = check_compatibility(
        catalog.magic_square().game, catalog.magic_square().devices["cross-mixture"]
    )
    assert rep.ok


class TestSpotCheck:
    def test_generation_mass(self):
        gq = spot_check(catalog.chsh().game, 0.1)
        assert gq.prob((0, (0, 0))) == pytest.approx(0.9, abs=1e-15)

    def test_test_round_mass(self):
        gq = spot_check(catalog.chsh().game, 0.1)
        for a in gq.base.input_alphabet:
            assert gq.prob((1, a)) == pytest.approx(0.1 * 0.25, abs=1e-15)

    def test_off_distinguished_generation_mass_zero(self):
        gq = spot_check(catalog.chsh().game, 0.1)
        assert gq.prob((0, (1, 1))) == 0.0

    def test_normalization(self):
        for q in (0.01, 0.25, 0.5, 0.9):
            gq = spot_check(catalog.chsh().game, q)
            assert sum(gq.prob(i) for i in gq.input_alphabet) == pytest.approx(1.0, abs=1e-12)

    def test_score_compensation(self):
        gq = spot_check(catalog.chsh().game, 0.25)
        win = ((0, 0), (0, 0))
        assert gq.score((1, win[0]), win[1]) == pytest.approx(4.0, abs=1e-12)
        assert gq.score((0, win[0]), win[1]) == 0.0

    def test_bad_q(self):
        for q in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(GameError, match="q must lie strictly between 0 and 1"):
                spot_check(catalog.chsh().game, q)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.05, 0.3, 0.7]))
    @settings(max_examples=15, deadline=None)
    def test_expected_score_preserved(self, seed, q):
        # the 1/q weight exactly cancels the q round probability
        g = catalog.chsh().game
        d = catalog.chsh().devices["optimal"]
        gq = spot_check(g, q)
        base = scoring.eps_score(g, d, 0.0)
        lifted = scoring.eps_score(gq, d, 0.0)
        assert lifted == pytest.approx(base, abs=1e-9)


def test_game_file_roundtrip(tmp_path):
    g = catalog.chsh().game
    path = tmp_path / "game.json"
    save_game(g, path)
    loaded = load_game(path)
    assert loaded.input_alphabet == g.input_alphabet
    assert loaded.output_alphabet == g.output_alphabet
    assert loaded.distinguished_input == g.distinguished_input
    for a in g.input_alphabet:
        assert loaded.prob(a) == g.prob(a)
        for x in g.output_alphabet:
            assert loaded.score(a, x) == g.score(a, x)
    assert validate_game(loaded).ok


def test_game_dict_rejects_bad_distribution_length():
    data = game_to_dict(catalog.chsh().game)
    data["distribution"] = data["distribution"][:-1]
    with pytest.raises(ValueError):
        game_from_dict(data)


def test_games_compare_and_hash_by_identity_with_read_only_tables():
    g = catalog.chsh_game()
    copy = dataclasses.replace(g)
    assert g == g and hash(g) == hash(g) and {g: 1}[g] == 1
    assert (g == copy) is False
    scores = {k: 0.5 for k in g.scores}
    built = dataclasses.replace(g, scores=scores)
    scores.clear()  # the game holds a copy
    assert built.score(*next(iter(g.scores))) == 0.5
    for table in (g.distribution, g.scores, built.scores):
        with pytest.raises(TypeError):
            table[next(iter(table))] = 0.0
