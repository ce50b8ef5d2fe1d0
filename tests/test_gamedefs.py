import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from randx import catalog, protocol, scoring
from randx.gamedefs import (
    NONLOCAL,
    Game,
    GameError,
    check_compatibility,
    game_from_dict,
    game_to_dict,
    load_game,
    nonlocal_game,
    save_game,
)
from tests.test_devicemodel import commuting_contextual_device


def test_catalog_games_valid():
    # a game checks its rules as it is built, so copies of the catalog games build
    for g in (catalog.chsh().game, catalog.magic_square().game):
        assert dataclasses.replace(g).distribution == g.distribution


def test_bad_normalization_flagged():
    g = catalog.chsh().game
    with pytest.raises(GameError) as info:
        nonlocal_game(
            "broken",
            player_inputs=g.player_inputs,
            player_outputs=g.player_outputs,
            distribution={a: 0.225 for a in g.input_alphabet},
            scores=dict(g.scores),
            distinguished_input=(0, 0),
        )
    assert any(v.check == "distribution-normalization" for v in info.value.report.violations)


def build_chsh(route, distribution, scores, abar):
    """A CHSH game with the given tables, built through ``route``."""
    g = catalog.chsh_game()
    if route == "Game":
        return Game(
            name="x", kind=NONLOCAL, input_alphabet=g.input_alphabet,
            output_alphabet=g.output_alphabet, distribution=distribution, scores=scores,
            distinguished_input=abar, player_inputs=g.player_inputs,
            player_outputs=g.player_outputs,
        )
    if route == "nonlocal_game":
        return nonlocal_game("x", g.player_inputs, g.player_outputs, distribution, scores, abar)
    if route == "replace":
        return dataclasses.replace(
            g, distribution=distribution, scores=scores, distinguished_input=abar
        )
    data = game_to_dict(g)  # game_from_dict: the dict a file with these tables holds
    data["distribution"] = [distribution.get(a, 0.0) for a in g.input_alphabet]
    data["scoring"] = [{"input": a, "output": x, "score": h} for (a, x), h in scores.items()]
    data["distinguished_input"] = abar
    return game_from_dict(data)


WIN = ((0, 0), (0, 0))  # a winning CHSH cell
# each broken table -> the check it violates; each entry edits CHSH's
# (distribution, scores, distinguished input)
BROKEN_TABLES = {
    "nan-score": (lambda p, h, abar: (p, {**h, WIN: math.nan}, abar), "score-range"),
    "infinite-score": (lambda p, h, abar: (p, {**h, WIN: math.inf}, abar), "score-range"),
    "negative-score": (lambda p, h, abar: (p, {**h, WIN: -0.5}, abar), "score-range"),
    "score-above-one": (lambda p, h, abar: (p, {**h, WIN: 1.5}, abar), "score-range"),
    "nan-probability": (lambda p, h, abar: ({**p, (0, 0): math.nan}, h, abar),
                        "distribution-finite"),
    "bad-total": (lambda p, h, abar: ({a: 0.3 for a in p}, h, abar),
                  "distribution-normalization"),
    "unknown-letter": (lambda p, h, abar: (p, {**h, ((2, 2), (0, 0)): 1.0}, abar), "score-input"),
    "bad-distinguished-input": (lambda p, h, abar: (p, h, (5, 5)), "distinguished-input"),
}


@pytest.mark.parametrize("route", ["Game", "nonlocal_game", "replace", "game_from_dict"])
@pytest.mark.parametrize("case", sorted(BROKEN_TABLES))
def test_every_route_refuses_a_broken_table(case, route):
    edit, check = BROKEN_TABLES[case]
    g = catalog.chsh_game()
    tables = dict(g.distribution), dict(g.scores), g.distinguished_input
    build_chsh(route, *tables)  # the unedited tables build
    with pytest.raises(GameError) as info:
        build_chsh(route, *edit(*tables))
    assert check in {v.check for v in info.value.report.violations}
    assert str(info.value) == info.value.report.summary()


@pytest.mark.parametrize("players", ["player_inputs", "player_outputs"])
@pytest.mark.parametrize("letters", [((0, 1, 2), (0, 1)), ((0, 1), (1, 2))],
                         ids=["extra-letter", "same-size-other-letters"])
def test_player_alphabets_must_combine_into_the_joint_alphabet(players, letters):
    # CHSH's joint alphabets are {0, 1}^2; both edits name a letter outside them
    with pytest.raises(GameError) as info:
        dataclasses.replace(catalog.chsh_game(), **{players: letters})
    assert [v.check for v in info.value.report.violations] == ["player-structure"]


def test_nonlocal_game_incompatible_with_contextual_device():
    rep = check_compatibility(catalog.chsh().game, commuting_contextual_device())
    assert any(v.check == "descriptor" for v in rep.violations)


def test_general_device_with_matching_alphabets_is_compatible():
    # classical mixture devices are block-diagonal general devices
    rep = check_compatibility(
        catalog.magic_square().game, catalog.magic_square().devices["cross-mixture"]
    )
    assert rep.ok


def spot_check_rows(q, g=None):
    """The rows (p_i, input index, test round) of G_q that the protocol runs."""
    g = g or catalog.chsh().game
    plan = protocol._round_plan(g, catalog.chsh().devices["optimal"])
    return list(protocol._supported_inputs(plan, q))


class TestSpotCheck:
    """G_q as the protocol's input weights (``protocol._supported_inputs``)."""

    def test_generation_mass(self):
        assert spot_check_rows(0.1)[0] == (1.0 - 0.1, 0, False)

    def test_test_round_mass(self):
        assert spot_check_rows(0.1)[1:] == [(0.1 * 0.25, i, True) for i in range(4)]

    def test_off_distinguished_generation_mass_zero(self):
        # the distinguished input is the only generation row
        assert [row for row in spot_check_rows(0.1) if not row[2]] == [(0.9, 0, False)]

    def test_normalization(self):
        for q in (0.01, 0.25, 0.5, 0.9):
            assert math.fsum(p for p, _, _ in spot_check_rows(q)) == pytest.approx(1.0, abs=1e-12)

    def test_score_compensation(self):
        # the 1/q weight: each test row's weight over q is the game's own weight
        g = catalog.chsh().game
        own = [(g.prob(a), i, True) for i, a in enumerate(g.input_alphabet) if g.prob(a) > 0.0]
        lifted = [(p / 0.25, i, test) for p, i, test in spot_check_rows(0.25)[1:]]
        assert lifted == own

    def test_row_order(self):
        # generation first, on abar wherever it sits; then the test rows in
        # input order, an input of zero weight left out
        g = catalog.chsh().game
        g = dataclasses.replace(
            g, distinguished_input=(1, 1),
            distribution={(0, 0): 0.5, (0, 1): 0.0, (1, 0): 0.25, (1, 1): 0.25},
        )
        assert spot_check_rows(0.5, g) == [(0.5, 3, False), (0.25, 0, True), (0.125, 2, True),
                                           (0.125, 3, True)]

    def test_bad_q(self):
        # the rows exist for q in (0, 1) only; the entry points refuse any other q
        g, d = catalog.chsh().game, catalog.chsh().devices["optimal"]
        for q in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(protocol.ProtocolError, match="q must lie in"):
                protocol.enumerate_success_state(g, d, 1, q=q, chi=0.5, eps=0.1)
            with pytest.raises(protocol.ProtocolError, match="q must lie in"):
                protocol.ProtocolParams(10, q, 0.5)

    @given(st.sampled_from([0.05, 0.3, 1 / 3, 0.7]), st.sampled_from(["optimal", "classical"]))
    @settings(max_examples=8, deadline=None)
    def test_expected_score_preserved(self, q, device):
        # the 1/q weight exactly cancels the q round probability: scored with
        # H / q on its test rows, G_q has the game's expected score
        g, d = catalog.chsh().game, catalog.chsh().devices[device]
        plan = protocol._round_plan(g, d)
        lifted = sum(
            p / q * float(plan.born[i] @ plan.scores[i])
            for p, i, test in protocol._supported_inputs(plan, q) if test
        )
        assert lifted == pytest.approx(scoring.eps_score(g, d, 0.0), abs=1e-9)


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
