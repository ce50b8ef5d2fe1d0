import dataclasses
import itertools
import math

import numpy as np
import pytest

from randx import catalog, scoring
from randx.catalog import (
    chsh,
    demo_not_randomness_generating,
    expected_win,
    get_device,
    get_entry,
    get_game,
    magic_square,
    ms_answer_pairs,
)
from randx.classicaloracle import classical_value, known_values
from randx.devicemodel import born_probabilities, validate_device
from randx.gamedefs import GameError
from tests.dense import is_classically_predictable

CHSH_W = 0.5 + math.sqrt(2.0) / 4.0


def assert_game_validates(game):
    """A game checks its rules as it is built: a copy of ``game`` builds, and
    a copy with one score above 1 raises."""
    dataclasses.replace(game)
    cell = next(iter(game.scores))
    with pytest.raises(GameError, match="score-range"):
        dataclasses.replace(game, scores={**game.scores, cell: 1.5})


class TestChshEntry:
    def test_all_devices_validate(self):
        for dev in chsh().devices.values():
            assert validate_device(dev).ok, dev.name

    def test_game_validates(self):
        assert_game_validates(chsh().game)

    def test_expected_values_recomputed(self):
        entry = chsh()
        row = known_values("chsh")
        assert scoring.eps_score(entry.game, entry.devices["optimal"], 0.0) == pytest.approx(
            row.w_quantum, abs=1e-9
        )
        assert classical_value(entry.game).best_value == pytest.approx(row.w_classical, abs=1e-9)
        assert row.noise_tolerance == pytest.approx(0.1035533, abs=1e-6)
        # the predictable cap is witnessed by the deterministic device and by
        # the constrained optimization elsewhere; here check internal agreement
        assert scoring.eps_score(entry.game, entry.devices["classical"], 0.0) == pytest.approx(
            row.w_quantum_abar, abs=1e-12
        )

    def test_classical_device_predictable_on_every_input(self):
        dev = chsh().devices["classical"]
        for a in chsh().game.input_alphabet:
            ok, _ = is_classically_predictable(dev, a)
            assert ok


class TestMagicSquareEntry:
    def test_answer_pair_count(self):
        assert len(ms_answer_pairs()) == 8

    def test_all_devices_validate(self):
        for name, dev in magic_square().devices.items():
            assert validate_device(dev).ok, f"{name}: {validate_device(dev).summary()}"

    def test_game_validates(self):
        assert_game_validates(magic_square().game)

    def test_classical_value_exact(self):
        res = classical_value(magic_square().game)
        assert res.best_value == 8.0 / 9.0

    def test_pair_devices_win_profile(self):
        entry = magic_square()
        game = entry.game
        for x1b, x2b in ms_answer_pairs():
            key = "pair-" + "".join(map(str, x1b)) + "-" + "".join(map(str, x2b))
            dev = entry.devices[key]
            for a in game.input_alphabet:
                w = expected_win(game, dev, a)
                want = 1.0 if (a[0] == 0 or a[1] == 0) else CHSH_W
                assert w == pytest.approx(want, abs=1e-9), (key, a)

    def test_mixture_average(self):
        entry = magic_square()
        avg = scoring.eps_score(entry.game, entry.devices["mixture"], 0.0)
        assert avg == pytest.approx(5 / 9 + (4 / 9) * CHSH_W, abs=1e-9)
        assert avg == pytest.approx(known_values("magic-square").w_quantum, abs=1e-9)

    def test_mixture_beats_classical(self):
        entry = magic_square()
        avg = scoring.eps_score(entry.game, entry.devices["mixture"], 0.0)
        assert avg > 8.0 / 9.0 + 0.04

    def test_cross_mixture_loss_profile(self):
        entry = magic_square()
        dev = entry.devices["cross-mixture"]
        for a in entry.game.input_alphabet:
            loss = 1.0 - expected_win(entry.game, dev, a)
            want = 0.2 if (a[0] == 0 or a[1] == 0) else 0.0
            assert loss == pytest.approx(want, abs=1e-12)

    def test_combined_device_constant_loss(self):
        entry = magic_square()
        dev = entry.devices["combined"]
        beta = 0.5 - math.sqrt(2.0) / 4.0
        want = 0.2 * beta / (0.2 + beta)
        losses = [1.0 - expected_win(entry.game, dev, a) for a in entry.game.input_alphabet]
        assert max(losses) == pytest.approx(want, abs=1e-9)
        assert max(losses) - min(losses) <= 1e-12

    def test_combined_device_superclassical(self):
        entry = magic_square()
        score = scoring.eps_score(entry.game, entry.devices["combined"], 0.0)
        assert score > 8.0 / 9.0

    def test_classical_devices_predictable_everywhere(self):
        entry = magic_square()
        dev = entry.devices["cross-mixture"]
        for a in entry.game.input_alphabet:
            ok, _ = is_classically_predictable(dev, a)
            assert ok

    def test_cross_mixture_output_distribution_uniform_over_winners(self):
        # on a non-designated input the outputs cover each winning pair evenly
        entry = magic_square()
        game = entry.game
        dev = entry.devices["cross-mixture"]
        a = (1, 1)
        probs = born_probabilities(dev, a)
        winners = {x: p for x, p in probs.items() if game.score(a, x) == 1.0 and p > 1e-15}
        assert len(winners) == 8
        assert max(winners.values()) == pytest.approx(min(winners.values()), abs=1e-12)


class TestDemo:
    def test_all_checks_pass(self):
        report = demo_not_randomness_generating()
        for check in report.checks:
            assert check.passed, f"{check.name}: {check.computed} vs {check.expected}"
        assert report.ok

    def test_check_names_cover_three_claims(self):
        names = {c.name for c in demo_not_randomness_generating().checks}
        assert "pair-devices-deterministic-on-(0,0)" in names
        assert "mixture-(0,0)-hmin-given-label" in names
        assert "mixture-win-on-cross" in names


class TestResolution:
    def test_get_entry_and_aliases(self):
        assert get_entry("chsh").name == "chsh"
        assert get_entry("magic-square").name == "magic-square"
        assert get_entry("magic_square").name == "magic-square"

    def test_get_device_with_selector(self):
        assert get_device("chsh:classical").name == "chsh-classical"
        assert get_device("chsh").name == "chsh-optimal"

    def test_unknown_names(self):
        with pytest.raises(KeyError):
            get_game("ghz")
        with pytest.raises(KeyError):
            get_device("chsh:teleporter")
